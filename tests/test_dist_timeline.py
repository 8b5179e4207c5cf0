"""Span-label plumbing: breakdown splitting and cycle conversion."""

import pytest

from repro.bgq import CycleModel
from repro.harness.breakdown import cycles_breakdown
from repro.obs.attrib import COLL, COMPUTE, P2P, RankBreakdown, label, split_breakdown


def test_label_composition():
    assert label(COMPUTE, "gradient_loss") == "compute.gradient_loss"
    assert label(COLL, "sync_weights") == "coll.sync_weights"
    assert label(P2P, "load_data") == "p2p.load_data"
    with pytest.raises(ValueError):
        label("io", "x")


def test_split_breakdown_partitions_by_kind():
    totals = {
        "compute.gradient_loss": 5.0,
        "compute.heldout_loss": 1.0,
        "coll.sync_weights": 2.0,
        "p2p.load_data": 0.5,
        "mpi_send": 99.0,  # unstructured spans are ignored
    }
    b = split_breakdown(totals)
    assert b.compute == {"gradient_loss": 5.0, "heldout_loss": 1.0}
    assert b.collective == {"sync_weights": 2.0}
    assert b.p2p == {"load_data": 0.5}
    assert b.total_compute == 6.0
    assert b.total_mpi == 2.5
    assert b.total == 8.5


def test_split_breakdown_accumulates_duplicate_functions():
    b = split_breakdown({"coll.sync_weights": 1.0})
    b2 = split_breakdown(
        {"coll.sync_weights": 1.0, "coll.sync_weights_extra": 0.0}
    )
    assert b.collective["sync_weights"] == 1.0
    assert "sync_weights_extra" in b2.collective


def test_cycles_breakdown_classifies():
    b = RankBreakdown(
        compute={"gradient_loss": 2.0, "cg_minimize": 1.0, "unknown_fn": 1.0},
        collective={"sync_weights": 3.0},
        p2p={"load_data": 0.5},
    )
    out = cycles_breakdown(b, threads_per_core=4, model=CycleModel())
    # compute functions keyed directly; MPI prefixed
    assert "gradient_loss" in out
    assert "mpi:sync_weights" in out
    assert "mpi:load_data" in out
    # gemm class: committed-dominant; mpi class: iu-empty-dominant
    g = out["gradient_loss"]
    assert g.committed > g.iu_empty
    m = out["mpi:sync_weights"]
    assert m.iu_empty > m.committed
    # unknown compute labels default to the control class
    u = out["unknown_fn"]
    assert u.total == pytest.approx(1.0 * 1.6e9, rel=1e-6)


def test_cycles_breakdown_merges_coll_and_p2p_same_function():
    b = RankBreakdown(collective={"load_data": 1.0}, p2p={"load_data": 2.0})
    out = cycles_breakdown(b, threads_per_core=2)
    assert out["mpi:load_data"].total == pytest.approx(3.0 * 1.6e9, rel=1e-6)


def test_total_conservation_through_pipeline():
    """Seconds in == cycles out / frequency, per function."""
    spans = {
        "compute.gradient_loss": 4.0,
        "compute.worker_curvature_product": 2.0,
        "coll.cg_reduce": 1.5,
    }
    b = split_breakdown(spans)
    out = cycles_breakdown(b, threads_per_core=4)
    total_cycles = sum(c.total for c in out.values())
    assert total_cycles == pytest.approx(sum(spans.values()) * 1.6e9, rel=1e-9)
