"""Communication observability: per-pair matrices and outstanding HWMs.

The scripted runs here have hand-computable traffic, so every assertion
is an exact integer: a burst protocol whose per-pair outstanding
high-water mark *must* equal the burst depth, and an ack-paced ping-pong
whose HWM *must* stay at one message.
"""

import json
import sys

import pytest

from repro.bgq.network import TorusNetworkModel
from repro.obs import MESSAGE_SIZE_BOUNDS, CommStats, MetricsRegistry
from repro.vmpi import PayloadStub, VComm, ZeroCostNetwork

SIZE = 8
BURST_BYTES = (100, 200, 300, 400, 500)


def _burst_program(ctx):
    """Rank 0 bursts five sends at rank 1 before rank 1 may receive.

    The release token routes through rank 2 (0 -> 2 -> 1), so the
    five payloads are all in flight/in-box when rank 1's first receive
    fires: outstanding(0, 1) peaks at exactly ``len(BURST_BYTES)``.
    """
    if ctx.rank == 0:
        for n in BURST_BYTES:
            yield from ctx.send(1, PayloadStub(n), tag=0)
        yield from ctx.send(2, PayloadStub(8), tag=1)
    elif ctx.rank == 2:
        yield from ctx.recv(source=0, tag=1)
        yield from ctx.send(1, PayloadStub(8), tag=2)
    elif ctx.rank == 1:
        yield from ctx.recv(source=2, tag=2)
        for _ in BURST_BYTES:
            yield from ctx.recv(source=0, tag=0)
    return None


def _pingpong_program(ctx):
    """Ack-paced ping-pong: each side waits for the reply, so neither
    pair ever has more than one message outstanding."""
    if ctx.rank == 0:
        for i in range(4):
            yield from ctx.send(1, PayloadStub(64), tag=i)
            yield from ctx.recv(source=1, tag=i)
    elif ctx.rank == 1:
        for i in range(4):
            yield from ctx.recv(source=0, tag=i)
            yield from ctx.send(0, PayloadStub(64), tag=i)
    return None


def _run(program):
    reg = MetricsRegistry()
    comm = VComm(SIZE, network=ZeroCostNetwork(), obs=reg)
    comm.run(program)
    return reg, comm.comm_stats


class TestScriptedSchedules:
    def test_burst_pair_counts_and_hwm(self):
        reg, stats = _run(_burst_program)
        assert stats.outstanding(0, 1) == 0  # everything consumed
        assert stats.pair_report() == [
            {"src": 0, "dst": 1, "messages": 5, "bytes": 1500,
             "outstanding_hwm": 5},
            {"src": 0, "dst": 2, "messages": 1, "bytes": 8,
             "outstanding_hwm": 1},
            {"src": 2, "dst": 1, "messages": 1, "bytes": 8,
             "outstanding_hwm": 1},
        ]
        assert stats.totals() == {
            "messages": 7, "bytes": 1516, "pairs": 3, "outstanding_hwm_max": 5,
        }

    def test_hwm_report_ranks_backlog_hot_spots(self):
        _, stats = _run(_burst_program)
        assert stats.hwm_report() == [
            ((0, 1), 5), ((0, 2), 1), ((2, 1), 1)  # ties by pair id
        ]
        assert stats.hwm_report(top=1) == [((0, 1), 5)]

    def test_burst_size_histogram(self):
        _, stats = _run(_burst_program)
        stats.totals()  # reports fold the log; the raw hist is lazy too
        h = stats.size_hist
        assert h.bounds == list(MESSAGE_SIZE_BOUNDS)
        # 8-byte tokens <= 64; the 100..500 burst lands in (64, 512]
        assert h.counts[0] == 2 and h.counts[1] == 5
        assert h.count == 7 and h.total == 1516.0

    def test_ack_paced_pingpong_hwm_is_one(self):
        _, stats = _run(_pingpong_program)
        report = {(r["src"], r["dst"]): r for r in stats.pair_report()}
        assert set(report) == {(0, 1), (1, 0)}
        for row in report.values():
            assert row["messages"] == 4
            assert row["bytes"] == 256
            assert row["outstanding_hwm"] == 1

    def test_registry_records_carry_pair_labels(self):
        reg, _ = _run(_burst_program)
        snap = {
            (r["metric"], json.dumps(r["labels"], sort_keys=True)): r
            for r in reg.snapshot()
        }
        rec = snap[("comm.pair.outstanding_hwm", '{"dst": 1, "src": 0}')]
        assert rec["value"] == 5
        assert snap[("comm.messages", "{}")]["value"] == 7
        assert snap[("comm.bytes", "{}")]["value"] == 1516
        assert snap[("comm.outstanding_hwm", "{}")]["value"] == 5
        # the engine collector rides along on the same registry
        kinds = {r["labels"].get("kind") for m, _ in list(snap)
                 for r in [snap[(m, _)]] if r["metric"] == "sim.events"}
        assert {"resume", "put", "action"} <= kinds

    def test_snapshot_is_deterministic_across_runs(self, tmp_path):
        paths = []
        for i in range(2):
            reg, _ = _run(_burst_program)
            paths.append(reg.to_jsonl(tmp_path / f"dump{i}.jsonl"))
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestMailboxesBuiltAtSpawn:
    """``VComm`` builds its per-rank inboxes in ``run``, not ``__init__``:
    an executor that never spawns ranks pays nothing per rank, and a
    spawned run is wired to the obs log exactly as an eager build was."""

    def test_construction_allocates_nothing_per_rank(self):
        before = sys.getallocatedblocks()
        comm = VComm(262144, network=ZeroCostNetwork())
        assert sys.getallocatedblocks() - before < 1000
        assert comm._rank_names[262143] == "rank262143"
        assert comm._rank_names.index("rank7") == 7
        for name in ("rank262144", "rank07", "rank-1", "rank", "vector"):
            with pytest.raises(ValueError):
                comm._rank_names.index(name)

    def test_ring_delivers_and_outstanding_hwms_close(self):
        """64-rank ping ring, odd ranks busy before they receive: the
        even -> odd pairs back up to two messages, the rest to one —
        read off the consume events the inboxes append to the obs log."""

        def ring(ctx):
            right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
            for r in range(4):
                yield from ctx.send(right, PayloadStub(1024), tag=r)
                if ctx.rank % 2:
                    yield from ctx.compute(1e-3)
                yield from ctx.recv(source=left, tag=r)
            return ctx.rank

        comm = VComm(
            64,
            network=TorusNetworkModel(nodes=16, ranks_per_node=4),
            obs=MetricsRegistry(),
        )
        end, values = comm.run(ring)
        assert end == 0.004001819199999999
        assert values == list(range(64))
        stats = comm.comm_stats
        assert stats.totals() == {
            "messages": 256, "bytes": 262144, "pairs": 64, "outstanding_hwm_max": 2,
        }
        assert [r["outstanding_hwm"] for r in stats.pair_report()] == [2, 1] * 32
        assert all(stats.outstanding(r, (r + 1) % 64) == 0 for r in range(64))


class TestCollectiveStats:
    def test_executed_collectives_label_op_and_algo(self):
        from repro.vmpi import UniformNetwork, allreduce, bcast, ring_allreduce

        def program(ctx):
            yield from bcast(ctx, PayloadStub(512) if ctx.rank == 0 else None)
            yield from allreduce(ctx, float(ctx.rank))
            yield from ring_allreduce(ctx, PayloadStub(4096))
            return None

        reg = MetricsRegistry()
        comm = VComm(4, network=UniformNetwork(latency=1e-6, bandwidth=1e9), obs=reg)
        comm.run(program)
        # one entry per rank per collective call
        assert comm.coll_stats.algo_report() == [
            (("allreduce", "recursive_doubling"), 4),
            (("allreduce", "ring"), 4),
            (("bcast", "binomial"), 4),
        ]

    def test_records_emit_counters_and_histograms(self):
        from repro.obs.hooks import COLLECTIVE_SECONDS_BOUNDS, CollectiveStats

        cs = CollectiveStats()
        cs.on_collective("reduce", "rabenseifner", 0.25)
        cs.on_collective("reduce", "rabenseifner", 0.5)
        cs.on_collective("bcast", "torus", 1e-5)
        counters = [r for r in cs.records() if r["metric"] == "comm.coll.algo"]
        assert [(r["labels"], r["value"]) for r in counters] == [
            ({"op": "bcast", "algo": "torus"}, 1),
            ({"op": "reduce", "algo": "rabenseifner"}, 2),
        ]
        hists = {r["labels"]["op"]: r for r in cs.records()
                 if r["metric"] == "comm.coll.seconds"}
        assert set(hists) == {"bcast", "reduce"}
        assert hists["reduce"]["count"] == 2
        assert hists["reduce"]["sum"] == 0.75
        assert hists["reduce"]["bounds"] == list(COLLECTIVE_SECONDS_BOUNDS)

    def test_fold_is_incremental(self):
        from repro.obs.hooks import CollectiveStats

        cs = CollectiveStats()
        cs.on_collective("bcast", "binomial", 0.1)
        assert cs.algo_report() == [(("bcast", "binomial"), 1)]
        cs.on_collective("bcast", "binomial", 0.2)
        assert cs.algo_report() == [(("bcast", "binomial"), 2)]
        assert cs.durations["bcast"].count == 2

    def test_registry_snapshot_carries_collective_records(self):
        from repro.vmpi import UniformNetwork, allreduce

        def program(ctx):
            yield from allreduce(ctx, 1.0)
            return None

        reg = MetricsRegistry()
        comm = VComm(4, network=UniformNetwork(latency=1e-6, bandwidth=1e9), obs=reg)
        comm.run(program)
        recs = [r for r in reg.snapshot() if r["metric"] == "comm.coll.algo"]
        assert [(r["labels"], r["value"]) for r in recs] == [
            ({"op": "allreduce", "algo": "recursive_doubling"}, 4)
        ]
        assert any(r["metric"] == "comm.coll.seconds" for r in reg.snapshot())

    def test_no_obs_means_no_stats_object(self):
        comm = VComm(4, network=ZeroCostNetwork())
        assert comm.coll_stats is None


class TestVectorChainPhases:
    """A serial broadcast replayed as a chain phase reports what the
    executed ``serial_bcast`` does: one collective record per rank, 95
    master rows per chain in the pair matrices, the same phase seconds."""

    @pytest.fixture(scope="class")
    def snapshots(self):
        from repro.dist import IterationScript, simulate_training
        from repro.harness.speedup import xeon_config

        cfg = xeon_config(IterationScript((2,), (1,), represented_iterations=30), 5.0)
        out = {}
        for path, vector in (("scalar", False), ("vector", None)):
            reg = MetricsRegistry()
            res = simulate_training(cfg, obs=reg, vector=vector)
            assert res.execution_path == path
            out[path] = reg.snapshot()
        return out

    @staticmethod
    def _records(snapshot, *metrics):
        return sorted(
            (r["metric"], json.dumps(r["labels"], sort_keys=True), r["value"])
            for r in snapshot
            if r["metric"] in metrics
        )

    def test_serial_bcast_counted_per_rank(self, snapshots):
        algo = self._records(snapshots["vector"], "comm.coll.algo")
        assert algo == self._records(snapshots["scalar"], "comm.coll.algo")
        serial = [
            v for _m, labels, v in algo
            if json.loads(labels) == {"op": "bcast", "algo": "serial"}
        ]
        assert serial == [96 * 4]  # 2 weight syncs + 2 CG broadcasts

    def test_pair_matrices_have_a_master_row_per_worker(self, snapshots):
        pairs = ("comm.pair.messages", "comm.pair.bytes")
        got = self._records(snapshots["vector"], *pairs)
        assert got == self._records(snapshots["scalar"], *pairs)
        from_master = {
            json.loads(labels)["dst"]: v
            for m, labels, v in got
            if m == "comm.pair.messages" and json.loads(labels)["src"] == 0
        }
        assert sorted(from_master) == list(range(1, 96))
        # the load + 4 chains; power-of-two ranks also take the go stubs
        # of the 3 modeled reductions as the master's tree children
        assert from_master[95] == 5 and from_master[64] == 5 + 3

    def test_phase_seconds_match(self, snapshots):
        got = self._records(snapshots["vector"], "train.phase_seconds")
        assert got and got == self._records(snapshots["scalar"], "train.phase_seconds")


class TestCommStatsReplay:
    def test_fold_replays_log_in_order(self):
        cs = CommStats(4)
        cs.on_send(0, 1, 10)
        cs.on_send(0, 1, 20)
        cs.on_consume(0, 1)
        cs.on_send(0, 1, 30)
        assert cs.outstanding(0, 1) == 2
        assert cs.outstanding(3, 2) == 0
        cs.on_consume(0, 1)
        cs.on_consume(0, 1)
        # incremental fold: the earlier query must not freeze the rows
        assert cs.outstanding(0, 1) == 0
        assert cs.pair_report() == [
            {"src": 0, "dst": 1, "messages": 3, "bytes": 60,
             "outstanding_hwm": 2}
        ]

    def test_records_cover_aggregate_and_pairs(self):
        cs = CommStats(4)
        cs.on_send(0, 1, 10)
        cs.on_send(2, 3, 70)
        names = [r["metric"] for r in cs.records()]
        assert names.count("comm.pair.messages") == 2
        assert {"comm.messages", "comm.bytes", "comm.pairs",
                "comm.outstanding_hwm", "comm.message_bytes"} <= set(names)
