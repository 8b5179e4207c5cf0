"""Executed message traffic of the hand-written rank-program protocols.

Every message a rank program injects passes through ``RankCtx.post``.
These tests record that traffic — ``(src, dst, tag, payload, nbytes)``
per message — and hold it to the protocol each site states: the
load-data relay, the collective exchange's payloads, the fault-tolerant
exchange (fault-free, and under drops and a crash so the master's
retransmit, the worker's duplicate reply and the exclusion shutdown
run), the serving front end, and the ping-ring benchmark.  A payload of
the wrong size or ``PayloadStub`` kind, a send on the wrong tag, a
missing send or a stray one changes the recorded traffic even where it
moves no virtual time.
"""

from collections import Counter

import pytest

from repro.bgq import RunShape
from repro.dist import (
    IterationScript,
    ModelGeometry,
    SimJobConfig,
    SimWorkload,
    simulate_training,
)
from repro.dist.simulated import _TAG_DATA, _TAG_WORK0, _build_plan
from repro.faults import FaultPlan, FaultPolicy, MessageDrop, NodeCrash
from repro.harness.perf import bench_ping_ring
from repro.serve import ArrivalSpec, ServeConfig
from repro.serve.scenario import TAG_REQUEST, TAG_RESULT, TAG_STOP, simulate_serving_des
from repro.vmpi.collectives import _COLL_TAG_BASE
from repro.vmpi.comm import RankCtx
from repro.vmpi.costmodel import PayloadStub


@pytest.fixture
def posted(monkeypatch):
    """Every message injected while the test runs, in order, as
    ``(src, dst, tag, payload, nbytes)``."""
    sent = []
    post = RankCtx.post

    def recording(self, dest, payload, tag=0):
        sent.append((self.rank, dest, tag, payload, self.comm.sizer(payload)))
        return post(self, dest, payload, tag)

    monkeypatch.setattr(RankCtx, "post", recording)
    return sent


def user(sent):
    """The user-tagged rows: below the collective tag band."""
    return [row for row in sent if row[2] < _COLL_TAG_BASE]


def stubs(sent):
    """``(src, dst, tag, kind, nbytes)`` rows of PayloadStub traffic."""
    return [(s, d, t, p.kind, n) for s, d, t, p, n in sent]


def _job(ranks=8, **kw):
    return SimJobConfig(
        shape=RunShape(ranks, 1, 16),
        workload=SimWorkload(
            geometry=ModelGeometry((40, 128, 128, 50)),
            train_frames=200_000,
            heldout_frames=20_000,
        ),
        script=IterationScript((3, 4), (2, 3), represented_iterations=20),
        seed=1,
        **kw,
    )


# ------------------------------------------------------------- load_data
def _master_load(cfg):
    """``load_data_mode="master"``: every worker its shard, from rank 0."""
    shard = _build_plan(cfg).shard_bytes
    return [
        (0, w, _TAG_DATA, "shard", int(shard[w - 1]))
        for w in range(1, cfg.shape.ranks)
    ]


@pytest.mark.parametrize("mode", ["master", "staged", "parallel_io"])
def test_load_data_traffic_is_the_mode_protocol(posted, mode):
    """``master`` ships every worker its shard; ``staged`` ships each
    group leader its group's bundle and the leader relays per-member
    shards; ``parallel_io`` sends nothing."""
    cfg = _job(ranks=12, load_data_mode=mode, load_data_fanout=4)
    shard = [int(b) for b in _build_plan(cfg).shard_bytes]
    ranks = cfg.shape.ranks
    expected = []
    if mode == "master":
        expected = _master_load(cfg)
    elif mode == "staged":
        for leader in range(1, ranks, 4):
            group = range(leader, min(leader + 4, ranks))
            expected.append(
                (0, leader, _TAG_DATA, "bundle", sum(shard[w - 1] for w in group))
            )
            expected += [(leader, w, _TAG_DATA, "shard", shard[w - 1]) for w in group[1:]]
    simulate_training(cfg, vector=False)
    assert sorted(stubs(user(posted))) == sorted(expected)


def test_collective_exchange_moves_theta_and_loss(posted):
    """Without a fault policy the exchange is the paper's collectives:
    theta broadcast down, theta or the 16-byte loss reduced back."""
    cfg = _job()
    theta = cfg.workload.theta_bytes
    simulate_training(cfg, vector=False)
    moved = {
        (p.kind, n) for _s, _d, t, p, n in posted
        if t >= _COLL_TAG_BASE and isinstance(p, PayloadStub)
    }
    assert moved == {
        ("theta", theta), ("sum-reduced", theta), ("loss", 16), ("sum-reduced", 16)
    }


# ------------------------------------------------- fault-tolerant exchange
POLICY = FaultPolicy(recv_timeout=0.5, max_retries=2)


def _phase_names(script):
    """Algorithm 1's exchanges in order: a gradient, the CG products,
    the held-out evaluations — one fresh tag each from ``_TAG_WORK0``."""
    names = []
    for it in range(script.n_iterations):
        names.append(f"grad:{it}")
        names += [f"cg:{it}:{k}" for k in range(script.cg_iters[it])]
        names += [f"eval:{it}:{e}" for e in range(script.heldout_evals[it])]
    return names


def _reply(name, theta_bytes):
    """A held-out evaluation answers with the 16-byte loss, every other
    phase with theta."""
    return ("loss", 16) if name.startswith("eval:") else ("theta", theta_bytes)


def test_recovering_exchange_fault_free_traffic(posted):
    """After the load: each phase's work to every worker and one reply
    back, under the phase's tag; then one shutdown per worker under the
    next tag."""
    cfg = _job(fault_policy=POLICY)
    theta = cfg.workload.theta_bytes
    names = _phase_names(cfg.script)
    workers = range(1, cfg.shape.ranks)
    expected = _master_load(cfg)
    for i, name in enumerate(names):
        tag = _TAG_WORK0 + i
        expected += [(0, w, tag, name, theta) for w in workers]
        expected += [(w, 0, tag, *_reply(name, theta)) for w in workers]
    expected += [(0, w, _TAG_WORK0 + len(names), "shutdown", 4) for w in workers]
    res = simulate_training(cfg, vector=False)
    assert res.recovery.events == []
    assert sorted(stubs(user(posted))) == sorted(expected)


def test_recovering_exchange_under_faults_resends_the_same_messages(posted):
    """Lost work and lost replies make the master retransmit and the
    worker re-send its cached reply; a crashed worker is excluded and
    sent a shutdown under the phase that gave up on it.  Every copy on a
    phase's tag is that phase's work or that phase's reply."""
    plan = FaultPlan(
        seed=0,
        events=(
            NodeCrash(rank=5, at=1.0),
            MessageDrop(start=0.005, end=1.0, probability=0.05),
        ),
    )
    cfg = _job(fault_policy=POLICY, fault_plan=plan)
    theta = cfg.workload.theta_bytes
    names = _phase_names(cfg.script)
    res = simulate_training(cfg, vector=False)
    assert res.recovery.counts() == {
        "timeout": 5, "retry": 4, "exclude": 1, "renormalize": 1
    }
    (gave_up,) = [e for e in res.recovery.events if e.kind == "exclude"]
    assert (gave_up.rank, res.excluded_ranks) == (5, (5,))
    rows = stubs(user(posted))
    load = _master_load(cfg)
    assert rows[: len(load)] == load
    rows = rows[len(load):]
    shutdowns = {}
    for src, dst, tag, kind, nbytes in rows:
        if kind == "shutdown":
            assert (src, nbytes) == (0, 4) and dst not in shutdowns
            shutdowns[dst] = tag
            continue
        name = names[tag - _TAG_WORK0]
        if src == 0:
            assert (kind, nbytes) == (name, theta), (src, dst, tag)
        else:
            assert dst == 0 and (kind, nbytes) == _reply(name, theta), (src, tag)
    finish = _TAG_WORK0 + len(names)
    excluded_at = _TAG_WORK0 + names.index(gave_up.detail.rsplit(" ", 1)[-1])
    assert shutdowns == {
        w: excluded_at if w == 5 else finish for w in range(1, cfg.shape.ranks)
    }
    copies = Counter((s, d, t) for s, d, t, _k, _n in rows)
    work_copies = sum(n - 1 for (s, _d, _t), n in copies.items() if s == 0)
    reply_copies = sum(n - 1 for (s, _d, _t), n in copies.items() if s != 0)
    # both resend paths ran, and resent exactly this much
    assert (len(rows), work_copies, reply_copies) == (192, 7, 2)


# ---------------------------------------------------------------- serving
def test_serving_traffic_pairs_every_request_with_one_result(posted):
    """Per replica: batches on ``TAG_REQUEST``, each answered by exactly
    one result of the size the request asked for, then one stop."""
    cfg = ServeConfig(replicas=3, arrivals=ArrivalSpec(rate=6.0), horizon_s=4.0, seed=3)
    # the DES entry: a plain config otherwise replays without messages
    res = simulate_serving_des(cfg)
    assert res.excluded == () and res.completed > 0
    assert all(d == 0 or s == 0 for s, d, *_ in posted)
    for r in range(1, cfg.replicas + 1):
        *requests, stop = [(t, p) for s, d, t, p, _n in posted if d == r]
        results = [(t, p) for s, d, t, p, _n in posted if s == r]
        assert stop == (TAG_STOP, PayloadStub(8, "serve.stop"))
        assert len(requests) == len(results) > 0
        for (tag, (stub, _secs, result_bytes)), reply in zip(requests, results):
            frames = result_bytes // 4
            assert result_bytes == cfg.cost.result_bytes(frames)
            assert (tag, stub) == (
                TAG_REQUEST, PayloadStub(cfg.cost.request_bytes(frames), "serve.batch")
            )
            assert reply == (TAG_RESULT, PayloadStub(result_bytes, "serve.result"))


# ------------------------------------------------------------- ping ring
def test_ping_ring_traffic(posted):
    """One 1 KiB ``ping`` per rank per round to its right neighbour,
    tagged with the round."""
    out = bench_ping_ring(ranks=8, rounds=3)
    expected = [(r, (r + 1) % 8, k, "ping", 1024) for k in range(3) for r in range(8)]
    assert sorted(stubs(user(posted))) == sorted(expected)
    assert (out["messages"], out["bytes"]) == (24, 24 * 1024)
