"""Golden determinism regression for the DES engine and vmpi layer.

The PR-2 hot-path overhaul (tuple heap + zero-delay ready deque, indexed
mailboxes, slotted commands) must not change any *simulated* result: the
virtual clock, the per-rank breakdowns, and every FIFO tie-break at equal
virtual time have to come out bit-identical.  The golden values below
were recorded from the pre-refactor engine (commit 254351f, the ordered-
dataclass-heap implementation) by running this module as a script::

    PYTHONPATH=src python tests/test_sim_determinism.py

and must never be regenerated casually — a mismatch means the engine's
event ordering or the vmpi cost accounting changed observably, which is a
correctness bug in anything claiming to be a pure performance change.
"""

from __future__ import annotations

import hashlib

from repro.bgq import LinuxJitter, RunShape
from repro.dist import (
    IterationScript,
    ModelGeometry,
    SimJobConfig,
    SimWorkload,
    simulate_training,
)
from repro.sim.engine import Engine, Get, Put
from repro.vmpi import (
    ANY_SOURCE,
    ANY_TAG,
    PayloadStub,
    UniformNetwork,
    VComm,
    ZeroCostNetwork,
    allgather,
    allreduce,
    barrier,
    bcast,
    gather,
    ordered_reduce,
    reduce,
    scatter,
    serial_bcast,
)


def _digest(obj: object) -> str:
    """Canonical short digest: repr round-trips floats exactly."""
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------- fixtures
def _engine_storm_digest() -> tuple[str, str]:
    """Zero-delay storm on raw engine primitives: many processes racing
    Put/Get/zero delays on shared stores — every completion order below is
    a pure FIFO tie-break at equal virtual time."""
    eng = Engine()
    log: list[tuple[str, float, object]] = []
    shared = eng.new_store("shared")
    side = eng.new_store("side")

    def producer(name: str, burst: int):
        for i in range(burst):
            yield Put(shared, (name, i))
            yield 0.0
        yield Put(side, name)

    def consumer(name: str, n: int, parity: int | None):
        for _ in range(n):
            if parity is None:
                item = yield Get(shared)
            else:
                item = yield Get(shared, predicate=lambda x, p=parity: x[1] % 2 == p)
            log.append((name, eng.now, item))
        done = yield Get(side)
        log.append((name, eng.now, done))

    for i, burst in enumerate((5, 4, 3)):
        eng.process(producer(f"p{i}", burst), f"p{i}")
    eng.process(consumer("even", 3, 0), "even")
    eng.process(consumer("odd", 2, 1), "odd")
    eng.process(consumer("any", 3, None), "any")
    end = eng.run()
    log.append(("leftover", list(shared.items)))
    return repr(end), _digest(log)


def _stress_program_digest(network) -> tuple[str, str]:
    """p2p + collective medley over 6 ranks; returns (end time, digest).

    Mixes exact-match, wildcard-source, wildcard-tag, and fully-wild
    receives with every public collective, so both the mailbox index
    fast paths and their fallbacks are pinned.
    """
    size = 6

    def program(ctx):
        trace: list[object] = []
        nxt, nx2 = (ctx.rank + 1) % size, (ctx.rank + 2) % size
        for j in range(6):
            yield from ctx.send(nxt, PayloadStub(64 + 8 * j), tag=j % 3)
            yield from ctx.send(nx2, PayloadStub(32 + 4 * j), tag=3 + j % 2)
        for j in range(6):
            m = yield from ctx.recv(source=(ctx.rank - 1) % size, tag=j % 3)
            trace.append(("exact", m.src, m.tag, m.nbytes, ctx.now))
        for _ in range(6):
            m = yield from ctx.recv(source=(ctx.rank - 2) % size, tag=ANY_TAG)
            trace.append(("wtag", m.src, m.tag, m.nbytes, ctx.now))
        # fan-in to rank 0 with fully-wild receives: FIFO tie-breaks.
        # Rank 0 acks each phase so wildcard matching is quiescent (no
        # same-inbox race against the next phase's or a collective's
        # traffic, which would be protocol-dependent, not engine-pinned).
        if ctx.rank == 0:
            for _ in range(2 * (size - 1)):
                m = yield from ctx.recv(source=ANY_SOURCE, tag=ANY_TAG)
                trace.append(("wild", m.src, m.tag, ctx.now))
            for peer in range(1, size):
                yield from ctx.send(peer, None, tag=55)
        else:
            yield from ctx.send(0, PayloadStub(16 * ctx.rank), tag=ctx.rank)
            yield from ctx.send(0, PayloadStub(8 * ctx.rank), tag=10 + ctx.rank)
            yield from ctx.recv(source=0, tag=55)
        # wildcard-source, fixed-tag fan-in
        if ctx.rank == 0:
            for _ in range(size - 1):
                m = yield from ctx.recv(source=ANY_SOURCE, tag=99)
                trace.append(("wsrc", m.src, m.nbytes, ctx.now))
            for peer in range(1, size):
                yield from ctx.send(peer, None, tag=56)
        else:
            yield from ctx.send(0, PayloadStub(24), tag=99)
            yield from ctx.recv(source=0, tag=56)
        yield from barrier(ctx)
        trace.append(("barrier", ctx.now))
        s = yield from allreduce(ctx, ctx.rank + 1)
        g = yield from gather(ctx, ctx.rank * 10, root=2)
        sc = yield from scatter(
            ctx, [r * r for r in range(size)] if ctx.rank == 1 else None, root=1
        )
        ag = yield from allgather(ctx, (ctx.rank, s))
        b = yield from bcast(
            ctx,
            PayloadStub(5000) if ctx.rank == 3 else None,
            root=3,
            segment_bytes=512,
        )
        r = yield from reduce(
            ctx, PayloadStub(4096), root=0, segment_bytes=1024
        )
        orr = yield from ordered_reduce(ctx, float(ctx.rank) * 0.125 + 1.0, root=0)
        sb = yield from serial_bcast(ctx, ("blob", ctx.now) if ctx.rank == 0 else None)
        trace.append(
            (
                s,
                g,
                sc,
                ag,
                b.nbytes if b is not None else None,
                r.nbytes if r is not None else None,
                orr,
                sb,
                ctx.now,
            )
        )
        return trace

    comm = VComm(size, network=network)
    end, values = comm.run(program)
    return repr(end), _digest(values)


def _training_digest(cfg: SimJobConfig, obs=None) -> tuple[str, str, int, str]:
    res = simulate_training(cfg, obs=obs)
    per_rank = [
        sorted(res.breakdown(r).__dict__["compute"].items())
        + sorted(res.breakdown(r).collective.items())
        + sorted(res.breakdown(r).p2p.items())
        for r in range(cfg.shape.ranks)
    ]
    return (
        repr(res.load_data_seconds),
        repr(res.iteration_seconds),
        res.total_messages,
        _digest(per_rank),
    )


def _training_config_small() -> SimJobConfig:
    return SimJobConfig(
        shape=RunShape(8, 1, 16),
        workload=SimWorkload(
            geometry=ModelGeometry((40, 128, 128, 50)),
            train_frames=200_000,
            heldout_frames=20_000,
        ),
        script=IterationScript((6, 8), (3, 4), represented_iterations=20),
        seed=1,
    )


def _training_config_staged() -> SimJobConfig:
    """Covers the staged relay, utterance sampling, serial bcast, and
    Linux-jitter noise branches in one run."""
    return SimJobConfig(
        shape=RunShape(32, 2, 32),
        workload=SimWorkload(
            geometry=ModelGeometry((40, 128, 128, 50)),
            train_frames=200_000,
            heldout_frames=20_000,
            curvature_fraction=0.02,
        ),
        script=IterationScript((5,), (2,), represented_iterations=20),
        partitioner="naive",
        bcast_algorithm="serial",
        curvature_sampling="utterance",
        load_data_mode="staged",
        load_data_fanout=8,
        noise=LinuxJitter(0.02, 0.05),
        seed=3,
    )


def _training_config_overlap() -> SimJobConfig:
    """Covers the PR-4 opt-in path: auto algorithm selection plus the
    bucketed gradient-allreduce overlap fast path."""
    return SimJobConfig(
        shape=RunShape(16, 2, 16),
        workload=SimWorkload(
            geometry=ModelGeometry((40, 256, 256, 50)),
            train_frames=400_000,
            heldout_frames=20_000,
        ),
        script=IterationScript((4, 6), (2, 3), represented_iterations=20),
        collective_selection="auto",
        overlap_gradient=True,
        gradient_bucket_bytes=1 << 18,
        seed=5,
    )


def _current() -> dict[str, object]:
    return {
        "engine_storm": _engine_storm_digest(),
        "stress_uniform": _stress_program_digest(
            UniformNetwork(latency=1e-6, bandwidth=1e9)
        ),
        "stress_zerocost": _stress_program_digest(ZeroCostNetwork()),
        "training_small": _training_digest(_training_config_small()),
        "training_staged": _training_digest(_training_config_staged()),
        "training_overlap": _training_digest(_training_config_overlap()),
    }


# Recorded from the pre-refactor engine (see module docstring).
GOLDEN: dict[str, object] = {
    "engine_storm": ("0.0", "3393172c764b4b4a"),
    "stress_uniform": ("7.365600000000007e-05", "0d356929dd325f09"),
    "stress_zerocost": ("0.0", "a04210e59e9e56c1"),
    "training_small": (
        "0.001602182",
        "0.8733580382005719",
        490,
        "3a472d0e1c61e3fb",
    ),
    "training_staged": (
        "0.0032011599999999998",
        "0.15980903479544703",
        527,
        "648590f5e1263324",
    ),
    # Recorded when the overlap fast path landed (PR 4); pins the auto
    # selection tables and the bucketed-overlap exposed-time accounting.
    "training_overlap": (
        "0.006404069999999999",
        "3.1004822030518624",
        810,
        "4d56fcd620ea9ec7",
    ),
}


class TestGoldenDeterminism:
    def test_engine_zero_delay_storm(self):
        assert _engine_storm_digest() == GOLDEN["engine_storm"]

    def test_stress_program_uniform_network(self):
        assert (
            _stress_program_digest(UniformNetwork(latency=1e-6, bandwidth=1e9))
            == GOLDEN["stress_uniform"]
        )

    def test_stress_program_equal_time_fifo(self):
        """ZeroCostNetwork puts *every* event at t=0: the run is one long
        FIFO tie-break, pinning the ready-deque ordering exactly."""
        assert (
            _stress_program_digest(ZeroCostNetwork()) == GOLDEN["stress_zerocost"]
        )

    def test_simulate_training_small(self):
        assert _training_digest(_training_config_small()) == GOLDEN["training_small"]

    def test_simulate_training_staged_serial_jitter(self):
        assert _training_digest(_training_config_staged()) == GOLDEN["training_staged"]

    def test_simulate_training_overlap_auto(self):
        assert _training_digest(_training_config_overlap()) == GOLDEN["training_overlap"]

    def test_obs_attachment_is_passive_small(self):
        """Attaching a metrics registry must not perturb the timeline:
        the instrumented run reproduces the *same* goldens bit-for-bit."""
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        assert (
            _training_digest(_training_config_small(), obs=reg)
            == GOLDEN["training_small"]
        )
        # and the registry actually observed the run
        events = [
            r for r in reg.snapshot() if r["metric"] == "sim.events"
        ]
        assert sum(r["value"] for r in events) > 0

    def test_obs_attachment_is_passive_staged(self):
        from repro.obs import MetricsRegistry

        assert (
            _training_digest(_training_config_staged(), obs=MetricsRegistry())
            == GOLDEN["training_staged"]
        )


if __name__ == "__main__":
    import pprint

    pprint.pprint(_current())
