"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import (
    AllOf,
    DeadlockError,
    Engine,
    Get,
    Put,
    Tracer,
    run_all,
)


def test_timeout_advances_clock():
    eng = Engine()
    times = []

    def proc():
        yield 1.5
        times.append(eng.now)
        yield 2.5
        times.append(eng.now)

    eng.process(proc())
    end = eng.run()
    assert times == [1.5, 4.0]
    assert end == 4.0


def test_negative_timeout_rejected():
    eng = Engine()

    def proc():
        yield -1.0

    eng.process(proc())
    with pytest.raises(ValueError):
        eng.run()


def test_processes_interleave_deterministically():
    order = []

    def proc(name, delay):
        yield delay
        order.append(name)
        yield delay
        order.append(name)

    _t, _ = run_all([proc("a", 1.0), proc("b", 0.6)])
    assert order == ["b", "a", "b", "a"]


def test_equal_time_events_fifo():
    order = []

    def proc(name):
        yield 1.0
        order.append(name)

    run_all([proc("first"), proc("second"), proc("third")])
    assert order == ["first", "second", "third"]


def test_store_put_then_get():
    eng = Engine()
    got = []

    def producer(store):
        yield Put(store, "x")
        yield Put(store, "y")

    def consumer(store):
        a = yield Get(store)
        b = yield Get(store)
        got.extend([a, b])

    store = eng.new_store()
    eng.process(producer(store), "prod")
    eng.process(consumer(store), "cons")
    eng.run()
    assert got == ["x", "y"]


def test_get_blocks_until_put():
    eng = Engine()
    arrival = []

    def consumer(store):
        item = yield Get(store)
        arrival.append((item, eng.now))

    def producer(store):
        yield 3.0
        yield Put(store, 42)

    store = eng.new_store()
    eng.process(consumer(store), "c")
    eng.process(producer(store), "p")
    eng.run()
    assert arrival == [(42, 3.0)]


def test_get_with_predicate_skips_nonmatching():
    eng = Engine()
    got = []

    def consumer(store):
        item = yield Get(store, predicate=lambda x: x % 2 == 0)
        got.append(item)

    def producer(store):
        yield Put(store, 1)
        yield Put(store, 3)
        yield Put(store, 4)

    store = eng.new_store()
    eng.process(consumer(store), "c")
    eng.process(producer(store), "p")
    eng.run()
    assert got == [4]
    assert list(store.items) == [1, 3]


def test_put_later_delays_delivery():
    eng = Engine()
    times = []

    def consumer(store):
        yield Get(store)
        times.append(eng.now)

    store = eng.new_store()
    eng.process(consumer(store), "c")
    eng.put_later(5.0, store, "late")
    eng.run()
    assert times == [5.0]


def test_deadlock_detected():
    eng = Engine()

    def stuck(store):
        yield Get(store)

    eng.process(stuck(eng.new_store("never")), "stuck")
    with pytest.raises(DeadlockError, match="stuck"):
        eng.run()


def test_allof_waits_for_children():
    eng = Engine()
    results = []

    def child(d, v):
        yield d
        return v

    def parent():
        kids = [eng.process(child(2.0, "a"), "a"), eng.process(child(1.0, "b"), "b")]
        vals = yield AllOf(kids)
        results.append((vals, eng.now))

    eng.process(parent(), "parent")
    eng.run()
    assert results == [(["a", "b"], 2.0)]


def test_run_until_caps_time():
    eng = Engine()

    def proc():
        yield 100.0

    eng.process(proc(), "slow")
    t = eng.run(until=10.0)
    assert t == 10.0


def _until_scenario(eng, after_cap=lambda: None):
    """Stepped run: two sleepers crossing several ``until`` caps;
    ``after_cap`` is called after each capped run."""

    def proc(delays):
        for d in delays:
            yield d

    eng.process(proc([3.0, 3.0, 3.0]), "a")
    eng.process(proc([5.0, 5.0]), "b")
    trail = []
    for cap in (1.0, 4.0, 4.0, 0.5, 9.0, None):
        t = eng.run(until=cap)
        trail.append((t, eng.now, eng.finish_time))
        after_cap()
    return trail


def test_run_until_plain_and_instrumented_agree():
    """``run(until=...)`` must behave identically on the plain loop and
    the obs-instrumented loop: same capped times, same ``now``, same
    ``finish_time``, including re-entry with a cap already in the past
    (which must be a no-op, never a clock rewind or an early event)."""
    from repro.obs import MetricsRegistry

    plain = _until_scenario(Engine())
    eng = Engine()
    eng.attach_obs(MetricsRegistry())
    instrumented = _until_scenario(eng)
    assert plain == instrumented
    # caps 4.0 repeated and 0.5 in the past: clock parks, never rewinds
    assert [t for t, _, _ in plain] == [1.0, 4.0, 4.0, 4.0, 9.0, 10.0]
    # finish_time tracks completed work, not the parked cap
    assert plain[-1] == (10.0, 10.0, 10.0)


def _tallies(reg, eng):
    """The engine's obs records as ``(resume, put, action, heap peak,
    ready peak)``, after checking that every event popped so far was
    counted exactly once: each scheduled event takes one seq number, so
    the popped ones are those no longer queued."""
    snap = reg.snapshot()
    events = {
        r["labels"]["kind"]: r["value"] for r in snap if r["metric"] == "sim.events"
    }
    peaks = {
        r["metric"]: r["peak"]
        for r in snap
        if r["metric"] in ("sim.heap_depth", "sim.ready_depth")
    }
    assert sum(events.values()) == eng._seq - len(eng._queue) - len(eng._ready)
    return (
        events["resume"],
        events["put"],
        events["action"],
        peaks["sim.heap_depth"],
        peaks["sim.ready_depth"],
    )


def test_obs_tallies_exact_under_until_reentry():
    """Event counts and pre-pop peak depths after every ``until`` cap,
    including a cap already in the past: a capped run counts only the
    events it fired, and re-entry neither recounts nor loses any.  The
    pinned values were recorded from the engine's earlier separate
    instrumented loop."""
    from repro.obs import MetricsRegistry

    reg = MetricsRegistry()
    eng = Engine()
    eng.attach_obs(reg)
    seen = []
    _until_scenario(eng, after_cap=lambda: seen.append(_tallies(reg, eng)))
    assert seen == [
        (2, 0, 0, 0.0, 2.0),
        (3, 0, 0, 2.0, 2.0),
        (3, 0, 0, 2.0, 2.0),
        (3, 0, 0, 2.0, 2.0),
        (6, 0, 0, 2.0, 2.0),
        (7, 0, 0, 2.0, 2.0),
    ]


def test_obs_tallies_count_stale_timer_of_killed_process():
    """A process killed while its timer is pending: the kill is one
    action event, and the stale resume is still popped (and counted)
    at its own time, then dropped by the killed guard."""
    from repro.obs import MetricsRegistry

    def sleeper(delays):
        for d in delays:
            yield d

    reg = MetricsRegistry()
    eng = Engine()
    eng.attach_obs(reg)
    victim = eng.process(sleeper([5.0, 1.0]), "victim")
    eng.process(sleeper([0.0, 2.0, 4.0]), "bystander")
    eng.schedule(1.0, lambda: eng.kill(victim))
    seen = []
    for cap in (0.5, 2.0, 5.5, None):
        t = eng.run(until=cap)
        seen.append((t, eng.finish_time, _tallies(reg, eng)))
    assert victim.killed and victim.finished_at == 1.0
    assert seen == [
        (0.5, 0.0, (3, 0, 0, 0.0, 2.0)),
        (2.0, 1.0, (4, 0, 1, 3.0, 2.0)),
        (5.5, 1.0, (5, 0, 1, 3.0, 2.0)),
        (6.0, 6.0, (6, 0, 1, 3.0, 2.0)),
    ]


def test_process_return_values():
    def proc(v):
        yield 0.1
        return v * 2

    _t, values = run_all([proc(1), proc(2), proc(3)])
    assert values == [2, 4, 6]


def test_process_exception_propagates():
    eng = Engine()

    def bad():
        yield 1.0
        raise RuntimeError("boom")

    eng.process(bad(), "bad")
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()


def test_tracer_totals_and_processes():
    tr = Tracer()
    tr.record("p1", "work", 0.0, 2.0)
    tr.record("p1", "work", 3.0, 4.0)
    tr.record("p2", "wait", 0.0, 1.0)
    assert tr.totals("p1") == {"work": 3.0}
    assert tr.totals() == {"work": 3.0, "wait": 1.0}
    assert tr.processes() == ["p1", "p2"]
    assert tr.by_process()["p2"] == {"wait": 1.0}


def test_tracer_rejects_negative_span():
    tr = Tracer()
    with pytest.raises(ValueError):
        tr.record("p", "bad", 2.0, 1.0)


def test_tracer_accepts_out_of_order_starts():
    """Spans may arrive in any start order (workers report phases when
    they finish, not when they start); only end < start is rejected."""
    tr = Tracer()
    tr.record("p", "late", 5.0, 6.0)
    tr.record("p", "early", 0.0, 2.0)
    tr.record("p", "marker", 3.0, 3.0)  # zero-duration is legal
    assert tr.totals("p") == {"late": 1.0, "early": 2.0, "marker": 0.0}


def test_tracer_merge_combines_workers():
    a, b = Tracer(), Tracer()
    a.record("rank0", "work", 0.0, 2.0)
    a.record("rank1", "wait", 0.0, 1.0)
    b.record("rank0", "work", 2.0, 3.0)
    b.record("rank2", "work", 0.0, 4.0)
    merged = Tracer.merge(a, b)
    assert len(merged.spans) == 4
    assert merged.spans == a.spans + b.spans  # argument order
    assert merged.totals() == {"work": 7.0, "wait": 1.0}
    assert merged.totals("rank0") == {"work": 3.0}
    assert merged.processes() == ["rank0", "rank1", "rank2"]
    # inputs untouched, merged tracer independent
    assert len(a.spans) == 2 and len(b.spans) == 2
    merged.record("rank3", "work", 0.0, 1.0)
    assert len(a.spans) == 2 and len(b.spans) == 2


def test_tracer_merge_matches_re_recording():
    a, b = Tracer(), Tracer()
    for i in range(5):
        a.record(f"rank{i % 2}", "x", i * 1.0, i + 0.5)
        b.record(f"rank{i % 3}", "y", i * 2.0, i * 2.0 + 0.25)
    merged = Tracer.merge(a, b)
    replayed = Tracer(a.spans + b.spans)
    assert merged.spans == replayed.spans
    assert merged.totals() == replayed.totals()
    assert merged.by_process() == replayed.by_process()


def test_tracer_merge_empty_and_single():
    assert Tracer.merge().totals() == {}
    t = Tracer()
    t.record("p", "x", 0.0, 1.0)
    m = Tracer.merge(t)
    assert m.totals() == t.totals() and m.spans == t.spans
