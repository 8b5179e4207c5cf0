"""Load balancing (Section V-C): sorted/LPT vs naive partitioning."""

import heapq
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import balanced_partition, imbalance, naive_partition
from repro.dist.partition import _lpt_takers
from repro.speech import HmmSampler, HmmSpec


def _lpt_reference(lengths, n_workers):
    """The heap loop ``balanced_partition`` was until PR 12, kept as its
    oracle: pop the lightest ``(load, worker)``, give it the next-longest
    utterance, push it back."""
    lengths = [int(v) for v in lengths]
    order = sorted(range(len(lengths)), key=lambda i: (-lengths[i], i))
    heap = [(0, w) for w in range(n_workers)]
    buckets = [[] for _ in range(n_workers)]
    for i in order:
        load, w = heapq.heappop(heap)
        buckets[w].append(i)
        heapq.heappush(heap, (load + lengths[i], w))
    return tuple(tuple(sorted(b)) for b in buckets)


def _lognormal_table(n, seed):
    """Clipped log-normal lengths, as ``_draw_utterance_lengths`` draws."""
    spec = HmmSpec()
    mu = np.log(spec.mean_length) - 0.5 * spec.length_sigma**2
    draw = np.random.default_rng(seed).lognormal(mu, spec.length_sigma, size=n)
    return np.clip(np.round(draw), spec.min_length, spec.max_length).astype(np.int64)


REALISTIC = {
    "75k@96": (75_000, 96),
    "75k@4096": (75_000, 4096),
    "150k@65536": (150_000, 65536),
}

_W = 65536
ADVERSARIAL = {
    # every round of a one-lap speculation commits a single utterance
    "giants+tiny": (np.r_[np.full(_W - 1, 2000), np.ones(84_000, np.int64)], _W),
    "distinct-giants+tiny": (
        np.r_[np.arange(5000 + _W - 1, 5000, -1), np.ones(84_000, np.int64)], _W
    ),
    # two light workers take the whole tail turn by turn
    "two-alternate@64": (np.r_[np.full(62, 100_000), np.ones(100_000, np.int64)], 64),
    "two-alternate@4096": (
        np.r_[np.full(4094, 200_000), np.tile([2, 1], 50_000)], 4096
    ),
    "all-equal": (np.full(150_000, 7), 4096),
}


@pytest.mark.parametrize("fn", [naive_partition, balanced_partition])
class TestPartitionInvariants:
    def test_conservation(self, fn):
        lengths = [5, 9, 1, 7, 3, 8, 2, 6]
        a = fn(lengths, 3)
        assigned = sorted(u for w in a.workers for u in w)
        assert assigned == list(range(8))

    def test_every_worker_has_load_when_possible(self, fn):
        a = fn([10] * 12, 4)
        assert all(len(w) == 3 for w in a.workers)

    def test_validation(self, fn):
        with pytest.raises(ValueError):
            fn([1, 2], 3)  # fewer utterances than workers
        with pytest.raises(ValueError):
            fn([1, 0, 2], 2)  # zero-length utterance
        with pytest.raises(ValueError):
            fn([1, 2, 3], 0)
        for bad in (
            [2.7, 1.2, 3.9, 1.9],  # used to be truncated to [2, 1, 3, 1]
            [3.0, float("inf")],
            [3.0, float("nan")],
            [True, True],
            np.array([True, True]),
            ["3", "4"],
        ):
            with pytest.raises(ValueError, match="lengths must be finite integers"):
                fn(bad, 2)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.uint64, np.float64])
    def test_integer_valued_arrays_of_any_dtype_accepted(self, fn, dtype):
        lengths = [5, 9, 1, 7, 3, 8]
        a = fn(np.array(lengths, dtype=dtype), 3)
        assert a.workers == fn(lengths, 3).workers
        assert a.lengths == tuple(lengths)
        assert a.frames_per_worker().sum() == sum(lengths)


def test_balanced_beats_naive_on_long_tailed_lengths():
    """The paper's observation: with log-normal utterance lengths, naive
    round-robin leaves stragglers; sorting + LPT equalizes frames."""
    sampler = HmmSampler(HmmSpec(length_sigma=0.7), seed=0)
    rng = np.random.default_rng(0)
    mu = np.log(60) - 0.5 * 0.7**2
    lengths = np.clip(
        np.round(rng.lognormal(mu, 0.7, size=2000)), 8, 2000
    ).astype(int).tolist()
    for workers in (8, 32, 64):
        r_naive = imbalance(naive_partition(lengths, workers))
        r_balanced = imbalance(balanced_partition(lengths, workers))
        assert r_balanced < r_naive
        assert r_balanced < 1.02  # LPT is near-perfect at these ratios


def test_balanced_deterministic():
    lengths = [3, 1, 4, 1, 5, 9, 2, 6]
    a1 = balanced_partition(lengths, 3)
    a2 = balanced_partition(lengths, 3)
    assert a1.workers == a2.workers


def test_lpt_exact_on_simple_case():
    # LPT places 4 -> w0, 3 -> w1, 3 -> w1, 2 -> w0: perfectly balanced
    a = balanced_partition([4, 3, 3, 2], 2)
    assert sorted(a.frames_per_worker().tolist()) == [6, 6]


def test_assignment_rejects_duplicates_and_gaps():
    from repro.dist import Assignment

    with pytest.raises(ValueError, match="twice"):
        Assignment(workers=((0, 1), (1,)), lengths=(5, 5))
    with pytest.raises(ValueError, match="unassigned"):
        Assignment(workers=((0,), ()), lengths=(5, 5))
    with pytest.raises(ValueError, match="out of range"):
        Assignment(workers=((0,), (2,)), lengths=(5, 5))
    with pytest.raises(ValueError, match="out of range"):
        Assignment(workers=((0,), (-1,)), lengths=(5, 5))


def test_assignment_views_agree():
    from repro.dist import Assignment

    a = Assignment(workers=((3, 1), (), (0, 2)), lengths=(5, 6, 7, 8))
    assert a.worker_of.tolist() == [2, 0, 2, 0]
    assert a.workers == ((1, 3), (), (0, 2))
    assert (a.n_workers, a.lengths) == (3, (5, 6, 7, 8))
    assert a.frames_per_worker().tolist() == [14, 0, 12]
    order, bounds = a.grouped()
    assert (order.tolist(), bounds.tolist()) == ([1, 3, 0, 2], [0, 2, 2, 4])


def test_imbalance_of_perfect_split_is_one():
    a = balanced_partition([4, 4, 4, 4], 2)
    assert imbalance(a) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 500), min_size=4, max_size=60),
    workers=st.integers(1, 4),
)
def test_property_balanced_close_to_perfect(lengths, workers):
    """Greedy guarantee: the max load exceeds the mean by at most one
    job (the last one placed on the busiest worker started below the
    mean)."""
    if len(lengths) < workers:
        return
    loads = balanced_partition(lengths, workers).frames_per_worker()
    mean = sum(lengths) / workers
    assert loads.max() <= mean + max(lengths) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 100), min_size=3, max_size=40),
    workers=st.integers(1, 5),
)
def test_property_lpt_greedy_guarantee(lengths, workers):
    """List-scheduling guarantee: max load < mean + largest job, and the
    minimum-loaded worker is never above the mean."""
    if len(lengths) < workers:
        return
    a = balanced_partition(lengths, workers)
    loads = a.frames_per_worker()
    mean = sum(lengths) / workers
    assert loads.max() <= mean + max(lengths) + 1e-9
    assert loads.min() <= mean + 1e-9


# ------------------------------------------- batched LPT == the heap loop
@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 3), min_size=1, max_size=80),
    workers=st.integers(1, 80),
)
def test_property_matches_heap_on_tie_heavy_tables(lengths, workers):
    workers = min(workers, len(lengths))
    assert balanced_partition(lengths, workers).workers == _lpt_reference(lengths, workers)


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(
        st.one_of(st.integers(1, 6), st.integers(1, 2000), st.integers(1, 10**9)),
        min_size=1,
        max_size=60,
    ),
    shape=st.sampled_from(["any", "one worker", "one each"]),
    data=st.data(),
)
def test_property_matches_heap_on_mixed_scales(lengths, shape, data):
    workers = {"one worker": 1, "one each": len(lengths)}.get(shape) or data.draw(
        st.integers(1, len(lengths))
    )
    assert balanced_partition(lengths, workers).workers == _lpt_reference(lengths, workers)


@pytest.mark.parametrize("name", REALISTIC)
def test_matches_heap_on_realistic_tables(name):
    n, workers = REALISTIC[name]
    for seed in (0, 1):
        lengths = _lognormal_table(n, seed)
        assert balanced_partition(lengths, workers).workers == _lpt_reference(lengths, workers)


@pytest.mark.parametrize("name", REALISTIC)
def test_round_count_on_realistic_tables(name):
    """About ``n / n_workers`` rounds: each one hands (at least) one
    utterance to nearly every worker."""
    n, workers = REALISTIC[name]
    lengths = np.sort(_lognormal_table(n, seed=2))[::-1]
    assert _lpt_takers(lengths, workers)[1] <= 2 * math.ceil(n / workers) + 8


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_adversarial_tables_match_heap_within_twice_its_time(name):
    """Worst-case guard: a round's work is bounded by what it commits, so
    the tables that make one-lap speculation commit one utterance a round
    stay cheap.  The bound is a ratio to the heap loop timed here, on the
    same table and machine (best of three against one run of the loop)."""
    lengths, workers = ADVERSARIAL[name]
    t0 = time.perf_counter()
    reference = _lpt_reference(lengths, workers)
    reference_s = time.perf_counter() - t0
    batched_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        got = balanced_partition(lengths, workers)
        batched_s = min(batched_s, time.perf_counter() - t0)
    assert got.workers == reference
    assert batched_s <= 2 * reference_s
