"""Closed-form collective cost formulas for large-message fast-path.

Executing a 160 MB broadcast over 4096 DES ranks segment-by-segment
would cost millions of simulated messages per collective.  The simulated
trainer therefore uses a two-regime scheme:

* **small messages / small communicators** — the real tree algorithms in
  :mod:`repro.vmpi.collectives` execute message-by-message (their cost
  *emerges* from the network model);
* **large messages at scale** — ranks synchronize with a real tiny-
  message barrier (so straggler waiting stays emergent), then charge the
  canonical closed-form transfer cost below.

The formulas are the standard MPICH/van-de-Geijn costs.  The test suite
validates them against the *executed* algorithms over the same network
model at small-to-medium rank counts — the formulas are a calibrated
shortcut, not a separate theory.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "binomial_cost",
    "segmented_cost",
    "bcast_cost",
    "reduce_cost",
    "allreduce_cost",
    "ring_allreduce_cost",
    "rabenseifner_allreduce_cost",
    "reduce_scatter_cost",
    "allgather_cost",
    "torus_bcast_cost",
    "torus_allreduce_cost",
    "collective_params",
]


def collective_params(network: object) -> tuple[float, float]:
    """Extract (alpha = per-message latency, beta-inverse = bandwidth) from
    a network model.

    Uses the model's ``collective_params()`` if present; otherwise falls
    back to probing common attributes.  The probe threads the model's
    *mean torus hop distance* into alpha when the model carries a
    ``torus`` shape and a per-hop latency — a torus-like model without
    the explicit method would otherwise be costed as if every pair were
    adjacent, and the closed forms would disagree with the executed
    algorithms by the average route length.
    """
    if hasattr(network, "collective_params"):
        return network.collective_params()  # type: ignore[no-any-return]
    lat = getattr(network, "latency", None)
    if lat is None:
        lat = getattr(network, "base_latency", None)
    bw = getattr(network, "bandwidth", None)
    if bw is None:
        bw = getattr(network, "link_bandwidth", None)
    if lat is None or bw is None:
        raise TypeError(
            f"network model {type(network).__name__} exposes neither "
            f"collective_params() nor latency/bandwidth attributes"
        )
    alpha = float(lat)
    hop_latency = getattr(network, "hop_latency", None)
    torus = getattr(network, "torus", None)
    if hop_latency is not None and torus is not None:
        mean_hops = getattr(torus, "mean_hops_estimate", None)
        if mean_hops is not None:
            alpha += float(mean_hops()) * float(hop_latency)
    return alpha, float(bw)


def _free(p: int, nbytes: int) -> bool:
    """Validate ``(p, nbytes)``; True when the collective moves nothing."""
    if p < 1 or nbytes < 0:
        raise ValueError(f"bad collective args p={p}, nbytes={nbytes}")
    return p == 1 or nbytes == 0


def binomial_cost(
    p: int, nbytes: int, alpha: float, bandwidth: float, gamma: float = 0.0
) -> float:
    """ceil(log2 P) (alpha + n/bw): the binomial bcast/reduce tree, and
    equally recursive doubling — the full vector crosses one link per
    level.  ``gamma`` (the combine surcharge of the reducing variants)
    scales the wire term only, never alpha."""
    if _free(p, nbytes):
        return 0.0
    return math.ceil(math.log2(p)) * (alpha + nbytes / bandwidth * (1.0 + gamma))


def segmented_cost(
    p: int, nbytes: int, alpha: float, bandwidth: float, gamma: float = 0.0
) -> float:
    """2 (ceil(log2 P) alpha + n/bw (P-1)/P): van de Geijn scatter +
    allgather (for reductions, reduce-scatter + allgather) — what the
    segment-pipelined tree approaches, asymptotically 2 n/bw."""
    if _free(p, nbytes):
        return 0.0
    depth = math.ceil(math.log2(p))
    return 2.0 * (depth * alpha + nbytes / bandwidth * (p - 1) / p * (1.0 + gamma))


@lru_cache(maxsize=4096)
def bcast_cost(p: int, nbytes: int, alpha: float, bandwidth: float) -> float:
    """Broadcast: min(binomial tree, scatter+allgather pipeline).

    Binomial: ceil(log2 P) (alpha + n/bw) — wins for small n.
    van de Geijn: scatter (log P alpha + n/bw (P-1)/P) then allgather
    (same) — wins for large n, asymptotically 2 n/bw.

    Memoized: a simulated training run evaluates this with the same
    handful of ``(p, nbytes, alpha, bandwidth)`` tuples thousands of
    times (one per modeled collective per iteration); the formula is
    pure, so an ``lru_cache`` is free correctness-wise.
    """
    return min(
        binomial_cost(p, nbytes, alpha, bandwidth),
        segmented_cost(p, nbytes, alpha, bandwidth),
    )


@lru_cache(maxsize=4096)
def reduce_cost(
    p: int, nbytes: int, alpha: float, bandwidth: float, gamma: float = 0.1
) -> float:
    """Reduction: transfer shaped like bcast plus a combine surcharge.

    ``gamma`` is the per-byte combine cost relative to wire time (vector
    adds run far above link bandwidth, so the surcharge is small).
    """
    return bcast_cost(p, nbytes, alpha, bandwidth) * (1.0 + gamma)


@lru_cache(maxsize=4096)
def allreduce_cost(p: int, nbytes: int, alpha: float, bandwidth: float) -> float:
    """Allreduce: min(recursive doubling, reduce-scatter + allgather) —
    the two closed forms :func:`bcast_cost` takes the minimum of."""
    return bcast_cost(p, nbytes, alpha, bandwidth)


@lru_cache(maxsize=4096)
def reduce_scatter_cost(
    p: int, nbytes: int, alpha: float, bandwidth: float, gamma: float = 0.1
) -> float:
    """Ring reduce-scatter: p-1 steps, each moving ~n/p bytes.

    (p-1) alpha + n/bw (p-1)/p, plus the combine surcharge on the bytes
    each rank folds (every step reduces one chunk).
    """
    if _free(p, nbytes):
        return 0.0
    wire = (nbytes / bandwidth) * (p - 1) / p
    return (p - 1) * alpha + wire * (1.0 + gamma)


@lru_cache(maxsize=4096)
def allgather_cost(p: int, nbytes: int, alpha: float, bandwidth: float) -> float:
    """Ring allgather: p-1 steps of ~n/p bytes, no combine."""
    if _free(p, nbytes):
        return 0.0
    return (p - 1) * alpha + (nbytes / bandwidth) * (p - 1) / p


@lru_cache(maxsize=4096)
def ring_allreduce_cost(
    p: int, nbytes: int, alpha: float, bandwidth: float, gamma: float = 0.1
) -> float:
    """Ring allreduce = ring reduce-scatter + ring allgather.

    2(p-1) alpha + 2 n/bw (p-1)/p — bandwidth-optimal, latency-heavy.
    """
    return reduce_scatter_cost(p, nbytes, alpha, bandwidth, gamma) + allgather_cost(
        p, nbytes, alpha, bandwidth
    )


@lru_cache(maxsize=4096)
def rabenseifner_allreduce_cost(
    p: int, nbytes: int, alpha: float, bandwidth: float, gamma: float = 0.1
) -> float:
    """Rabenseifner allreduce: recursive-halving reduce-scatter then
    recursive-doubling allgather.

    2 ceil(log2 p) alpha + 2 n/bw (p-1)/p — same bandwidth term as the
    ring with logarithmic latency.  Non-power-of-two communicators pay
    an extra fold-in/unfold exchange of the full vector.
    """
    if _free(p, nbytes):
        return 0.0
    pof2 = 1 << (p.bit_length() - 1)
    wire = nbytes / bandwidth
    depth = int(math.log2(pof2))
    core = 2.0 * depth * alpha + 2.0 * wire * (pof2 - 1) / pof2 * (1.0 + gamma / 2.0)
    if pof2 != p:
        core += 2.0 * (alpha + wire * (1.0 + gamma / 2.0))
    return core


def _stage_alphas(
    dims: tuple[int, ...], base_latency: float, hop_latency: float
) -> tuple[float, ...]:
    """Per-dimension message latency: a stage moving along one torus ring
    pays that ring's expected hop distance, not the whole partition's."""
    from repro.bgq.torus import ring_mean_distance

    return tuple(
        base_latency + ring_mean_distance(d) * hop_latency for d in dims
    )


@lru_cache(maxsize=4096)
def torus_bcast_cost(
    dims: tuple[int, ...],
    nbytes: int,
    base_latency: float,
    hop_latency: float,
    bandwidth: float,
) -> float:
    """Torus-dimension-pipelined broadcast: binomial tree per dimension.

    Stage d broadcasts along the length-``s_d`` rings of dimension d;
    stages run sequentially but each pays only the single-ring latency
    (neighbours on a ring are 1..s_d/2 hops apart, far closer than the
    partition mean that a flat binomial over random ranks would pay).
    """
    if nbytes < 0:
        raise ValueError(f"bad collective args nbytes={nbytes}")
    if not dims or all(d == 1 for d in dims):
        return 0.0
    if any(d < 1 for d in dims):
        raise ValueError(f"all grid dims must be >= 1: {dims}")
    if nbytes == 0:
        return 0.0
    total = 0.0
    for d, a in zip(dims, _stage_alphas(dims, base_latency, hop_latency)):
        if d > 1:
            # One stage-setup latency per active dimension: each stage is
            # a separate pass over the partition and cannot start until
            # the previous dimension's lines have all finished.
            total += a + bcast_cost(d, nbytes, a, bandwidth)
    return total


@lru_cache(maxsize=4096)
def torus_allreduce_cost(
    dims: tuple[int, ...],
    nbytes: int,
    base_latency: float,
    hop_latency: float,
    bandwidth: float,
    gamma: float = 0.1,
) -> float:
    """Torus-dimension-pipelined allreduce: ring allreduce per dimension.

    Each stage runs a full-vector ring allreduce along one dimension's
    rings; after all stages every rank holds the global reduction.  The
    full vector moves in every stage, so this wins only when per-stage
    latency savings (short rings, adjacent neighbours) beat the repeated
    bandwidth term — exactly the trade the selection policy arbitrates.
    """
    if nbytes < 0:
        raise ValueError(f"bad collective args nbytes={nbytes}")
    if not dims or all(d == 1 for d in dims):
        return 0.0
    if any(d < 1 for d in dims):
        raise ValueError(f"all grid dims must be >= 1: {dims}")
    if nbytes == 0:
        return 0.0
    total = 0.0
    for d, a in zip(dims, _stage_alphas(dims, base_latency, hop_latency)):
        if d > 1:
            # Stage-setup latency, as in :func:`torus_bcast_cost`.
            total += a + ring_allreduce_cost(d, nbytes, a, bandwidth, gamma)
    return total

