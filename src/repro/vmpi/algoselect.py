"""Per-call collective algorithm selection.

MPI implementations ship several algorithms per collective because no
single one wins everywhere: logarithmic trees minimize latency (small
messages), ring/Rabenseifner schedules minimize bytes-on-the-wire (large
messages), and torus-dimension-pipelined variants exploit physical
adjacency on machines like BG/Q.  :class:`CollectivePolicy` encodes that
choice as an argmin over the closed-form costs in
:mod:`repro.vmpi.collcost`, parameterized by the network model's
``(alpha, bandwidth)`` and — when the model is torus-shaped — its
partition grid and per-hop latency.

The policy serves two callers:

* the executed collectives (:mod:`repro.vmpi.collectives`) when invoked
  with ``algo="auto"`` on a communicator carrying a policy;
* the trainer's large-message fast path, which charges the *selected*
  algorithm's closed-form cost instead of executing it.

Both consult the same tables, so the fast path and the executed path
agree on which algorithm a given ``(p, nbytes)`` runs.
"""

from __future__ import annotations

from enum import Enum
from math import prod

from repro.vmpi.collcost import (
    binomial_cost,
    collective_params,
    rabenseifner_allreduce_cost,
    ring_allreduce_cost,
    segmented_cost,
    torus_allreduce_cost,
    torus_bcast_cost,
)

__all__ = ["CollectiveAlgo", "CollectivePolicy"]


class CollectiveAlgo(str, Enum):
    """Named collective algorithms the engine can execute or cost."""

    BINOMIAL = "binomial"
    SEGMENTED = "segmented"
    """Segment-pipelined binomial tree — the executed analogue of the
    van de Geijn scatter+allgather broadcast, costed by its formula."""
    RECURSIVE_DOUBLING = "recursive_doubling"
    RING = "ring"
    RABENSEIFNER = "rabenseifner"
    TORUS = "torus"
    SERIAL = "serial"

    def __str__(self) -> str:  # "ring", not "CollectiveAlgo.RING"
        return self.value


class CollectivePolicy:
    """Pick the cheapest algorithm per (op, communicator size, nbytes).

    Parameters mirror :func:`repro.vmpi.collcost.collective_params`:
    ``alpha`` (per-message latency, mean-hop-inclusive) and ``bandwidth``
    (effective bytes/second).  When ``grid`` is given (the partition's
    rank grid, innermost dimension fastest-varying, matching the block
    rank→node mapping), torus-pipelined candidates are costed with
    per-dimension latencies; a torus candidate is only eligible when the
    grid covers the communicator exactly (``prod(grid) == p``).

    Choices are memoized per (op, p, nbytes): a training run asks for the
    same handful of payload sizes thousands of times.
    """

    def __init__(
        self,
        alpha: float,
        bandwidth: float,
        grid: tuple[int, ...] | None = None,
        base_latency: float | None = None,
        hop_latency: float | None = None,
        gamma: float = 0.1,
    ) -> None:
        if alpha < 0 or bandwidth <= 0:
            raise ValueError(
                f"need alpha >= 0 and bandwidth > 0, got {alpha}, {bandwidth}"
            )
        if grid is not None and any(d < 1 for d in grid):
            raise ValueError(f"all grid dims must be >= 1: {grid}")
        self.alpha = float(alpha)
        self.bandwidth = float(bandwidth)
        self.grid = tuple(grid) if grid is not None else None
        # Per-dimension stage latency parameters; default to the flat
        # alpha when the model exposes no hop structure.
        self.base_latency = float(base_latency) if base_latency is not None else alpha
        self.hop_latency = float(hop_latency) if hop_latency is not None else 0.0
        self.gamma = float(gamma)
        self._memo: dict[tuple[str, int, int], tuple[CollectiveAlgo, float]] = {}

    @classmethod
    def from_network(cls, network: object, size: int | None = None) -> "CollectivePolicy":
        """Build a policy from any network model.

        ``(alpha, bandwidth)`` come from :func:`collective_params`; torus
        structure is taken from the model's ``collective_topology()``
        when present.  ``size`` (the communicator size) gates the grid: a
        topology whose rank grid does not cover the communicator is
        dropped rather than mis-costed.
        """
        alpha, bandwidth = collective_params(network)
        grid = base = hop = None
        topo = getattr(network, "collective_topology", None)
        if topo is not None:
            grid, base, hop = topo()
            if size is not None and prod(grid) != size:
                grid = None
        return cls(alpha, bandwidth, grid=grid, base_latency=base, hop_latency=hop)

    # ------------------------------------------------------------- choices
    def _choose(self, op: str, p: int, nbytes: int) -> tuple[CollectiveAlgo, float]:
        """Memoized argmin over ``_CANDIDATES[op]``; the first candidate
        wins ties and names the free cases (one rank or no bytes)."""
        key = (op, p, nbytes)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if p < 1 or nbytes < 0:
            raise ValueError(f"bad collective args p={p}, nbytes={nbytes}")
        table = _CANDIDATES[op]
        if p == 1 or nbytes == 0:
            choice = (table[0][0], 0.0)
        else:
            # gamma (reduction compute) scales wire terms only, never
            # alpha: at tiny n the reduce tree then ties recursive
            # doubling exactly and wins as the first candidate — MPI's
            # small-message preference.
            gamma = () if op == "bcast" else (self.gamma,)
            grid = self.grid
            if grid is None or prod(grid) != p or all(d == 1 for d in grid):
                grid = None  # torus candidates need a grid covering p ranks
            costed = []
            for algo, cost in table:
                if algo is not CollectiveAlgo.TORUS:
                    args = (p, nbytes, self.alpha, self.bandwidth)
                elif grid is not None:
                    args = (grid, nbytes, self.base_latency, self.hop_latency, self.bandwidth)
                else:
                    continue
                costed.append((algo, cost(*args, *gamma)))
            choice = min(costed, key=lambda c: c[1])
        self._memo[key] = choice
        return choice

    def bcast_choice(self, p: int, nbytes: int) -> tuple[CollectiveAlgo, float]:
        """Cheapest broadcast algorithm and its closed-form cost."""
        return self._choose("bcast", p, nbytes)

    def allreduce_choice(self, p: int, nbytes: int) -> tuple[CollectiveAlgo, float]:
        """Cheapest allreduce algorithm and its closed-form cost."""
        return self._choose("allreduce", p, nbytes)

    def reduce_choice(self, p: int, nbytes: int) -> tuple[CollectiveAlgo, float]:
        """Cheapest rooted-reduce algorithm and its closed-form cost.

        Candidates: the binomial reduce tree, or any allreduce schedule
        (which over-delivers the result to every rank — at large n the
        reduce-scatter-based schedules still beat the tree because the
        tree moves the full vector at every level)."""
        return self._choose("reduce", p, nbytes)

    # --------------------------------------------------------------- report
    def crossover_table(
        self, p: int, sizes: tuple[int, ...]
    ) -> list[dict[str, object]]:
        """Selection decisions across message sizes — the data behind a
        Fig-4-style algorithm-crossover plot."""
        rows: list[dict[str, object]] = []
        for n in sizes:
            b_algo, b_cost = self.bcast_choice(p, n)
            a_algo, a_cost = self.allreduce_choice(p, n)
            r_algo, r_cost = self.reduce_choice(p, n)
            rows.append(
                {
                    "nbytes": n,
                    "bcast": {"algo": str(b_algo), "cost": b_cost},
                    "allreduce": {"algo": str(a_algo), "cost": a_cost},
                    "reduce": {"algo": str(r_algo), "cost": r_cost},
                }
            )
        return rows


_ALLREDUCE = (
    (CollectiveAlgo.RECURSIVE_DOUBLING, binomial_cost),
    (CollectiveAlgo.RING, ring_allreduce_cost),
    (CollectiveAlgo.RABENSEIFNER, rabenseifner_allreduce_cost),
    (CollectiveAlgo.TORUS, torus_allreduce_cost),
)
_CANDIDATES = {
    "bcast": (
        (CollectiveAlgo.BINOMIAL, binomial_cost),
        (CollectiveAlgo.SEGMENTED, segmented_cost),
        (CollectiveAlgo.TORUS, torus_bcast_cost),
    ),
    "allreduce": _ALLREDUCE,
    "reduce": (
        (CollectiveAlgo.BINOMIAL, binomial_cost),
        (CollectiveAlgo.SEGMENTED, segmented_cost),
        *_ALLREDUCE,
    ),
}
"""Per operation, the candidate algorithms in preference order with their
closed forms: ``cost(p, nbytes, alpha, bandwidth[, gamma])``, or for the
torus entries ``cost(grid, nbytes, base_latency, hop_latency,
bandwidth[, gamma])`` — gamma for the operations that combine."""
