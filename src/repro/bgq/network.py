"""Torus network cost model for virtual MPI on BG/Q.

Implements the :class:`~repro.vmpi.costmodel.NetworkModel` protocol:
consecutive MPI ranks are packed onto nodes ``ranks_per_node`` at a time
(the default BG/Q mapping), intra-node messages move at memory-copy
bandwidth, and inter-node messages pay per-hop router latency plus
serialization on 2 GB/s links along the dimension-ordered route.

A light congestion term grows with the machine's *bisection load*:
when many ranks communicate simultaneously (as in the trainer's gradient
reductions), effective per-message bandwidth degrades slightly with
partition size.  The coefficient is small — BG/Q's torus is famously
uncongested — but it is what bends the paper's scaling curve past 4096
ranks (Figs 1b / Section VIII "beyond 4096, sub-linear").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bgq.memory import BGQ_MEMORY, MemoryHierarchy
from repro.bgq.torus import TorusShape, torus_shape_for_nodes

__all__ = ["TorusNetworkModel"]


@dataclass(frozen=True)
class TorusNetworkModel:
    """p2p message costs on a BG/Q partition.

    Parameters
    ----------
    nodes:
        Partition size in nodes; the production torus shape is looked up.
    ranks_per_node:
        MPI ranks packed per node (block mapping: ranks ``[k*rpn,
        (k+1)*rpn)`` live on node ``k``).
    link_bandwidth:
        Bytes/second per link direction (2 GB/s on BG/Q).
    hop_latency:
        Router traversal seconds per hop (~40 ns on BG/Q).
    base_latency:
        Fixed software/messaging-unit overhead per message (~600 ns MPI).
    congestion_per_node:
        Fractional bandwidth derating per node of partition size,
        modeling background traffic on shared links during dense
        communication phases.
    """

    nodes: int
    ranks_per_node: int = 1
    link_bandwidth: float = 2e9
    hop_latency: float = 40e-9
    base_latency: float = 600e-9
    congestion_per_node: float = 6e-6
    memory: MemoryHierarchy = BGQ_MEMORY
    torus: TorusShape = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"need >= 1 node, got {self.nodes}")
        if self.ranks_per_node < 1:
            raise ValueError(f"ranks_per_node must be >= 1")
        if self.torus is None:
            object.__setattr__(self, "torus", torus_shape_for_nodes(self.nodes))
        if self.torus.nodes != self.nodes:
            raise ValueError(
                f"torus shape {self.torus.dims} has {self.torus.nodes} nodes, "
                f"expected {self.nodes}"
            )
        # Per-instance memo tables (plain attributes, not dataclass
        # fields: excluded from eq/repr/hash).  p2p_time and wire_time
        # are pure in (src, dst, nbytes) — ``now`` is unused — and a
        # simulated training run re-evaluates the same tree edges with
        # the same payload sizes millions of times, so the tables stay
        # small (O(live tree edges x payload sizes)) while removing the
        # route computation from the simulator's hot path.
        object.__setattr__(self, "_p2p_cache", {})
        object.__setattr__(self, "_wire_cache", {})
        object.__setattr__(self, "_inj_cache", {})
        object.__setattr__(self, "_pair_cache", {})

    # ---------------------------------------------------------------- mapping
    @property
    def size(self) -> int:
        """Total MPI ranks the model covers."""
        return self.nodes * self.ranks_per_node

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank`` under the block mapping."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range 0..{self.size - 1}")
        return rank // self.ranks_per_node

    def degraded(
        self, bandwidth_factor: float = 1.0, latency_factor: float = 1.0
    ) -> "TorusNetworkModel":
        """A derived model with scaled link parameters.

        ``bandwidth_factor`` multiplies ``link_bandwidth`` (0.5 = half
        rate) and ``latency_factor`` multiplies both ``hop_latency`` and
        ``base_latency``.  The variant is a full frozen model with its
        own memo caches, so fault windows (:class:`repro.faults.plan.
        LinkDegrade`) route through it without touching the base model's
        cached times.
        """
        if not (0.0 < bandwidth_factor <= 1.0):
            raise ValueError(
                f"bandwidth_factor must be in (0, 1], got {bandwidth_factor}"
            )
        if latency_factor < 1.0:
            raise ValueError(f"latency_factor must be >= 1, got {latency_factor}")
        return TorusNetworkModel(
            nodes=self.nodes,
            ranks_per_node=self.ranks_per_node,
            link_bandwidth=self.link_bandwidth * bandwidth_factor,
            hop_latency=self.hop_latency * latency_factor,
            base_latency=self.base_latency * latency_factor,
            congestion_per_node=self.congestion_per_node,
            memory=self.memory,
            torus=self.torus,
        )

    # ---------------------------------------------------------------- costs
    def _effective_bandwidth(self) -> float:
        derate = 1.0 + self.congestion_per_node * self.nodes
        return self.link_bandwidth / derate

    def on_node_costs(self, nbytes: Any) -> tuple[Any, Any]:
        """``(transfer, wire)`` on one node: a shared-memory copy through
        L2/DDR.  Plain arithmetic: ``nbytes`` may be an integer array."""
        wire = nbytes / self.memory.intranode_copy_bandwidth
        return 200e-9 + wire, wire

    def off_node_costs(self, hops: Any, nbytes: Any) -> tuple[Any, Any]:
        """``(transfer, wire)`` over ``hops`` torus links: router latency
        per hop plus serialization at the derated link rate (or arrays)."""
        wire = nbytes / self._effective_bandwidth()
        return self.base_latency + hops * self.hop_latency + wire, wire

    def p2p_time(self, src: int, dst: int, nbytes: int, now: float = 0.0) -> float:
        """Point-to-point transfer time on the torus, including any
        fault-plan link degradation active at ``now``."""
        key = (src, dst, nbytes)
        cached = self._p2p_cache.get(key)
        if cached is not None:
            return cached
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        if src == dst:
            t = 0.0
        else:
            nsrc, ndst = self.node_of(src), self.node_of(dst)
            if nsrc == ndst:
                t = self.on_node_costs(nbytes)[0]
            else:
                t = self.off_node_costs(self.torus.hops(nsrc, ndst), nbytes)[0]
        self._p2p_cache[key] = t
        return t

    def injection_time(self, nbytes: int) -> float:
        """Sender-side occupancy: the messaging unit DMA-offloads, so the
        core only pays descriptor setup plus a copy capped by injection
        bandwidth (aggregate 2 GB/s x 10 links shared by on-node ranks)."""
        cached = self._inj_cache.get(nbytes)
        if cached is not None:
            return cached
        inj_bw = self.link_bandwidth * 10 / self.ranks_per_node
        t = 250e-9 + nbytes / inj_bw
        self._inj_cache[nbytes] = t
        return t

    def wire_time(self, src: int, dst: int, nbytes: int) -> float:
        """Per-pair wire occupancy: link serialization off-node, memory
        copy occupancy on-node."""
        key = (src, dst, nbytes)
        cached = self._wire_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            t = 0.0
        elif self.node_of(src) == self.node_of(dst):
            t = self.on_node_costs(nbytes)[1]
        else:  # link serialization: the same over any hop count
            t = self.off_node_costs(0, nbytes)[1]
        self._wire_cache[key] = t
        return t

    def pair_time(self, src: int, dst: int, nbytes: int) -> tuple[float, float]:
        """``(p2p_time, wire_time)`` in one cached lookup.

        The simulator's send path needs both numbers for every message;
        fetching them together halves the cache traffic on the hottest
        call site.  Values are exactly :meth:`p2p_time` /
        :meth:`wire_time` (both pure in ``(src, dst, nbytes)``)."""
        key = (src, dst, nbytes)
        cached = self._pair_cache.get(key)
        if cached is None:
            cached = self._pair_cache[key] = (
                self.p2p_time(src, dst, nbytes),
                self.wire_time(src, dst, nbytes),
            )
        return cached

    def collective_params(self) -> tuple[float, float]:
        """(alpha, bandwidth) for the closed-form collective fast path:
        per-step latency is base latency plus an average-distance hop
        charge; bandwidth is the congestion-derated link rate."""
        alpha = self.base_latency + self.torus.mean_hops_estimate() * self.hop_latency
        return alpha, self._effective_bandwidth()

    def collective_topology(self) -> tuple[tuple[int, ...], float, float]:
        """``(grid, base_latency, hop_latency)`` for dimension-pipelined
        collectives.

        The grid is the partition's non-trivial torus dimensions with
        ``ranks_per_node`` appended as the innermost dimension — row-major
        over that grid matches the block rank→node mapping exactly, so a
        stage along grid dimension d really does move along one torus
        ring (or within a node for the last dimension)."""
        grid = tuple(d for d in self.torus.dims if d > 1)
        if self.ranks_per_node > 1 or not grid:
            grid = grid + (self.ranks_per_node,)
        return grid, self.base_latency, self.hop_latency
