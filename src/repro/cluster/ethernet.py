"""Commodity Ethernet/TCP fabric model — the Linux-cluster interconnect.

The paper's discussion: "a Linux cluster that can be built with the same
number of cores as used in Blue Gene will suffer from several
communication bottlenecks (collisions); this is one of the main
advantages of Blue Gene."  This model captures the three Ethernet
pathologies the torus lacks:

* **high per-message latency** — kernel TCP stack, ~25-50 us vs BG/Q's
  sub-microsecond messaging unit;
* **shared-medium contention** — a flat switched fabric with bounded
  bisection: effective per-flow bandwidth degrades as more nodes
  communicate at once ("collisions");
* **no optimized collectives** — socket-era applications broadcast by
  looping unicast sends (the paper's *before* state, Section V-B); the
  cost model therefore exposes only honest p2p costs and lets the
  algorithm layer pay the real O(P) penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["EthernetNetworkModel"]

_CONTENTION_NODES = 32.0
"""Cluster size (in nodes) over which the missing bisection fraction
costs one more unit of per-flow slowdown."""


@dataclass(frozen=True)
class EthernetNetworkModel:
    """Flat switched GbE/10GbE fabric with contention.

    Parameters
    ----------
    nodes:
        Cluster size (for the contention term).
    ranks_per_node:
        Processes per node sharing the NIC.
    link_bandwidth:
        Per-node NIC bandwidth, bytes/s (10 GbE default = 1.25e9).
    latency:
        Per-message software + switch latency (TCP stack dominated).
    bisection_factor:
        Fraction of full bisection the switch fabric provides; effective
        per-flow bandwidth under load divides by
        ``1 + (nodes - 1) * (1 - bisection_factor) / 32`` (the module
        constant ``_CONTENTION_NODES``, not a parameter).
    """

    nodes: int
    ranks_per_node: int = 12
    link_bandwidth: float = 1.25e9
    latency: float = 30e-6
    bisection_factor: float = 0.25

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.ranks_per_node < 1:
            raise ValueError("nodes and ranks_per_node must be >= 1")
        if not 0 < self.bisection_factor <= 1:
            raise ValueError(
                f"bisection_factor must be in (0,1]: {self.bisection_factor}"
            )

    @property
    def size(self) -> int:
        return self.nodes * self.ranks_per_node

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank`` under the block mapping."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range 0..{self.size - 1}")
        return rank // self.ranks_per_node

    def _effective_bandwidth(self) -> float:
        """Per-flow bandwidth: the full NIC minus a fabric-contention
        derate that grows with cluster size.  (Master-centric traffic is
        serialized, so on-node NIC sharing rarely bites; what does is
        oversubscribed switch uplinks as the cluster grows.)"""
        contention = 1.0 + (self.nodes - 1) * (1.0 - self.bisection_factor) / _CONTENTION_NODES
        return self.link_bandwidth / contention

    def on_node_costs(self, nbytes: Any) -> tuple[Any, Any]:
        """``(transfer, wire)`` on one node (loopback / shared memory).
        Plain arithmetic: ``nbytes`` may be an integer array."""
        wire = nbytes / 6e9
        return 5e-6 + wire, wire

    def off_node_costs(self, hops: Any, nbytes: Any) -> tuple[Any, Any]:
        """``(transfer, wire)`` between nodes: the flat fabric prices every
        node pair alike, so ``hops`` is ignored (or arrays)."""
        wire = nbytes / self._effective_bandwidth()
        return self.latency + wire, wire

    def p2p_time(self, src: int, dst: int, nbytes: int, now: float = 0.0) -> float:
        """End-to-end latency of one message (zero for self-sends)."""
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        if src == dst:
            return 0.0
        if self.node_of(src) == self.node_of(dst):
            return self.on_node_costs(nbytes)[0]
        return self.off_node_costs(0, nbytes)[0]

    def injection_time(self, nbytes: int) -> float:
        """TCP send: the CPU copies through the kernel (no DMA offload a
        la BG/Q's messaging unit), so the sender is busy for most of the
        wire time."""
        return 10e-6 + nbytes / self.link_bandwidth

    def wire_time(self, src: int, dst: int, nbytes: int) -> float:
        """Per-pair wire occupancy (NIC serialization off-node)."""
        if src == dst:
            return 0.0
        if self.node_of(src) == self.node_of(dst):
            return self.on_node_costs(nbytes)[1]
        return self.off_node_costs(0, nbytes)[1]

    def collective_params(self) -> tuple[float, float]:
        return self.latency, self._effective_bandwidth()
