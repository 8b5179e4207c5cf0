"""Network cost models for the virtual MPI layer.

A network model answers one question: how long does a point-to-point
message of ``nbytes`` take from rank ``src`` to rank ``dst``?  Collective
times then *emerge* from the collective algorithms executed over p2p on
the DES — they are not closed-form formulas — so algorithmic choices
(binomial bcast vs. serial sends) show up in the measured virtual time
exactly as they would on hardware.

Two generic models live here; the Blue Gene/Q torus model
(:class:`repro.bgq.network.TorusNetworkModel`) and the Ethernet model
(:class:`repro.cluster.ethernet.EthernetNetworkModel`) implement the same
protocol with topology-aware costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "NetworkModel",
    "UniformNetwork",
    "ZeroCostNetwork",
    "min_cross_latency",
    "nbytes_of",
    "PayloadStub",
]


def min_cross_latency(network: "NetworkModel", size: int, shards: int) -> float:
    """Conservative-window lookahead for the sharded engine.

    The shard coordinator (:mod:`repro.sim.shard`) may let shards advance
    independently only within a time window no larger than the minimum
    latency of any message that can cross a shard boundary — a message
    injected at the window start cannot arrive at another shard before
    ``window_start + lookahead``, so events inside the window are safe to
    execute without inter-shard rollback.  Ranks are partitioned into
    ``shards`` contiguous blocks of ``size // shards``; the bound is the
    minimum zero-byte ``p2p_time`` over boundary-adjacent rank pairs in
    both directions (cheap, and exact for the repo's distance-monotone
    models where adding bytes or hops never makes a message faster).
    """
    if shards <= 1:
        return float("inf")
    block = size // shards
    best = float("inf")
    for s in range(1, shards):
        lo, hi = s * block - 1, s * block
        best = min(
            best,
            network.p2p_time(lo, hi, 0),
            network.p2p_time(hi, lo, 0),
        )
    return best


@runtime_checkable
class NetworkModel(Protocol):
    """Protocol all fabric models implement."""

    def p2p_time(self, src: int, dst: int, nbytes: int, now: float = 0.0) -> float:
        """Seconds for one message ``src -> dst`` of ``nbytes`` starting at ``now``."""
        ...

    def injection_time(self, nbytes: int) -> float:
        """Seconds the *sender* is occupied injecting the message (overlap
        beyond this is free — models eager/rendezvous DMA offload)."""
        ...


@dataclass(frozen=True)
class UniformNetwork:
    """Classic alpha-beta (latency + bandwidth) model, topology-blind.

    ``latency`` in seconds, ``bandwidth`` in bytes/second.  Good enough
    for unit-testing the collective algorithms where only relative shapes
    matter.
    """

    latency: float = 2e-6
    bandwidth: float = 2e9
    injection_bandwidth: float | None = None

    def p2p_time(self, src: int, dst: int, nbytes: int, now: float = 0.0) -> float:
        """Uniform latency-plus-serialization cost (zero for self-sends)."""
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        if src == dst:
            return 0.0
        return self.off_node_costs(0, nbytes)[0]

    def injection_time(self, nbytes: int) -> float:
        """Sender-side occupancy before the message is on the wire."""
        bw = self.injection_bandwidth or self.bandwidth
        return self.latency * 0.5 + nbytes / bw

    def wire_time(self, src: int, dst: int, nbytes: int) -> float:
        """Wire occupancy per message: back-to-back messages on the
        same (src, dst) pair serialize at this rate."""
        if src == dst:
            return 0.0
        return self.off_node_costs(0, nbytes)[1]

    def off_node_costs(self, hops: Any, nbytes: Any) -> tuple[Any, Any]:
        """``(transfer, wire)`` between distinct ranks: topology-blind, so
        ``hops`` is ignored.  Plain arithmetic: ``nbytes`` may be an
        integer array."""
        wire = nbytes / self.bandwidth
        return self.latency + wire, wire

    def collective_params(self) -> tuple[float, float]:
        """(alpha, bandwidth) for closed-form collective costs — on a
        topology-blind model these are just the p2p parameters."""
        return self.latency, self.bandwidth


@dataclass(frozen=True)
class ZeroCostNetwork:
    """All communication is free.  Isolates algorithmic/semantic testing
    (collective correctness, deadlock detection) from timing."""

    def p2p_time(self, src: int, dst: int, nbytes: int, now: float = 0.0) -> float:
        return 0.0

    def injection_time(self, nbytes: int) -> float:
        return 0.0

    def wire_time(self, src: int, dst: int, nbytes: int) -> float:
        return 0.0

    def collective_params(self) -> tuple[float, float]:
        return 0.0, float("inf")


@dataclass(frozen=True)
class PayloadStub:
    """Shape-only stand-in for a large payload in modeled-compute runs.

    Carries the byte count (for the network model) and a small tag for
    debugging; arithmetic combination of stubs (reductions) preserves the
    byte count, mirroring elementwise reduction of equal-shaped buffers.
    """

    nbytes: int
    kind: str = "stub"

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"negative stub size {self.nbytes}")


def nbytes_of(payload: object) -> int:
    """Best-effort wire size of a payload.

    numpy arrays report exact buffer size; stubs report their declared
    size; containers sum their elements; scalars count as 8 bytes.

    :class:`PayloadStub` is checked first: modeled-compute runs size
    every message through here, and stubs dominate that traffic.
    """
    if type(payload) is PayloadStub:
        return payload.nbytes
    if payload is None:
        return 0
    if isinstance(payload, PayloadStub):
        return payload.nbytes
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (int, float, complex, np.generic)):
        return 8
    if isinstance(payload, dict):
        # integer byte counts: addition is exact, order cannot matter
        return sum(nbytes_of(k) + nbytes_of(v) for k, v in payload.items())  # repro: noqa(DET002)
    if isinstance(payload, (list, tuple)):
        return sum(nbytes_of(x) for x in payload)
    # dataclass-ish objects: sum public attribute payloads
    if hasattr(payload, "__dict__"):
        return sum(nbytes_of(v) for k, v in vars(payload).items() if not k.startswith("_"))
    return 64  # conservative default for opaque objects
