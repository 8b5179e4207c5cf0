"""Operating-system noise models: CNK vs. a general-purpose Linux kernel.

The paper's Section VIII attributes BG/Q's clean scaling in part to the
Compute Node Kernel's lack of interference ("essentially free of
interference, verified directly through measurements").  We model OS
noise as a random multiplicative + additive inflation of compute spans:

* :class:`CnkNoise` — zero noise (no daemons, no preemption, no paging);
* :class:`LinuxJitter` — per-span noise with an exponential tail,
  representing timer ticks, daemons, and page faults on a commodity
  cluster node.  At synchronization points the *slowest* participant
  gates everyone, so even a ~1 % mean jitter costs much more at 96-4096
  processes — which is exactly what the Table I comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import make_rng

__all__ = ["NoiseModel", "CnkNoise", "LinuxJitter", "expected_sync_inflation"]


class NoiseModel:
    """Base: inflate a nominal compute duration with OS interference."""

    def perturb(self, seconds: float, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def perturb_series(
        self, seconds: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One rank's successive charges: ``seconds[i]`` perturbed by the
        ``i``-th :meth:`perturb` call on ``rng``, bit for bit.

        The vector executor charges a whole run of one worker through
        this, so a model overrides it only with something that consumes
        ``rng`` exactly as the loop below does."""
        return np.array([self.perturb(float(s), rng) for s in seconds])

    def expected_factor(self, participants: int = 1) -> float:
        """Expected inflation of a *synchronized* span over ``participants``
        processes (max of per-process noise)."""
        raise NotImplementedError


@dataclass(frozen=True)
class CnkNoise(NoiseModel):
    """BG/Q Compute Node Kernel: no jitter."""

    def perturb(self, seconds: float, rng: np.random.Generator) -> float:
        """CNK adds no jitter: durations pass through unchanged."""
        if seconds < 0:
            raise ValueError(f"negative duration {seconds}")
        return seconds

    def expected_factor(self, participants: int = 1) -> float:
        return 1.0


@dataclass(frozen=True)
class LinuxJitter(NoiseModel):
    """Commodity-Linux noise: relative jitter with an exponential tail.

    ``mean_fraction`` is the average slowdown of an isolated process
    (e.g. 0.01 = 1 %); ``tail_scale`` spreads the exponential tail.
    """

    mean_fraction: float = 0.01
    tail_scale: float = 0.02

    def __post_init__(self) -> None:
        if self.mean_fraction < 0 or self.tail_scale < 0:
            raise ValueError("noise parameters must be non-negative")

    def perturb(self, seconds: float, rng: np.random.Generator) -> float:
        """Stretch a duration by mean OS overhead plus exponential tail."""
        if seconds < 0:
            raise ValueError(f"negative duration {seconds}")
        noise = self.mean_fraction + rng.exponential(self.tail_scale)
        return seconds * (1.0 + noise)

    def perturb_series(
        self, seconds: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Every charge takes exactly one exponential draw, and a sized
        draw fills its output from the same stream one variate at a
        time, so one call yields the draws of ``len(seconds)`` scalar
        calls; the arithmetic is :meth:`perturb`'s, elementwise
        (tests/test_bgq_machine.py pins both identities)."""
        if np.any(seconds < 0):
            raise ValueError(f"negative duration in {seconds}")
        noise = self.mean_fraction + rng.exponential(
            self.tail_scale, size=len(seconds)
        )
        return seconds * (1.0 + noise)

    def expected_factor(self, participants: int = 1) -> float:
        """E[max of n iid (1 + mean + Exp(tail))] = 1 + mean + tail * H_n.

        The harmonic-number growth is the classic "noise amplification at
        scale" result (Petrini et al.): doubling processes adds a constant
        to the expected straggler tail.
        """
        if participants < 1:
            raise ValueError(f"participants must be >= 1, got {participants}")
        harmonic = float(np.sum(1.0 / np.arange(1, participants + 1)))
        return 1.0 + self.mean_fraction + self.tail_scale * harmonic


def expected_sync_inflation(noise: NoiseModel, participants: int) -> float:
    """Convenience wrapper used by the cluster comparator."""
    return noise.expected_factor(participants)
