"""Seeded request-arrival processes for the inference-serving simulator.

Three generators cover the traffic shapes an operator plans for:

* ``poisson`` — memoryless steady-state load (exponential gaps).
* ``bursty`` — a two-state Markov-modulated Poisson process: calm
  periods at a base rate interleaved with bursts at ``burst_factor``
  times that rate, with exponentially distributed dwell times.  The
  base rate is normalized so the *time-averaged* rate still equals
  ``rate`` — a load sweep over bursty traffic stresses tail latency,
  not mean throughput.
* ``diurnal`` — a sinusoidally modulated rate (period ``period_s``,
  relative amplitude ``amplitude``), generated by thinning a Poisson
  stream at the peak rate.  A whole day compresses into one period of
  virtual time.

Every generator is a pure function of ``(spec, horizon, seed)``: the
request stream is materialized up front from one
:func:`repro.util.rng.spawn` stream, so the same seed reproduces the
same arrival times and utterance lengths bit-for-bit (the determinism
goldens in ``tests/test_serve.py`` pin this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.rng import spawn

__all__ = ["ArrivalSpec", "Request", "generate_arrivals"]

ARRIVAL_KINDS = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class Request:
    """One decode request: ``frames`` of audio arriving at virtual ``t``."""

    id: int
    t: float
    frames: int


@dataclass(frozen=True)
class ArrivalSpec:
    """Shape of the offered load (see the module docstring for kinds).

    ``rate`` is the time-averaged request rate in requests per virtual
    second for every kind; ``min_frames``/``max_frames`` bound the
    uniform utterance-length draw (100 frames = 1 s of audio at the
    paper's 10 ms frame step).
    """

    kind: str = "poisson"
    rate: float = 10.0
    min_frames: int = 100
    max_frames: int = 500
    burst_factor: float = 4.0
    mean_burst_s: float = 2.0
    mean_calm_s: float = 8.0
    amplitude: float = 0.8
    period_s: float = 60.0

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"arrival kind must be one of {ARRIVAL_KINDS}, got {self.kind!r}"
            )
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")
        if not 1 <= self.min_frames <= self.max_frames:
            raise ValueError(
                f"need 1 <= min_frames <= max_frames, got "
                f"[{self.min_frames}, {self.max_frames}]"
            )
        if not (math.isfinite(self.burst_factor) and self.burst_factor >= 1.0):
            raise ValueError(
                f"burst_factor must be finite and >= 1, got {self.burst_factor}"
            )
        for dwell in (self.mean_burst_s, self.mean_calm_s):
            if not (math.isfinite(dwell) and dwell > 0):
                raise ValueError(
                    f"burst/calm dwell means must be finite and > 0, got {dwell}"
                )
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {self.amplitude}")
        if not (math.isfinite(self.period_s) and self.period_s > 0):
            raise ValueError(f"period_s must be finite and > 0, got {self.period_s}")


def generate_arrivals(spec: ArrivalSpec, horizon_s: float, seed: int) -> list[Request]:
    """Materialize the request stream over ``[0, horizon_s)``.

    Deterministic: one RNG stream (derived via :func:`~repro.util.rng.
    spawn` from ``seed``) drives gaps, state switches, thinning draws,
    and utterance lengths in a fixed interleave.
    """
    if not (math.isfinite(horizon_s) and horizon_s > 0):
        raise ValueError(f"horizon_s must be finite and > 0, got {horizon_s}")
    rng = spawn(seed, "serve", "arrivals", spec.kind)
    out: list[Request] = []

    def emit(t: float) -> None:
        frames = int(rng.integers(spec.min_frames, spec.max_frames + 1))
        out.append(Request(id=len(out), t=t, frames=frames))

    if spec.kind == "poisson":
        t = rng.exponential(1.0 / spec.rate)
        while t < horizon_s:
            emit(t)
            t += rng.exponential(1.0 / spec.rate)
    elif spec.kind == "bursty":
        burst_frac = spec.mean_burst_s / (spec.mean_burst_s + spec.mean_calm_s)
        base = spec.rate / (1.0 - burst_frac + spec.burst_factor * burst_frac)
        t = 0.0
        in_burst = False
        while t < horizon_s:
            dwell = rng.exponential(
                spec.mean_burst_s if in_burst else spec.mean_calm_s
            )
            end = min(t + dwell, horizon_s)
            rate = base * (spec.burst_factor if in_burst else 1.0)
            t += rng.exponential(1.0 / rate)
            while t < end:
                emit(t)
                t += rng.exponential(1.0 / rate)
            t = end
            in_burst = not in_burst
        # ids stay in time order by construction (single forward pass)
    else:  # diurnal
        peak = spec.rate * (1.0 + spec.amplitude)
        omega = 2.0 * math.pi / spec.period_s
        t = rng.exponential(1.0 / peak)
        while t < horizon_s:
            accept = (1.0 + spec.amplitude * math.sin(omega * t)) / (
                1.0 + spec.amplitude
            )
            if rng.random() < accept:
                emit(t)
            t += rng.exponential(1.0 / peak)
    return out
