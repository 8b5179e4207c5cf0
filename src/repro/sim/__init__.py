"""Discrete-event simulation substrate.

:class:`~repro.sim.engine.Engine` runs generator-based simulated
processes on a virtual clock; :class:`~repro.sim.trace.Tracer` records
labelled per-process timelines.  The virtual MPI layer
(:mod:`repro.vmpi`) and the Blue Gene/Q machine model
(:mod:`repro.bgq`) build on these.
"""

from repro.sim.engine import (
    AllOf,
    DeadlockError,
    Engine,
    Get,
    GetTimeout,
    Put,
    SimError,
    SimProcess,
    Store,
    run_all,
)
from repro.sim.trace import Span, Tracer

__all__ = [
    "AllOf",
    "DeadlockError",
    "Engine",
    "GetTimeout",
    "Get",
    "Put",
    "SimError",
    "SimProcess",
    "Store",
    "run_all",
    "Span",
    "Tracer",
]
