"""Deterministic fault injection and recovery for the simulated trainer.

Two halves, meeting in :mod:`repro.dist.simulated`:

* **Injection** — a :class:`FaultPlan` (JSON-loadable, seeded) schedules
  :class:`NodeCrash`, :class:`NodeSlowdown`, :class:`LinkDegrade`, and
  :class:`MessageDrop` events; a :class:`FaultInjector` compiles the
  plan and wires it into the DES (process kills through
  :meth:`repro.sim.engine.Engine.kill`, compute-charge scaling and
  message drops through :class:`repro.vmpi.comm.VComm`, link-time
  scaling through a wrapped network model).  With no plan attached every
  hook is a single ``is None`` check — the zero-cost gating discipline
  of the engine's pop binding in ``Engine.run`` and of ``_fast_p2p``.
* **Recovery** — a :class:`FaultPolicy` opts the HF master/worker
  protocol into timeout-driven retries, dead-worker exclusion with
  gradient renormalization, quorum-based partial-batch CG, and
  checkpoint-restart (simulated master and the real
  :class:`~repro.hf.optimizer.HessianFreeOptimizer` alike).  Every
  recovery action lands in a :class:`RecoveryLog`, which is part of the
  determinism golden for a seeded plan.

DESIGN.md §8 documents the fault model, its determinism guarantees, and
the master's exact recovery state machine.
"""

from repro.faults.inject import DegradedNetworkModel, FaultInjector
from repro.faults.plan import (
    FaultPlan,
    LinkDegrade,
    MessageDrop,
    NodeCrash,
    NodeSlowdown,
)
from repro.faults.policy import (
    FaultPolicy,
    FaultRecoveryError,
    RecoveryEvent,
    RecoveryLog,
)

__all__ = [
    "DegradedNetworkModel",
    "FaultInjector",
    "FaultPlan",
    "FaultPolicy",
    "FaultRecoveryError",
    "LinkDegrade",
    "MessageDrop",
    "NodeCrash",
    "NodeSlowdown",
    "RecoveryEvent",
    "RecoveryLog",
]
