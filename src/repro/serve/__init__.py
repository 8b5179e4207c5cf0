"""Inference serving on the simulated machine: ``repro serve``.

Discrete-event model of the trained speech decoder behind a request
front end — arrival processes (:mod:`~repro.serve.arrivals`), a bounded
admission queue (:mod:`~repro.serve.queueing`), dynamic batching
(:mod:`~repro.serve.batching`), the per-batch decode cost derived from
the gemm/BG/Q machine model (:mod:`~repro.serve.cost`), reactive
autoscaling (:mod:`~repro.serve.autoscale`), and the scenario driver
that wires them onto the virtual-MPI fabric
(:mod:`~repro.serve.scenario`).  Crash-free, autoscale-free runs skip
the DES and replay as one recurrence over the arrivals
(:mod:`~repro.serve.recurrence`), bit-identical to it.
"""

from repro.serve.arrivals import ARRIVAL_KINDS, ArrivalSpec, Request, generate_arrivals
from repro.serve.autoscale import AutoscalePolicy
from repro.serve.batching import BatchPolicy
from repro.serve.cost import DecodeCostModel
from repro.serve.scenario import ServeConfig, ServeResult, simulate_serving
from repro.serve.stats import ServeLog, quantile

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalSpec",
    "AutoscalePolicy",
    "BatchPolicy",
    "DecodeCostModel",
    "Request",
    "ServeConfig",
    "ServeLog",
    "ServeResult",
    "generate_arrivals",
    "quantile",
    "simulate_serving",
]
