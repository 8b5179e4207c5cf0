"""Virtual MPI: communicators, point-to-point, and collectives.

Two backends share the package:

* **DES backend** (:mod:`repro.vmpi.comm`, :mod:`repro.vmpi.collectives`)
  — generator rank programs on the discrete-event engine with a pluggable
  network cost model; scales to thousands of simulated ranks.
* **Thread backend** (:mod:`repro.vmpi.inprocess`) — blocking API on real
  OS threads whose collectives run the DES backend's own schedules.
"""

from repro.vmpi.backend import SpmdResult, run_spmd
from repro.vmpi.algoselect import CollectiveAlgo, CollectivePolicy
from repro.vmpi.collectives import (
    allgather,
    allreduce,
    barrier,
    bcast,
    gather,
    ordered_reduce,
    rabenseifner_allreduce,
    reduce,
    reduce_scatter,
    ring_allreduce,
    scatter,
    serial_bcast,
    torus_allreduce,
    torus_bcast,
)
from repro.analysis.runtime import CollectiveOrderChecker, CollectiveOrderError
from repro.vmpi.comm import (
    ANY_SOURCE,
    ANY_TAG,
    Mailbox,
    Message,
    RankCtx,
    RecvTimeoutError,
    VComm,
)
from repro.vmpi.costmodel import (
    NetworkModel,
    PayloadStub,
    UniformNetwork,
    ZeroCostNetwork,
    nbytes_of,
)
from repro.vmpi.inprocess import ThreadRankComm, WorkerFailure, run_threaded
from repro.vmpi.ops import CONCAT, MAX, MIN, SUM, ReduceOp

__all__ = [
    "SpmdResult",
    "run_spmd",
    "allgather",
    "allreduce",
    "barrier",
    "bcast",
    "gather",
    "ordered_reduce",
    "rabenseifner_allreduce",
    "reduce",
    "reduce_scatter",
    "ring_allreduce",
    "scatter",
    "serial_bcast",
    "torus_allreduce",
    "torus_bcast",
    "CollectiveAlgo",
    "CollectivePolicy",
    "ANY_SOURCE",
    "ANY_TAG",
    "CollectiveOrderChecker",
    "CollectiveOrderError",
    "Mailbox",
    "Message",
    "RankCtx",
    "RecvTimeoutError",
    "VComm",
    "NetworkModel",
    "PayloadStub",
    "UniformNetwork",
    "ZeroCostNetwork",
    "nbytes_of",
    "ThreadRankComm",
    "WorkerFailure",
    "run_threaded",
    "CONCAT",
    "MAX",
    "MIN",
    "SUM",
    "ReduceOp",
]
