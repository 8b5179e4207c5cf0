"""Distributed Hessian-free training (the paper's Section IV system).

One master/worker protocol, two machines:

* :mod:`~repro.dist.exchange` — the protocol itself: the one worker
  program and the exchanges that carry work out and results back;
* :mod:`~repro.dist.threaded` — real math on real threads over that
  protocol, used for the accuracy-parity experiments;
* :mod:`~repro.dist.simulated` — the same protocol as DES rank programs
  at 1024-8192 simulated ranks on the BG/Q machine model, used for the
  paper's timing figures (:mod:`~repro.dist.vectorized` replays its
  phase table as whole-communicator vector phases);
* :mod:`~repro.dist.partition` — the Section V-C utterance load
  balancer both machines share.
"""

from repro.dist.partition import (
    Assignment,
    balanced_partition,
    imbalance,
    naive_partition,
)
from repro.dist.protocol import (
    FrameShard,
    SequenceShard,
    global_frame_sample,
    global_utterance_sample,
    sample_size,
)
from repro.dist.script import IterationScript, calibrate_script, default_script
from repro.dist.simulated import SimJobConfig, SimRunResult, simulate_training
from repro.dist.threaded import (
    MasterSource,
    ShardWorker,
    make_frame_shards,
    make_sequence_shards,
    train_threaded_hf,
)
from repro.dist.workload import (
    GEOMETRY_50HR,
    GEOMETRY_400HR,
    ModelGeometry,
    SimWorkload,
)

__all__ = [
    "Assignment",
    "balanced_partition",
    "imbalance",
    "naive_partition",
    "FrameShard",
    "SequenceShard",
    "global_frame_sample",
    "global_utterance_sample",
    "sample_size",
    "IterationScript",
    "calibrate_script",
    "default_script",
    "SimJobConfig",
    "SimRunResult",
    "simulate_training",
    "MasterSource",
    "ShardWorker",
    "make_frame_shards",
    "make_sequence_shards",
    "train_threaded_hf",
    "GEOMETRY_50HR",
    "GEOMETRY_400HR",
    "ModelGeometry",
    "SimWorkload",
]
