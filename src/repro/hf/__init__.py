"""Hessian-free second-order optimization (the paper's core algorithm).

Algorithm 1 decomposed into testable pieces: truncated CG with Martens
stopping and snapshots (:mod:`~repro.hf.cg`), the Levenberg–Marquardt
damping schedule (:mod:`~repro.hf.damping`), Armijo backtracking
(:mod:`~repro.hf.linesearch`), the outer loop
(:mod:`~repro.hf.optimizer`), serial data sources
(:mod:`~repro.hf.sources`), and the optional Martens preconditioner the
paper omits (:mod:`~repro.hf.preconditioner`).
"""

from repro.hf.cg import CGConfig, CGResult, cg_minimize
from repro.hf.damping import DampingDecision, DampingSchedule
from repro.hf.linesearch import ArmijoConfig, ArmijoResult, armijo_backtrack
from repro.hf.optimizer import HessianFreeOptimizer
from repro.hf.preconditioner import (
    gradient_squared_preconditioner,
    martens_preconditioner,
    squared_gradient_diagonal,
)
from repro.hf.sources import FrameSource, SequenceSource
from repro.hf.types import HFConfig, HFDataSource, HFIterationStats, HFResult

__all__ = [
    "CGConfig",
    "CGResult",
    "cg_minimize",
    "DampingDecision",
    "DampingSchedule",
    "ArmijoConfig",
    "ArmijoResult",
    "armijo_backtrack",
    "HessianFreeOptimizer",
    "gradient_squared_preconditioner",
    "martens_preconditioner",
    "squared_gradient_diagonal",
    "FrameSource",
    "SequenceSource",
    "HFConfig",
    "HFDataSource",
    "HFIterationStats",
    "HFResult",
]
