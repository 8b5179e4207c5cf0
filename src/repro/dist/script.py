"""Iteration scripts: the per-iteration workload profile of an HF run.

Simulating a 4096-rank training run cannot execute 4096 real gradient
computations per iteration — but it does not need to: the *control flow*
of Algorithm 1 (how many CG iterations each outer iteration ran, how
many held-out evaluations backtracking and the line search spent) is a
small trace.  We extract it from a **real** small-scale HF run
(:func:`calibrate_script`), then replay it at full scale on the DES with
modeled compute — so the simulated figures inherit the algorithm's true
behaviour instead of hand-picked constants.

``represented_iterations`` lets a short simulated run stand for a full
training (the paper: networks "converge ... after 20 to 40 iterations
through the entire data set"): total time = simulated per-iteration cost
x represented/simulated ratio, reported by the harness.

:class:`Schedule` turns a script into *the* description of a simulated
run: one :class:`Phase` per exchange of Algorithm 1 (theta out, every
worker computes on its shard, a reduction back, a few vector sweeps on
the master), with what each side charges.  The scalar rank programs of
:mod:`repro.dist.simulated` (collective or fault-tolerant exchange) and
the vector replay of :mod:`repro.dist.vectorized` all interpret that one
table; none of them loops over the script's counts (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.hf.types import HFResult
from repro.nn.parallel_sgd import exposed_comm_model
from repro.obs.attrib import COLL, COMPUTE, label
from repro.util.rng import spawn
from repro.vmpi.collcost import bcast_cost, collective_params, reduce_cost

__all__ = [
    "IterationScript",
    "Phase",
    "Schedule",
    "calibrate_script",
    "default_script",
]


@dataclass(frozen=True)
class IterationScript:
    """Per-outer-iteration control-flow counts for a simulated run."""

    cg_iters: tuple[int, ...]
    heldout_evals: tuple[int, ...]
    represented_iterations: int = 30

    def __post_init__(self) -> None:
        if not self.cg_iters:
            raise ValueError("need at least one scripted iteration")
        if len(self.cg_iters) != len(self.heldout_evals):
            raise ValueError(
                f"cg_iters ({len(self.cg_iters)}) and heldout_evals "
                f"({len(self.heldout_evals)}) must align"
            )
        if any(c < 1 for c in self.cg_iters):
            raise ValueError("every iteration runs >= 1 CG step")
        if any(h < 1 for h in self.heldout_evals):
            raise ValueError("every iteration evaluates held-out >= once")
        if self.represented_iterations < len(self.cg_iters):
            raise ValueError(
                "represented_iterations must be >= simulated iterations"
            )

    @property
    def n_iterations(self) -> int:
        return len(self.cg_iters)

    @property
    def scale_factor(self) -> float:
        """Multiplier from simulated iterations to a full training run."""
        return self.represented_iterations / self.n_iterations

    def truncated(self, n: int) -> "IterationScript":
        """First ``n`` iterations, keeping the represented total."""
        if not 1 <= n <= self.n_iterations:
            raise ValueError(f"n must be in [1, {self.n_iterations}]")
        return IterationScript(
            cg_iters=self.cg_iters[:n],
            heldout_evals=self.heldout_evals[:n],
            represented_iterations=self.represented_iterations,
        )


def calibrate_script(
    result: HFResult, represented_iterations: int = 30
) -> IterationScript:
    """Extract the control-flow profile of a real HF run."""
    if not result.iterations:
        raise ValueError("HF result has no iterations to calibrate from")
    return IterationScript(
        cg_iters=tuple(it.cg_iterations for it in result.iterations),
        heldout_evals=tuple(
            max(1, it.heldout_evals) for it in result.iterations
        ),
        represented_iterations=max(
            represented_iterations, len(result.iterations)
        ),
    )


def default_script(
    n_iterations: int = 2,
    seed: int = 0,
    represented_iterations: int = 30,
) -> IterationScript:
    """A plausible profile when no calibration run is available.

    CG counts center where Martens-style truncation lands for speech
    DNNs (a few tens of iterations), held-out evaluations reflect CG
    backtracking over ~log_1.3(cg_iters) snapshots plus a short Armijo
    search.
    """
    rng = spawn(seed, "script")
    cg = tuple(int(c) for c in rng.integers(12, 24, size=n_iterations))
    held = tuple(
        int(np.ceil(np.log(c) / np.log(1.3)) // 2 + rng.integers(2, 5))
        for c in cg
    )
    return IterationScript(
        cg_iters=cg,
        heldout_evals=held,
        represented_iterations=represented_iterations,
    )


@dataclass(frozen=True)
class Phase:
    """One exchange of Algorithm 1 and what each side charges for it:
    theta out, every worker computes on its shard, a reduction back, the
    master's vector sweeps.  The gradient, one Gauss-Newton product and
    one held-out loss all have this shape and differ only in the fields."""

    name: str
    """Wire name — ``grad:<it>``, ``cg:<it>:<k>`` or ``eval:<it>:<e>`` —
    the ``PayloadStub.kind`` a fault-tolerant worker dispatches on."""
    iteration: int
    bcast_labels: tuple[str, str]
    """(master, worker) span labels of the theta broadcast."""
    compute_label: str
    worker_secs: np.ndarray
    """Nominal compute seconds per worker (index ``rank - 1``), before
    the noise model's one draw per charge."""
    reduce_label: str
    reduce: str
    """What comes back: ``"theta"`` (a full-vector reduction), ``"loss"``
    (a 16-byte one, executed) or ``"overlap"`` (the gradient's bucketed
    pipeline: each rank pays only its exposed communication)."""
    master_label: str | None
    """Span label of the master's vector sweeps, ``None`` for no charge."""
    master_secs: float
    strict: bool
    """Recovering collect mode: ``True`` waits for every live worker and
    excludes the silent, ``False`` proceeds on the CG quorum."""

    @property
    def opens_iteration(self) -> bool:
        """True for the gradient phase — the iteration boundary a
        restarted master resumes from."""
        return self.name.startswith("grad:")


class Schedule:
    """Algorithm 1 priced for one run: the phase table, the theta
    routing, and the gradient-overlap model.

    ``policy`` is the run's :class:`~repro.vmpi.algoselect.\
CollectivePolicy` (``collective_selection="auto"``: a large-message
    collective costs its memoized choice) or ``None`` (the fixed closed
    forms of :mod:`repro.vmpi.collcost`).  Every float is computed here,
    once, whichever executor reads it: their virtual times cannot differ.
    """

    def __init__(self, cfg: Any, plan: Any, network: Any, policy: Any = None) -> None:
        shape, wl, script = cfg.shape, cfg.workload, cfg.script
        self.ranks = shape.ranks
        self._policy = policy
        self._alpha, self._bandwidth = collective_params(network)
        # Almost every collective moves theta: freeze its routing once.
        self.theta_bcast = self.bcast_model(wl.theta_bytes)
        self.theta_reduce = self.reduce_model(wl.theta_bytes)

        machine = (shape.cores_per_rank, shape.threads_per_core, shape.ranks_per_node)
        self.exposed = None
        """``gradient seconds -> exposed communication`` under
        ``overlap_gradient`` (layer gradients bucketed in backward order,
        each reduction pipelined behind the next bucket's compute)."""
        if cfg.overlap_gradient:
            layer_bytes = [
                (i * o + o) * wl.dtype_bytes for i, o in wl.geometry.layer_pairs()
            ]
            _buckets, self.exposed = exposed_comm_model(
                layer_bytes,
                cfg.gradient_bucket_bytes,
                wl.theta_bytes,
                lambda b: self.reduce_model(b)[1],
            )
            self.grad_algo = self.theta_reduce[0] + "+overlap"
            # the master produces no gradient; its charge is the exposed
            # communication behind the slowest worker's nominal compute
            # (the barrier inside the modeled collective makes the actual
            # straggler wait emergent either way)
            self.master_exposed: float = self.exposed(
                wl.gradient_seconds(int(plan.grad_frames.max()), *machine)
            )

        sync = (label(COLL, "sync_weights_master"), label(COLL, "sync_weights"))
        cg_bcast = (label(COLL, "cg_bcast"),) * 2
        # Per-phase charges are invariant across iterations (same frames,
        # same machine shape): the perf models run once per distinct
        # frame count, not once per phase.
        grad = wl.per_worker_seconds("gradient", plan.grad_frames, *machine)
        held = wl.per_worker_seconds("heldout", plan.heldout_frames, *machine)
        hf_master = wl.master_vector_op_seconds(4.0)
        cg_minimize = wl.master_vector_op_seconds(6.0)
        self.phases: list[Phase] = []
        add = self.phases.append
        for it in range(script.n_iterations):
            add(Phase(
                f"grad:{it}", it, sync,
                label(COMPUTE, "gradient_loss"), grad,
                label(COLL, "reduce_gradient"),
                "overlap" if cfg.overlap_gradient else "theta",
                label(COMPUTE, "hf_master"), hf_master, strict=True,
            ))
            frames = plan.curv_frames[it]
            product = wl.per_worker_seconds("curvature_product", frames, *machine)
            # per-CG-call forward cache (setup) charged on the first product
            first = product + wl.per_worker_seconds(
                "curvature_setup", frames, *machine
            )
            for k in range(script.cg_iters[it]):
                add(Phase(
                    f"cg:{it}:{k}", it, cg_bcast,
                    label(COMPUTE, "worker_curvature_product"),
                    first if k == 0 else product,
                    label(COLL, "cg_reduce"), "theta",
                    label(COMPUTE, "cg_minimize"), cg_minimize, strict=False,
                ))
            # held-out evaluations (CG backtracking + Armijo)
            for e in range(script.heldout_evals[it]):
                add(Phase(
                    f"eval:{it}:{e}", it, sync,
                    label(COMPUTE, "heldout_loss"), held,
                    label(COLL, "reduce_loss"), "loss",
                    None, 0.0, strict=True,
                ))

    def bcast_model(self, nbytes: int) -> tuple[str, float]:
        """(algo label, closed-form cost) of a large-message broadcast."""
        if self._policy is not None:
            algo, cost = self._policy.bcast_choice(self.ranks, nbytes)
            return str(algo), cost
        return "fixed", bcast_cost(self.ranks, nbytes, self._alpha, self._bandwidth)

    def reduce_model(self, nbytes: int) -> tuple[str, float]:
        """(algo label, closed-form cost) of a large-message reduction."""
        if self._policy is not None:
            algo, cost = self._policy.reduce_choice(self.ranks, nbytes)
            return str(algo), cost
        return "fixed", reduce_cost(self.ranks, nbytes, self._alpha, self._bandwidth)
