"""Vectorized SPMD fast path: whole-phase array execution of the trainer.

When every rank runs the same program shape — the phase table of
:class:`repro.dist.script.Schedule` over the collective exchange, with
no faults, on a communicator of any size above eight — each row of the
table is a fixed sequence of *homogeneous phases*: a modeled-collective
barrier (4-byte sync reduce + 4-byte go bcast + closed-form transfer charge,
priced either by the fixed closed forms or by the same memoized
``collective_selection="auto"`` policy the scalar path consults), a
master *chain* (the master sends to ranks 1…p−1 one after another: the
load of the shards and every ``bcast_algorithm="serial"`` broadcast), a
per-worker compute charge (perturbed, under
:class:`~repro.bgq.kernel.LinuxJitter`, by each worker's own noise
stream), a master compute charge, a real 16-byte binomial loss
reduction, or — with ``overlap_gradient`` — a per-rank
exposed-communication charge from the DDP-style bucketed
:func:`~repro.nn.parallel_sgd.overlap_schedule`.  This module
replays that schedule as numpy operations over the per-rank clock vector
— one heap event per phase via :class:`repro.sim.engine.VectorPhase`
instead of O(ranks) generator steps per collective — and reproduces the
scalar scheduler's virtual times, message counts, span totals, and comm
matrices bit for bit (asserted by tests/test_sim_vector.py and gated by
the determinism goldens).

Bit-identity discipline (DESIGN.md §6e):

* every floating-point expression replicates the scalar code's exact
  operation sequence — ``max(t_send + transfer, end_wire) - t_send`` for
  delivery delay, ``(t0 + s) - t0`` for span durations — never an
  algebraically equal rewrite;
* per-edge message costs come from the network model's *own*
  formulas: each eligible model states its on-node and off-node
  ``(transfer, wire)`` once (``on_node_costs``/``off_node_costs``), as
  arithmetic its scalar ``p2p_time``/``wire_time`` evaluate too, and
  :func:`_edge_costs` evaluates them over the arrays of edge cost keys
  (same-node flag or torus hop count) and byte counts — no cost
  formula is written here;
* per-rank clock folds follow each rank's program order: the binomial
  tree sweeps process levels in the same ascending (reduce) /
  descending (bcast) mask order the generators execute, a chain's
  send times are the ``cumsum`` left fold of the master's
  ``now + injection`` steps, and per-edge wire-busy state is keyed
  exactly like the scalar scheduler's ``(src, dst)`` map.

A tree level is three strided views — leaves ``m::2m``, parents
``0:p-m:2m`` and the leaves' wire-busy entries — so :func:`_sweep`
updates it in place, with no gather or scatter, on every executor.
"""

# repro: spmd-vectorized  (module-wide: per-rank work is array ops; see DET004)

from __future__ import annotations

import functools
import os
from typing import Any, Callable

import numpy as np

from repro.bgq.kernel import CnkNoise, LinuxJitter
from repro.bgq.network import TorusNetworkModel
from repro.cluster.ethernet import EthernetNetworkModel
from repro.dist.exchange import SEGMENT_BYTES
from repro.dist.script import Schedule
from repro.dist.simulated import IO_AGGREGATE_BANDWIDTH
from repro.dist.timeline import COMPUTE, P2P, label
from repro.sim.engine import VectorPhase
from repro.util.rng import spawn
from repro.vmpi.collectives import binomial_levels
from repro.vmpi.costmodel import UniformNetwork

__all__ = [
    "run_vectorized",
    "vector_enabled",
    "vector_fallback_reason",
    "vector_shardable",
]

_SYNC_BYTES = 4
"""Sync/go stub size inside a modeled collective's emergent barrier."""

_LOSS_BYTES = 16
"""Loss payload reduced through the real binomial tree every eval."""


def vector_enabled(vector: bool | None) -> bool:
    """Resolve the run-level switch: an explicit ``vector`` argument wins,
    otherwise the ``REPRO_SIM_VECTOR`` env toggle (default on)."""
    if vector is not None:
        return bool(vector)
    return os.environ.get("REPRO_SIM_VECTOR", "1") != "0"


def vector_fallback_reason(cfg: Any, network: Any, trace_p2p: bool) -> str | None:
    """Why the run cannot take the vector fast path, or ``None`` if it can.

    The run is eligible iff it is exactly the homogeneous SPMD protocol
    the vector executor replays bit-identically — including
    ``collective_selection="auto"`` (the vector path prices every phase
    through the same memoized :class:`~repro.vmpi.algoselect.\
CollectivePolicy` the scalar path consults) and ``overlap_gradient``
    (the bucketed pipeline becomes a per-rank exposed-comm vector
    phase).  Any failing condition falls back to the per-process scalar
    scheduler; the returned slug labels the
    ``sim.vector.fallback{reason=...}`` counter
    :func:`~repro.dist.simulated.simulate_training` records so silent
    scalar-path regressions are observable (DESIGN.md §6e lists the
    same conditions as an eligibility matrix):

    * ``trace_p2p`` — per-message tracing materializes p2p spans;
    * ``fault_plan`` / ``fault_policy`` — faults and recovery are
      heterogeneous by construction;
    * ``staged_load`` — the staged relay's leader/member split is
      heterogeneous (master and parallel_io load are vectorizable);
    * ``noise_model`` — :class:`~repro.bgq.kernel.CnkNoise` draws
      nothing and :class:`~repro.bgq.kernel.LinuxJitter` draws once per
      compute charge from a per-worker stream, which is replayed as one
      sized draw per worker; any other model's use of its rng is
      unknown, and under ``overlap_gradient`` the jittered gradient
      time also feeds each rank's exposed-communication charge;
    * ``small_comm`` — the theta fast path needs ``ranks > 8``;
    * ``theta_not_fast_path`` — ``theta_bytes <= SEGMENT_BYTES`` makes
      theta collectives execute message-by-message;
    * ``network_model`` — only :class:`TorusNetworkModel`,
      :class:`UniformNetwork` and
      :class:`~repro.cluster.ethernet.EthernetNetworkModel` are known
      to have p2p costs pure in (same-node flag, hop count, nbytes),
      the property pricing whole edge arrays from their formulas
      relies on.
    """
    p = cfg.shape.ranks
    wl = cfg.workload
    if trace_p2p:
        return "trace_p2p"
    if cfg.fault_plan is not None and not cfg.fault_plan.empty:
        return "fault_plan"
    if cfg.fault_policy is not None:
        return "fault_policy"
    if cfg.load_data_mode not in ("master", "parallel_io"):
        return "staged_load"
    if type(cfg.noise) is not CnkNoise and (
        type(cfg.noise) is not LinuxJitter or cfg.overlap_gradient
    ):
        return "noise_model"
    if p <= 8:
        return "small_comm"
    if wl.theta_bytes <= SEGMENT_BYTES:
        return "theta_not_fast_path"
    if type(network) not in (
        TorusNetworkModel,
        UniformNetwork,
        EthernetNetworkModel,
    ):
        return "network_model"
    return None


def vector_shardable(cfg: Any) -> bool:
    """True iff an eligible run's kernels can be split across shard
    processes: the block split of :mod:`repro.sim.shard` needs full tree
    levels (a power-of-two communicator), and a serial broadcast is one
    sequential fold on the master with no block-local part."""
    p = cfg.shape.ranks
    return not p & (p - 1) and cfg.bcast_algorithm == "binomial"


# ------------------------------------------------------------- cost tables
def _torus_hops(dims: tuple[int, ...], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact torus hop counts between node index arrays ``a`` and ``b``.

    Integer-only replica of ``TorusShape.coords`` + per-dimension ring
    distance: the ``hops`` operand of the model's ``off_node_costs``.
    """
    total = np.zeros(a.shape, dtype=np.int64)
    rem_a = a.astype(np.int64, copy=True)
    rem_b = b.astype(np.int64, copy=True)
    for d in reversed(dims):
        ca = rem_a % d
        rem_a //= d
        cb = rem_b % d
        rem_b //= d
        diff = np.abs(ca - cb)
        total += np.minimum(diff, d - diff)
    return total


def _edge_keys(network: Any, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Cost-class key per edge: the torus hop count, -1 for a same-node
    pair; the flat Ethernet fabric prices every off-node pair alike (key
    0), and the uniform model has the single key 0 (tree and chain edges
    never self-send)."""
    if type(network) is UniformNetwork:
        return np.zeros(len(src), dtype=np.int64)
    rpn = network.ranks_per_node
    node_s = np.asarray(src, dtype=np.int64) // rpn
    node_d = np.asarray(dst, dtype=np.int64) // rpn
    if type(network) is EthernetNetworkModel:
        hops = np.int64(0)
    else:
        hops = _torus_hops(network.torus.dims, node_s, node_d)
    return np.where(node_s == node_d, np.int64(-1), hops)


def _edge_costs(
    network: Any, key: np.ndarray, nbytes: Any
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge ``(transfer, wire)`` from the model's own formulas, over
    :func:`_edge_keys` of the edges and a byte count (or one per edge):
    the arithmetic its scalar ``p2p_time``/``wire_time`` evaluate too,
    so the arrays equal per-edge scalar pricing bit for bit."""
    nbytes = np.asarray(nbytes, dtype=np.int64)
    transfer, wire = network.off_node_costs(key, nbytes)
    same_node = key < 0
    if same_node.any():
        t_on, w_on = network.on_node_costs(nbytes)
        transfer = np.where(same_node, t_on, transfer)
        wire = np.where(same_node, w_on, wire)
    shape = np.broadcast(key, nbytes).shape
    return np.broadcast_to(transfer, shape), np.broadcast_to(wire, shape)


def _level(
    cur: np.ndarray,
    busy: np.ndarray,
    leaves: slice,
    parents: slice,
    up: bool,
    transfer: np.ndarray,
    wire: np.ndarray,
    inj: float,
) -> None:
    """One tree level in place, replicating the scalar send path
    float-for-float: ``_delivery_delay``'s wire-busy fold, arrival as
    ``t_send + max(delay, injection)``, sender charged the injection,
    receiver resumed at ``max(clock, arrival)``.  Leaves send up to their
    parents (``up``) or parents down to their leaves; either way the
    edge's wire-busy entry is the leaf's.  ``leaves``/``parents`` must be
    slices: the writes go through views, and an index array would
    silently write into a copy."""
    snd, rcv = (cur[leaves], cur[parents]) if up else (cur[parents], cur[leaves])
    end_wire = busy[leaves]
    np.maximum(end_wire, snd, out=end_wire)
    end_wire += wire
    arrival = snd + transfer
    np.maximum(arrival, end_wire, out=arrival)
    arrival -= snd  # the delivery delay
    np.maximum(arrival, inj, out=arrival)
    arrival += snd
    np.maximum(rcv, arrival, out=rcv)
    snd += inj


def _sweep(
    cur: np.ndarray,
    busy: np.ndarray,
    costs: list[tuple[np.ndarray, np.ndarray]],
    inj: float,
    levels: range,
    up: bool,
    lo: int,
    hi: int,
    shift: int = 0,
) -> None:
    """Tree levels ``levels`` over ranks ``[lo, hi)``: ascending for a
    reduce (each rank sends to its parent at the level of its lowest set
    bit), descending for a bcast (each parent sends to its children in
    descending-mask order) — the order the steps of ``_tree_steps``
    execute.  Level ``i`` has mask ``1 << (i - shift)`` and per-edge
    costs ``costs[i]`` (the full tree's, of which a block takes its
    share); ``shift`` maps the upper levels of the full tree onto a
    vector of block roots."""
    for i in levels if up else reversed(levels):
        m = 1 << (i - shift)
        # binomial_levels(p) has leaves arange(m, p, 2m) and parents
        # leaves - m for any p: strided views, offset by a block's start
        leaves, parents = slice(lo + m, hi, 2 * m), slice(lo, hi - m, 2 * m)
        j0 = lo // (2 * m)
        j1 = j0 + len(range(lo + m, hi, 2 * m))
        transfer, wire = costs[i]
        _level(cur, busy, leaves, parents, up, transfer[j0:j1], wire[j0:j1], inj)


# ----------------------------------------------------------------- executor
class _VectorRun:
    """Precomputed schedule + mutable clock state for one eligible run.

    ``cur[r]`` is rank ``r``'s virtual clock; ``busy_up[r]`` /
    ``busy_dn[r]`` mirror the scalar scheduler's per-``(src, dst)``
    wire-busy map for the one up-tree edge ``(r, parent(r))`` and the one
    down-tree edge ``(parent(r), r)`` each non-root rank owns.  A chain
    sends on ``(0, w)`` for every ``w``: where ``w`` is a power of two
    that *is* its down-tree edge, so :attr:`root_key` maps it to
    ``busy_dn[w]``, and every other ``w`` gets ``busy_dn[p + w]`` — one
    array, one entry per distinct ``(src, dst)`` key, whichever kind of
    phase touches it.  ``cost_sets[i][level]`` is the per-edge
    ``(transfer, wire)`` of one tree level at stub size ``i`` (sync,
    loss), shared by both sweep directions; the levels themselves are
    strided views computed from the mask, so no per-level index array
    outlives pricing.  Kernel operations (tree sweeps, compute charges)
    go through :attr:`backend` so the sharded runtime can farm out the
    block-local work (``repro.sim.shard``); everything observable
    (spans, collective stats, message accounting) stays on the
    coordinator.
    """

    def __init__(
        self,
        cfg: Any,
        plan: Any,
        network: Any,
        policy: Any,
        comm: Any,
        load_done: list[float],
    ) -> None:
        self.cfg = cfg
        self.plan = plan
        self.network = network
        self.comm = comm
        self.load_done = load_done
        self.tracer = comm.tracer

        p = self.p = cfg.shape.ranks
        schedule = Schedule(cfg, plan, network, policy)

        self.cur = np.zeros(p, dtype=np.float64)
        self.busy_up = np.zeros(p, dtype=np.float64)
        self.busy_dn = np.zeros(2 * p, dtype=np.float64)
        workers = self.workers = np.arange(1, p, dtype=np.int64)
        self.root_key = np.where(workers & (workers - 1), p + workers, workers)
        """Index into :attr:`busy_dn` of the edge ``(0, w)``, ``w`` = 1…p−1."""

        # (transfer, wire) per tree level, shared by both sweep directions:
        # every eligible model's costs are symmetric in (src, dst)
        keys = [_edge_keys(network, lv, pr) for _m, lv, pr in binomial_levels(p)]
        self.cost_sets = [
            [_edge_costs(network, key, nbytes) for key in keys]
            for nbytes in (_SYNC_BYTES, _LOSS_BYTES)
        ]
        self.inj_sets = [network.injection_time(b) for b in (_SYNC_BYTES, _LOSS_BYTES)]

        self.backend: Any = _InlineBackend(self)
        self.phases: list[Callable[[float], tuple[float, Any]]] = []
        self.phase_labels: list[str] = []
        """One label per phase (the worker-side span label), parallel to
        :attr:`phases`; the executor logs ``(label, end, straggler)``
        per phase so the critical-path pass works at phase granularity
        without leaving the fast path."""
        self.phase_log: list[tuple[str, float, int]] = []
        self.kernel_ops: list[tuple] = []
        self.charges: list[np.ndarray] = []
        """Per-worker seconds of every worker compute phase, in program
        order; a ``("cw", j)`` kernel op charges ``charges[j]``."""
        self.n_barriers = 0
        self.n_loss = 0
        self.n_chains = 0

        # add_bcast(lbl_master, lbl_worker): one theta broadcast phase
        if cfg.bcast_algorithm == "serial":
            theta_nbytes = cfg.workload.theta_bytes
            chain = (
                network.injection_time(theta_nbytes),
                *self._root_edge_costs(theta_nbytes),
            )
            add_bcast = functools.partial(self._add_chain, chain)
        else:
            add_bcast = functools.partial(
                self._add_barrier, "bcast", *schedule.theta_bcast
            )

        self.phases.append(self._load_phase())
        exposed = None  # per-rank overlap charges, priced at the first use
        for ph in schedule.phases:
            add_bcast(*ph.bcast_labels)
            self._add_compute_workers(ph.worker_secs, ph.compute_label)
            lbl = ph.reduce_label
            if ph.reduce == "loss":
                self._add_loss_reduce(lbl)
            elif ph.reduce == "theta":
                self._add_barrier("reduce", *schedule.theta_reduce, lbl, lbl)
            else:
                # bucketed pipeline: the full gradient compute is already
                # charged above; the reduction leaves only each rank's
                # exposed communication — the master's, then the model
                # evaluated once per distinct worker gradient time
                if exposed is None:
                    uniq, inv = np.unique(ph.worker_secs, return_inverse=True)
                    per_time = np.array([schedule.exposed(float(g)) for g in uniq])
                    exposed = np.concatenate(([schedule.master_exposed], per_time[inv]))
                self._add_barrier("reduce", schedule.grad_algo, exposed, lbl, lbl)
            if ph.master_label is not None:
                self._add_compute_master(ph.master_secs, ph.master_label)
        if type(cfg.noise) is not CnkNoise:
            # one stream per worker, one draw per charge, in the order the
            # worker program makes them (CnkNoise draws nothing: no stream).
            # A stream per worker is the model, so this set-up loop is
            # O(workers) like the scalar path's; the phases stay array ops.
            charged = np.stack(self.charges)  # (charge, worker)
            for w in range(p - 1):
                charged[:, w] = cfg.noise.perturb_series(
                    charged[:, w], spawn(cfg.seed, "noise", w)
                )
            self.charges = list(charged)

    # ---------------------------------------------------------- tree kernels
    def sweep(self, cost_idx: int, up: bool, lo: int = 0) -> None:
        """Tree levels ``lo`` and up over the whole rank vector: the
        reduce's ascending-mask sweep (``up``) or the bcast's
        descending-mask one, at stub size ``cost_idx``."""
        costs = self.cost_sets[cost_idx]
        busy = self.busy_up if up else self.busy_dn
        levels = range(lo, len(costs))
        _sweep(self.cur, busy, costs, self.inj_sets[cost_idx], levels, up, 0, self.p)

    def _root_edge_costs(self, nbytes: Any) -> tuple[np.ndarray, np.ndarray]:
        """``(transfer, wire)`` of the edges ``(0, w)``, ``w`` = 1…p−1."""
        key = _edge_keys(self.network, np.zeros_like(self.workers), self.workers)
        return _edge_costs(self.network, key, nbytes)

    def _chain(self, inj: Any, transfer: np.ndarray, wire: np.ndarray) -> None:
        """The master sends to ranks 1…p−1 in order and each receives once
        (``_serial_bcast_impl``, and the master load): ``ctx.send`` yields
        each injection time in turn, so the master's clock is the left
        fold ``now + inj`` — which ``cumsum`` is — and message ``w`` leaves
        at the fold's ``w``-th value; the rest is :func:`_level`'s send
        path with those send times.  ``inj`` is a scalar or per-edge."""
        cur, busy, key = self.cur, self.busy_dn, self.root_key
        steps = np.empty(self.p, dtype=np.float64)
        steps[0] = cur[0]
        steps[1:] = inj
        clock = np.cumsum(steps)
        t_send = clock[:-1]
        start = np.maximum(busy[key], t_send)
        end_wire = start + wire
        busy[key] = end_wire
        delay = np.maximum(t_send + transfer, end_wire) - t_send
        arrival = t_send + np.maximum(delay, inj)
        cur[0] = clock[-1]
        cur[1:] = np.maximum(cur[1:], arrival)

    # --------------------------------------------------------- phase builders
    def _op(self, op: tuple) -> tuple:
        self.kernel_ops.append(op)
        return op

    def _end(self) -> tuple[float, Any]:
        return float(self.cur.max()), None

    def _load_phase(self) -> Callable[[float], tuple[float, Any]]:
        cfg = self.cfg
        if cfg.load_data_mode == "parallel_io":
            io_secs = float(self.plan.shard_bytes.sum()) / IO_AGGREGATE_BANDWIDTH
            lbl = label(COMPUTE, "load_data")
            self.phase_labels.append(lbl)

            def run_io(_now: float) -> tuple[float, Any]:
                cur = self.cur
                new = cur[1:] + io_secs
                d = new - cur[1:]
                cur[1:] = new
                if self.tracer is not None:
                    self.tracer.add_bulk(lbl, 1, d)
                self.load_done[0] = 0.0
                return self._end()

            return run_io

        lbl = label(P2P, "load_data")
        self.phase_labels.append(lbl)

        def run_master(_now: float) -> tuple[float, Any]:
            network = self.network
            shard = self.plan.shard_bytes
            uniq, inv = np.unique(shard, return_inverse=True)
            injs = np.array(
                [network.injection_time(int(b)) for b in uniq], dtype=np.float64
            )[inv]
            # from all-zero clocks; seeds wire-busy on every (0, w), which
            # the go-bcast (power-of-two w) and serial broadcasts reuse
            self._chain(injs, *self._root_edge_costs(shard))
            cur = self.cur
            if self.tracer is not None:
                self.tracer.add_bulk(lbl, 0, cur.copy())  # spans start at 0.0
            self.load_done[0] = float(cur[0])
            return self._end()

        return run_master

    def _add_barrier(
        self,
        op: str,
        algo: str,
        cost: float | np.ndarray,
        lbl_master: str,
        lbl_worker: str,
    ) -> None:
        """Modeled-collective phase: binomial sync/go stub sweeps plus the
        closed-form transfer charge — a scalar (same charge on every
        rank) or a per-rank vector (the overlap pipeline's exposed-comm
        charges, zero where a rank's compute hides everything — adding
        0.0 is exactly the scalar path's skipped charge)."""
        self.n_barriers += 1
        self.phase_labels.append(lbl_worker)
        up = self._op(("up", 0))
        down = self._op(("down", 0))
        if isinstance(cost, np.ndarray):
            addc = self._op(("addv", cost)) if cost.any() else None
        else:
            addc = self._op(("add", float(cost))) if cost > 0 else None

        def run(_now: float) -> tuple[float, Any]:
            cur = self.cur
            coll = self.comm.coll_stats
            backend = self.backend
            t0 = cur.copy()
            backend.run_op(up)
            if coll is not None:
                backend.drain()
                coll.on_bulk("reduce", "binomial", cur - t0)
                t1 = cur.copy()
            backend.run_op(down)
            if coll is not None:
                backend.drain()
                coll.on_bulk("bcast", "binomial", cur - t1)
            if addc is not None:
                backend.run_op(addc)
            backend.drain()
            d = cur - t0
            self._collective_done(op, algo, d, lbl_master, lbl_worker)
            return self._end()

        self.phases.append(run)

    def _add_chain(
        self,
        chain: tuple[float, np.ndarray, np.ndarray],
        lbl_master: str,
        lbl_worker: str,
    ) -> None:
        """Serial-broadcast phase: one :meth:`_chain` of theta messages,
        run on the coordinator (it has no block-local part to farm out)."""
        self.n_chains += 1
        self.phase_labels.append(lbl_worker)

        def run(_now: float) -> tuple[float, Any]:
            t0 = self.cur.copy()
            self._chain(*chain)
            self._collective_done(
                "bcast", "serial", self.cur - t0, lbl_master, lbl_worker
            )
            return self._end()

        self.phases.append(run)

    def _collective_done(
        self, op: str, algo: str, d: np.ndarray, lbl_master: str, lbl_worker: str
    ) -> None:
        """Spans and the per-rank collective record of one finished
        collective phase of per-rank durations ``d``."""
        if self.tracer is not None:
            if lbl_master == lbl_worker:
                self.tracer.add_bulk(lbl_master, 0, d)
            else:
                self.tracer.add_bulk(lbl_master, 0, d[:1])
                self.tracer.add_bulk(lbl_worker, 1, d[1:])
        coll = self.comm.coll_stats
        if coll is not None:
            coll.on_bulk(op, algo, d)

    def _add_loss_reduce(self, lbl: str) -> None:
        self.n_loss += 1
        self.phase_labels.append(lbl)
        up = self._op(("up", 1))

        def run(_now: float) -> tuple[float, Any]:
            cur = self.cur
            backend = self.backend
            t0 = cur.copy()
            backend.run_op(up)
            backend.drain()
            self._collective_done("reduce", "binomial", cur - t0, lbl, lbl)
            return self._end()

        self.phases.append(run)

    def _add_compute_workers(self, secs: np.ndarray, lbl: str) -> None:
        self.phase_labels.append(lbl)
        op = self._op(("cw", len(self.charges)))
        self.charges.append(secs)

        def run(_now: float) -> tuple[float, Any]:
            cur = self.cur
            backend = self.backend
            old = cur[1:].copy()
            backend.run_op(op)
            backend.drain()
            d = cur[1:] - old
            if self.tracer is not None:
                self.tracer.add_bulk(lbl, 1, d)
            return self._end()

        self.phases.append(run)

    def _add_compute_master(self, secs: float, lbl: str) -> None:
        self.phase_labels.append(lbl)

        def run(_now: float) -> tuple[float, Any]:
            cur = self.cur
            c0 = cur[0]
            new = c0 + secs
            cur[0] = new
            if self.tracer is not None:
                self.tracer.add_bulk(lbl, 0, np.array([new - c0]))
            return self._end()

        self.phases.append(run)

    # --------------------------------------------------------------- run/stats
    def execute(self) -> float:
        engine = self.comm.engine
        if self.tracer is not None:
            self.tracer.register_bulk(self.comm._rank_names)
        log = self.phase_log
        cur = self.cur

        def driver():
            for fn, lbl in zip(self.phases, self.phase_labels):
                yield VectorPhase(fn)
                # phase-granular dependency edge: when the phase ended and
                # which rank's clock set that end (the straggler) — the
                # aggregate critical path the obs layer walks instead of
                # per-rank spans (which the fast path never materialises)
                log.append((lbl, float(cur.max()), int(cur.argmax())))

        engine.process(driver(), name="vector")
        end = engine.run()
        self._final_stats()
        self.comm.set_rank_finish_times(cur)
        return float(end)

    def _final_stats(self) -> None:
        """Aggregate message accounting, exactly what the scalar path would
        have counted send by send."""
        p = self.p
        edges = p - 1
        msgs = edges * (2 * self.n_barriers + self.n_loss)
        nbytes = edges * (
            _SYNC_BYTES * 2 * self.n_barriers + _LOSS_BYTES * self.n_loss
        )
        theta_nbytes = self.cfg.workload.theta_bytes
        msgs += edges * self.n_chains
        nbytes += edges * theta_nbytes * self.n_chains
        loaded = self.cfg.load_data_mode == "master"
        if loaded:
            msgs += edges
            nbytes += int(self.plan.shard_bytes.sum())
        self.comm.bulk_account(msgs, nbytes)
        stats = self.comm.comm_stats
        if stats is None:
            return
        workers = self.workers
        master = np.zeros_like(workers)
        if loaded:
            stats.on_bulk(master, workers, self.plan.shard_bytes, 1)
        if self.n_chains:
            stats.on_bulk(master, workers, theta_nbytes, self.n_chains)
        for _m, leaves, parents in binomial_levels(p):
            stats.on_bulk(leaves, parents, _SYNC_BYTES, self.n_barriers)
            stats.on_bulk(parents, leaves, _SYNC_BYTES, self.n_barriers)
            if self.n_loss:
                stats.on_bulk(leaves, parents, _LOSS_BYTES, self.n_loss)


class _InlineBackend:
    """Single-process kernel execution: ops run directly on the full arrays."""

    __slots__ = ("run",)

    def __init__(self, run: _VectorRun) -> None:
        self.run = run

    def run_op(self, op: tuple) -> None:
        kind = op[0]
        r = self.run
        if kind in ("up", "down"):
            r.sweep(op[1], kind == "up")
        elif kind in ("add", "addv"):
            r.cur += op[1]
        elif kind == "cw":
            r.cur[1:] += r.charges[op[1]]
        else:  # pragma: no cover - schedule and executor are built together
            raise ValueError(f"unknown kernel op {op!r}")

    def drain(self) -> None:
        """No-op: inline ops complete synchronously."""


def run_vectorized(
    cfg: Any,
    plan: Any,
    network: Any,
    policy: Any,
    comm: Any,
    load_done: list[float],
    shards: int = 1,
    speculate: bool = False,
) -> tuple[float, list[tuple[str, float, int]]]:
    """Execute one eligible SPMD run on the vector fast path.

    Returns ``(virtual end time, phase log)`` where the end time equals
    ``Engine.finish_time`` and the phase log holds one
    ``(label, end, straggler_rank)`` entry per executed phase — the
    aggregate-level dependency chain the critical-path pass consumes.
    With ``shards > 1`` the block-local kernel work is partitioned
    across OS processes by :class:`repro.sim.shard.ShardPool`; results
    are bit-identical to ``shards == 1`` because every shard executes
    the same float operations on disjoint array slices.  ``speculate``
    additionally selects the pool's optimistic window protocol
    (checkpoint + rollback instead of two barriers per kernel op) —
    committed values are identical either way.
    """
    run = _VectorRun(cfg, plan, network, policy, comm, load_done)
    pool = None
    try:
        if shards > 1:
            from repro.sim.shard import ShardPool

            pool = run.backend = ShardPool(
                run, shards, obs=comm.obs, speculate=speculate
            )
        return run.execute(), run.phase_log
    finally:
        if pool is not None:
            pool.close()
        # The phase closures and the backend point back at the run: left
        # in place, the cycle keeps the communicator, the plan, the cost
        # arrays and the tracer's bulk spans alive until a full
        # collection happens to run.  Broken here, they go by refcount
        # the moment the caller drops the result.
        run.phases.clear()
        run.backend = None
