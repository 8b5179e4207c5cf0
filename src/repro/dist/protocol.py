"""Master/worker protocol pieces shared by the distributed backends.

The paper's architecture (Section IV): "a master/worker architecture in
which worker processes ... perform data-parallel computation of
gradients and curvature matrix-vector products and the master implements
the Hessian-free optimization."  Rank 0 is the master; ranks 1..P-1 are
workers holding utterance shards.  How work and results move is the
exchange (:mod:`repro.dist.exchange`); this module holds what the real
workers compute on.

Curvature mini-samples are *derived, not shipped*: a curvature product's
work carries only a seed, and every worker recomputes the same global
sample with :func:`global_sample` and keeps its intersection — the
paper's "the right set of utterances to adhere to the randomness needed
by the algorithm".  Both shard kinds give their training batch, held-out
batch and part of a sample in one shape, so the worker's math is one
code path for frame and sequence criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nn.losses import SequenceBatchTargets, UtteranceSpan
from repro.util.rng import spawn

__all__ = [
    "FrameShard",
    "SequenceShard",
    "global_frame_sample",
    "global_sample",
    "global_utterance_sample",
    "sample_size",
]


def sample_size(total: int, fraction: float) -> int:
    """Global curvature-sample size — one formula for every backend."""
    if total < 1:
        raise ValueError(f"total must be >= 1: {total}")
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0,1]: {fraction}")
    return max(1, int(round(fraction * total)))


def global_sample(
    total: int, fraction: float, base_seed: int, sample_seed: int
) -> np.ndarray:
    """The ids of one curvature mini-sample (sorted): frames for frame
    criteria, utterances for sequence criteria.

    Identical to :meth:`repro.hf.sources.FrameSource.
    curvature_sample_indices` and :meth:`~repro.hf.sources.SequenceSource.
    curvature_sample_utterances` by construction — serial and distributed
    runs draw the *same* sample.
    """
    k = sample_size(total, fraction)
    rng = spawn(base_seed, "curvature", sample_seed)
    return np.sort(rng.choice(total, size=k, replace=False))


global_frame_sample = global_utterance_sample = global_sample


def gather_utterances(
    x: np.ndarray, spans: Sequence[UtteranceSpan], utts: np.ndarray
) -> tuple[np.ndarray, list[UtteranceSpan]]:
    """Frames of utterances ``utts`` concatenated, spans rebased onto them."""
    pieces, rebased = [], []
    pos = 0
    for u in utts.tolist():
        s = spans[u]
        pieces.append(x[s.start : s.end])
        length = s.end - s.start
        rebased.append(UtteranceSpan(pos, pos + length, s.states))
        pos += length
    gathered = np.concatenate(pieces, axis=0) if pieces else np.empty((0, x.shape[1]))
    return gathered, rebased


@dataclass
class FrameShard:
    """One worker's slice of a frame-level training set."""

    x: np.ndarray
    targets: np.ndarray
    global_ids: np.ndarray
    """Global frame indices of this shard's rows (for sample intersection)."""
    heldout_x: np.ndarray
    heldout_targets: np.ndarray

    def __post_init__(self) -> None:
        if not (
            self.x.shape[0]
            == np.asarray(self.targets).shape[0]
            == self.global_ids.shape[0]
        ):
            raise ValueError("shard arrays must align")
        if self.heldout_x.shape[0] != np.asarray(self.heldout_targets).shape[0]:
            raise ValueError("heldout shard arrays must align")

    @property
    def n_frames(self) -> int:
        return int(self.x.shape[0])

    def batch(self) -> tuple[np.ndarray, np.ndarray]:
        return self.x, self.targets

    def heldout_batch(self) -> tuple[np.ndarray, np.ndarray]:
        return self.heldout_x, self.heldout_targets

    def sample_rows(self, global_sample: np.ndarray) -> np.ndarray:
        """Local row positions whose global ids are in ``global_sample``."""
        mask = np.isin(self.global_ids, global_sample, assume_unique=False)
        return np.nonzero(mask)[0]

    def sample_batch(
        self, global_sample: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """(x, targets) for the owned rows of the sample, or None."""
        rows = self.sample_rows(global_sample)
        if rows.size == 0:
            return None
        return self.x[rows], np.asarray(self.targets)[rows]


@dataclass
class SequenceShard:
    """One worker's utterances for a sequence criterion."""

    x: np.ndarray
    spans: Sequence[UtteranceSpan]  # rebased to this shard's frame space
    global_utt_ids: np.ndarray
    heldout_x: np.ndarray
    heldout_spans: Sequence[UtteranceSpan]

    def __post_init__(self) -> None:
        if len(self.spans) != self.global_utt_ids.shape[0]:
            raise ValueError("spans and global_utt_ids must align")
        if self.spans and self.spans[-1].end != self.x.shape[0]:
            raise ValueError("spans must tile the shard's frames")

    @property
    def n_frames(self) -> int:
        return int(self.x.shape[0])

    def batch(self) -> tuple[np.ndarray, SequenceBatchTargets]:
        return self.x, SequenceBatchTargets(tuple(self.spans))

    def heldout_batch(self) -> tuple[np.ndarray, SequenceBatchTargets]:
        return self.heldout_x, SequenceBatchTargets(tuple(self.heldout_spans))

    def sample_batch(
        self, global_sample: np.ndarray
    ) -> tuple[np.ndarray, SequenceBatchTargets] | None:
        """(x, targets) for the owned subset of the sample, or None."""
        own = np.nonzero(np.isin(self.global_utt_ids, global_sample))[0]
        if own.size == 0:
            return None
        xb, rebased = gather_utterances(self.x, self.spans, own)
        return xb, SequenceBatchTargets(tuple(rebased))
