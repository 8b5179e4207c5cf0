"""Training checkpoints: save/restore parameters and optimizer state.

The paper's runs take hours on two racks; any production trainer
checkpoints.  Format: a single ``.npz`` per checkpoint holding the flat
parameter vector, the HF warm-start direction and damping state, and a
JSON-encoded metadata blob (iteration counts, config echoes, loss
trajectory) — everything needed to resume Algorithm 1 mid-training.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint"]

_FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    """One saved training state."""

    theta: np.ndarray
    iteration: int = 0
    lam: float = 1.0
    d0: np.ndarray | None = None
    """The HF momentum warm start (beta * d_N)."""
    heldout_trajectory: list[float] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.theta.ndim != 1:
            raise ValueError(f"theta must be flat, got shape {self.theta.shape}")
        if self.iteration < 0:
            raise ValueError(f"iteration must be >= 0: {self.iteration}")
        if self.lam <= 0:
            raise ValueError(f"lambda must be > 0: {self.lam}")
        if self.d0 is not None and self.d0.shape != self.theta.shape:
            raise ValueError(
                f"d0 shape {self.d0.shape} != theta shape {self.theta.shape}"
            )


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> Path:
    """Write a checkpoint atomically (temp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    blob = {
        "version": _FORMAT_VERSION,
        "iteration": ckpt.iteration,
        "lam": ckpt.lam,
        "heldout_trajectory": ckpt.heldout_trajectory,
        "metadata": ckpt.metadata,
        "has_d0": ckpt.d0 is not None,
    }
    arrays = {"theta": ckpt.theta, "meta_json": np.frombuffer(
        json.dumps(blob).encode("utf-8"), dtype=np.uint8
    )}
    if ckpt.d0 is not None:
        arrays["d0"] = ckpt.d0
    with open(tmp, "wb") as f:
        np.savez(f, **arrays)
    tmp.replace(path)
    return path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A file that is not one (truncated, empty, foreign bytes, missing or
    malformed metadata) raises one ``ValueError`` naming the path.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no checkpoint at {path}")
    try:
        with np.load(path) as data:
            blob = json.loads(bytes(data["meta_json"]).decode("utf-8"))
            version = blob.get("version")
            if version == _FORMAT_VERSION:
                ckpt = Checkpoint(
                    theta=data["theta"].copy(),
                    iteration=int(blob["iteration"]),
                    lam=float(blob["lam"]),
                    d0=data["d0"].copy() if blob["has_d0"] else None,
                    heldout_trajectory=list(blob["heldout_trajectory"]),
                    metadata=dict(blob["metadata"]),
                )
    except (AttributeError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        raise ValueError(f"{path}: not a readable checkpoint ({reason})") from None
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {version} is not supported (expected {_FORMAT_VERSION})"
        )
    return ckpt
