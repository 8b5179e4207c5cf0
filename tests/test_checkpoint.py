"""Checkpoint save/load round trips."""

import numpy as np
import pytest

from repro.util.checkpoint import Checkpoint, load_checkpoint, save_checkpoint


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    ckpt = Checkpoint(
        theta=rng.standard_normal(100),
        iteration=7,
        lam=0.125,
        d0=rng.standard_normal(100),
        heldout_trajectory=[2.0, 1.5, 1.1],
        metadata={"corpus": "50h", "seed": 3},
    )
    path = save_checkpoint(tmp_path / "ck" / "it7.npz", ckpt)
    back = load_checkpoint(path)
    assert np.array_equal(back.theta, ckpt.theta)
    assert np.array_equal(back.d0, ckpt.d0)
    assert back.iteration == 7
    assert back.lam == 0.125
    assert back.heldout_trajectory == [2.0, 1.5, 1.1]
    assert back.metadata == {"corpus": "50h", "seed": 3}


def test_roundtrip_without_d0(tmp_path):
    ckpt = Checkpoint(theta=np.arange(5.0))
    path = save_checkpoint(tmp_path / "x.npz", ckpt)
    back = load_checkpoint(path)
    assert back.d0 is None
    assert np.array_equal(back.theta, np.arange(5.0))


def test_overwrite_is_atomic(tmp_path):
    p = tmp_path / "c.npz"
    save_checkpoint(p, Checkpoint(theta=np.zeros(3), iteration=1))
    save_checkpoint(p, Checkpoint(theta=np.ones(3), iteration=2))
    back = load_checkpoint(p)
    assert back.iteration == 2
    assert not (tmp_path / "c.npz.tmp").exists()


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope.npz")


def _damaged(path, how):
    """Write a damaged checkpoint at ``path``; ``how`` names the damage."""
    save_checkpoint(path, Checkpoint(theta=np.arange(4.0)))
    raw = path.read_bytes()
    if how == "truncated":
        path.write_bytes(raw[: len(raw) // 2])
    elif how == "empty":
        path.write_bytes(b"")
    elif how == "not_npz":
        path.write_bytes(b"\x80this is not a checkpoint")
    elif how == "no_meta":
        np.savez(path, theta=np.arange(4.0))
    else:  # malformed metadata
        meta = np.frombuffer(b"{not json", dtype=np.uint8)
        np.savez(path, theta=np.arange(4.0), meta_json=meta)


@pytest.mark.parametrize(
    "how,cause",
    [
        ("truncated", "BadZipFile"),
        ("empty", "EOFError"),
        ("not_npz", "ValueError"),
        ("no_meta", "KeyError"),
        ("malformed_meta", "JSONDecodeError"),
    ],
)
def test_unreadable_file_is_one_typed_error(tmp_path, how, cause):
    """Each damage used to surface as its own exception type (the
    ``cause`` named in the message)."""
    path = tmp_path / "c.npz"
    _damaged(path, how)
    with pytest.raises(ValueError, match="not a readable checkpoint") as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"{path}: not a readable checkpoint ({cause}: ")


def test_unsupported_version_keeps_its_own_error(tmp_path):
    meta = np.frombuffer(b'{"version": 99}', dtype=np.uint8)
    np.savez(tmp_path / "v.npz", theta=np.arange(4.0), meta_json=meta)
    with pytest.raises(ValueError, match="checkpoint format 99 is not supported"):
        load_checkpoint(tmp_path / "v.npz")


def test_validation():
    with pytest.raises(ValueError):
        Checkpoint(theta=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Checkpoint(theta=np.zeros(3), iteration=-1)
    with pytest.raises(ValueError):
        Checkpoint(theta=np.zeros(3), lam=0.0)
    with pytest.raises(ValueError):
        Checkpoint(theta=np.zeros(3), d0=np.zeros(4))


def test_resume_training_from_checkpoint(tmp_path):
    """Save after N iterations, reload, continue — trajectories join."""
    from repro.hf import FrameSource, HFConfig, HessianFreeOptimizer
    from repro.nn import DNN, CrossEntropyLoss

    rng = np.random.default_rng(1)
    x = rng.standard_normal((300, 5))
    y = rng.integers(0, 3, 300)
    hx, hy = x[:60], y[:60]
    net = DNN([5, 10, 3])
    src = FrameSource(net, CrossEntropyLoss(), x, y, hx, hy, curvature_fraction=0.2)

    first = HessianFreeOptimizer(src, HFConfig(max_iterations=2)).run(
        net.init_params(0)
    )
    path = save_checkpoint(
        tmp_path / "resume.npz",
        Checkpoint(
            theta=first.theta,
            iteration=2,
            heldout_trajectory=first.heldout_trajectory,
        ),
    )
    back = load_checkpoint(path)
    cont = HessianFreeOptimizer(src, HFConfig(max_iterations=2)).run(back.theta)
    assert cont.heldout_trajectory[-1] <= back.heldout_trajectory[-1] + 1e-9
