"""Every library module has a user: the AST import graph of ``src/repro``.

A module that no other module imports is dead weight unless something
outside the library runs it.  ``OUTSIDE_USERS`` is the committed list of
such modules, each with the file that uses it; a new orphan (or a stale
entry) fails this test instead of lingering until a line count finds it.
"""

import ast
import functools
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

OUTSIDE_USERS = {
    "__main__": "tests/test_cli.py",  # ``python -m repro``, the entry point
    "dist.threaded": "bench/workloads.py",  # the ``hf_real`` workload
    "gemm.blocked": "benchmarks/test_gemm_model.py",
    "hf.preconditioner": "benchmarks/test_preconditioner_ablation.py",
    "nn.lbfgs": "benchmarks/test_optimizer_landscape.py",
    "nn.pretrain": "examples/pretraining.py",
    "speech.decoder": "examples/recognition.py",
    "vmpi.backend": "tests/test_vmpi_backend_parity.py",  # ``run_spmd``
}


def _modules():
    """Dotted name -> (path, is_package) for every file under ``repro``."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        is_pkg = parts[-1] == "__init__"
        out[".".join(parts[:-1] if is_pkg else parts)] = (path, is_pkg)
    return out


MODULES = _modules()


def _imports(tree):
    """``(base, name)`` pairs: ``name`` is None for ``import base``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                yield node.module, alias.name


@functools.cache
def _package_exports(pkg):
    """Name -> defining modules for the names a package ``__init__`` imports."""
    exports = {}
    for node in ast.walk(ast.parse(MODULES[pkg][0].read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                exports[alias.asname or alias.name] = _resolve(node.module, alias.name)
    return exports


def _resolve(base, name):
    """The non-``__init__`` modules that ``from base import name`` reaches."""
    if base not in MODULES:
        return set()
    if name is not None and f"{base}.{name}" in MODULES:
        base, name = f"{base}.{name}", None
    if not MODULES[base][1]:
        return {base}
    return _package_exports(base).get(name, set()) if name else set()


def _imported_by(path):
    return set().union(*(_resolve(b, n) for b, n in _imports(ast.parse(path.read_text()))))


def _orphans():
    libs = {m for m, (_, is_pkg) in MODULES.items() if not is_pkg}
    used = set().union(*(_imported_by(MODULES[m][0]) - {m} for m in libs))
    return {m.removeprefix("repro.") for m in libs - used}


def test_every_orphan_module_has_a_named_outside_user():
    assert _orphans() == set(OUTSIDE_USERS)


@pytest.mark.parametrize("module", sorted(OUTSIDE_USERS))
def test_outside_user_really_uses_the_module(module):
    path = REPO / OUTSIDE_USERS[module]
    if module == "__main__":
        assert '"-m", "repro"' in path.read_text()
    else:
        assert f"repro.{module}" in _imported_by(path)

