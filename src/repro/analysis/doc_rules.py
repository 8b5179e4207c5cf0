"""Documentation rules: docstring coverage (DOC001) and live paths in
the prose documents (DOC002).

The repo's packages are read far more often than they are edited — each
PR builds on subsystems written by sessions with no shared memory, so an
undocumented public callable costs every future reader a source dive.
DOC001 enforces the floor: every module under ``src/`` carries a module
docstring, and every public class and public callable carries its own.

"Public" follows the underscore convention, applied transitively: a
``_private`` name is exempt, and so is everything nested inside one.
Nested functions (closures, rank-program bodies built inside factories)
are implementation detail and exempt regardless of name.  Trivial
single-statement bodies — ``pass``-only protocol stubs, one-line
delegations — are exempt too: a docstring there would restate the code.
Deliberate omissions take an inline ``# repro: noqa(DOC001)``.

DOC002 keeps DESIGN.md and README.md honest about the tree: a backticked
repo path — ``src/…``, ``tests/…``, ``benchmarks/…``, ``examples/…``,
``bench/…``, or a ``dist/script.py``-style path under ``src/repro/`` —
must exist.  A ``::name`` suffix names a definition and is ignored, a
``*`` pattern must match something, and a ``{a,b}`` group is not read.
A dotted ``repro.a.b`` name must resolve segment by segment: to a
subpackage, or to a module or a package ``__all__`` name, where checking
stops.  The fenced module map (a code block opening with ``src/repro/``)
is read row by row: every ``name.py`` row under a ``pkg/`` row must
exist, and every CamelCase identifier or ``name()`` on a row must be a
top-level definition somewhere in ``src/repro``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path, PurePath
from typing import Iterable

from repro.analysis.astutil import ModuleContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import Rule, RuleInfo, register

__all__ = ["DocstringCoverageRule", "DocPathRule", "stale_doc_paths"]

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _has_docstring(node: ast.AST) -> bool:
    return ast.get_docstring(node, clean=False) is not None


def _is_trivial(fn: ast.AST) -> bool:
    """Single-statement bodies (after any docstring) need no docstring."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]
    return len(body) <= 1


@register
class DocstringCoverageRule(Rule):
    """DOC001: modules, public classes, and public callables under
    ``src/`` must carry docstrings."""

    info = RuleInfo(
        id="DOC001",
        name="missing docstring",
        severity=Severity.WARNING,
        rationale="undocumented public API under src/ costs every later "
        "session a source dive; document it or mark it private",
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return "src" in PurePath(ctx.path).parts

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Flag the module, public classes, and public callables that
        lack docstrings."""
        if not _has_docstring(ctx.tree):
            yield self.finding(
                ctx, 1, "module has no docstring",
                hint="open with a one-paragraph statement of what the "
                "module provides",
            )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                if self._is_public_scope(ctx, node) and not _has_docstring(node):
                    yield self.finding(
                        ctx, node.lineno,
                        f"public class {node.name!r} has no docstring",
                    )
            elif isinstance(node, _DEF_NODES):
                if not self._is_public_scope(ctx, node):
                    continue
                if _is_trivial(node) or _has_docstring(node):
                    continue
                yield self.finding(
                    ctx, node.lineno,
                    f"public callable {node.name!r} has no docstring",
                )

    def _is_public_scope(self, ctx: ModuleContext, node: ast.AST) -> bool:
        """True when ``node`` and every enclosing class are public, and
        no enclosing scope is a function (nested defs are exempt)."""
        if node.name.startswith("_"):
            return False
        cur = ctx.parent(node)
        while cur is not None:
            if isinstance(cur, _DEF_NODES):
                return False
            if isinstance(cur, ast.ClassDef) and cur.name.startswith("_"):
                return False
            cur = ctx.parent(cur)
        return True


_BACKTICKED = re.compile(r"`([^`\s]+)`")
_DOTTED = re.compile(r"repro(?:\.\w+)+")
_TOP_DIRS = ("src", "tests", "benchmarks", "examples", "bench")


def _package_all(pkg: Path) -> list[str]:
    """The names ``pkg/__init__.py`` lists in ``__all__``."""
    init = pkg / "__init__.py"
    if init.is_file():
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                return list(ast.literal_eval(node.value))
    return []


def _live_dotted(name: str, root: Path) -> bool:
    """Whether the dotted ``repro.…`` ``name`` resolves under ``root/src``."""
    pkg = root / "src" / "repro"
    for seg in name.split(".")[1:]:
        if not (pkg / seg).is_dir():
            return (pkg / f"{seg}.py").is_file() or seg in _package_all(pkg)
        pkg = pkg / seg
    return True


_MAP_PKG = re.compile(r"\s*(\w+)/(?:\s|$)")
_MAP_MODULE = re.compile(r"\s*(\w+\.py)(?:\s|$)")
_MAP_NAME = re.compile(r"\b(\w+)\(\)|\b([A-Z][A-Za-z0-9]*)\b")
_TOP_LEVEL = re.compile(
    r"^(?:class|def|async def)\s+(\w+)"  # a definition,
    r"|^((?:\w+\s*=\s*)*\w+)(?:\s*:[^=\n]*)?\s*=(?!=)",  # or `a = b: T = ...`
    re.M,
)


def _top_level_names(src: Path) -> set[str]:
    """Every class, function and assigned name at module level under
    ``src``: the names ``ast`` finds there, without parsing (~20x faster)."""
    names: set[str] = set()
    for path in src.rglob("*.py"):
        for m in _TOP_LEVEL.finditer(path.read_text(encoding="utf-8")):
            names.update(re.findall(r"\w+", m.group(1) or m.group(2)))
    return names


def _stale_map_rows(text: str, root: Path) -> list[tuple[int, str]]:
    """``(line, token)`` for each missing module or definition named on
    a row of the fenced ``src/repro/`` module map."""
    stale = []
    in_map = False
    pkg = src = root / "src" / "repro"
    defined: set[str] = set()
    lines = text.splitlines()
    for lineno, line in enumerate(lines, 1):
        if line.startswith("```"):
            in_map = not in_map and lines[lineno : lineno + 1] == ["src/repro/"]
            if in_map and not defined:
                defined = _top_level_names(src)
            continue
        if not in_map:
            continue
        if m := _MAP_PKG.match(line):
            pkg = src / m.group(1)
        elif (m := _MAP_MODULE.match(line)) and not (pkg / m.group(1)).is_file():
            stale.append((lineno, f"{pkg.name}/{m.group(1)}"))
        for call, word in _MAP_NAME.findall(line):
            # CamelCase has two capitals and two lowercase letters, which
            # no unit (``GHz``) or acronym (``QPX``) has
            upper, lower = sum(map(str.isupper, word)), sum(map(str.islower, word))
            if (call or (upper > 1 and lower > 1)) and (call or word) not in defined:
                stale.append((lineno, f"{call}()" if call else word))
    return stale


def stale_doc_paths(text: str, root: Path) -> list[tuple[int, str]]:
    """``(line, token)`` for every backticked repo path or dotted module
    name in the markdown ``text``, and every module-map row name, that
    does not exist in the checkout at ``root``."""
    stale = []
    for lineno, line in enumerate(text.splitlines(), 1):
        for token in _BACKTICKED.findall(line):
            path = token.split("::")[0].rstrip("/")
            dotted = _DOTTED.match(path)
            if dotted:
                if not _live_dotted(dotted.group(), root):
                    stale.append((lineno, token))
                continue
            head, slash, _rest = path.partition("/")
            if not (head and slash) or any(c in path for c in "…<{"):
                continue  # not a relative path, or a placeholder
            base = root if head in _TOP_DIRS else root / "src" / "repro"
            if (base / head).is_dir() and not any(base.glob(path)):
                stale.append((lineno, token))
    return sorted(stale + _stale_map_rows(text, root), key=lambda item: item[0])


@register
class DocPathRule(Rule):
    """DOC002: a repo path, dotted module name or module-map row in
    DESIGN.md or README.md must exist.

    The documents are those of the checkout the analyzer runs from
    (an installed package has none), read once per lint run."""

    info = RuleInfo(
        id="DOC002",
        name="stale path in docs",
        severity=Severity.WARNING,
        rationale="a module map that names files which do not exist sends "
        "every later session looking for them",
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        return ()  # findings point into the documents: see finish_run

    def finish_run(self) -> Iterable[Finding]:
        """One finding per stale path, located in the document."""
        root = Path(__file__).resolve().parents[3]
        for doc in ("DESIGN.md", "README.md"):
            if (root / doc).is_file():
                text = (root / doc).read_text(encoding="utf-8")
                for line, token in stale_doc_paths(text, root):
                    yield Finding(
                        self.info.id, self.info.severity, doc, line,
                        f"`{token}` names a path, module or definition that "
                        "does not exist",
                    )
