"""The lint context: parsed-module cache, anchors, and suppressions.

Checkers never open files themselves — they ask the :class:`LintContext`
for parsed modules (one :mod:`ast` parse per file per run, shared across
checkers), for the *anchor* definitions they cross-check against (the
event schema in ``repro.obs.schema``, the counter/phase catalogues in
``repro.obs.metrics``), and for the documentation corpus.  Everything is
derived statically from source text: the linter imports nothing from the
package under analysis, so it works on broken or fixture trees alike.

Suppressions are per-line: a trailing ``# lint: ignore[SCH001]`` (or a
comma-separated list of ids, or bare ``# lint: ignore`` for all checks)
silences findings anchored to that line.  There is no file- or
project-level suppression on purpose — every exception stays visible at
the site that needs it.  A suppression comment naming an id that no
registered checker owns silences nothing; the engine reports it as a
``SUPPRESSION`` finding (:meth:`LintContext.suppression_ids`).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

#: Markdown files, relative to the repository root, that count as the
#: documentation corpus for drift checks (CLI001).  ``docs/**/*.md`` is
#: globbed in addition.
DOC_FILES = ("README.md", "EXPERIMENTS.md", "DESIGN.md")

#: Trees outside ``src/repro`` whose suppression comments are checked
#: too: no checker parses them, but a stale id there is as dead.
SUPPRESSION_TREES = ("examples", "benchmarks")

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


def find_repo_root(start: Optional[Path] = None) -> Path:
    """Locate the repository root: the nearest ancestor of ``start``
    (default: this file's checkout) containing ``src/repro``."""
    candidates = []
    if start is not None:
        candidates.append(Path(start).resolve())
    candidates.append(Path.cwd())
    candidates.append(Path(__file__).resolve())
    for origin in candidates:
        for directory in (origin, *origin.parents):
            if (directory / "src" / "repro").is_dir():
                return directory
    raise FileNotFoundError(
        "could not locate a repository root (a directory containing src/repro)"
    )


@dataclass
class ParsedModule:
    """One source file: its path, dotted name, AST, and raw lines."""

    path: Path
    relpath: str  # repository-relative, forward slashes
    name: str  # dotted module name, e.g. "repro.core.backtrack"
    tree: ast.Module
    lines: list[str] = field(default_factory=list)


class LintContext:
    """Shared state for one lint run over one repository root."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = find_repo_root(root) if root is None else Path(root).resolve()
        self.package_dir = self.root / "src" / "repro"
        if not self.package_dir.is_dir():
            raise FileNotFoundError(f"{self.root} has no src/repro package")
        self._modules: Optional[list[ParsedModule]] = None
        self._by_relpath: dict[str, ParsedModule] = {}
        self._cfgs: dict[int, object] = {}
        self._call_graph: Optional[object] = None

    # -- module access --------------------------------------------------
    def modules(self) -> list[ParsedModule]:
        """All parsed modules under ``src/repro``, in sorted path order."""
        if self._modules is None:
            parsed = []
            for path in sorted(self.package_dir.rglob("*.py")):
                parsed.append(self._parse(path))
            self._modules = parsed
            self._by_relpath.update({m.relpath: m for m in parsed})
        return self._modules

    def module(self, relpath: str) -> Optional[ParsedModule]:
        """Look up one module by repository-relative path (or ``None``)."""
        self.modules()
        return self._by_relpath.get(relpath)

    def _parse(self, path: Path) -> ParsedModule:
        source = path.read_text(encoding="utf-8")
        relpath = path.relative_to(self.root).as_posix()
        parts = path.relative_to(self.root / "src").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ParsedModule(
            path=path,
            relpath=relpath,
            name=".".join(parts),
            tree=ast.parse(source, filename=str(path)),
            lines=source.splitlines(),
        )

    # -- flow graphs ----------------------------------------------------
    def cfg(self, func: ast.AST):
        """The (cached) control-flow graph of one function node.  Keyed
        by node identity: AST trees live in the module cache, so the id
        is stable for the duration of the run."""
        from .flow.cfg import build_cfg

        cached = self._cfgs.get(id(func))
        if cached is None:
            cached = build_cfg(func)
            self._cfgs[id(func)] = cached
        return cached

    def call_graph(self):
        """The (cached) project-wide call graph for this root."""
        from .flow.callgraph import CallGraph

        if self._call_graph is None:
            self._call_graph = CallGraph(self)
        return self._call_graph

    # -- suppressions ---------------------------------------------------
    def is_suppressed(self, module: ParsedModule, line: int, check_id: str) -> bool:
        """Does ``line`` of ``module`` carry a matching suppression?"""
        if not (1 <= line <= len(module.lines)):
            return False
        match = _SUPPRESS_RE.search(module.lines[line - 1])
        if match is None:
            return False
        ids = match.group(1)
        if ids is None:
            return True
        return check_id in {part.strip() for part in ids.split(",")}

    def suppression_ids(self) -> Iterator[tuple[str, int, str]]:
        """``(relpath, line, id)`` for every id a ``# lint: ignore[...]``
        comment names in ``src/repro`` or :data:`SUPPRESSION_TREES`
        (comments only: docstrings that show the syntax do not count)."""
        sources = [(module.relpath, module.lines) for module in self.modules()]
        for tree in SUPPRESSION_TREES:
            for path in sorted((self.root / tree).rglob("*.py")):
                lines = path.read_text(encoding="utf-8").splitlines()
                sources.append((path.relative_to(self.root).as_posix(), lines))
        for relpath, lines in sources:
            if not any("lint:" in line for line in lines):
                continue
            source = io.StringIO("\n".join(lines) + "\n")
            for token in tokenize.generate_tokens(source.readline):
                if token.type != tokenize.COMMENT:
                    continue
                match = _SUPPRESS_RE.search(token.string)
                if match is None or match.group(1) is None:
                    continue
                for part in match.group(1).split(","):
                    if part.strip():
                        yield relpath, token.start[0], part.strip()

    # -- documentation corpus -------------------------------------------
    def doc_corpus(self) -> list[tuple[str, str]]:
        """``(relpath, text)`` for every markdown file that documents the
        project: the root files in :data:`DOC_FILES` plus ``docs/**``."""
        corpus = []
        for name in DOC_FILES:
            path = self.root / name
            if path.is_file():
                corpus.append((name, path.read_text(encoding="utf-8")))
        docs_dir = self.root / "docs"
        if docs_dir.is_dir():
            for path in sorted(docs_dir.rglob("*.md")):
                corpus.append(
                    (path.relative_to(self.root).as_posix(), path.read_text(encoding="utf-8"))
                )
        return corpus

    # -- anchor extraction ----------------------------------------------
    def event_schemas(self) -> Optional[dict[str, tuple[int, set[str], set[str]]]]:
        """Statically extract ``EVENT_SCHEMAS`` from ``repro.obs.schema``:
        ``{event: (lineno, required_fields, optional_fields)}``, or
        ``None`` when the anchor module is missing (fixture trees)."""
        module = self.module("src/repro/obs/schema.py")
        if module is None:
            return None
        value = _find_assignment(module.tree, "EVENT_SCHEMAS")
        if not isinstance(value, ast.Dict):
            return None
        schemas: dict[str, tuple[int, set[str], set[str]]] = {}
        for key, spec in zip(value.keys, value.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            required: set[str] = set()
            optional: set[str] = set()
            if isinstance(spec, ast.Tuple) and len(spec.elts) == 2:
                for target, elt in ((required, spec.elts[0]), (optional, spec.elts[1])):
                    if isinstance(elt, ast.Dict):
                        for fkey in elt.keys:
                            if isinstance(fkey, ast.Constant) and isinstance(fkey.value, str):
                                target.add(fkey.value)
            schemas[key.value] = (key.lineno, required, optional)
        return schemas

    def _metrics_tuple(self, name: str) -> Optional[dict[str, int]]:
        module = self.module("src/repro/obs/metrics.py")
        if module is None:
            return None
        value = _find_assignment(module.tree, name)
        if not isinstance(value, ast.Tuple):
            return None
        out: dict[str, int] = {}
        for elt in value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out[elt.value] = elt.lineno
        return out

    def counters(self) -> Optional[dict[str, int]]:
        """``{counter_name: lineno}`` from ``repro.obs.metrics.COUNTERS``."""
        return self._metrics_tuple("COUNTERS")

    def vertex_counters(self) -> Optional[dict[str, int]]:
        """``{dimension: lineno}`` from ``VERTEX_COUNTERS``."""
        return self._metrics_tuple("VERTEX_COUNTERS")

    def phases(self) -> Optional[dict[str, int]]:
        """``{phase_name: lineno}`` from ``PHASES``."""
        return self._metrics_tuple("PHASES")


def _find_assignment(tree: ast.Module, name: str) -> Optional[ast.expr]:
    """The value expression of a module-level ``name = ...`` /
    ``name: T = ...`` statement, or ``None``."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == name:
                return node.value
    return None


# -- shared AST helpers used by several checkers ------------------------


def own_body_walk(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's *own* statements, not those of nested function
    or class definitions — "does this function itself call tick()" must
    not be satisfied by an inner helper's body."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def iter_functions(tree: ast.Module) -> Iterator[tuple[str, ast.FunctionDef]]:
    """Every function definition in the module — module-level, methods,
    and nested closures — with a dotted qualifier for messages."""
    def visit(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.FunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                yield from visit(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)

    yield from visit(tree, "")


def call_name(node: ast.Call) -> Optional[str]:
    """The unqualified name a call targets: ``f(...)`` -> ``f``,
    ``obj.m(...)`` -> ``m``, anything else -> ``None``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
