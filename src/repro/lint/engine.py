"""The lint engine: select checkers, run them, filter suppressions.

:func:`run_lint` is the single entry point both the CLI subcommand and
the test suite use.  It is deliberately free of I/O besides reading the
tree under ``root``: rendering and exit codes belong to the caller.
:func:`run_lint_report` is the richer form behind the CLI — same
findings, plus run metadata (file/checker counts, baseline accounting,
wall time) for the ``lint.run`` observability event and the JSON report.

Parallelism
-----------
With ``jobs > 1``, checkers implementing the map-reduce protocol
(:class:`~repro.lint.base.MapReduceChecker`) fan their per-module
``scan_module`` passes out over a process pool: each worker process
builds its own :class:`LintContext` once (pool initializer), then scans
whole files — one task per module, every parallel checker applied while
the tree is hot in cache.  ``reduce`` runs in the parent, over facts
ordered by the parent's module order, so the merged output is
byte-identical to a serial run regardless of worker scheduling.  Serial
checkers and suppression filtering always run in the parent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .base import ALL_CHECKERS, Checker, MapReduceChecker
from .baseline import Baseline, BaselineError
from .context import LintContext
from .findings import Finding

from . import checkers as _checkers  # noqa: F401  — populate the registry


#: Pseudo check id of a suppression comment naming an unregistered id.
SUPPRESSION_CHECK_ID = "SUPPRESSION"


class UnknownCheckError(ValueError):
    """A ``--select``/``--ignore`` id that no registered checker claims."""


def _resolve_ids(ids: Optional[Iterable[str]]) -> Optional[set[str]]:
    if ids is None:
        return None
    resolved = {i.strip() for i in ids if i.strip()}
    unknown = resolved - set(ALL_CHECKERS)
    if unknown:
        raise UnknownCheckError(
            f"unknown check id(s) {sorted(unknown)}; known: {sorted(ALL_CHECKERS)}"
        )
    return resolved


@dataclass
class LintReport:
    """One lint run's findings plus the metadata the CLI reports."""

    findings: list[Finding]
    files: int = 0
    checkers: list[str] = field(default_factory=list)
    by_check: dict[str, int] = field(default_factory=dict)
    baseline_suppressed: int = 0
    stale_baseline: int = 0
    elapsed_seconds: float = 0.0
    jobs: int = 1


# -- process-pool worker side -------------------------------------------
#
# Workers are handed (root, check ids) once via the pool initializer and
# module relpaths per task.  Each worker rebuilds its own context and
# checker instances — LintContext is derived purely from the tree on
# disk, so worker state is reproducible by construction.

_WORKER_CTX: Optional[LintContext] = None
_WORKER_CHECKERS: list[MapReduceChecker] = []


def _pool_init(root: str, check_ids: list[str]) -> None:
    global _WORKER_CTX, _WORKER_CHECKERS
    _WORKER_CTX = LintContext(Path(root))
    _WORKER_CHECKERS = []
    for check_id in check_ids:
        checker = ALL_CHECKERS[check_id]()
        checker.setup(_WORKER_CTX)
        _WORKER_CHECKERS.append(checker)


def _pool_scan(relpath: str) -> dict[str, tuple[list[Finding], object]]:
    assert _WORKER_CTX is not None
    module = _WORKER_CTX.module(relpath)
    assert module is not None, relpath
    return {
        checker.id: checker.scan_module(_WORKER_CTX, module)
        for checker in _WORKER_CHECKERS
    }


def _run_parallel(
    ctx: LintContext, checkers: list[MapReduceChecker], jobs: int
) -> Iterable[Finding]:
    """Fan ``scan_module`` out over a process pool; reduce in-parent."""
    from concurrent.futures import ProcessPoolExecutor

    modules = ctx.modules()
    check_ids = [checker.id for checker in checkers]
    for checker in checkers:  # parent-side setup: reduce() needs it
        checker.setup(ctx)
    scans: dict[str, dict[str, tuple[list[Finding], object]]] = {}
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_pool_init, initargs=(str(ctx.root), check_ids)
    ) as pool:
        for module, result in zip(
            modules, pool.map(_pool_scan, [m.relpath for m in modules])
        ):
            scans[module.relpath] = result
    # Deterministic merge: parent module order, not completion order.
    for checker in checkers:
        facts: list[object] = []
        for module in modules:
            findings, fact = scans[module.relpath][checker.id]
            yield from findings
            facts.append(fact)
        yield from checker.reduce(ctx, facts)


# -- entry points --------------------------------------------------------


def run_lint_report(
    root: Optional[Path] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    jobs: int = 1,
    baseline: Optional[Path] = None,
    update_baseline: bool = False,
) -> LintReport:
    """Run the (selected) checkers and return findings plus run metadata.

    Findings are sorted, deduplicated, and suppression-filtered.
    ``select`` limits the run to those ids; ``ignore`` drops ids from
    whatever ``select`` produced; unknown ids raise
    :class:`UnknownCheckError` — a typo in CI must not silently pass.
    ``jobs > 1`` parallelizes map-reduce checkers per file.  With
    ``baseline``, findings matching the baseline's fingerprints are
    suppressed and counted; stale entries surface as ``BASELINE``
    errors.  A suppression comment naming an unregistered id surfaces as
    a ``SUPPRESSION`` error on every run, whatever ``select`` names.
    ``update_baseline`` instead rewrites the baseline to accept exactly
    the current findings (carrying over existing reasons).
    """
    started = time.perf_counter()
    selected = _resolve_ids(select)
    ignored = _resolve_ids(ignore) or set()
    ctx = LintContext(root)
    ran: list[str] = [
        check_id
        for check_id in ALL_CHECKERS
        if (selected is None or check_id in selected) and check_id not in ignored
    ]
    parallel: list[MapReduceChecker] = []
    raw: set[Finding] = set()
    for check_id in ran:
        checker: Checker = ALL_CHECKERS[check_id]()
        if jobs > 1 and checker.parallel and isinstance(checker, MapReduceChecker):
            parallel.append(checker)
        else:
            raw.update(checker.check(ctx))
    if parallel:
        raw.update(_run_parallel(ctx, parallel, jobs))
    raw.update(
        Finding(
            path=relpath,
            line=line,
            check_id=SUPPRESSION_CHECK_ID,
            severity="error",
            message=(
                f"suppression names {check_id!r}, which no registered checker "
                "owns, so it silences nothing: fix the id or delete the comment"
            ),
        )
        for relpath, line, check_id in ctx.suppression_ids()
        if check_id not in ALL_CHECKERS
    )
    findings = sorted(
        finding
        for finding in raw
        if not (
            (module := ctx.module(finding.path)) is not None
            and ctx.is_suppressed(module, finding.line, finding.check_id)
        )
    )
    report = LintReport(
        findings=findings,
        files=len(ctx.modules()),
        checkers=ran,
        jobs=max(1, jobs),
    )
    if baseline is not None:
        _apply_baseline(report, baseline, ctx, update_baseline)
    report.by_check = {}
    for finding in report.findings:
        report.by_check[finding.check_id] = report.by_check.get(finding.check_id, 0) + 1
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _apply_baseline(
    report: LintReport, path: Path, ctx: LintContext, update: bool
) -> None:
    previous: Optional[Baseline] = None
    if path.exists():
        previous = Baseline.load(path)  # BaselineError propagates: CI must fail
    if update:
        Baseline.from_findings(report.findings, previous).save(path)
        report.baseline_suppressed = len(report.findings)
        report.findings = []
        return
    if previous is None:
        raise BaselineError(f"baseline file not found: {path}")
    try:
        relpath = str(path.resolve().relative_to(ctx.root))
    except ValueError:
        relpath = str(path)
    result = previous.apply(report.findings, set(report.checkers), relpath)
    report.findings = result.active
    report.baseline_suppressed = result.suppressed
    report.stale_baseline = result.stale


def run_lint(
    root: Optional[Path] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    jobs: int = 1,
    baseline: Optional[Path] = None,
    update_baseline: bool = False,
) -> list[Finding]:
    """Findings-only form of :func:`run_lint_report` (same arguments)."""
    return run_lint_report(
        root,
        select=select,
        ignore=ignore,
        jobs=jobs,
        baseline=baseline,
        update_baseline=update_baseline,
    ).findings


def catalog() -> list[tuple[str, str]]:
    """``(id, description)`` for every registered checker, in catalogue
    order — the source of truth behind ``repro lint --list`` and the
    table in docs/static-analysis.md."""
    return [(check_id, cls.description) for check_id, cls in ALL_CHECKERS.items()]
