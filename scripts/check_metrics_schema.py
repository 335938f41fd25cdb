#!/usr/bin/env python
"""Validate metrics JSONL files and bench manifests against their schemas.

Usage::

    PYTHONPATH=src python scripts/check_metrics_schema.py FILE [FILE ...]

Four file kinds are recognized:

- **JSONL event streams** as produced by ``repro.obs.JsonlSink`` (the
  CLI's ``--metrics-out``, the benchmark harness's session sink, or any
  observer-equipped run) — validated line by line against
  :data:`repro.obs.schema.EVENT_SCHEMAS` (including the ``bench.run`` /
  ``bench.summary`` mirror events);
- **run manifests** (``BENCH_<n>.json`` or any JSON object tagged
  ``"schema": "repro.bench.manifest"``) — validated by
  :func:`repro.bench.validate_manifest_file`;
- **explain reports** (JSON objects tagged ``"schema":
  "repro.obs.explain"``, as written by ``repro explain analyze
  --json``) — the flat summary re-validated as an ``explain.report``
  event and the totals/spans/per-vertex rows checked by
  :func:`repro.obs.schema.validate_explain_report`;
- **lint reports** (JSON objects tagged ``"schema": "repro.lint"``, as
  written by ``repro lint --format json``) — findings array and run
  summary checked by :func:`repro.lint.validate_lint_report`.

See ``docs/observability.md`` for the event field tables and
``docs/benchmarks.md`` for the manifest format.

Exit status: 0 if every file validates, 1 otherwise (all errors are
printed, not just the first file's).
"""

from __future__ import annotations

import sys
from pathlib import Path

try:
    from repro.obs.schema import validate_jsonl
except ImportError:  # direct invocation without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.obs.schema import validate_jsonl

from repro.bench.manifest import MANIFEST_SCHEMA, manifest_index, validate_manifest_file
from repro.lint import LINT_SCHEMA, validate_lint_report
from repro.obs.schema import EXPLAIN_SCHEMA, validate_explain_report


def _is_single_object_with_tag(path: Path, tag: str) -> bool:
    """True when ``path`` parses as one JSON object carrying ``tag``
    (JSONL streams never do — every line is its own object)."""
    try:
        head = path.read_text(encoding="utf-8")
    except OSError:
        return False
    head = head.lstrip()
    return head.startswith("{") and f'"{tag}"' in head and "\n{" not in head.rstrip()


def is_manifest(path: Path) -> bool:
    """Manifest detection: the BENCH_<n>.json name, or the schema tag."""
    if manifest_index(path) is not None:
        return True
    return _is_single_object_with_tag(path, MANIFEST_SCHEMA)


def is_explain_report(path: Path) -> bool:
    """Explain-report detection: the ``repro.obs.explain`` tag."""
    return _is_single_object_with_tag(path, EXPLAIN_SCHEMA)


def is_lint_report(path: Path) -> bool:
    """Lint-report detection: the ``repro.lint`` tag (the baseline file's
    ``repro.lint.baseline`` tag does not match — the closing quote is
    part of the probe)."""
    return _is_single_object_with_tag(path, LINT_SCHEMA)


def validate_lint_report_file(path: Path) -> list[str]:
    import json

    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable lint report: {exc}"]
    return validate_lint_report(payload)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for name in argv:
        path = Path(name)
        if not path.is_file():
            print(f"{name}: no such file", file=sys.stderr)
            failed = True
            continue
        if is_manifest(path):
            errors = validate_manifest_file(path)
            kind = "manifest"
        elif is_explain_report(path):
            errors = validate_explain_report(path)
            kind = "explain"
        elif is_lint_report(path):
            errors = validate_lint_report_file(path)
            kind = "lint"
        else:
            errors = validate_jsonl(path)
            kind = "events"
        if errors:
            failed = True
            for error in errors:
                print(f"{name}: {error}", file=sys.stderr)
        else:
            print(f"{name}: ok ({kind})")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
