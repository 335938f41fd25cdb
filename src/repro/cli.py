"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``match``     find embeddings of a query graph in a data graph
``info``      print statistics of a graph file
``convert``   convert between the ``t/v/e`` and edge-list formats
``generate``  materialize a registry dataset or a query workload
``bench``     run experiment drivers; manage run manifests
              (``run`` / ``compare`` / ``history`` / ``hotspots``)
``explain``   post-run search forensics (docs/explain.md): static plans
              (``plan``), instrumented runs joined with the plan
              (``analyze``), and per-vertex report diffs (``diff``)
``update``    apply delta batches to a data graph through a session:
              versioned mutation, incremental candidate-space refresh,
              standing-query diffs (docs/serving.md)
``serve-batch``  run a query batch through a persistent data-graph
              session with prepared-query caching (docs/serving.md)
``trace``     inspect request traces in a metrics JSONL stream
              (``show``: list traces / render one request tree)
``chaos``     sweep seeded fault injections across serving workloads and
              gate on exact-answer equality (docs/robustness.md)
``lint``      statically check the codebase's invariants
              (docs/static-analysis.md)

Graph files use the community ``t/v/e`` format by default (see
:mod:`repro.graph.io`); pass ``--format edgelist`` for the plain format.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import DAFMatcher, MatchConfig, __version__
from .baselines import ALL_BASELINES
from .interfaces import MatchOptions, MatchRequest
from .graph.graph import Graph
from .graph.io import read_cfl, read_edge_list, write_cfl, write_edge_list


def _read_graph(path: str, fmt: str) -> Graph:
    if fmt == "cfl":
        return read_cfl(path)
    if fmt == "edgelist":
        return read_edge_list(path)
    raise SystemExit(f"unknown graph format {fmt!r}")


def _write_graph(graph: Graph, path: str, fmt: str) -> None:
    if fmt == "cfl":
        write_cfl(graph, path)
    elif fmt == "edgelist":
        write_edge_list(graph, path)
    else:
        raise SystemExit(f"unknown graph format {fmt!r}")


def _read_update_batches(path: str):
    """Parse an updates file: JSONL where each non-empty, non-``#`` line
    is one :class:`~repro.interfaces.UpdateBatch` — either a single delta
    object (``{"op": "insert-edge", "u": 0, "v": 2}``) or an array of
    delta objects applied atomically."""
    from .interfaces import UpdateBatch, UpdateError

    batches = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{path}:{lineno}: not JSON: {exc}")
            if isinstance(payload, dict):
                payload = [payload]
            if not isinstance(payload, list):
                raise SystemExit(
                    f"{path}:{lineno}: expected a delta object or an array of them"
                )
            try:
                batches.append(UpdateBatch.from_dicts(payload, tag=lineno))
            except (UpdateError, ValueError) as exc:
                raise SystemExit(f"{path}:{lineno}: {exc}")
    if not batches:
        raise SystemExit(f"{path}: no update batches")
    return batches


def _build_matcher(args: argparse.Namespace):
    workers = getattr(args, "workers", 1)
    if args.algorithm == "daf":
        config = MatchConfig(
            order=args.order,
            use_failing_sets=not args.no_failing_sets,
            injective=not args.homomorphism,
            induced=args.induced,
            collect_embeddings=not args.count_only,
        )
        if workers > 1:
            from .extensions import ParallelDAFMatcher

            return ParallelDAFMatcher(num_workers=workers, config=config)
        return DAFMatcher(config)
    try:
        cls = next(
            cls for name, cls in ALL_BASELINES.items() if name.lower() == args.algorithm
        )
    except StopIteration:
        choices = ["daf", *(n.lower() for n in ALL_BASELINES)]
        raise SystemExit(f"unknown algorithm {args.algorithm!r}; choices: {choices}")
    if args.induced or args.homomorphism:
        raise SystemExit("--induced/--homomorphism are DAF-only options")
    if workers > 1:
        raise SystemExit("--workers is a DAF-only option")
    return cls()


def _build_observer(args: argparse.Namespace):
    """Observer + sink for ``--metrics-out`` / ``--profile`` / ``--progress``
    (``(None, None)`` when none of them is given — the zero-overhead path)."""
    if not (args.metrics_out or args.profile or args.progress):
        return None, None
    from .obs import JsonlSink, MetricsRegistry, ProgressReporter

    sink = JsonlSink(args.metrics_out) if args.metrics_out else None
    progress = ProgressReporter(stream=sys.stderr) if args.progress else None
    return MetricsRegistry(sink=sink, progress=progress), sink


def cmd_match(args: argparse.Namespace) -> int:
    query = _read_graph(args.query, args.format)
    data = _read_graph(args.data, args.format)
    matcher = _build_matcher(args)
    max_memory = (
        int(args.max_memory_mb * 1024 * 1024) if args.max_memory_mb is not None else None
    )
    match_kwargs: dict = {}
    if args.resilient:
        from .resilience import ResilientMatcher

        matcher = ResilientMatcher(
            primary=matcher, max_calls=args.max_calls, max_memory=max_memory
        )
    elif args.max_calls is not None or max_memory is not None:
        if not isinstance(matcher, DAFMatcher):
            raise SystemExit(
                "--max-calls/--max-memory-mb need --algorithm daf "
                "with --workers 1 (or add --resilient)"
            )
        from .resilience import Budget

        try:
            match_kwargs["budget"] = Budget(
                time_limit=args.time_limit,
                max_calls=args.max_calls,
                max_memory=max_memory,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
    if args.resume:
        if (
            args.resilient
            or getattr(args, "workers", 1) > 1
            or not isinstance(matcher, DAFMatcher)
        ):
            raise SystemExit(
                "--resume needs --algorithm daf with --workers 1 (no --resilient)"
            )
        from .resilience import SearchCheckpoint

        try:
            match_kwargs["resume_from"] = SearchCheckpoint.load(args.resume)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"cannot load checkpoint {args.resume}: {exc}")
    observer, sink = _build_observer(args)
    if observer is not None:
        matcher.with_observer(observer)
        from .obs.telemetry import TraceIdAllocator, resumed_context

        resume_ckpt = match_kwargs.get("resume_from")
        trace = resumed_context(getattr(resume_ckpt, "trace", None))
        observer.trace = trace if trace is not None else TraceIdAllocator().allocate()
        run_start = {
            "event": "run_start",
            "algorithm": getattr(matcher, "name", args.algorithm),
            "query_vertices": query.num_vertices,
            "data_vertices": data.num_vertices,
            "limit": args.limit,
        }
        if args.time_limit is not None:
            run_start["time_limit"] = args.time_limit
        if getattr(args, "workers", 1) > 1:
            run_start["workers"] = args.workers
        observer.emit(run_start)
    try:
        result = matcher.run_request(
            MatchRequest(
                query,
                data,
                options=MatchOptions(
                    limit=args.limit, time_limit=args.time_limit, **match_kwargs
                ),
            )
        )
    except KeyboardInterrupt:
        # The interrupt landed outside the cooperative search window
        # (e.g. during preprocessing): report it rather than traceback.
        if sink is not None:
            sink.close()
        payload = {
            "algorithm": getattr(matcher, "name", args.algorithm),
            "count": 0,
            "interrupted": True,
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 130
    if observer is not None:
        snapshot = result.stats.metrics or observer.snapshot()
        observer.emit(
            {
                "event": "run_end",
                "recursive_calls": result.stats.recursive_calls,
                "embeddings": result.count,
                "solved": result.solved,
                "spans": snapshot["spans"],
                "counters": snapshot["counters"],
                "limit_reached": result.limit_reached,
                "timed_out": result.timed_out,
            }
        )
        if sink is not None:
            sink.close()
        if args.profile:
            from .obs import render_snapshot

            print(render_snapshot(snapshot), file=sys.stderr)
    payload = {
        "algorithm": getattr(matcher, "name", args.algorithm),
        "count": result.count,
        "limit_reached": result.limit_reached,
        "timed_out": result.timed_out,
        "recursive_calls": result.stats.recursive_calls,
        "candidates_total": result.stats.candidates_total,
        "preprocess_seconds": round(result.stats.preprocess_seconds, 6),
        "search_seconds": round(result.stats.search_seconds, 6),
    }
    if result.interrupted:
        payload["interrupted"] = True
    if result.budget_breach is not None:
        payload["budget_breach"] = result.budget_breach
    if result.partial_failure:
        payload["partial_failure"] = True
    if result.degradations:
        payload["degradations"] = result.degradations
    if result.stats.worker_outcomes:
        payload["workers"] = [
            {"slice": o.slice_index, "status": o.status, "attempts": o.attempts}
            for o in result.stats.worker_outcomes
        ]
    if args.checkpoint_out and result.checkpoint is not None:
        result.checkpoint.save(args.checkpoint_out)
        payload["checkpoint"] = args.checkpoint_out
    if not args.count_only:
        payload["embeddings"] = [list(e) for e in result.embeddings]
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 130 if result.interrupted else 0


def cmd_info(args: argparse.Namespace) -> int:
    graph = _read_graph(args.graph, args.format)
    from .graph.properties import connected_components, density_class

    components = connected_components(graph)
    payload = {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "labels": graph.num_labels,
        "average_degree": round(graph.average_degree(), 3),
        "density_class": density_class(graph),
        "connected_components": len(components),
        "max_degree": max(graph.degrees, default=0),
    }
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input, args.from_format)
    _write_graph(graph, args.output, args.to_format)
    print(f"wrote {graph.num_vertices} vertices / {graph.num_edges} edges to {args.output}")
    return 0


def cmd_generate_dataset(args: argparse.Namespace) -> int:
    from .datasets import load

    graph = load(args.name)
    _write_graph(graph, args.output, args.format)
    print(f"{args.name}: |V|={graph.num_vertices} |E|={graph.num_edges} -> {args.output}")
    return 0


def cmd_generate_queries(args: argparse.Namespace) -> int:
    from .workloads import generate_query_set

    data = _read_graph(args.data, args.format)
    rng = random.Random(args.seed)
    query_set = generate_query_set(
        data, args.size, args.density, args.count, rng, dataset=Path(args.data).stem
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, query in enumerate(query_set.queries):
        _write_graph(query, str(out_dir / f"{query_set.name}_{i:03d}.graph"), args.format)
    print(f"wrote {len(query_set)} queries ({query_set.name}) to {out_dir}/")
    if query_set.off_class:
        print(f"warning: {query_set.off_class} queries missed the {args.density} band")
    return 0


def _bench_drivers() -> dict:
    from .bench import experiments as exp

    return {
        "table2": exp.table2,
        **{f"fig{n}": getattr(exp, f"figure{n}") for n in range(9, 19)},
    }


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import DEFAULT, SMOKE, print_table

    drivers = _bench_drivers()
    if args.experiment not in drivers:
        raise SystemExit(f"unknown experiment {args.experiment!r}; choices: {sorted(drivers)}")
    profile = SMOKE if args.profile == "smoke" else DEFAULT
    rows = drivers[args.experiment](profile)
    print_table(rows, f"{args.experiment} ({profile.name} profile)")
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    """``repro bench run``: run drivers, write a BENCH_<n>.json manifest."""
    from .bench import DEFAULT, SMOKE, ManifestWriter, print_table

    drivers = _bench_drivers()
    names = [name.strip() for name in args.figures.split(",") if name.strip()]
    unknown = [name for name in names if name not in drivers]
    if unknown:
        raise SystemExit(f"unknown figure(s) {unknown}; choices: {sorted(drivers)}")
    if not names:
        raise SystemExit("--figures must name at least one driver")
    profile = SMOKE if args.profile == "smoke" else DEFAULT
    sink = None
    if args.metrics_out:
        from .obs import JsonlSink

        sink = JsonlSink(args.metrics_out)
    writer = ManifestWriter(root=args.out, profile=profile, sink=sink)
    for name in names:
        rows = drivers[name](profile)
        writer.add_figure(name, rows, title=f"{name} ({profile.name} profile)")
        if not args.quiet:
            print_table(rows, f"{name} ({profile.name} profile)")
    path = writer.write()
    if sink is not None:
        sink.close()
    print(f"manifest: {path}")
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    """``repro bench compare``: diff two manifests, optionally as a gate."""
    from .bench import compare_manifests, load_manifest, validate_manifest

    documents = []
    for name in (args.baseline, args.current):
        try:
            document = load_manifest(name)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"{name}: not a readable manifest ({exc})")
        errors = validate_manifest(document)
        if errors:
            raise SystemExit(f"{name}: invalid manifest: " + "; ".join(errors))
        documents.append(document)
    comparison = compare_manifests(
        documents[0],
        documents[1],
        counter_threshold=args.counter_threshold,
        time_threshold=args.time_threshold,
        baseline_name=Path(args.baseline).name,
        current_name=Path(args.current).name,
    )
    print(comparison.render(only_changed=args.only_changed))
    if args.gate and comparison.counter_regressions:
        return 1
    return 0


def cmd_bench_history(args: argparse.Namespace) -> int:
    """``repro bench history``: sparkline trends over BENCH_*.json."""
    from .bench import history_rows, list_manifests, load_manifest
    from .bench.report import render_table

    paths = list_manifests(args.root)
    if not paths:
        raise SystemExit(f"no BENCH_*.json manifests under {args.root}")
    manifests = [load_manifest(p) for p in paths]
    print("history: " + " -> ".join(p.name for p in paths))
    rows = history_rows(manifests, metric=args.metric, figure=args.figure)
    if not rows:
        raise SystemExit(f"no cells report metric {args.metric!r}")
    print(render_table(rows, f"trend of {args.metric}", precise=True))
    return 0


def cmd_bench_hotspots(args: argparse.Namespace) -> int:
    """``repro bench hotspots``: per-vertex search-effort attribution."""
    from .bench import render_hotspot_report, run_hotspots

    if bool(args.query) != bool(args.data):
        raise SystemExit("--query and --data must be given together")
    collect_folded = args.folded is not None
    if args.query:
        query = _read_graph(args.query, args.format)
        data = _read_graph(args.data, args.format)
        payload = run_hotspots(query, data, limit=args.limit, collect_folded=collect_folded)
    else:
        payload = run_hotspots(limit=args.limit, collect_folded=collect_folded)
    print(render_hotspot_report(payload, top=args.top))
    if collect_folded and payload["tracer"] is not None:
        payload["tracer"].write_folded(args.folded)
        print(f"folded stacks -> {args.folded}")
    return 0


def _explain_instance(args: argparse.Namespace) -> tuple[Graph, Graph]:
    """The (query, data) pair an explain command operates on: the given
    files, or the paper's §6 worked example when both are omitted."""
    if args.query and args.data:
        return _read_graph(args.query, args.format), _read_graph(args.data, args.format)
    if args.query or args.data:
        raise SystemExit("pass both QUERY and DATA files, or neither (§6 example)")
    from .bench.hotspots import paper_worked_example

    return paper_worked_example()


def _explain_config(args: argparse.Namespace) -> MatchConfig:
    return MatchConfig(
        order=args.order,
        use_failing_sets=not args.no_failing_sets,
        collect_embeddings=False,
    )


def cmd_explain_plan(args: argparse.Namespace) -> int:
    """``repro explain plan``: the static BuildDAG + BuildCS decisions."""
    from .obs.explain import explain as build_plan

    query, data = _explain_instance(args)
    plan = build_plan(query, data, _explain_config(args))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(plan.to_dict(), stream, indent=2)
            stream.write("\n")
    print(plan.render())
    return 0


def cmd_explain_analyze(args: argparse.Namespace) -> int:
    """``repro explain analyze``: an instrumented run joined with its plan."""
    from .obs.explain import explain_analyze

    query, data = _explain_instance(args)
    if args.algorithm == "daf":
        matcher = DAFMatcher(_explain_config(args))
    else:
        try:
            cls = next(
                cls
                for name, cls in ALL_BASELINES.items()
                if name.lower() == args.algorithm
            )
        except StopIteration:
            choices = ["daf", *(n.lower() for n in ALL_BASELINES)]
            raise SystemExit(f"unknown algorithm {args.algorithm!r}; choices: {choices}")
        matcher = cls()
    sink = None
    trace = None
    if args.metrics_out:
        from .obs import JsonlSink
        from .obs.telemetry import TraceIdAllocator

        sink = JsonlSink(args.metrics_out)
        trace = TraceIdAllocator().allocate()
    try:
        report = explain_analyze(
            query,
            data,
            matcher=matcher,
            limit=args.limit,
            time_limit=args.time_limit,
            sink=sink,
            trace=trace,
        )
    finally:
        if sink is not None:
            sink.close()
    if args.json:
        report.save(args.json)
    print(report.render())
    return 0


def cmd_explain_diff(args: argparse.Namespace) -> int:
    """``repro explain diff``: classify per-vertex report differences."""
    from .obs.explain import diff_reports, load_report

    try:
        base = load_report(args.base)
        current = load_report(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot load explain report: {exc}")
    diff = diff_reports(base, current, ratio=args.ratio, min_delta=args.min_delta)
    if args.format == "json":
        json.dump(diff.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print(diff.render())
    if args.gate and diff.regressions:
        print(
            f"explain gate: {len(diff.regressions)} regression(s)", file=sys.stderr
        )
        return 1
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    """``repro update``: apply delta batches to a graph through a session."""
    from .interfaces import UpdateError
    from .service import DataGraphSession

    data = _read_graph(args.data, args.format)
    batches = _read_update_batches(args.updates)
    observer, sink = None, None
    if args.metrics_out:
        from .obs import JsonlSink, MetricsRegistry

        sink = JsonlSink(args.metrics_out)
        observer = MetricsRegistry(sink=sink)
    session = DataGraphSession(data, cache_size=args.cache_size, observer=observer)

    subscriptions = []
    options = MatchOptions(time_limit=args.time_limit)
    for spec in args.queries or []:
        query_path = Path(spec)
        query = _read_graph(str(query_path), args.format)
        standing = session.subscribe(MatchRequest(query, options=options, tag=query_path.name))
        subscriptions.append((query_path.name, standing))

    applied = []
    try:
        for batch in batches:
            result = session.apply(batch, cross_validate=args.cross_validate)
            record = {
                "batch": batch.tag,  # the updates-file line number
                "graph_version": result.graph_version,
                "deltas": result.deltas,
                "cache_refreshed": result.cache_refreshed,
                "cache_invalidated": result.cache_invalidated,
                "appeared": result.appeared,
                "disappeared": result.disappeared,
                "seconds": round(result.seconds, 6),
            }
            if result.added_vertices:
                record["added_vertices"] = list(result.added_vertices)
            if subscriptions:
                record["events"] = [
                    {
                        "query": name,
                        "kind": event.kind,
                        "embedding": list(event.embedding),
                    }
                    for name, standing in subscriptions
                    for event in standing.drain()
                ]
            applied.append(record)
    except UpdateError as exc:
        if sink is not None:
            sink.close()
        raise SystemExit(f"update failed: {exc}")
    if sink is not None:
        sink.close()

    if args.out:
        _write_graph(session.data, args.out, args.format)
    payload = {
        "graph_version": session.graph_version,
        "batches": applied,
        "cache": session.cache.stats(),
        "cross_validated": bool(args.cross_validate),
    }
    if subscriptions:
        payload["standing"] = {
            name: sorted(list(emb) for emb in standing.embeddings)
            for name, standing in subscriptions
        }
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0


def cmd_serve_batch(args: argparse.Namespace) -> int:
    """``repro serve-batch``: batch queries through a persistent session."""
    from .service import BatchEngine, BatchJournal, DataGraphSession

    if args.journal and args.rounds != 1:
        raise SystemExit("--journal requires --rounds 1 (a journal keys on request index)")
    journal = BatchJournal(args.journal) if args.journal else None
    if args.updates and args.journal:
        raise SystemExit("--updates and --journal are mutually exclusive "
                         "(a journal replays against one graph version)")
    update_batches = _read_update_batches(args.updates) if args.updates else []
    data = _read_graph(args.data, args.format)
    query_paths: list = []
    for spec in args.queries:
        path = Path(spec)
        if path.is_dir():
            files = sorted(p for p in path.iterdir() if p.is_file())
            if not files:
                raise SystemExit(f"no query files in directory {spec}")
            query_paths.extend(files)
        else:
            query_paths.append(path)
    queries = [(p, _read_graph(str(p), args.format)) for p in query_paths]
    observer, sink = None, None
    if args.metrics_out:
        from .obs import JsonlSink, MetricsRegistry

        sink = JsonlSink(args.metrics_out)
        observer = MetricsRegistry(sink=sink)
    session = DataGraphSession(data, cache_size=args.cache_size, observer=observer)
    engine = BatchEngine(session, num_workers=args.workers)
    options = MatchOptions(
        limit=args.limit, time_limit=args.time_limit, count_only=args.count_only
    )
    requests = [
        MatchRequest(query, options=options, tag=path.name) for path, query in queries
    ]
    per_round = []
    results = []
    completed = failed = 0
    interrupted = False
    for round_index in range(args.rounds):
        try:
            batch = engine.run(requests, journal=journal)
        except KeyboardInterrupt:
            # The interrupt landed outside a search (e.g. preprocessing);
            # completed requests are already journaled — wind down.
            interrupted = True
            break
        completed += batch.completed
        failed += batch.failed
        per_round.append(
            {
                "round": round_index,
                "graph_version": session.graph_version,
                "completed": batch.completed,
                "failed": batch.failed,
                "cache_hits": batch.cache_hits,
                "cache_misses": batch.cache_misses,
                "hit_rate": round(batch.hit_rate, 4),
                "unique_queries": batch.unique_queries,
                "elapsed_seconds": round(batch.elapsed_seconds, 6),
            }
        )
        for item in batch.by_index():
            entry = {
                "round": round_index,
                "tag": item.tag,
                "status": item.status,
                "cache": item.cache,
            }
            if item.result is not None:
                entry["count"] = item.result.count
                entry["recursive_calls"] = item.result.stats.recursive_calls
                entry["preprocess_seconds"] = round(
                    item.result.stats.preprocess_seconds, 6
                )
                if item.result.timed_out:
                    entry["timed_out"] = True
            if item.result is not None and item.result.interrupted:
                entry["interrupted"] = True
                interrupted = True
            if item.error:
                entry["error"] = item.error
            results.append(entry)
        if interrupted:
            break
        if update_batches and round_index < args.rounds - 1:
            # Mutate between rounds: the next round's batch runs against
            # the new graph version through the rebased cache.
            update = session.apply(update_batches.pop(0))
            per_round[-1]["applied"] = {
                "graph_version": update.graph_version,
                "deltas": update.deltas,
                "cache_refreshed": update.cache_refreshed,
                "cache_invalidated": update.cache_invalidated,
            }
    if sink is not None:
        sink.close()
    payload = {
        "queries": len(queries),
        "rounds": args.rounds,
        "requests": len(queries) * args.rounds,
        "completed": completed,
        "failed": failed,
        "workers": args.workers,
        "cache": session.cache.stats(),
        "per_round": per_round,
        "results": results,
    }
    if interrupted:
        payload["interrupted"] = True
    json.dump(payload, sys.stdout, indent=2)
    print()
    if interrupted:
        return 130
    return 0 if failed == 0 else 1


def cmd_trace_show(args: argparse.Namespace) -> int:
    """``repro trace show``: list traces or render one request tree."""
    from .obs.telemetry import (
        collect_traces,
        read_events,
        render_trace_list,
        render_trace_tree,
    )

    try:
        events = read_events(args.events)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.events}: {exc}")
    if args.trace:
        print(render_trace_tree(events, args.trace))
        return 0 if any(e.get("trace_id") == args.trace for e in events) else 1
    print(render_trace_list(collect_traces(events)))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: seeded fault sweeps gated on exact-answer equality."""
    from .resilience.chaos import DEFAULT_SCENARIOS, ChaosHarness
    from .resilience.faults import KINDS, SITES

    split = lambda v: [s.strip() for s in v.split(",") if s.strip()] if v else None  # noqa: E731
    sites, kinds = split(args.sites), split(args.kinds)
    for name, valid in ((sites, SITES), (kinds, KINDS)):
        for entry in name or ():
            if entry not in valid:
                raise SystemExit(f"unknown {entry!r}; choices: {', '.join(valid)}")
    scenarios = [
        (site, kind)
        for site, kind in DEFAULT_SCENARIOS
        if (sites is None or site in sites) and (kinds is None or kind in kinds)
    ]
    if not scenarios:
        raise SystemExit("no scenarios match the --sites/--kinds filters")
    observer, sink = None, None
    if args.metrics_out:
        from .obs import JsonlSink, MetricsRegistry

        sink = JsonlSink(args.metrics_out)
        observer = MetricsRegistry(sink=sink)
    try:
        harness = ChaosHarness(
            seed=args.seed,
            observer=observer,
            num_workers=args.workers,
            workdir=args.workdir,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    outcomes = harness.run(scenarios)
    if sink is not None:
        sink.close()
    payload = {
        "seed": args.seed,
        "scenarios": len(outcomes),
        "ok": sum(o.status == "ok" for o in outcomes),
        "skipped": sum(o.status == "skipped" for o in outcomes),
        "failed": sum(o.status in ("mismatch", "error") for o in outcomes),
        "results": [
            {
                "scenario": o.scenario,
                "site": o.site,
                "kind": o.kind,
                "status": o.status,
                "matched": o.matched,
                "fired": o.fired,
                "resumed": o.resumed,
                "elapsed_seconds": round(o.elapsed_seconds, 3),
                **({"detail": o.detail} if o.detail else {}),
            }
            for o in outcomes
        ],
    }
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0 if all(o.status in ("ok", "skipped") for o in outcomes) else 1


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: run the static invariant checkers, exit 1 on findings."""
    from pathlib import Path

    from .lint import (
        BaselineError,
        UnknownCheckError,
        catalog,
        render_json,
        render_text,
        run_lint_report,
    )

    if args.list:
        for check_id, description in catalog():
            print(f"{check_id}  {description}")
        return 0
    split = lambda v: [s for s in v.split(",") if s.strip()] if v else None  # noqa: E731
    try:
        report = run_lint_report(
            root=args.root,
            select=split(args.select),
            ignore=split(args.ignore),
            jobs=args.jobs,
            baseline=Path(args.baseline) if args.baseline else None,
            update_baseline=args.update_baseline,
        )
    except (FileNotFoundError, UnknownCheckError, BaselineError) as exc:
        print(str(exc), file=sys.stderr)
        raise SystemExit(2)
    if args.metrics_out:
        from .obs import JsonlSink

        sink = JsonlSink(args.metrics_out)
        try:
            sink.emit(
                {
                    "event": "lint.run",
                    "files": report.files,
                    "findings": len(report.findings),
                    "elapsed_seconds": round(report.elapsed_seconds, 3),
                    "checkers": list(report.checkers),
                    "by_check": dict(report.by_check),
                    "baseline_suppressed": report.baseline_suppressed,
                    "stale_baseline": report.stale_baseline,
                    "jobs": report.jobs,
                }
            )
        finally:
            sink.close()
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report.findings))
        if report.baseline_suppressed:
            print(f"repro lint: {report.baseline_suppressed} baseline-suppressed")
    return 1 if report.findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAF subgraph matching (SIGMOD 2019 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    match_p = sub.add_parser("match", help="find embeddings of a query in a data graph")
    match_p.add_argument("query", help="query graph file")
    match_p.add_argument("data", help="data graph file")
    match_p.add_argument("--format", default="cfl", choices=("cfl", "edgelist"))
    match_p.add_argument("--limit", type=int, default=100_000, help="embedding cap (paper k)")
    match_p.add_argument("--time-limit", type=float, default=None, help="seconds")
    match_p.add_argument(
        "--algorithm",
        default="daf",
        help="daf (default) or a baseline: " + ", ".join(n.lower() for n in ALL_BASELINES),
    )
    match_p.add_argument("--order", default="path", choices=("path", "candidate"))
    match_p.add_argument("--no-failing-sets", action="store_true")
    match_p.add_argument("--induced", action="store_true", help="induced isomorphism")
    match_p.add_argument("--homomorphism", action="store_true", help="drop injectivity")
    match_p.add_argument("--count-only", action="store_true", help="omit embedding lists")
    match_p.add_argument(
        "--workers", type=int, default=1, help="parallel DAF worker processes (DAF only)"
    )
    match_p.add_argument(
        "--max-calls", type=int, default=None, help="recursive-call budget (DAF only)"
    )
    match_p.add_argument(
        "--max-memory-mb",
        type=float,
        default=None,
        help="estimated memory budget in MiB (DAF only)",
    )
    match_p.add_argument(
        "--resilient",
        action="store_true",
        help="wrap the matcher in the graceful-degradation chain (docs/robustness.md)",
    )
    match_p.add_argument(
        "--checkpoint-out",
        default=None,
        metavar="PATH",
        help="write the suspended search state here when the run is "
        "interrupted (Ctrl-C) or breaches a budget; resume with --resume",
    )
    match_p.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="continue a previous run from a --checkpoint-out file "
        "(same query/data/config; DAF with --workers 1 only)",
    )
    match_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="append observability events as JSONL (docs/observability.md)",
    )
    match_p.add_argument(
        "--profile",
        action="store_true",
        help="print phase timings and prune accounting to stderr",
    )
    match_p.add_argument(
        "--progress",
        action="store_true",
        help="live heartbeat lines on stderr for long searches",
    )
    match_p.set_defaults(func=cmd_match)

    info_p = sub.add_parser("info", help="print graph statistics")
    info_p.add_argument("graph")
    info_p.add_argument("--format", default="cfl", choices=("cfl", "edgelist"))
    info_p.set_defaults(func=cmd_info)

    convert_p = sub.add_parser("convert", help="convert between graph formats")
    convert_p.add_argument("input")
    convert_p.add_argument("output")
    convert_p.add_argument("--from-format", default="cfl", choices=("cfl", "edgelist"))
    convert_p.add_argument("--to-format", default="edgelist", choices=("cfl", "edgelist"))
    convert_p.set_defaults(func=cmd_convert)

    generate_p = sub.add_parser("generate", help="generate datasets or query workloads")
    generate_sub = generate_p.add_subparsers(dest="what", required=True)

    dataset_p = generate_sub.add_parser("dataset", help="materialize a registry dataset")
    dataset_p.add_argument("name", help="yeast, human, hprd, email, dblp, yago, twitter")
    dataset_p.add_argument("output")
    dataset_p.add_argument("--format", default="cfl", choices=("cfl", "edgelist"))
    dataset_p.set_defaults(func=cmd_generate_dataset)

    queries_p = generate_sub.add_parser("queries", help="extract a query set")
    queries_p.add_argument("data", help="data graph file")
    queries_p.add_argument("out_dir")
    queries_p.add_argument("--size", type=int, required=True)
    queries_p.add_argument("--density", default="nonsparse", choices=("sparse", "nonsparse"))
    queries_p.add_argument("--count", type=int, default=10)
    queries_p.add_argument("--seed", type=int, default=2019)
    queries_p.add_argument("--format", default="cfl", choices=("cfl", "edgelist"))
    queries_p.set_defaults(func=cmd_generate_queries)

    bench_p = sub.add_parser(
        "bench", help="run experiment drivers, manage run manifests (docs/benchmarks.md)"
    )
    bench_sub = bench_p.add_subparsers(dest="experiment", required=True)

    # Driver names stay first-class subcommands: `repro bench table2 --profile smoke`.
    for driver in ["table2", *(f"fig{n}" for n in range(9, 19))]:
        driver_p = bench_sub.add_parser(driver, help=f"run the {driver} driver")
        driver_p.add_argument("--profile", default="default", choices=("default", "smoke"))
        driver_p.set_defaults(func=cmd_bench, experiment=driver)

    run_p = bench_sub.add_parser("run", help="run drivers and write a BENCH_<n>.json manifest")
    run_p.add_argument("--profile", default="default", choices=("default", "smoke"))
    run_p.add_argument(
        "--figures",
        default="fig10",
        help="comma-separated driver names (table2, fig9..fig18); default fig10",
    )
    run_p.add_argument(
        "--out",
        default=".",
        metavar="DIR",
        help="directory for the BENCH_<n>.json manifest (index auto-assigned)",
    )
    run_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="also mirror bench.run/bench.summary events as JSONL",
    )
    run_p.add_argument("--quiet", action="store_true", help="suppress per-figure tables")
    run_p.set_defaults(func=cmd_bench_run)

    compare_p = bench_sub.add_parser("compare", help="diff two manifests (regression gate)")
    compare_p.add_argument("baseline", help="baseline manifest (e.g. BENCH_0.json)")
    compare_p.add_argument("current", help="current manifest")
    compare_p.add_argument(
        "--counter-threshold",
        type=float,
        default=0.02,
        help="relative tolerance for deterministic counters (default 0.02)",
    )
    compare_p.add_argument(
        "--time-threshold",
        type=float,
        default=0.25,
        help="relative tolerance for wall-clock columns (default 0.25)",
    )
    compare_p.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 on deterministic-counter regressions (never on wall clock)",
    )
    compare_p.add_argument(
        "--only-changed", action="store_true", help="hide neutral cells from the table"
    )
    compare_p.set_defaults(func=cmd_bench_compare)

    history_p = bench_sub.add_parser("history", help="trend sparklines over BENCH_*.json")
    history_p.add_argument("--root", default=".", help="directory holding BENCH_*.json")
    history_p.add_argument("--metric", default="avg_calls", help="metric column to trend")
    history_p.add_argument("--figure", default=None, help="restrict to one figure")
    history_p.set_defaults(func=cmd_bench_history)

    hotspots_p = bench_sub.add_parser(
        "hotspots", help="per-vertex search-effort attribution (paper worked example)"
    )
    hotspots_p.add_argument("--query", default=None, help="query graph file (else worked example)")
    hotspots_p.add_argument("--data", default=None, help="data graph file (else worked example)")
    hotspots_p.add_argument("--format", default="cfl", choices=("cfl", "edgelist"))
    hotspots_p.add_argument("--top", type=int, default=5, help="hottest vertices to show")
    hotspots_p.add_argument("--limit", type=int, default=100_000, help="embedding cap")
    hotspots_p.add_argument(
        "--folded",
        default=None,
        metavar="PATH",
        help="write flamegraph.pl folded stacks here",
    )
    hotspots_p.set_defaults(func=cmd_bench_hotspots)

    explain_p = sub.add_parser(
        "explain",
        help="post-run search forensics: plans, instrumented runs, diffs "
        "(docs/explain.md)",
    )
    explain_sub = explain_p.add_subparsers(dest="explain_command", required=True)

    def _explain_instance_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "query", nargs="?", default=None, help="query graph file (else §6 example)"
        )
        parser.add_argument(
            "data", nargs="?", default=None, help="data graph file (else §6 example)"
        )
        parser.add_argument("--format", default="cfl", choices=("cfl", "edgelist"))
        parser.add_argument("--order", default="path", choices=("path", "candidate"))
        parser.add_argument(
            "--no-failing-sets",
            action="store_true",
            help="disable failing-set pruning",
        )
        parser.add_argument(
            "--json", default=None, metavar="PATH", help="also write JSON here"
        )

    plan_p = explain_sub.add_parser(
        "plan", help="static plan: BuildDAG root/order + BuildCS candidate sizes"
    )
    _explain_instance_args(plan_p)
    plan_p.set_defaults(func=cmd_explain_plan)

    analyze_p = explain_sub.add_parser(
        "analyze", help="instrumented run joined with the static plan"
    )
    _explain_instance_args(analyze_p)
    analyze_p.add_argument(
        "--algorithm",
        default="daf",
        help="daf (default) or a baseline name (ullmann, vf2, ...)",
    )
    analyze_p.add_argument("--limit", type=int, default=100_000, help="embedding cap")
    analyze_p.add_argument(
        "--time-limit", type=float, default=None, help="seconds before giving up"
    )
    analyze_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="also stream run events (incl. explain.report) to this JSONL file",
    )
    analyze_p.set_defaults(func=cmd_explain_analyze)

    diff_p = explain_sub.add_parser(
        "diff", help="classify per-vertex differences between two reports"
    )
    diff_p.add_argument("base", help="baseline explain report (JSON)")
    diff_p.add_argument("current", help="current explain report (JSON)")
    diff_p.add_argument(
        "--ratio",
        type=float,
        default=2.0,
        help="entered-count blowup factor that flags a regression",
    )
    diff_p.add_argument(
        "--min-delta",
        type=int,
        default=16,
        help="absolute entered-count change below which differences are noise",
    )
    diff_p.add_argument("--format", default="text", choices=("text", "json"))
    diff_p.add_argument(
        "--gate",
        action="store_true",
        help="exit 1 when the diff contains any regression",
    )
    diff_p.set_defaults(func=cmd_explain_diff)

    update_p = sub.add_parser(
        "update",
        help="apply delta batches to a data graph through a session "
        "(docs/serving.md)",
    )
    update_p.add_argument("data", help="data graph file")
    update_p.add_argument(
        "updates",
        help="JSONL updates file: one batch per line, each a delta object "
        'like {"op": "insert-edge", "u": 0, "v": 2} or an array of them',
    )
    update_p.add_argument("--format", default="cfl", choices=("cfl", "edgelist"))
    update_p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the post-update graph here (tombstoned vertices are "
        "kept as isolated '__tombstone__' placeholders so ids stay stable)",
    )
    update_p.add_argument(
        "--queries",
        nargs="*",
        default=None,
        metavar="FILE",
        help="query graph files to register as standing queries; their "
        "appeared/disappeared events are reported per batch",
    )
    update_p.add_argument(
        "--time-limit",
        type=float,
        default=None,
        help="seconds per standing-query enumeration",
    )
    update_p.add_argument(
        "--cross-validate",
        action="store_true",
        help="rebuild the derived graph, its index and every refreshed "
        "candidate space from cold and fail on any divergence from the "
        "incremental result",
    )
    update_p.add_argument(
        "--cache-size",
        type=int,
        default=64,
        help="prepared-query LRU capacity in entries (default 64)",
    )
    update_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="append update.batch and embedding.appeared/disappeared "
        "events as JSONL",
    )
    update_p.set_defaults(func=cmd_update)

    serve_p = sub.add_parser(
        "serve-batch",
        help="run a query batch through a persistent session (docs/serving.md)",
    )
    serve_p.add_argument("data", help="data graph file (loaded and indexed once)")
    serve_p.add_argument(
        "queries", nargs="+", help="query graph files and/or directories of them"
    )
    serve_p.add_argument("--format", default="cfl", choices=("cfl", "edgelist"))
    serve_p.add_argument(
        "--limit", type=int, default=100_000, help="embedding cap per query"
    )
    serve_p.add_argument(
        "--time-limit", type=float, default=None, help="seconds per query"
    )
    serve_p.add_argument(
        "--count-only", action="store_true", help="skip embedding collection"
    )
    serve_p.add_argument(
        "--workers", type=int, default=1, help="search-stage worker processes"
    )
    serve_p.add_argument(
        "--cache-size",
        type=int,
        default=64,
        help="prepared-query LRU capacity in entries (default 64)",
    )
    serve_p.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="run the batch N times through the same session "
        "(rounds after the first hit the warm cache)",
    )
    serve_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="append batch.request/batch.run events as JSONL "
        "(see `repro trace show`)",
    )
    serve_p.add_argument(
        "--updates",
        default=None,
        metavar="FILE",
        help="JSONL updates file (same format as `repro update`); one "
        "batch is applied between consecutive rounds, so later rounds "
        "run against mutated graph versions through the rebased cache",
    )
    serve_p.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="persist per-request outcomes and in-flight checkpoints "
        "here; re-running with the same journal replays completed "
        "requests and resumes interrupted ones (requires --rounds 1)",
    )
    serve_p.set_defaults(func=cmd_serve_batch)

    trace_p = sub.add_parser(
        "trace", help="inspect request traces in a metrics JSONL stream"
    )
    trace_sub = trace_p.add_subparsers(dest="what", required=True)
    show_p = trace_sub.add_parser(
        "show", help="list traces, or render one request's span tree"
    )
    show_p.add_argument("events", help="metrics JSONL file (from --metrics-out)")
    show_p.add_argument(
        "--trace",
        default=None,
        metavar="ID",
        help="render this trace id as a tree with per-span phase/prune "
        "attribution (omit to list all traces in the stream)",
    )
    show_p.set_defaults(func=cmd_trace_show)

    chaos_p = sub.add_parser(
        "chaos",
        help="sweep seeded fault injections, gate on exact-answer equality",
    )
    chaos_p.add_argument("--seed", type=int, default=0, help="workload + injector seed")
    chaos_p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="parallel-scenario fan-out (must be >= 2 so kills hit forks)",
    )
    chaos_p.add_argument(
        "--sites",
        default=None,
        help="comma list of fault sites to sweep (default: all)",
    )
    chaos_p.add_argument(
        "--kinds",
        default=None,
        help="comma list of fault kinds to sweep (default: all)",
    )
    chaos_p.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="directory for scenario batch journals (default: a temp dir)",
    )
    chaos_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="append one chaos.run event per scenario as JSONL",
    )
    chaos_p.set_defaults(func=cmd_chaos)

    lint_p = sub.add_parser(
        "lint", help="statically check codebase invariants (docs/static-analysis.md)"
    )
    lint_p.add_argument(
        "--root", default=None, help="repository root (default: auto-detect)"
    )
    lint_p.add_argument("--format", default="text", choices=("text", "json"))
    lint_p.add_argument(
        "--select", default=None, metavar="IDS", help="comma-separated check ids to run"
    )
    lint_p.add_argument(
        "--ignore", default=None, metavar="IDS", help="comma-separated check ids to skip"
    )
    lint_p.add_argument(
        "--list", action="store_true", help="print the check catalog and exit"
    )
    lint_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan per-file checker passes out over N worker processes",
    )
    lint_p.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="suppress findings accepted in this baseline file; stale entries fail",
    )
    lint_p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline to accept exactly the current findings",
    )
    lint_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="append one lint.run event as JSONL",
    )
    lint_p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # A downstream consumer (head, grep -q) closed the pipe; point
        # stdout at devnull so the interpreter's shutdown flush does not
        # raise a second time, and exit with the conventional 128+SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
