"""Search-effort hotspot reporting on the paper's worked example.

Arai et al. (*Fast Subgraph Matching by Exploiting Search Failures*,
PAPERS.md) make the case that knowing **which query vertices burn the
recursive calls** is what turns measurement into optimization targets.
This module packages that view: run a query with per-vertex attribution
on (:data:`repro.obs.VERTEX_COUNTERS`), then report each vertex's share
of recursive descents, emptyset failures, conflicts and failing-set
prunes — optionally alongside a ``flamegraph.pl``-compatible folded-stack
export from the :class:`~repro.core.trace.SearchTracer`.

The default subject is the paper's §6 worked discussion (conflict cells
feeding failing sets): a square query whose two A-labelled corners are
forced onto the *same* data vertex in every decoy branch.  Injectivity
is the one constraint the candidate space cannot encode — the DP keeps
every decoy, so the search itself must discover each dead end, and the
effort visibly concentrates on the conflicting corner.  (Contrast the
§1/§4 non-tree blind spot of ``tests/test_paper_scenarios.py``, where
the CS prunes the decoys *before* search and attribution shows nothing.)
"""

from __future__ import annotations

from typing import Optional

from ..core.config import MatchConfig
from ..core.matcher import DAFMatcher
from ..graph.graph import Graph
from ..core.trace import SearchTracer
from ..obs import MetricsRegistry, hotspot_rows, render_hotspots


def paper_worked_example(decoys: int = 10) -> tuple[Graph, Graph]:
    """The §6 conflict-cell instance (failing sets, Figure 8 discussion).

    Query: a square u0=R, u1=A, u2=B, u3=A with edges (0,1), (1,2),
    (2,3), (0,3) — both A-corners must attach to the hub *and* to the
    same B, and injectivity demands they differ.  Data: one genuine
    square (two hub-adjacent A's sharing a B) plus ``decoys`` branches
    where the B's second A-neighbor avoids the hub.  Refinement keeps
    every decoy B (it has *a* neighbor in each adjacent candidate set;
    the DP cannot know u1 and u3 need distinct ones), so each decoy dies
    only at search time as an injectivity conflict on the second corner
    — which is where ``hotspots`` shows the effort landing.
    """
    data = Graph()
    hub = data.add_vertex("R")
    a_good1 = data.add_vertex("A")
    a_good2 = data.add_vertex("A")
    b_good = data.add_vertex("B")
    data.add_edge(hub, a_good1)
    data.add_edge(hub, a_good2)
    data.add_edge(b_good, a_good1)
    data.add_edge(b_good, a_good2)
    for _ in range(decoys):
        a_hub = data.add_vertex("A")  # hub-adjacent: a valid corner
        a_far = data.add_vertex("A")  # not hub-adjacent: passes NLF only
        b_decoy = data.add_vertex("B")
        data.add_edge(hub, a_hub)
        data.add_edge(b_decoy, a_hub)
        data.add_edge(b_decoy, a_far)
    data.freeze()
    query = Graph(labels=["R", "A", "B", "A"], edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    return query.freeze(), data


def run_hotspots(
    query: Optional[Graph] = None,
    data: Optional[Graph] = None,
    use_failing_sets: bool = True,
    limit: int = 100_000,
    collect_folded: bool = False,
) -> dict:
    """Run one attributed search and return the hotspot report payload.

    Without ``query``/``data`` the paper worked example runs.  Returns
    ``{"result", "snapshot", "rows", "tracer"}`` where ``rows`` is the
    per-vertex attribution (hottest first) and ``tracer`` is a
    histogram-only :class:`~repro.core.trace.SearchTracer` (``None``
    unless ``collect_folded``): it keeps no tree, so its memory stays
    bounded however large the search.
    """
    if query is None or data is None:
        query, data = paper_worked_example()
    registry = MetricsRegistry()
    config = MatchConfig(use_failing_sets=use_failing_sets, collect_embeddings=False)
    matcher = DAFMatcher(config).with_observer(registry)
    tracer = SearchTracer(keep_tree=False) if collect_folded else None
    prepared = matcher.prepare(query, data)
    result = matcher.search(prepared, limit=limit, tracer=tracer)
    snapshot = result.stats.metrics or registry.snapshot()
    return {
        "result": result,
        "snapshot": snapshot,
        "rows": hotspot_rows(snapshot),
        "tracer": tracer,
    }


def render_hotspot_report(payload: dict, top: int = 5) -> str:
    """The CLI's ``repro bench hotspots`` text block."""
    from .report import render_table

    result = payload["result"]
    lines = [
        f"embeddings={result.count} recursive_calls={result.stats.recursive_calls}",
        "",
        render_table(payload["rows"][:top], "per-vertex search effort"),
        render_hotspots(payload["snapshot"], top=top),
    ]
    tracer = payload.get("tracer")
    if tracer is not None and tracer.folded:
        lines.append("")
        lines.append(f"folded stacks: {len(tracer.folded)} distinct (flamegraph.pl format)")
    return "\n".join(lines)
