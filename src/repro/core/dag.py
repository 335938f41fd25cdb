"""BuildDAG: orient the query graph into a rooted DAG (paper §3).

Root selection and edge orientation both use *data-graph* statistics:

- the root is ``argmin_u |C_ini(u)| / deg(u)`` — few candidates and high
  degree make the first query vertex maximally selective;
- the query is traversed in BFS order from the root and every edge is
  directed from earlier to later vertices.  Within a BFS level, vertices
  are grouped by label (rarer labels in the data graph first) and, within
  a label group, sorted by descending query degree — so selective vertices
  come earlier in every topological order of the DAG.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from ..graph.digraph import RootedDAG
from ..graph.graph import Graph
from .filters import initial_candidate_count


def select_root(query: Graph, data: Graph, counts: Optional[Sequence[int]] = None) -> int:
    """The paper's root rule: argmin_u |C_ini(u)| / deg_q(u).

    ``counts[u]`` replaces ``|C_ini(u)|`` for matchers whose C_ini is not
    the label + degree filter (directed, edge-labeled, multi-label).
    Degree-0 queries (a single isolated vertex) fall back to candidate
    count alone.  Ties break on the smaller vertex id for determinism.
    """
    best_vertex = 0
    best_score = float("inf")
    for u in query.vertices():
        if counts is None:
            count = initial_candidate_count(query, data, u)
        else:
            count = counts[u]
        degree = query.degree(u)
        score = count / degree if degree > 0 else float(count)
        if score < best_score:
            best_score = score
            best_vertex = u
    return best_vertex


def bfs_vertex_order(query: Graph, data: Graph, root: int) -> list[int]:
    """The BuildDAG traversal order: BFS levels, each level sorted by
    (data label frequency asc, query degree desc, vertex id)."""

    def level_key(u: int) -> tuple[int, int, int]:
        return (data.label_frequency(query.label(u)), -query.degree(u), u)

    order: list[int] = []
    seen = {root}
    frontier = [root]
    while frontier:
        frontier.sort(key=level_key)
        order.extend(frontier)
        next_frontier: list[int] = []
        for u in frontier:
            for w in query.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    next_frontier.append(w)
        frontier = next_frontier
    if len(order) != query.num_vertices:
        raise ValueError("query graph must be connected to build a query DAG")
    return order


def build_dag(query: Graph, data: Graph, root: int | None = None) -> RootedDAG:
    """BuildDAG(q, G): a rooted DAG containing *every* edge of ``query``.

    Each query edge is directed from the endpoint that appears earlier in
    the BFS vertex order (upper level, or earlier within the same level)
    to the later one — so the result is acyclic with the chosen root as
    its unique source.
    """
    if root is None:
        root = select_root(query, data)
    order = bfs_vertex_order(query, data, root)
    rank = {u: i for i, u in enumerate(order)}
    edges = []
    for u, w in query.edges():
        if rank[u] < rank[w]:
            edges.append((u, w))
        else:
            edges.append((w, u))
    return RootedDAG(query, edges, root)


def bfs_levels_of_order(query: Graph, root: int) -> dict[int, int]:
    """BFS depth of each vertex from ``root`` (exposed for tests)."""
    depth = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in query.neighbors(u):
            if w not in depth:
                depth[w] = depth[u] + 1
                queue.append(w)
    return depth
