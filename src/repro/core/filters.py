"""Local candidate filters (paper §3 and §4, "Optimizing CS").

The initial candidate set is the paper's C_ini (label + degree), and the
first refinement step may additionally apply the local features borrowed
from CFL-Match/Turbo_iso: maximum neighbor degree (MND) and neighborhood
label frequency (NLF).  All filters are *sound*: they never remove a data
vertex that participates in an embedding.

The data side of every check reads ``data.index``, the
:class:`repro.graph.GraphIndex` each frozen data graph builds once, on
first use.  The query side is computed from the query graph directly;
query graphs never build an index.
"""

from __future__ import annotations

from ..graph.graph import Graph, Label
from ..graph.index import GraphIndex


def initial_candidates(query: Graph, data: Graph, u: int) -> list[int]:
    """C_ini(u) = { v : L(v) = L(u) and deg(v) >= deg(u) } (paper §3),
    in ascending vertex-id order."""
    return data.index.candidates_with_min_degree(query.label(u), query.degree(u))


def initial_candidate_count(query: Graph, data: Graph, u: int) -> int:
    """|C_ini(u)| without materializing the list (root selection, §3)."""
    return data.index.count_with_min_degree(query.label(u), query.degree(u))


def passes_max_neighbor_degree(query: Graph, data: Graph, u: int, v: int) -> bool:
    """MND filter: v's largest neighbor degree must cover u's.

    If u has a neighbor of degree d, every embedding must map that neighbor
    to a data vertex of degree >= d adjacent to v.
    """
    return data.index.max_neighbor_degree(v) >= query.max_neighbor_degree(u)


def passes_neighborhood_label_frequency(query: Graph, data: Graph, u: int, v: int) -> bool:
    """NLF filter: v's neighborhood must dominate u's label multiset.

    For every label l, v needs at least as many neighbors with label l as
    u has — otherwise some neighbor of u has nowhere to go.
    """
    return passes_local_filters_hoisted(data.index, v, 0, query.neighbor_label_counts(u))


def passes_local_filters(query: Graph, data: Graph, u: int, v: int) -> bool:
    """MND and NLF combined (applied in the first refinement step, §4)."""
    return passes_local_filters_hoisted(
        data.index, v, query.max_neighbor_degree(u), query.neighbor_label_counts(u)
    )


def passes_local_filters_hoisted(
    index: GraphIndex,
    v: int,
    query_mnd: int,
    query_nlf: dict[Label, int],
) -> bool:
    """MND + NLF of data vertex ``v`` against precomputed *query-side*
    signatures.

    The refinement pass evaluates the local filters for every candidate
    ``v`` of one query vertex ``u``; callers hoist u's max-neighbor degree
    and label multiset, and the data graph's index, out of that loop and
    pass them here.  A ``query_mnd`` of 0 checks NLF alone.
    """
    if index.max_neighbor_degree(v) < query_mnd:
        return False
    data_counts = index.neighbor_label_counts(v)
    for label, needed in query_nlf.items():
        if data_counts.get(label, 0) < needed:
            return False
    return True
