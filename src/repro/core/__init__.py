"""DAF core: DAG construction, candidate space, backtracking, failing sets."""

from .backtrack import BacktrackEngine
from .candidate_space import (
    CandidateSpace,
    build_candidate_space,
    compute_weight_array,
    has_weak_embedding,
)
from .config import DA_CAND, DA_PATH, DAF_CAND, DAF_PATH, MatchConfig
from .dag import build_dag, select_root
from .trace import SearchTracer, TraceNode
from .filters import (
    initial_candidate_count,
    initial_candidates,
    passes_local_filters,
    passes_max_neighbor_degree,
    passes_neighborhood_label_frequency,
)
from .matcher import (
    DAFMatcher,
    PreparedQuery,
    count_embeddings,
    find_embeddings,
    has_embedding,
)
from .ordering import (
    CandidateSizeOrder,
    PathSizeOrder,
    count_paths_from,
    make_order,
)

__all__ = [
    "BacktrackEngine",
    "CandidateSizeOrder",
    "CandidateSpace",
    "DAFMatcher",
    "DA_CAND",
    "DA_PATH",
    "DAF_CAND",
    "DAF_PATH",
    "MatchConfig",
    "PathSizeOrder",
    "PreparedQuery",
    "SearchTracer",
    "TraceNode",
    "build_candidate_space",
    "build_dag",
    "compute_weight_array",
    "count_embeddings",
    "count_paths_from",
    "find_embeddings",
    "has_embedding",
    "has_weak_embedding",
    "initial_candidate_count",
    "initial_candidates",
    "make_order",
    "passes_local_filters",
    "passes_max_neighbor_degree",
    "passes_neighborhood_label_frequency",
    "select_root",
]
