"""repro — a full reproduction of DAF subgraph matching (SIGMOD 2019).

Public API highlights:

- :class:`repro.Graph` — vertex-labeled undirected graphs.
- :func:`repro.find_embeddings` / :func:`repro.count_embeddings` /
  :func:`repro.has_embedding` — one-call subgraph matching with DAF.
- :class:`repro.DAFMatcher` + :class:`repro.MatchConfig` — the full
  algorithm with every paper knob (matching order, failing sets, leaf
  decomposition, refinement schedule).
- :mod:`repro.baselines` — the seven algorithms the paper compares against.
- :mod:`repro.datasets` / :mod:`repro.workloads` — the evaluation's data
  graphs and query sets.
- :mod:`repro.bench` — drivers regenerating every table and figure.
- :mod:`repro.resilience` — execution budgets (:class:`repro.Budget`),
  the graceful-degradation wrapper (:class:`repro.ResilientMatcher`),
  and deterministic fault injection (see ``docs/robustness.md``).
- :mod:`repro.obs` — metrics, phase spans, prune-reason accounting and
  live progress (:class:`repro.MetricsRegistry`; attach via
  ``matcher.with_observer(...)``, read ``result.stats.metrics`` — see
  ``docs/observability.md``).
- :mod:`repro.service` — the serving layer: persistent
  :class:`repro.DataGraphSession` data-graph sessions with prepared-query
  caching (:class:`repro.PreparedQueryCache`, retaining
  :class:`repro.PreparedQuery` artifacts) and the deduplicating
  :class:`repro.BatchEngine` (see ``docs/serving.md``).

Requests travel as :class:`repro.MatchRequest` +
:class:`repro.MatchOptions` — ``matcher.match(request)`` is the one call
surface of every matcher (DAF and all baselines).
"""

from .core.config import DA_CAND, DA_PATH, DAF_CAND, DAF_PATH, MatchConfig
from .core.matcher import (
    DAFMatcher,
    PreparedQuery,
    count_embeddings,
    find_embeddings,
    has_embedding,
)
from .graph.graph import Graph, GraphError
from .interfaces import (
    DEFAULT_LIMIT,
    Delta,
    Embedding,
    Matcher,
    MatchOptions,
    MatchRequest,
    MatchResult,
    SearchStats,
    UnsupportedOptionError,
    UpdateBatch,
    UpdateError,
    WorkerOutcome,
    is_embedding,
)
from .obs import (
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    ProgressReporter,
    TraceContext,
)
from .resilience import Budget, BudgetExceeded
from .resilience.resilient import ResilientMatcher
from .service import (
    BatchEngine,
    BatchItem,
    BatchResult,
    DataGraphSession,
    PreparedQueryCache,
    StandingQuery,
)

__version__ = "1.0.0"

__all__ = [
    "BatchEngine",
    "BatchItem",
    "BatchResult",
    "Budget",
    "BudgetExceeded",
    "DAFMatcher",
    "DA_CAND",
    "DA_PATH",
    "DAF_CAND",
    "DAF_PATH",
    "DEFAULT_LIMIT",
    "DataGraphSession",
    "Delta",
    "Embedding",
    "Graph",
    "GraphError",
    "JsonlSink",
    "MatchConfig",
    "MatchOptions",
    "MatchRequest",
    "MatchResult",
    "Matcher",
    "MemorySink",
    "MetricsRegistry",
    "PreparedQuery",
    "PreparedQueryCache",
    "ProgressReporter",
    "ResilientMatcher",
    "SearchStats",
    "StandingQuery",
    "TraceContext",
    "UnsupportedOptionError",
    "UpdateBatch",
    "UpdateError",
    "WorkerOutcome",
    "__version__",
    "count_embeddings",
    "find_embeddings",
    "has_embedding",
    "is_embedding",
]
