"""Prepared-query LRU cache keyed by a label-aware WL canonical hash.

Preprocessing (BuildDAG + BuildCS) dominates the cost of small- and
medium-query matching once a data graph is resident, and real serving
workloads repeat queries — often not verbatim but *up to isomorphism*
(the same shape arriving with permuted vertex ids).  The cache therefore
keys on :func:`repro.graph.canonical_hash`, a Weisfeiler-Leman color
refinement digest that is invariant under vertex relabeling: isomorphic
queries always land in the same bucket.

WL is *incomplete* — rare non-isomorphic graphs can collide — so a
bucket holds one slot per distinct query and every lookup verifies the
candidate entry with an exact isomorphism check
(:func:`find_isomorphism`) before declaring a hit.  A verified hit
returns the cached :class:`~repro.core.matcher.PreparedQuery` *plus* the
vertex bijection ``pi`` from the probe query onto the cached query, so
the caller can search in cached coordinates and remap embeddings
(``emb[u] = cached_emb[pi[u]]``).

Counters: the cache self-accounts ``hits``/``misses``/``evictions``/
``invalidations`` and, when an observer
(:class:`repro.obs.MetricsRegistry`) is attached, also drives the
``cache_hit``/``cache_miss``/``cache_eviction``/``cache_invalidation``
slots so the traffic appears in metrics snapshots and JSONL sidecars.
Invalidation is the churn-driven path: :meth:`PreparedQueryCache.rebase`
walks the cache after a data-graph mutation, refreshing each entry's
prepared structures incrementally or — when refresh is impossible (the
delta re-oriented the query's DAG) — dropping it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..graph.canonical import canonical_hash
from ..graph.graph import Graph


def find_isomorphism(query: Graph, cached: Graph) -> Optional[tuple[int, ...]]:
    """An isomorphism ``pi`` (query vertex -> cached vertex), or ``None``.

    Correctness of the shortcut: a subgraph embedding of ``query`` into
    ``cached`` is injective, label- and edge-preserving; when the two
    graphs have equal vertex *and* edge counts the map is a bijection
    whose inverse is also edge-preserving — i.e. an isomorphism.  So one
    VF2 probe with ``limit=1`` decides the question exactly.
    """
    if (
        query.num_vertices != cached.num_vertices
        or query.num_edges != cached.num_edges
    ):
        return None
    if query == cached:
        # Structurally identical (same labels, same adjacency): the
        # identity is an isomorphism and VF2 need not run.
        return tuple(range(query.num_vertices))
    from ..baselines.vf2 import VF2Matcher

    result = VF2Matcher()._match_impl(query, cached, limit=1)
    if result.embeddings:
        return result.embeddings[0]
    return None


@dataclass
class CacheEntry:
    """One cached prepared query: the canonical query graph (the slot's
    coordinate system) and its :class:`~repro.core.matcher.PreparedQuery`."""

    query: Graph
    prepared: object  # PreparedQuery; typed loosely to avoid a core import cycle


class PreparedQueryCache:
    """LRU cache of :class:`~repro.core.matcher.PreparedQuery` objects.

    Keys are ``(wl_hash, slot)`` pairs: all entries of one WL hash form a
    bucket, and a lookup walks the bucket verifying each candidate with
    an exact isomorphism check.  Capacity counts entries (not buckets)
    and eviction is strict least-recently-used across the whole cache.

    Entries are only valid against the data graph (and matcher config)
    they were prepared for — a :class:`~repro.service.DataGraphSession`
    owns exactly one cache per (data graph, config), which is what makes
    the invariant structural rather than checked.
    """

    def __init__(self, capacity: int = 64, observer=None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        #: Optional :class:`repro.obs.MetricsRegistry` whose
        #: ``cache_*`` counter slots mirror the totals below.
        self.observer = observer
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: Version of the data graph the entries were prepared against;
        #: bumped by :meth:`rebase` when the owning session mutates.
        self.graph_version = 0
        self._entries: "OrderedDict[tuple[str, int], CacheEntry]" = OrderedDict()
        self._buckets: dict[str, list[tuple[str, int]]] = {}
        self._next_slot = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, query: Graph) -> Optional[tuple[CacheEntry, tuple[int, ...]]]:
        """Return ``(entry, pi)`` for a verified hit, else ``None``.

        ``pi`` maps each vertex of ``query`` onto the cached entry's
        query: embeddings found in cached coordinates translate back via
        ``emb[u] = cached_emb[pi[u]]``.  Every call counts exactly one
        hit or one miss.
        """
        digest = canonical_hash(query)
        for key in self._buckets.get(digest, ()):
            entry = self._entries[key]
            pi = find_isomorphism(query, entry.query)
            if pi is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                if self.observer is not None:
                    self.observer.cache_hit += 1
                return entry, pi
        self.misses += 1
        if self.observer is not None:
            self.observer.cache_miss += 1
        return None

    def insert(self, query: Graph, prepared) -> None:
        """Cache ``prepared`` under ``query``'s canonical hash, evicting
        least-recently-used entries beyond capacity."""
        digest = canonical_hash(query)
        key = (digest, self._next_slot)
        self._next_slot += 1
        self._entries[key] = CacheEntry(query=query, prepared=prepared)
        self._buckets.setdefault(digest, []).append(key)
        while len(self._entries) > self.capacity:
            old_key, _old = self._entries.popitem(last=False)
            bucket = self._buckets[old_key[0]]
            bucket.remove(old_key)
            if not bucket:
                del self._buckets[old_key[0]]
            self.evictions += 1
            if self.observer is not None:
                self.observer.cache_eviction += 1

    def rebase(self, new_version: int, refresh) -> tuple[int, int]:
        """Move every entry to a new data-graph version.

        ``refresh(entry.prepared)`` either returns a replacement
        :class:`~repro.core.matcher.PreparedQuery` valid against the
        mutated graph (incremental CS refresh) or ``None``, in which case
        the entry is dropped and counted as an *invalidation* — distinct
        from a capacity eviction, so the cache stats separate churn from
        pressure.  LRU recency is preserved.  Returns
        ``(refreshed, invalidated)`` entry counts.

        Every replacement is computed before any is committed, so a
        ``refresh`` that raises leaves the whole cache on its old version.
        """
        replacements = {
            key: refresh(entry.prepared) for key, entry in self._entries.items()
        }
        refreshed = 0
        invalidated = 0
        for key, replacement in replacements.items():
            if replacement is None:
                del self._entries[key]
                bucket = self._buckets[key[0]]
                bucket.remove(key)
                if not bucket:
                    del self._buckets[key[0]]
                self.invalidations += 1
                invalidated += 1
                if self.observer is not None:
                    self.observer.cache_invalidation += 1
            else:
                self._entries[key].prepared = replacement
                refreshed += 1
        self.graph_version = new_version
        return refreshed, invalidated

    def clear(self) -> None:
        """Drop every entry (counters keep their lifetime totals)."""
        self._entries.clear()
        self._buckets.clear()

    def stats(self) -> dict:
        """Lifetime traffic totals plus current occupancy."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "graph_version": self.graph_version,
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"PreparedQueryCache(entries={len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
