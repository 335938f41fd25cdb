"""Output checking against an independent engine.

Every capped count the benchmark observes is compared with the count
:class:`repro.baselines.CFLMatcher` reports for the same query, data graph
and limit.  CFL counts are stored per workload in ``perf/expected/``,
keyed by ``<data fingerprint>/<query fingerprint>/<limit>``, so routine
runs only look them up; a key that is missing (another seed, a changed
generator, a smaller test instance) is computed with CFL on the spot.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from pathlib import Path

from repro import MatchOptions, MatchRequest
from repro.baselines import CFLMatcher

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def fingerprint(graph) -> str:
    """A digest of a graph's labels and adjacency (vertex ids included)."""
    digest = hashlib.sha1(repr(graph.labels).encode())
    for v in graph.vertices():
        digest.update(array("i", graph.neighbors(v)).tobytes())
        digest.update(b";")
    return digest.hexdigest()[:16]


class Expected:
    """Reference counts for one workload, loaded from and saved to
    ``perf/expected/<workload>.json``."""

    def __init__(self, workload: str, directory: Path = EXPECTED_DIR) -> None:
        self.path = directory / f"{workload}.json"
        self.counts: dict[str, int] = (
            json.loads(self.path.read_text()) if self.path.exists() else {}
        )
        self.computed = 0
        self.used: set[str] = set()
        # id(graph) -> (graph, fingerprint); the graph is held so its id
        # cannot be reused by another graph while the entry exists.
        self._data_fingerprints: dict[int, tuple[object, str]] = {}

    def _data_fingerprint(self, data) -> str:
        entry = self._data_fingerprints.get(id(data))
        if entry is None:
            entry = (data, fingerprint(data))
            self._data_fingerprints[id(data)] = entry
        return entry[1]

    def count(self, query, data, limit: int) -> int:
        """The CFL-Match count of ``query`` in ``data``, capped at ``limit``."""
        key = f"{self._data_fingerprint(data)}/{fingerprint(query)}/{limit}"
        if key not in self.counts:
            options = MatchOptions(limit=limit, count_only=True)
            self.counts[key] = CFLMatcher().run_request(
                MatchRequest(query, data, options)
            ).count
            self.computed += 1
        self.used.add(key)
        return self.counts[key]

    def save(self) -> None:
        """Write the counts this run looked up, and only those."""
        used = {key: self.counts[key] for key in sorted(self.used)}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(used, indent=0) + "\n")
