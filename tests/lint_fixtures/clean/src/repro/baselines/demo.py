"""A baseline that honors every Matcher-contract invariant."""

import time


class Matcher:  # stand-in base so the fixture tree is import-free
    pass


class DemoMatcher(Matcher):
    name = "Demo"

    supported_options = frozenset({"limit", "time_limit", "on_embedding", "count_only"})

    def _match_impl(self, query, data, limit=100, time_limit=None, on_embedding=None, count_only=False):
        stats = Stats()
        deadline = Deadline(time_limit)

        def extend(depth):
            stats.recursive_calls += 1
            deadline.tick()
            if depth < limit:
                if not count_only:
                    stats.embeddings_found += 1
                extend(depth + 1)

        start = time.perf_counter()
        extend(0)
        stats.search_seconds = time.perf_counter() - start
        return stats

    def _drain(self, stats, deadline, frontier):
        while frontier:
            stats.recursive_calls += 1
            deadline.tick()
            frontier.pop()

    def _drain_hot(self, stats, deadline, frontier):
        tick = deadline.tick  # one attribute lookup, then a poll per step
        while frontier:
            stats.recursive_calls += 1
            tick()
            frontier.pop()
