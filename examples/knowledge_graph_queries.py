"""Knowledge-graph pattern queries (the paper's YAGO/RDF setting).

The paper motivates subgraph matching with RDF query processing (§1 cites
[21]): after type-aware transformation, an RDF basic graph pattern
becomes a labeled subgraph-matching query.  This example treats the YAGO
stand-in as a typed entity graph and runs star / path / cycle patterns of
the kind SPARQL engines push into a matcher.  It also uses ``explain()``
to show what the DAF planner decided, and the CLI-compatible JSON output
shape.

Run:  python examples/knowledge_graph_queries.py
"""

import json

from repro import DAFMatcher, MatchConfig, MatchOptions, MatchRequest
from repro.datasets import load
from repro.graph import Graph
from repro.obs.explain import explain


def typed(labels, edges):
    return Graph(labels=labels, edges=edges)


def main() -> None:
    data = load("yago")
    print(f"data graph: yago stand-in |V|={data.num_vertices} "
          f"|E|={data.num_edges} types={data.num_labels}\n")

    # Pick frequent "types" so patterns actually occur.
    types = sorted(data.distinct_labels(), key=data.label_frequency, reverse=True)
    person, place, org = types[0], types[1], types[2]

    patterns = {
        # ?p1 -knows- ?p2 ; both -locatedIn- the same ?place
        "co-located pair": typed(
            [person, person, place], [(0, 1), (0, 2), (1, 2)]
        ),
        # ?p -memberOf- ?org -basedIn- ?place -neighbors- ?place2
        "affiliation chain": typed(
            [person, org, place, place], [(0, 1), (1, 2), (2, 3)]
        ),
        # a 4-cycle of alternating person/org (joint ventures)
        "joint venture ring": typed(
            [person, org, person, org], [(0, 1), (1, 2), (2, 3), (3, 0)]
        ),
    }

    matcher = DAFMatcher(MatchConfig(collect_embeddings=False))
    for name, pattern in patterns.items():
        result = matcher.match(
            MatchRequest(pattern, data, options=MatchOptions(limit=1000, time_limit=10.0))
        )
        payload = {
            "pattern": name,
            "matches": result.count,
            "capped": result.limit_reached,
            "recursive_calls": result.stats.recursive_calls,
            "cs_size": result.stats.candidates_total,
        }
        print(json.dumps(payload))

    # Planner diagnostics for the most selective pattern.
    print("\nquery plan for 'co-located pair':")
    print(explain(patterns["co-located pair"], data).render())


if __name__ == "__main__":
    main()
