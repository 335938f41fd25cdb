"""Directed pattern search in a citation network (the §2 extension).

Citation graphs are inherently directed: "A cites B" is not "B cites A".
This example builds a synthetic citation network (papers labeled by
field, edges pointing at the cited paper) and runs directed pattern
queries — co-citation, bibliographic coupling, and citation chains —
with :class:`repro.directed.DirectedDAFMatcher`.  Orientation matters:
the same underlying undirected shape gives different answers per
direction.

Run:  python examples/citation_patterns.py
"""

import random

from repro.directed import DirectedDAFMatcher, DirectedGraph


def build_citation_network(
    num_papers: int = 400, num_citations: int = 1600, seed: int = 7
) -> DirectedGraph:
    """Papers cite earlier papers, preferentially well-cited ones."""
    rng = random.Random(seed)
    fields = ["ml", "db", "systems", "theory"]
    g = DirectedGraph()
    for _ in range(num_papers):
        g.add_vertex(rng.choice(fields))
    popularity = list(range(num_papers))  # repeated-endpoint pool
    added = set()
    while len(added) < num_citations:
        citing = rng.randrange(1, num_papers)
        cited = popularity[rng.randrange(len(popularity))]
        if cited >= citing or (citing, cited) in added:  # cite the past only
            continue
        added.add((citing, cited))
        g.add_edge(citing, cited)
        popularity.append(cited)  # rich get richer
    return g.freeze()


def main() -> None:
    data = build_citation_network()
    print(f"citation network: {data.num_vertices} papers, {data.num_edges} citations\n")
    matcher = DirectedDAFMatcher()

    # Co-citation: one paper citing two others (both edges point away).
    co_citation = DirectedGraph(labels=["ml", "db", "db"], edges=[(0, 1), (0, 2)])
    # Bibliographic coupling: two papers cited by the same two papers.
    coupling = DirectedGraph(
        labels=["ml", "ml", "db"], edges=[(0, 2), (1, 2)]
    )
    # A citation chain across three fields.
    chain = DirectedGraph(
        labels=["ml", "db", "theory"], edges=[(0, 1), (1, 2)]
    )
    # The reversed chain: same undirected shape, different semantics.
    reversed_chain = DirectedGraph(
        labels=["ml", "db", "theory"], edges=[(1, 0), (2, 1)]
    )

    patterns = {
        "co-citation (ml cites 2 db)": co_citation,
        "coupling (2 ml cite 1 db)": coupling,
        "chain ml->db->theory": chain,
        "chain ml<-db<-theory": reversed_chain,
    }
    for name, pattern in patterns.items():
        result = matcher.match(pattern, data, limit=5000, time_limit=10.0)
        print(f"{name:30} {result.count:>6} matches "
              f"({result.stats.recursive_calls} calls, CS {result.stats.candidates_total})")

    forward = matcher.count(chain, data, limit=10**6)
    backward = matcher.count(reversed_chain, data, limit=10**6)
    print(f"\norientation check: forward chain {forward} vs reversed {backward} "
          "(different, as direction demands)")


if __name__ == "__main__":
    main()
