"""Pinned searches of the directed, edge-labeled and multi-label matchers.

Each extension matcher runs a seeded corpus under the four Fig. 18
variants (DA/DAF x candidate/path order) and DAF-path without leaf
decomposition.  The recorded values are, per variant: total recursive
calls, total embeddings, a digest of every case's embeddings in the
order they were found, a digest of the per-case recursive calls, and
the summed candidate-space size.  A change to how these matchers build
their candidate space or drive the engine must leave all of them
unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro import MatchOptions, MatchRequest
from repro.core.config import DA_CAND, DA_PATH, DAF_CAND, DAF_PATH, MatchConfig
from repro.directed import DirectedDAFMatcher, DirectedGraph
from repro.general import EdgeLabeledDAFMatcher, EdgeLabeledGraph, MultiLabelDAFMatcher
from repro.general.multilabel import multilabel_graph
from repro.graph.properties import is_connected

CONFIGS = {
    "DA-cand": DA_CAND,
    "DA-path": DA_PATH,
    "DAF-cand": DAF_CAND,
    "DAF-path": DAF_PATH,
    "DAF-path/noleaf": dataclasses.replace(DAF_PATH, leaf_decomposition=False),
}

LIMIT = 10**6


def _walk(rng: random.Random, n: int, neighbors, size: int) -> list[int]:
    """Vertices of a random connected walk of up to ``size`` vertices."""
    chosen = [rng.randrange(n)]
    for _ in range(40 * size):
        if len(chosen) == size:
            break
        pool = neighbors(chosen[rng.randrange(len(chosen))])
        if pool:
            w = pool[rng.randrange(len(pool))]
            if w not in chosen:
                chosen.append(w)
    return chosen


def _directed_corpus():
    rng = random.Random(2801)
    cases = []
    while len(cases) < 14:
        n = rng.randint(18, 34)
        labels = [rng.randrange(rng.randint(1, 2)) for _ in range(n)]
        edges = set()
        for _ in range(rng.randint(2 * n, 4 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((u, v))
        data = DirectedGraph(labels=labels, edges=sorted(edges)).freeze()
        chosen = _walk(
            rng,
            n,
            lambda v: data.out_neighbors(v) + data.in_neighbors(v),
            rng.randint(4, 8),
        )
        index = {v: i for i, v in enumerate(chosen)}
        query = DirectedGraph(
            labels=[data.label(v) for v in chosen],
            edges=[
                (index[u], index[v])
                for u, v in sorted(edges)
                if u in index and v in index and rng.random() < 0.85
            ],
        ).freeze()
        skeleton, _ = query.to_undirected()
        if query.num_vertices > 1 and is_connected(skeleton):
            cases.append((query, data))
    return cases


def _edge_labeled_corpus():
    rng = random.Random(2802)
    cases = []
    while len(cases) < 14:
        n = rng.randint(12, 20)
        labels = [rng.randrange(rng.randint(1, 2)) for _ in range(n)]
        edges = [
            (u, v, rng.choice("rs"))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        data = EdgeLabeledGraph.build(labels, edges)
        chosen = _walk(rng, n, data.skeleton.neighbors, rng.randint(4, 7))
        index = {v: i for i, v in enumerate(chosen)}
        query = EdgeLabeledGraph.build(
            [data.label(v) for v in chosen],
            [
                (index[u], index[v], label)
                for u, v, label in edges
                if u in index and v in index and rng.random() < 0.85
            ],
        )
        if query.num_vertices > 1 and is_connected(query.skeleton):
            cases.append((query, data))
    return cases


def _multilabel_corpus():
    rng = random.Random(2803)
    atoms = "ABC"
    cases = []
    while len(cases) < 14:
        n = rng.randint(16, 28)
        label_sets = [
            {a for a in atoms if rng.random() < 0.5} or {rng.choice(atoms)}
            for _ in range(n)
        ]
        edges = sorted(
            {
                (min(u, v), max(u, v))
                for u, v in (
                    (rng.randrange(n), rng.randrange(n))
                    for _ in range(rng.randint(2 * n, 3 * n))
                )
                if u != v
            }
        )
        data = multilabel_graph(label_sets, edges).freeze()
        chosen = _walk(rng, n, data.neighbors, rng.randint(4, 7))
        index = {v: i for i, v in enumerate(chosen)}
        query = multilabel_graph(
            [
                {a for a in sorted(label_sets[v]) if rng.random() < 0.7}
                for v in chosen
            ],
            [
                (index[u], index[v])
                for u, v in edges
                if u in index and v in index and rng.random() < 0.85
            ],
        ).freeze()
        if query.num_vertices > 1 and is_connected(query):
            cases.append((query, data))
    return cases


CORPORA = {
    "directed": (DirectedDAFMatcher, _directed_corpus),
    "edge-labeled": (EdgeLabeledDAFMatcher, _edge_labeled_corpus),
    "multi-label": (MultiLabelDAFMatcher, _multilabel_corpus),
}


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _golden_run(matcher, cases):
    embeddings, calls, sizes = [], [], 0
    for query, data in cases:
        result = matcher.match(
            MatchRequest(query, data, options=MatchOptions(limit=LIMIT))
        )
        embeddings.append(tuple(result.embeddings))
        calls.append(result.stats.recursive_calls)
        sizes += result.stats.candidates_total
    return (
        sum(calls),
        sum(len(found) for found in embeddings),
        _digest(embeddings),
        _digest(calls),
        sizes,
    )


GOLDEN = {
    'directed/DA-cand': (261, 267, 'c18613689f8f547e', 'a54ee06227e551ac', 389),
    'directed/DA-path': (270, 267, 'c18613689f8f547e', 'b792245112aeba78', 389),
    'directed/DAF-cand': (261, 267, 'c18613689f8f547e', 'a54ee06227e551ac', 389),
    'directed/DAF-path': (268, 267, 'c18613689f8f547e', '529561cfbfcb0f51', 389),
    'directed/DAF-path/noleaf': (993, 267, 'eb71d8fee89852ba', '54443d3eb2476d47', 389),
    'edge-labeled/DA-cand': (352, 1674, '1931348c754fca13', 'aeeab069195ee4a5', 414),
    'edge-labeled/DA-path': (353, 1674, '1931348c754fca13', '6ae2455eb498c6a4', 414),
    'edge-labeled/DAF-cand': (352, 1674, '1931348c754fca13', 'aeeab069195ee4a5', 414),
    'edge-labeled/DAF-path': (353, 1674, '1931348c754fca13', '6ae2455eb498c6a4', 414),
    'edge-labeled/DAF-path/noleaf': (2723, 1674, 'b1122a1719ac176d', 'd8aa1cd30b413b40', 414),
    'multi-label/DA-cand': (6086, 3219, 'd38e0002ec9d617f', '55d9b7c4cacd3244', 773),
    'multi-label/DA-path': (6482, 3219, '6722359ce8cd953b', '51ca624fa79dce7d', 773),
    'multi-label/DAF-cand': (6086, 3219, 'd38e0002ec9d617f', '55d9b7c4cacd3244', 773),
    'multi-label/DAF-path': (6471, 3219, '6722359ce8cd953b', 'dd51f76822264526', 773),
    'multi-label/DAF-path/noleaf': (6471, 3219, '6722359ce8cd953b', 'dd51f76822264526', 773),
    'edge-labeled/homomorphism': (570, 2595, '0571a8e6ec7cf5a0', 'd3e58d91f507af9e', 573),
    'multi-label/homomorphism': (28950, 19702, '5de31dc940924940', 'c12d75105beafe1f', 853),
}


@pytest.fixture(scope="module")
def corpora():
    return {name: build() for name, (_, build) in CORPORA.items()}


@pytest.mark.parametrize("variant", list(CONFIGS))
@pytest.mark.parametrize("kind", list(CORPORA))
def test_pinned_search(corpora, kind, variant):
    matcher_class, _ = CORPORA[kind]
    got = _golden_run(matcher_class(CONFIGS[variant]), corpora[kind])
    assert got == GOLDEN[f"{kind}/{variant}"]


@pytest.mark.parametrize("kind", ["edge-labeled", "multi-label"])
def test_pinned_homomorphisms(corpora, kind):
    matcher_class, _ = CORPORA[kind]
    got = _golden_run(matcher_class(MatchConfig(injective=False)), corpora[kind])
    assert got == GOLDEN[f"{kind}/homomorphism"]
