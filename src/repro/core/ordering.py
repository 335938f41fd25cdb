"""Adaptive matching orders: candidate-size and path-size (paper §5.2).

Both orders pick, among the currently *extendable* query vertices, the one
whose estimated cost is minimal — re-evaluated at every partial embedding,
which is what makes them adaptive:

- **candidate-size order** minimizes ``|C_M(u)|``, the number of extendable
  candidates;
- **path-size order** minimizes ``w_M(u) = sum of W_u(v) over v in C_M(u)``
  where the *weight array* ``W_u(v)`` upper-bounds the number of
  embeddings of the most infrequent maximal tree-like path starting at
  ``u`` when ``u`` is mapped to ``v`` (the infrequent-path-first strategy
  transplanted to DAG ordering).

The weight array is computed bottom-up over the rooted DAG in time
proportional to the CS size, once per candidate space
(:func:`~repro.core.candidate_space.compute_weight_array`, cached as
:attr:`CandidateSpace.weights`):

- if ``u`` has no single-parent child, ``W_u(v) = 1``;
- otherwise ``W_u(v) = min over single-parent children c of
  sum of W_c(v') over v' in N^u_c(v)``.
"""

from __future__ import annotations

from .candidate_space import CandidateSpace


def count_paths_from(cs: CandidateSpace, path: tuple[int, ...], v: int) -> int:
    """n(p, v): the number of CS paths corresponding to query path ``p``
    starting at data vertex ``v`` (paper §5.2).

    Reference implementation used by tests to validate the weight array:
    ``W_u(v) == min over maximal tree-like paths p of n(p, v)``.
    """
    u = path[0]
    if v not in cs.candidate_index[u]:
        return 0

    def count(position: int, index_in_candidates: int) -> int:
        if position == len(path) - 1:
            return 1
        u_here, u_next = path[position], path[position + 1]
        return sum(
            count(position + 1, j) for j in cs.down[u_here][u_next][index_in_candidates]
        )

    return count(0, cs.candidate_index[u][v])


class PathSizeOrder:
    """Selects the extendable vertex with minimal ``w_M(u)`` (§5.2)."""

    name = "path"

    def __init__(self, cs: CandidateSpace) -> None:
        self._weights = cs.weights

    def vertex_weight(self, u: int, extendable_candidate_indices: list[int]) -> int:
        """w_M(u) = sum of W_u(v) over v in C_M(u)."""
        return sum(map(self._weights[u].__getitem__, extendable_candidate_indices))


class CandidateSizeOrder:
    """Selects the extendable vertex with minimal ``|C_M(u)|`` (§5.2)."""

    name = "candidate"

    def __init__(self, cs: CandidateSpace) -> None:
        pass

    def vertex_weight(self, u: int, extendable_candidate_indices: list[int]) -> int:
        return len(extendable_candidate_indices)


def make_order(kind: str, cs: CandidateSpace):
    """Factory for the two adaptive orders (``"path"`` / ``"candidate"``)."""
    if kind == "path":
        return PathSizeOrder(cs)
    if kind == "candidate":
        return CandidateSizeOrder(cs)
    raise ValueError(f"unknown matching order {kind!r}; expected 'path' or 'candidate'")
