"""Search-tree tracing (the paper's Figures 6 and 8, programmatically).

A :class:`SearchTracer` passed to ``BacktrackEngine`` records every
search-tree node with its mapping pair, outcome class and failing set —
the exact information the paper's search-tree figures display.  It also
folds every entered node into a *query-vertex stack* histogram
(``"u0;u2;u3" -> count``) that :meth:`SearchTracer.folded_lines` exports
in the ``flamegraph.pl`` collapsed-stack format.  The tree grows with
the search; the histogram is bounded by query-vertex orderings (and by
``max_folded_stacks``), so ``keep_tree=False`` keeps only the histogram
and stays bounded in memory on searches of any size.  Tracing is for
inspection, teaching and deep tests (exact failing-set assertions on
worked examples); it is off by default and costs nothing when absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class TraceNode:
    """One node of the traced search tree.

    ``outcome`` is one of:

    - ``"embedding"`` — a full embedding was reported at/below this node;
    - ``"conflict"`` — the extendable candidate was already visited
      (the paper's ``(u, v)!`` leaves);
    - ``"emptyset"`` — the selected vertex had no extendable candidates
      (the paper's ``(u, ∅)`` leaves);
    - ``"internal"`` — an ordinary internal node;
    - ``"pruned"`` — never explored: removed by Lemma 6.1.
    """

    query_vertex: int
    data_vertex: int
    outcome: str = "internal"
    failing_set: Optional[frozenset[int]] = None
    children: list["TraceNode"] = field(default_factory=list)

    def render(self, depth: int = 0) -> str:
        """Indented text rendering, one node per line (Figure 6 style)."""
        mark = {
            "embedding": " *",
            "conflict": " !",
            "emptyset": " ∅",
            "pruned": " x",
            "internal": "",
        }[self.outcome]
        fs = ""
        if self.failing_set is not None:
            fs = "  F={" + ",".join(f"u{u}" for u in sorted(self.failing_set)) + "}"
        line = f"{'  ' * depth}(u{self.query_vertex}, v{self.data_vertex}){mark}{fs}"
        lines = [line]
        for child in self.children:
            lines.append(child.render(depth + 1))
        return "\n".join(lines)

    def count_nodes(self, include_pruned: bool = False) -> int:
        total = 1 if (include_pruned or self.outcome != "pruned") else 0
        return total + sum(c.count_nodes(include_pruned) for c in self.children)


def _mask_to_set(mask: Optional[int], n: int) -> Optional[frozenset[int]]:
    if mask is None:
        return None
    return frozenset(u for u in range(n) if mask >> u & 1)


class SearchTracer:
    """Collects the search tree and its folded stacks while the engine runs.

    Use via :meth:`repro.core.matcher.DAFMatcher.search`::

        tracer = SearchTracer(num_query_vertices=q.num_vertices)
        matcher.search(prepared, tracer=tracer)
        print(tracer.render())

    Parameters
    ----------
    num_query_vertices:
        Width of the failing-set masks the engine reports.
    keep_tree:
        Build :attr:`roots` (``False`` keeps only the folded stacks).
    max_folded_stacks:
        Cap on distinct folded stacks; entries past it are counted in
        :attr:`folded_dropped`.
    """

    def __init__(
        self,
        num_query_vertices: int = 0,
        keep_tree: bool = True,
        max_folded_stacks: int = 10_000,
    ) -> None:
        self.n = num_query_vertices
        self.keep_tree = keep_tree
        self.max_folded_stacks = max_folded_stacks
        self.roots: list[TraceNode] = []
        self.folded: dict[tuple[int, ...], int] = {}
        self.folded_dropped = 0
        self._stack: list[TraceNode] = []
        self._path: list[int] = []

    # -- engine hooks ---------------------------------------------------
    def enter(self, query_vertex: int, data_vertex: int) -> None:
        self._path.append(query_vertex)
        key = tuple(self._path)
        count = self.folded.get(key)
        if count is not None:
            self.folded[key] = count + 1
        elif len(self.folded) < self.max_folded_stacks:
            self.folded[key] = 1
        else:
            self.folded_dropped += 1
        if self.keep_tree:
            node = TraceNode(query_vertex, data_vertex)
            self._attach(node)
            self._stack.append(node)

    def leave(self, failing_set_mask: Optional[int], found_embedding: bool) -> None:
        self._path.pop()
        if self.keep_tree:
            node = self._stack.pop()
            node.failing_set = _mask_to_set(failing_set_mask, self.n)
            if found_embedding:
                node.outcome = "embedding"

    def conflict(self, query_vertex: int, data_vertex: int, contribution_mask: int) -> None:
        if self.keep_tree:
            self._attach(
                TraceNode(
                    query_vertex,
                    data_vertex,
                    outcome="conflict",
                    failing_set=_mask_to_set(contribution_mask, self.n),
                )
            )

    def emptyset(self, query_vertex: int) -> None:
        if self._stack:
            self._stack[-1].outcome = "emptyset"

    def pruned(self, query_vertex: int, data_vertex: int) -> None:
        if self.keep_tree:
            self._attach(TraceNode(query_vertex, data_vertex, outcome="pruned"))

    def _attach(self, node: TraceNode) -> None:
        (self._stack[-1].children if self._stack else self.roots).append(node)

    # -- reporting --------------------------------------------------------
    def render(self) -> str:
        return "\n".join(root.render() for root in self.roots)

    def all_nodes(self) -> list[TraceNode]:
        collected: list[TraceNode] = []

        def walk(node: TraceNode) -> None:
            collected.append(node)
            for child in node.children:
                walk(child)

        for root in self.roots:
            walk(root)
        return collected

    def folded_stacks(self) -> dict[str, int]:
        """Query-vertex stack histogram: ``"u0;u2;u3" -> entered count``."""
        return {
            ";".join(f"u{q}" for q in key): count for key, count in self.folded.items()
        }

    def folded_lines(self) -> list[str]:
        """``flamegraph.pl``-compatible collapsed-stack lines, sorted so
        the export is deterministic: ``u0;u2;u3 128``."""
        return [f"{stack} {count}" for stack, count in sorted(self.folded_stacks().items())]

    def write_folded(self, path) -> None:
        """Write :meth:`folded_lines` to ``path`` (feed to flamegraph.pl)."""
        with open(path, "w", encoding="utf-8") as stream:
            for line in self.folded_lines():
                stream.write(line + "\n")
