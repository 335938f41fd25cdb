"""BUD002 — budget polls must dominate every unbounded-work path.

The resilience layer (docs/robustness.md) only bounds a search if every
search step ticks the ``Deadline``/``Budget`` governor; a backtracker
that skips ``deadline.tick()`` runs unbounded, which friendly unit-test
inputs never show.  A search step, statically, is the paper's cost
accounting advanced by a literal 1 (``recursive_calls += 1`` /
``embeddings_found += 1``; aggregation such as ``stats.recursive_calls
+= sub.recursive_calls`` is not matched).  This checker proves a
zero-argument ``.tick()`` (``progress.tick(calls, depth)`` does not
count; ``tick()`` does after one ``tick = deadline.tick`` in the same
function) is *reachable on every path* through the search work of the
engine modules in :data:`_SCOPE`:

- a loop that advances the cost accounting must tick on every
  cost-counting iteration path — a tick under a condition leaves the
  other branch iterating unmetered;
- a recursion-cycle member (call-graph SCC) of a cycle that counts cost
  must not reach the recursive call without passing a tick — the
  untolled entry recurses;
- a function that counts ``recursive_calls += 1`` outside any loop or
  cycle (a step helper driven from elsewhere) must tick somewhere.

The first two are checked on the function's CFG.  "Ticks here" is
*must* evidence: the zero-argument ``.tick()`` has to be a guaranteed
sub-expression of the element (a tick behind ``and``/``or``/ternary
does not count), or the element must make a guaranteed call to a
project-resolved helper that itself ticks (tick-by-delegation, one
hop).  "Recurses here" is *may* evidence: any call resolving into the
function's own SCC, even short-circuited.  Findings carry the concrete
tick-free path as a line sequence so the hole is reproducible by eye.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Iterable, Optional

from ..base import MapReduceChecker, register
from ..context import LintContext, own_body_walk
from ..findings import Finding
from ..flow.callgraph import CallGraph, FunctionInfo
from ..flow.cfg import CFG, Block, element_guaranteed_exprs

#: Repository-relative path prefixes/files holding search engines.
_SCOPE = (
    "src/repro/core/backtrack.py",
    "src/repro/baselines/",
    "src/repro/extensions/boost.py",
    "src/repro/directed/matcher.py",
    "src/repro/general/",
)


def _bound_ticks(func: ast.AST) -> frozenset:
    """Local names ``func`` binds exactly once, by ``name = x.tick``."""
    nodes = list(own_body_walk(func))
    binds = Counter(n.arg for n in nodes if isinstance(n, ast.arg))
    binds.update(
        n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)
    )
    return frozenset(
        n.targets[0].id
        for n in nodes
        if isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Name)
        and isinstance(n.value, ast.Attribute) and n.value.attr == "tick"
        and binds[n.targets[0].id] == 1
    )


def _is_zero_arg_tick(node: ast.AST, bound: frozenset = frozenset()) -> bool:
    if not isinstance(node, ast.Call) or node.args or node.keywords:
        return False
    if isinstance(node.func, ast.Name):
        return node.func.id in bound
    return isinstance(node.func, ast.Attribute) and node.func.attr == "tick"


def _counts_cost(node: ast.AST, counters=("recursive_calls", "embeddings_found")) -> bool:
    return (
        isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and node.target.attr in counters
        and isinstance(node.value, ast.Constant)
        and node.value.value == 1
    )


def _has_budget_tick(func: ast.AST) -> bool:
    bound = _bound_ticks(func)
    return any(_is_zero_arg_tick(node, bound) for node in own_body_walk(func))


def _increments_cost_counter(func: ast.AST) -> bool:
    return any(_counts_cost(node) for node in own_body_walk(func))


class _FunctionFacts:
    """Per-block tick/cost/recursion classification for one function."""

    def __init__(
        self,
        cfg: CFG,
        info: Optional[FunctionInfo],
        graph: Optional[CallGraph],
        cycle: frozenset,
    ) -> None:
        self.cfg = cfg
        self.ticks: set[int] = set()
        self.costs: set[int] = set()
        self.recursive_calls: dict[int, int] = {}  # block -> call lineno
        bound = _bound_ticks(cfg.func)
        for block in cfg.blocks:
            for element in block.elements:
                for expr in element_guaranteed_exprs(element):
                    if _is_zero_arg_tick(expr, bound):
                        self.ticks.add(block.index)
                    elif isinstance(expr, ast.Call) and info is not None and graph is not None:
                        callee = graph.resolve_call(info, expr)
                        if (
                            callee is not None
                            and callee.key != info.key
                            and _has_budget_tick(callee.node)
                        ):
                            self.ticks.add(block.index)  # tick-by-delegation
                if _counts_cost(element.node):
                    self.costs.add(block.index)
                # May-recursion: any call into the cycle, short-circuited
                # or not.
                if cycle and info is not None and graph is not None:
                    for node in ast.walk(element.node):
                        if isinstance(node, ast.Call):
                            callee = graph.resolve_call(info, node)
                            if callee is not None and callee.key in cycle:
                                self.recursive_calls.setdefault(
                                    block.index, node.lineno
                                )

    def tick_free_path(
        self,
        start: int,
        targets: set[int],
        within: Optional[set[int]] = None,
        require_cost: bool = False,
    ) -> Optional[list[int]]:
        """A path ``start -> ... -> target`` avoiding tick blocks, as a
        block-index list, or ``None``.  ``within`` restricts the search
        (loop bodies); the start itself must also be tick-free.  With
        ``require_cost``, only paths passing a cost-counting block count
        — a bookkeeping-only path (a state machine's non-work states) is
        metered by the work states it must eventually enter."""
        if start in self.ticks:
            return None
        State = tuple  # (block index, cost seen on this path)
        initial: State = (start, start in self.costs)
        parents: dict[State, Optional[State]] = {initial: None}
        stack = [initial]
        while stack:
            state = stack.pop()
            index, cost_seen = state
            if index in targets and (cost_seen or not require_cost):
                path = [state]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])  # type: ignore[arg-type]
                path.reverse()
                return [block for block, _seen in path]
            for succ in sorted(self.cfg.blocks[index].succs):
                if succ in self.ticks:
                    continue
                if within is not None and succ not in within:
                    continue
                succ_state: State = (succ, cost_seen or succ in self.costs)
                if succ_state in parents:
                    continue
                parents[succ_state] = state
                stack.append(succ_state)
        return None

    def path_lines(self, path: list[int]) -> str:
        lines: list[int] = []
        for index in path:
            line = self.cfg.blocks[index].first_line()
            if line and (not lines or lines[-1] != line):
                lines.append(line)
        return " -> ".join(f"L{line}" for line in lines) or "entry"


@register
class BudgetPathChecker(MapReduceChecker):
    id = "BUD002"
    description = (
        "search steps must poll the Deadline/Budget: cost-counting loops "
        "and recursion cycles pass a zero-argument .tick() on every path"
    )

    def setup(self, ctx: LintContext) -> None:
        self._graph = ctx.call_graph()
        self._cycles = self._graph.recursive_components()

    def scan_module(self, ctx: LintContext, module) -> tuple[list[Finding], object]:
        return list(self._scan(ctx, module)), None

    def _scan(self, ctx: LintContext, module) -> Iterable[Finding]:
        if not module.relpath.startswith(_SCOPE):
            return
        graph = self._graph
        for info in graph.module_functions(module.relpath):
            func = info.node
            cycle = self._cycles.get(info.key, frozenset())
            counts_cost = _increments_cost_counter(func)
            if not counts_cost and not cycle:
                continue
            cfg = ctx.cfg(func)
            facts = _FunctionFacts(cfg, info, graph, cycle)
            findings = []
            if counts_cost:
                findings.extend(self._check_loops(module, info, facts))
            if cycle and any(
                _increments_cost_counter(graph.functions[key].node)
                for key in cycle
            ):
                findings.extend(self._check_recursion(module, info, facts))
            if (
                not findings
                and not _has_budget_tick(func)
                and any(
                    _counts_cost(node, ("recursive_calls",))
                    for node in own_body_walk(func)
                )
            ):
                findings.append(
                    self.finding(
                        module.relpath,
                        func.lineno,
                        f"function {info.qualname!r} increments recursive_calls "
                        "but never polls a budget: add a deadline.tick()",
                    )
                )
            yield from findings

    # -- loops ----------------------------------------------------------
    def _check_loops(self, module, info: FunctionInfo, facts: _FunctionFacts):
        for loop in facts.cfg.loops:
            members = {loop.header} | loop.body
            if not members & facts.costs:
                continue  # bounded bookkeeping loop, not search work
            if not loop.back_sources:
                continue  # body always breaks/returns: runs at most once
            path = facts.tick_free_path(
                loop.header, set(loop.back_sources), within=members, require_cost=True
            )
            if path is None:
                continue
            line = facts.cfg.blocks[loop.header].first_line() or info.node.lineno
            yield self.finding(
                module.relpath,
                line,
                f"loop in {info.qualname!r} counts search cost but has a "
                f"tick-free iteration path {facts.path_lines(path)}: "
                "every cost-counting path through the loop body must poll "
                ".tick()",
            )

    # -- recursion -------------------------------------------------------
    def _check_recursion(self, module, info: FunctionInfo, facts: _FunctionFacts):
        if not facts.recursive_calls:
            return
        path = facts.tick_free_path(
            facts.cfg.entry, set(facts.recursive_calls)
        )
        if path is None:
            return
        call_line = facts.recursive_calls[path[-1]]
        yield self.finding(
            module.relpath,
            info.node.lineno,
            f"recursive function {info.qualname!r} can reach its recursive "
            f"call (line {call_line}) without passing .tick(): tick-free "
            f"path {facts.path_lines(path)}",
        )
