"""SCH002 — every payload reaching ``EventSink.emit`` carries evidence.

SCH001 validates event *literals* wherever they appear; it cannot see
whether the dict that actually reaches ``emit(...)`` is one of them.
This checker follows the payload flow-sensitively: at every ``*.emit(x)``
call site, the solved dataflow fact for ``x`` must show one of:

- **literal evidence** — ``x`` is (or was assigned from) a dict literal
  with a constant ``"event"`` key (SCH001 already vetted its fields);
- **sanitizer evidence** — ``x`` passed through ``validate_event(...)``
  on this path;
- **helper evidence** — ``x`` is the return value of a resolvable
  emitter helper all of whose returns are themselves schema-evident
  (``_stamp``, ``ExplainReport.event`` — the helper is analyzed with
  the call site's argument facts bound, one level of context
  sensitivity, recursion-safe);
- **forwarding evidence** — ``x`` is a parameter of the enclosing
  function (the *caller's* emit/call site is where the payload is
  checked; sinks and registries forward verbatim);
- **channel evidence** — ``x`` came from ``conn.recv()`` or
  ``json.loads(...)``: replayed events were validated where they were
  produced (the JSONL contract), not at the replay site.

A list or tuple carries no evidence, and neither does an element drawn
from one: a payload collected into a container must be re-vouched
before it reaches ``emit``.

``dict(x)`` copies preserve evidence.  In addition, a subscript store
``payload["field"] = ...`` into a payload whose evidence names a known
event is checked against that event's schema fields — the flow-aware
version of SCH001's literal-key check, covering post-construction
mutation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Optional

from ..base import MapReduceChecker, register
from ..context import LintContext
from ..findings import Finding
from ..flow.callgraph import CallGraph, FunctionInfo
from ..flow.dataflow import Domain, Env, solve
from .schema import _IMPLICIT_FIELDS

#: Cap on nested helper-analysis depth (emit -> helper -> helper).
_MAX_HELPER_DEPTH = 3


@dataclass(frozen=True)
class Ev:
    """Schema evidence.  Presence of *any* ``Ev`` fact means the value is
    vouched for; ``event`` names the event when the evidence pins one
    (enabling field checks on later subscript stores)."""

    kind: str  # "event" | "validated" | "param" | "channel" | "helper"
    event: Optional[str] = None


class _EvidenceDomain(Domain):
    def __init__(self, checker: "SchemaFlowChecker", info: Optional[FunctionInfo]) -> None:
        self._checker = checker
        self._info = info
        self._param_env: Optional[Env] = None

    # -- lattice --------------------------------------------------------
    def join(self, a: object, b: object) -> object:
        assert isinstance(a, Ev) and isinstance(b, Ev)
        if a.kind == b.kind and a.event == b.event:
            return a
        return Ev("event")

    def initial_env(self, cfg) -> Env:
        if self._param_env is not None:
            return dict(self._param_env)
        env: Env = {}
        args = cfg.func.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]:
            env[arg.arg] = Ev("param")
        return env

    def bind_params(self, env: Env) -> None:
        self._param_env = env

    # -- evidence-producing expressions ---------------------------------
    def dict_fact(self, expr: ast.Dict, env: Env) -> Optional[object]:
        for key, value in zip(expr.keys, expr.values):
            self.eval(value, env)
            if (
                isinstance(key, ast.Constant)
                and key.value == "event"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                return Ev("event", value.value)
        return None

    def sequence_fact(self, expr: ast.AST, env: Env) -> Optional[object]:
        for elt in expr.elts:  # type: ignore[attr-defined]
            self.eval(elt, env)
        return None

    def iterate_fact(self, iter_fact, iter_expr, env):
        if isinstance(iter_fact, Ev) and iter_fact.kind == "channel":
            return Ev("channel")
        return None

    def call_fact(self, call: ast.Call, env: Env) -> Optional[object]:
        func = call.func
        for arg in call.args:
            self.eval(arg, env)
        for keyword in call.keywords:
            self.eval(keyword.value, env)
        # validate_event(x): sanitizer — marks the argument variable.
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "validate_event":
            fact = Ev("validated")
            if call.args and isinstance(call.args[0], ast.Name):
                env[call.args[0].id] = fact
            return fact
        if name == "dict" and isinstance(func, ast.Name) and len(call.args) == 1:
            inner = self.eval(call.args[0], env)
            if isinstance(inner, Ev):
                return inner
        if name in ("recv", "loads") and isinstance(func, ast.Attribute):
            return Ev("channel")
        # Emitter-helper evidence: analyze the callee's returns with this
        # call site's argument facts bound.
        if self._info is not None:
            arg_facts = tuple(self.eval(arg, env) for arg in call.args)
            verdict = self._checker.helper_verdict(self._info, call, arg_facts)
            if verdict is not None:
                return verdict
        return None

    def attribute_fact(self, expr: ast.Attribute, env: Env) -> Optional[object]:
        # Evidence does not travel through attribute loads: `self.x` is
        # another object's state, not this function's tracked payload.
        return None

    def comp_fact(self, expr, env):
        for gen in expr.generators:
            self.eval(gen.iter, env)
        return None


@register
class SchemaFlowChecker(MapReduceChecker):
    id = "SCH002"
    description = (
        "flow-sensitive SCH001: every payload reaching *.emit() must carry "
        "literal/validate_event/emitter-helper evidence on all paths"
    )

    def setup(self, ctx: LintContext) -> None:
        self._ctx = ctx
        self._graph: CallGraph = ctx.call_graph()
        self._schemas = ctx.event_schemas() or {}
        self._verdict_cache: dict = {}
        self._analyzing: set = set()

    def scan_module(self, ctx: LintContext, module) -> tuple[list[Finding], object]:
        findings: list[Finding] = []
        for info in self._graph.module_functions(module.relpath):
            findings.extend(self._check_function(module, info))
        return findings, None

    def _check_function(self, module, info: FunctionInfo):
        domain = _EvidenceDomain(self, info)
        solution = solve(self._ctx.cfg(info.node), domain)
        for _block, element, env in solution.iter_elements():
            node = element.node
            if element.role != "stmt":
                continue
            for call in self._own_calls(node):
                if (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "emit"
                    and call.args
                ):
                    payload = call.args[0]
                    fact = domain.eval(payload, env)
                    if not isinstance(fact, Ev):
                        yield self.finding(
                            module.relpath,
                            call.lineno,
                            f"payload reaching .emit() in {info.qualname!r} has "
                            "no schema evidence on this path: construct it as a "
                            'literal with a constant "event" key, pass it '
                            "through validate_event(...), or build it in a "
                            "schema-declared emitter helper",
                        )
            yield from self._check_field_store(module, domain, node, env)

    @staticmethod
    def _own_calls(node: ast.AST):
        """Calls in this statement, skipping nested def/lambda bodies
        (they execute elsewhere, under their own dataflow)."""
        stack: list[ast.AST] = [node]
        while stack:
            current = stack.pop()
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
            ):
                continue
            if isinstance(current, ast.Call):
                yield current
            stack.extend(ast.iter_child_nodes(current))

    # -- post-construction field mutation --------------------------------
    def _check_field_store(self, module, domain, node, env):
        if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if not (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
            ):
                continue
            fact = env.get(target.value.id)
            if not (isinstance(fact, Ev) and fact.event and fact.event in self._schemas):
                continue
            _lineno, required, optional = self._schemas[fact.event]
            allowed = required | optional | _IMPLICIT_FIELDS
            if target.slice.value not in allowed:
                yield self.finding(
                    module.relpath,
                    node.lineno,
                    f"store into event {fact.event!r} payload adds field "
                    f"{target.slice.value!r} not in its schema (add it to "
                    "EVENT_SCHEMAS or drop it)",
                )

    # -- helper-return analysis ------------------------------------------
    def helper_verdict(
        self, caller: FunctionInfo, call: ast.Call, arg_facts: tuple
    ) -> Optional[Ev]:
        """``Ev`` if every return of the resolved callee is evident under
        the given argument facts, else ``None``.  Unique-name fallback is
        allowed: wrongly matching a same-named function can only *grant*
        evidence, never fabricate a finding."""
        callee = self._graph.resolve_call(caller, call)
        if callee is None and isinstance(call.func, ast.Attribute):
            callee = self._graph.resolve_unique(call.func.attr)
        if callee is None or len(self._analyzing) >= _MAX_HELPER_DEPTH:
            return None
        cache_key = (callee.key, arg_facts)
        if cache_key in self._verdict_cache:
            return self._verdict_cache[cache_key]
        if callee.key in self._analyzing:
            return None  # recursion: no evidence
        self._analyzing.add(callee.key)
        try:
            verdict = self._returns_verdict(callee, arg_facts)
        finally:
            self._analyzing.discard(callee.key)
        self._verdict_cache[cache_key] = verdict
        return verdict

    def _returns_verdict(self, callee: FunctionInfo, arg_facts: tuple) -> Optional[Ev]:
        func = callee.node
        domain = _EvidenceDomain(self, callee)
        # Bind the call site's argument facts positionally; unbound
        # parameters carry no evidence (conservative for the helper).
        args = func.args
        names = [a.arg for a in [*args.posonlyargs, *args.args]]
        if callee.class_name is not None and names and names[0] in ("self", "cls"):
            names = names[1:]
        env: Env = {}
        for name, fact in zip(names, arg_facts):
            if isinstance(fact, Ev):
                env[name] = fact
        domain.bind_params(env)
        solution = solve(self._ctx.cfg(func), domain)
        verdict: Optional[Ev] = None
        saw_return = False
        for _block, element, elem_env in solution.iter_elements():
            node = element.node
            if isinstance(node, ast.Return) and element.role == "stmt":
                saw_return = True
                if node.value is None:
                    return None
                fact = domain.eval(node.value, elem_env)
                if not isinstance(fact, Ev):
                    return None
                verdict = fact if verdict is None else domain.join(verdict, fact)
        if not saw_return or verdict is None:
            return None
        # The helper's joined return fact IS the call-site fact — a
        # helper returning a list-of-evident stays iterable-evident.
        return verdict
