"""IFC001 — registered baselines must honor the Matcher contract.

The bench harness treats every entry of ``repro.baselines.ALL_BASELINES``
uniformly: it constructs the class with no arguments, calls
``match(MatchRequest(query, data, options=MatchOptions(limit=...,
time_limit=...)))``, labels table rows with
``cls.name`` and reads the ``SearchStats`` fields the regression gate
compares (``recursive_calls``, ``embeddings_found``, ``search_seconds``).
A baseline that drifts from any of that silently produces incomparable
rows — Zeng et al.'s "implementation divergence dominates algorithmic
difference" failure mode.  This checker verifies, per registered class:

- the class exists, subclasses :class:`repro.interfaces.Matcher`, and
  its ``name`` class attribute equals its registry key (the paper's plot
  label);
- it defines ``_match_impl`` — the algorithm body behind the concrete
  ``Matcher.match`` dispatcher — with the shared parameter surface
  (``query``, ``data``, ``limit``, ``time_limit``, ``on_embedding``);
- its module — or a module it imports from within ``repro``, one hop,
  which is how the ``ordered_backtrack`` delegation works — stores every
  gate-read ``SearchStats`` field.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..base import Checker, register
from ..context import LintContext, ParsedModule
from ..findings import Finding

#: SearchStats fields the bench runner/compare gate reads and therefore
#: every baseline implementation must populate.  ``candidates_total`` and
#: ``preprocess_seconds`` are *not* required: a default of zero is the
#: honest value for filters-free algorithms (VF2).
_REQUIRED_STATS_FIELDS = ("embeddings_found", "recursive_calls", "search_seconds")

#: Parameters every ``_match_impl`` implementation must accept, §5.3
#: surface (the dispatcher always passes all five as keywords).
_REQUIRED_MATCH_PARAMS = ("query", "data", "limit", "time_limit", "on_embedding")


@register
class MatcherInterfaceChecker(Checker):
    id = "IFC001"
    description = (
        "every ALL_BASELINES entry subclasses Matcher, matches its registry "
        "key, exposes the shared _match_impl() surface and populates the "
        "SearchStats fields the bench gate reads"
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        registry_module = ctx.module("src/repro/baselines/__init__.py")
        if registry_module is None:
            yield self.finding(
                "src/repro/baselines/__init__.py",
                0,
                "anchor missing: no baselines registry module to check",
            )
            return
        entries = self._registry_entries(registry_module)
        if entries is None:
            yield self.finding(
                registry_module.relpath,
                0,
                "could not statically extract ALL_BASELINES "
                "(expected a dict literal of name -> class)",
            )
            return
        imports = self._relative_imports(registry_module)
        store_index: dict[str, set[str]] = {}

        for key, class_name, lineno in entries:
            module = self._class_module(ctx, imports, class_name)
            if module is None:
                yield self.finding(
                    registry_module.relpath,
                    lineno,
                    f"registry entry {key!r}: cannot resolve class {class_name!r} "
                    "to a module inside repro.baselines",
                )
                continue
            class_def = self._find_class(module, class_name)
            if class_def is None:
                yield self.finding(
                    module.relpath,
                    0,
                    f"registry entry {key!r}: class {class_name!r} not defined "
                    f"in {module.name}",
                )
                continue
            yield from self._check_class(ctx, module, class_def, key, store_index)

    # -- registry parsing ----------------------------------------------
    @staticmethod
    def _registry_entries(module: ParsedModule):
        for node in module.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "ALL_BASELINES" for t in node.targets
            ):
                continue
            if not isinstance(node.value, ast.Dict):
                return None
            entries = []
            for key, value in zip(node.value.keys, node.value.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, ast.Name)
                ):
                    entries.append((key.value, value.id, key.lineno))
                else:
                    return None
            return entries
        return None

    @staticmethod
    def _relative_imports(module: ParsedModule) -> dict[str, str]:
        """``{imported_name: sibling_module_stem}`` from ``from .x import y``."""
        mapping: dict[str, str] = {}
        for node in module.tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    mapping[alias.asname or alias.name] = node.module
        return mapping

    @staticmethod
    def _class_module(
        ctx: LintContext, imports: dict[str, str], class_name: str
    ) -> Optional[ParsedModule]:
        stem = imports.get(class_name)
        if stem is None:
            return None
        return ctx.module(f"src/repro/baselines/{stem}.py")

    @staticmethod
    def _find_class(module: ParsedModule, class_name: str) -> Optional[ast.ClassDef]:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                return node
        return None

    # -- per-class contract ---------------------------------------------
    def _check_class(self, ctx, module, class_def: ast.ClassDef, key, store_index):
        if not any(
            (isinstance(base, ast.Name) and base.id == "Matcher")
            or (isinstance(base, ast.Attribute) and base.attr == "Matcher")
            for base in class_def.bases
        ):
            yield self.finding(
                module.relpath,
                class_def.lineno,
                f"{class_def.name} is registered as baseline {key!r} but does "
                "not subclass repro.interfaces.Matcher",
            )

        name_value = self._class_name_attr(class_def)
        if name_value is None:
            yield self.finding(
                module.relpath,
                class_def.lineno,
                f"{class_def.name} defines no string 'name' class attribute "
                "(bench tables would fall back to the generic default)",
            )
        elif name_value != key:
            yield self.finding(
                module.relpath,
                class_def.lineno,
                f"{class_def.name}.name is {name_value!r} but the registry key "
                f"is {key!r}: plot labels and CLI --algorithm would disagree",
            )

        match_def = next(
            (
                node
                for node in class_def.body
                if isinstance(node, ast.FunctionDef) and node.name == "_match_impl"
            ),
            None,
        )
        if match_def is None:
            yield self.finding(
                module.relpath,
                class_def.lineno,
                f"{class_def.name} defines no _match_impl() method of its own "
                "(the abstract Matcher._match_impl would raise at call time)",
            )
        else:
            params = [a.arg for a in match_def.args.args] + [
                a.arg for a in match_def.args.kwonlyargs
            ]
            missing = [p for p in _REQUIRED_MATCH_PARAMS if p not in params]
            if missing:
                yield self.finding(
                    module.relpath,
                    match_def.lineno,
                    f"{class_def.name}._match_impl is missing the shared "
                    f"parameter(s) {missing}: the match() dispatcher calls "
                    "_match_impl(query, data, limit=..., time_limit=..., "
                    "on_embedding=...)",
                )

        populated = self._populated_fields(ctx, module, store_index)
        missing_fields = [f for f in _REQUIRED_STATS_FIELDS if f not in populated]
        if missing_fields:
            yield self.finding(
                module.relpath,
                class_def.lineno,
                f"{class_def.name} (and the repro modules it imports) never "
                f"stores SearchStats field(s) {missing_fields} that the bench "
                "regression gate reads",
            )

    @staticmethod
    def _class_name_attr(class_def: ast.ClassDef) -> Optional[str]:
        for node in class_def.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "name":
                        if isinstance(node.value, ast.Constant) and isinstance(
                            node.value.value, str
                        ):
                            return node.value.value
        return None

    # -- stats population (one import hop) ------------------------------
    def _populated_fields(
        self, ctx: LintContext, module: ParsedModule, store_index: dict[str, set[str]]
    ) -> set[str]:
        populated = set(self._field_stores(module, store_index))
        for imported in self._repro_imports(ctx, module):
            populated |= self._field_stores(imported, store_index)
        return populated

    @staticmethod
    def _field_stores(module: ParsedModule, store_index: dict[str, set[str]]) -> set[str]:
        cached = store_index.get(module.relpath)
        if cached is not None:
            return cached
        stores: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                stores.add(node.target.attr)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        stores.add(target.attr)
        store_index[module.relpath] = stores
        return stores

    @staticmethod
    def _repro_imports(ctx: LintContext, module: ParsedModule) -> list[ParsedModule]:
        """Modules inside ``src/repro`` that ``module`` imports from,
        resolved one hop (``from .generic import ordered_backtrack``)."""
        package_parts = module.name.split(".")[:-1]  # e.g. ["repro", "baselines"]
        out = []
        for node in module.tree.body:
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level:
                base = package_parts[: len(package_parts) - (node.level - 1)]
                dotted = ".".join(base + node.module.split("."))
            else:
                dotted = node.module
            if not dotted.startswith("repro."):
                continue
            relpath = "src/" + dotted.replace(".", "/")
            target = ctx.module(f"{relpath}.py") or ctx.module(f"{relpath}/__init__.py")
            if target is not None:
                out.append(target)
        return out

