"""EM009: generation-keyed caches must be invalidated at every bump.

The compiled search plane's contract: derived state (window norm
caches) is valid only for one value of the
backing store's generation counter.  Every code path that bumps the
counter (``self.generation += 1``, ``self._data_version += 1``) must
also invalidate every cache keyed off it — otherwise a reader sees
fresh data paired with stale derived state, which in this codebase
means *silently wrong correlation results*, not a crash.

Invalidation is recognised in four forms, resolved through the pass-1
model (so the cache and the bump may live in different modules):

* clearing the mapping: ``self._norm_caches.clear()``;
* reassigning the mapping: ``self._norm_caches = {}``;
* reassigning a **carrier**: ``self.core = PlaneCore(...)`` counts
  when the attribute's class holds the caches — dropping the carrier
  drops every cache it owns in one move;
* evicting by key: ``del self._norm_caches[shard]`` or
  ``self._norm_caches.pop(shard, None)`` — the sharded plane's
  per-shard bump drops only the changed shard's entries, which is a
  legitimate (delta) invalidation of that cache.

A *cache* is a ``cache``/``memo``-named attribute that the class
writes through subscript or ``setdefault`` — the lint-level signature
of a keyed mapping that grows on miss.
"""

from __future__ import annotations

import ast

from emaplint.project import ClassInfo, ProjectModel
from emaplint.registry import ProjectRule, dotted_name, rule

#: Attribute-name fragments that mark a generation counter.
_GENERATION_FRAGMENTS = ("generation", "data_version")

#: Attribute-name fragments that mark a keyed derived-state mapping.
_CACHE_FRAGMENTS = ("cache", "memo")


def _self_attr(node: ast.AST) -> str | None:
    """``X`` for a ``self.X`` attribute node, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_cache_name(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in _CACHE_FRAGMENTS)


def _is_generation_name(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in _GENERATION_FRAGMENTS)


@rule
class GenerationCache(ProjectRule):
    id = "EM009"
    name = "generation-bump-must-invalidate-caches"
    rationale = (
        "A generation bump that leaves a generation-keyed cache alive "
        "pairs fresh data with stale derived state — wrong correlation "
        "results with no crash to point at the cause."
    )

    def check_project(self, model: ProjectModel) -> None:
        cache_attrs = {
            cls.qname: self._cache_attrs(model, cls)
            for cls in model.classes.values()
        }
        for cls in model.classes.values():
            bumps = self._bump_methods(model, cls)
            if not bumps:
                continue
            own_caches = cache_attrs[cls.qname]
            carriers = {
                attr: carried
                for attr, type_qname in cls.attr_types.items()
                if (carried := cache_attrs.get(type_qname))
            }
            if not own_caches and not carriers:
                continue
            invalidated = self._class_invalidations(model, cls)
            for method_name, bump_node in bumps.items():
                cleared = invalidated[method_name]
                for attr in sorted(own_caches):
                    if attr not in cleared:
                        self._report_bump(
                            model, cls, method_name, bump_node,
                            f"generation-keyed cache 'self.{attr}' is "
                            "never invalidated on this bump path — "
                            "clear or reassign it before readers see "
                            "the new generation",
                        )
                for attr, carried in sorted(carriers.items()):
                    if attr in cleared:
                        continue  # carrier reassigned: caches dropped
                    if all(
                        f"{attr}.{cache}" in cleared for cache in carried
                    ):
                        continue  # each carried cache cleared in place
                    self._report_bump(
                        model, cls, method_name, bump_node,
                        f"'self.{attr}' carries generation-keyed "
                        f"caches ({', '.join(sorted(carried))}) that "
                        "survive this bump — reassign the carrier or "
                        "clear its caches",
                    )

    # -- table construction --------------------------------------------

    @staticmethod
    def _cache_attrs(model: ProjectModel, cls: ClassInfo) -> set[str]:
        """Cache-named ``self`` attrs the class writes by key."""
        attrs: set[str] = set()
        for method_qname in cls.methods.values():
            for node in ast.walk(model.functions[method_qname].node):
                if isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    attr = _self_attr(node.value)
                    if attr is not None and _is_cache_name(attr):
                        attrs.add(attr)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setdefault"
                ):
                    attr = _self_attr(node.func.value)
                    if attr is not None and _is_cache_name(attr):
                        attrs.add(attr)
        return attrs

    @staticmethod
    def _bump_methods(
        model: ProjectModel, cls: ClassInfo
    ) -> dict[str, ast.AST]:
        """method name -> the generation-bump statement node."""
        bumps: dict[str, ast.AST] = {}
        for name, method_qname in cls.methods.items():
            for node in ast.walk(model.functions[method_qname].node):
                if not isinstance(node, ast.AugAssign):
                    continue
                attr = _self_attr(node.target)
                if attr is not None and _is_generation_name(attr):
                    bumps.setdefault(name, node)
        return bumps

    def _class_invalidations(
        self, model: ProjectModel, cls: ClassInfo
    ) -> dict[str, set[str]]:
        """Per-method invalidated attr paths, closed over self-calls.

        A bump method that delegates (``self._drop_caches()``) gets
        credit for what the callee invalidates, transitively within
        the class.
        """
        direct = {
            name: self._direct_invalidations(
                model.functions[method_qname].node
            )
            for name, method_qname in cls.methods.items()
        }
        calls = {
            name: [
                callee
                for site in model.functions[method_qname].calls
                if not site.external
                and (callee := self._own_method(cls, site.callee))
            ]
            for name, method_qname in cls.methods.items()
        }
        closed: dict[str, set[str]] = {}
        for name in direct:
            seen: set[str] = set()
            stack = [name]
            total: set[str] = set()
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                total |= direct[current]
                stack.extend(calls[current])
            closed[name] = total
        return closed

    @staticmethod
    def _own_method(cls: ClassInfo, callee_qname: str) -> str | None:
        for name, method_qname in cls.methods.items():
            if method_qname == callee_qname:
                return name
        return None

    @staticmethod
    def _direct_invalidations(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> set[str]:
        """``self`` attr paths this method reassigns, ``.clear()``s,
        ``.pop()``s, or ``del``-evicts by key."""
        cleared: set[str] = set()

        def attr_path(target: ast.AST) -> str | None:
            dotted = dotted_name(target)
            if dotted is None or not dotted.startswith("self."):
                return None
            return dotted[len("self."):]

        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    path = attr_path(target)
                    if path is not None:
                        cleared.add(path)
            elif isinstance(sub, ast.Delete):
                for target in sub.targets:
                    if isinstance(target, ast.Subscript):
                        path = attr_path(target.value)
                        if path is not None:
                            cleared.add(path)
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in ("clear", "pop")
            ):
                path = attr_path(sub.func.value)
                if path is not None:
                    cleared.add(path)
        return cleared

    def _report_bump(
        self,
        model: ProjectModel,
        cls: ClassInfo,
        method_name: str,
        bump_node: ast.AST,
        message: str,
    ) -> None:
        method = model.functions[cls.methods[method_name]]
        class_name = cls.qname.split(":")[1]
        self.report_at(
            method.path,
            getattr(bump_node, "lineno", method.node.lineno),
            getattr(bump_node, "col_offset", 0) + 1,
            f"'{class_name}.{method_name}' {message}",
        )
