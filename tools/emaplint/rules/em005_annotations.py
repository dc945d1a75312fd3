"""EM005: hot-path public functions must be completely annotated.

The cloud/edge/runtime packages are the serving hot paths: their public
surface is what the mypy strict gate types end-to-end, and a single
unannotated parameter downgrades every caller's inference to ``Any``.
This rule is the in-repo, dependency-free enforcement of that contract
— it runs in environments without mypy and in CI next to it.

Checked: module-level public functions and public methods (plus
``__init__``/``__call__``/``__new__``) defined in ``repro/cloud``,
``repro/edge``, ``repro/runtime``, ``repro/faults`` and
``repro/gateway``.  The edge
scope deliberately covers the compiled edge engine (``repro/edge/plane.py``,
``repro/edge/fleet.py``, and the ``repro/edge/_kernels.py`` public
surface) — the per-step reduction is the hottest loop on the device,
so its boundary types must stay exact; that includes the ragged
``abs_diff_argmin`` step and the fleet planner, where a loose boundary
type would let a mis-shaped megabatch reach the threaded C kernel.  The
gateway scope covers the async serving surface
(``submit``/``handle_batch``, the fleet/soak drivers and the edge
step driver coalescing sessions into fused fleet steps), where an
``Any`` on the coalescing path would silently untype every tenant's
resilient call.  The cloud scope includes the compiled walk
(``repro/cloud/plane.py``) — its boundary feeds raw arrays to the C
kernel, so an untyped boundary there risks silent result corruption
rather than a crash.  Every
parameter (except ``self``/``cls``) needs an annotation and the
function needs a return annotation.  Nested helper closures and the
remaining dunders (``__exit__``, ``__len__``, …) are exempt here —
mypy strict still covers them.
"""

from __future__ import annotations

import ast

from emaplint.registry import Rule, rule

_CHECKED_DUNDERS = frozenset({"__init__", "__call__", "__new__"})


@rule
class HotPathAnnotations(Rule):
    id = "EM005"
    name = "hot-path-annotations"
    rationale = (
        "Complete annotations on the cloud/edge/runtime public surface "
        "are what keep the mypy strict gate meaningful end-to-end."
    )
    include_parts = (
        ("repro", "cloud"),
        ("repro", "edge"),
        ("repro", "faults"),
        ("repro", "gateway"),
        ("repro", "runtime"),
    )

    def visit_Module(self, node: ast.Module) -> None:
        self._check_body(node.body, in_class=False)

    def _check_body(self, body: list[ast.stmt], in_class: bool) -> None:
        for statement in body:
            if isinstance(statement, ast.ClassDef):
                self._check_body(statement.body, in_class=True)
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._is_checked(statement.name):
                    self._check_function(statement, in_class)
                # Nested closures are exempt: do not recurse.

    @staticmethod
    def _is_checked(name: str) -> bool:
        if name.startswith("__") and name.endswith("__"):
            return name in _CHECKED_DUNDERS
        return not name.startswith("_")

    def _check_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, in_class: bool
    ) -> None:
        missing: list[str] = []
        args = node.args
        named = args.posonlyargs + args.args
        for index, arg in enumerate(named):
            if in_class and index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        missing.extend(
            arg.arg for arg in args.kwonlyargs if arg.annotation is None
        )
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is None:
                missing.append(f"*{vararg.arg}")
        if missing:
            self.report(
                node,
                f"public hot-path function {node.name!r} has unannotated "
                f"parameter(s): {', '.join(missing)}",
            )
        if node.returns is None:
            self.report(
                node,
                f"public hot-path function {node.name!r} is missing a "
                "return annotation",
            )
