"""EM002: every SharedMemory creation needs a reachable release path.

The serving plane exports its compiled arrays into a POSIX
shared-memory segment; a segment whose ``close()``/``unlink()`` is
unreachable outlives the plane generation that created it and leaks
``/dev/shm`` until reboot.  A ``SharedMemory(...)`` call is accepted
when one of these holds:

* it is the context expression of a ``with`` statement (scoped
  lifetime),
* the enclosing class also contains a ``.close()`` call — plus a
  ``.unlink()`` call if the segment was *created* (``create=True``) —
  i.e. the class owns the lifecycle (``PlaneShard.release``),
* the enclosing function returns the segment (ownership transfer to
  the caller, as in ``PlaneShareSpec.attach``), or
* for module/function scope without a class, the same function (or
  module) contains the required ``.close()``/``.unlink()`` calls.
"""

from __future__ import annotations

import ast

from emaplint.registry import ImportMap, Rule, dotted_name, rule

_CREATION_NAMES = ("SharedMemory",)


def _is_shared_memory_call(node: ast.Call, imports: ImportMap) -> bool:
    dotted = dotted_name(node.func)
    if dotted is None:
        return False
    resolved = imports.resolve(dotted)
    return resolved.endswith("shared_memory.SharedMemory") or resolved in {
        "multiprocessing.SharedMemory",
        "SharedMemory",
    }


def _creates_segment(node: ast.Call) -> bool:
    """True when the call passes ``create=True`` (owns the segment)."""
    for keyword in node.keywords:
        if keyword.arg == "create":
            value = keyword.value
            return not (
                isinstance(value, ast.Constant) and value.value is False
            )
    return False


def _calls_method(scope: ast.AST, method: str) -> bool:
    """Whether any ``<expr>.method(...)`` call appears under ``scope``."""
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
        ):
            return True
    return False


def _assigned_names(call: ast.Call, parents: dict[ast.AST, ast.AST]) -> set[str]:
    """Names the call's result is bound to (via Assign/AnnAssign)."""
    names: set[str] = set()
    parent = parents.get(call)
    if isinstance(parent, ast.Assign):
        for target in parent.targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    names.add(node.id)
    elif isinstance(parent, ast.AnnAssign) and isinstance(parent.target, ast.Name):
        names.add(parent.target.id)
    return names


def _returns_name(scope: ast.AST, names: set[str]) -> bool:
    """Whether ``scope`` returns one of ``names`` itself (directly or as
    a tuple/list element).  ``return segment`` transfers ownership;
    ``return segment.name`` does not — only the string escapes."""
    if not names:
        return False
    for node in ast.walk(scope):
        if not (isinstance(node, ast.Return) and node.value is not None):
            continue
        candidates: list[ast.expr] = [node.value]
        if isinstance(node.value, (ast.Tuple, ast.List)):
            candidates.extend(node.value.elts)
        for candidate in candidates:
            if isinstance(candidate, ast.Name) and candidate.id in names:
                return True
    return False


@rule
class SharedMemoryLifecycle(Rule):
    id = "EM002"
    name = "shared-memory-lifecycle"
    rationale = (
        "A shared-memory segment without a reachable close()/unlink() "
        "outlives its plane generation and leaks /dev/shm."
    )

    def visit_Module(self, node: ast.Module) -> None:
        imports = ImportMap().collect(node)
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(node):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            if not _is_shared_memory_call(call, imports):
                continue
            self._check_creation(call, node, parents)

    def _check_creation(
        self,
        call: ast.Call,
        module: ast.Module,
        parents: dict[ast.AST, ast.AST],
    ) -> None:
        creates = _creates_segment(call)
        enclosing_class: ast.ClassDef | None = None
        enclosing_function: ast.AST | None = None
        node: ast.AST | None = call
        while node is not None:
            node = parents.get(node)
            if isinstance(node, ast.withitem) and node.context_expr is call:
                return  # with SharedMemory(...) as segment: scoped
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and enclosing_function is None
            ):
                enclosing_function = node
            if isinstance(node, ast.ClassDef):
                enclosing_class = node
                break
        if enclosing_function is not None and _returns_name(
            enclosing_function, _assigned_names(call, parents)
        ):
            return  # ownership transferred to the caller
        owner: ast.AST = (
            enclosing_class
            if enclosing_class is not None
            else enclosing_function
            if enclosing_function is not None
            else module
        )
        missing = [
            method
            for method in ("close", *(("unlink",) if creates else ()))
            if not _calls_method(owner, method)
        ]
        if missing:
            where = (
                f"class {enclosing_class.name}"
                if enclosing_class is not None
                else "the enclosing scope"
            )
            self.report(
                call,
                "SharedMemory segment has no reachable "
                f"{'/'.join(f'{m}()' for m in missing)} in {where}; "
                "manage its lifecycle (context manager, owner-class "
                "release method, or return it to the caller)",
            )
