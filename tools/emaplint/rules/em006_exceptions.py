"""EM006: no bare ``except:`` and no swallowed broad exceptions.

Server code that catches everything and does nothing turns a crashed
dispatcher or a failed kernel build into silent wrong answers.  Two shapes are flagged:

* a bare ``except:`` handler, anywhere — it even eats
  ``KeyboardInterrupt``/``SystemExit``;
* an ``except Exception:`` / ``except BaseException:`` handler whose
  body only ``pass``es (no logging, no re-raise, no fallback value).

Narrow handlers that swallow (``except FileNotFoundError: pass``) are
allowed — naming the exception is the evidence the author considered
the case.  Handlers inside ``__del__`` are exempt: raising during
garbage collection is itself a bug, so a broad guard there is the
correct idiom (GC safety nets).
"""

from __future__ import annotations

import ast

from emaplint.registry import Rule, rule

_BROAD = frozenset({"Exception", "BaseException"})


def _swallows(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing observable."""
    for statement in handler.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring or ``...``
        return False
    return True


def _is_broad(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True
    if isinstance(node, ast.Name):
        return node.id in _BROAD
    if isinstance(node, ast.Tuple):
        return any(
            isinstance(element, ast.Name) and element.id in _BROAD
            for element in node.elts
        )
    return False


@rule
class SwallowedExceptions(Rule):
    id = "EM006"
    name = "no-swallowed-exceptions"
    rationale = (
        "A swallowed broad exception in server/pool code converts "
        "crashes into silent wrong answers."
    )

    def visit_Module(self, node: ast.Module) -> None:
        self._del_depth = 0
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def _enter_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        is_del = node.name == "__del__"
        self._del_depth += is_del
        self.generic_visit(node)
        self._del_depth -= is_del

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare except: catches SystemExit/KeyboardInterrupt too; "
                "name the exception type",
            )
        elif (
            _is_broad(node)
            and _swallows(node)
            and not self._del_depth
        ):
            self.report(
                node,
                "broad exception handler swallows the error (body is "
                "only pass); handle, log, or narrow it",
            )
        self.generic_visit(node)
