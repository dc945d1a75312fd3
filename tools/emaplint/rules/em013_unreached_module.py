"""EM013: every library module is reached from an entry point.

The pipeline runs from a handful of entry points: the CLI
(``repro.cli``, ``repro.__main__``), the paper experiments
(``repro.eval.experiments.*``) and the benchmark trees (``benchmarks``,
``perfbench``).  A module that none of them imports, directly or
transitively, is code no pipeline step runs; when only its own tests
and a package ``__init__`` re-export reach it, it is dead weight that
still has to be read, typed and maintained.

Reachability walks pass 1's import data.  ``from pkg import Name`` is
resolved through the package's :class:`~emaplint.registry.ImportMap`
to the module that defines ``Name``, so a re-export alone reaches
nothing; a module counts as reached together with the packages that
enclose it.  Naming a package itself (``from repro import obs``, or a
name defined in its ``__init__``) reaches the whole package.  The
metric-name registry (EM010's ``names`` module) is read by lint, not
imported, and is exempt.
"""

from __future__ import annotations

from emaplint.project import ModuleInfo, ProjectModel
from emaplint.registry import ProjectRule, rule
from emaplint.rules.em010_metric_names import _REGISTRY_MODULE_TAIL

#: Final name components of entry-point modules.
_ROOT_TAILS = ("cli", "__main__")
#: First name components of entry-point trees.
_ROOT_TREES = ("benchmarks", "perfbench")
#: A package whose every submodule is an entry point.
_ROOT_PACKAGE = "experiments"

#: Bound on re-export hops followed through package ``__init__``s.
_MAX_HOPS = 8


def _is_root(name: str) -> bool:
    parts = name.split(".")
    return (
        parts[-1] in _ROOT_TAILS
        or parts[0] in _ROOT_TREES
        or _ROOT_PACKAGE in parts[:-1]
    )


def _is_package(info: ModuleInfo) -> bool:
    return info.path.endswith("__init__.py")


def _defining_module(
    model: ProjectModel, dotted: str, hops: int = 0
) -> ModuleInfo | None:
    """The project module an import-rooted ``dotted`` name comes from."""
    module = model.module_names.get(dotted)
    if module is not None:
        return module
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module = model.module_names.get(".".join(parts[:cut]))
        if module is None:
            continue
        origin = module.imports.aliases.get(parts[cut])
        if _is_package(module) and origin is not None and hops < _MAX_HOPS:
            reexported = ".".join([origin, *parts[cut + 1 :]])
            return _defining_module(model, reexported, hops + 1) or module
        return module
    return None


@rule
class UnreachedModule(ProjectRule):
    id = "EM013"
    name = "module-reached-from-an-entry-point"
    rationale = (
        "A module that no CLI command, paper experiment or benchmark "
        "imports runs in no pipeline step; kept alive only by its tests "
        "and a package re-export, it is code to read and maintain that "
        "does nothing."
    )
    include_parts = (("src", "repro"),)

    def check_project(self, model: ProjectModel) -> None:
        roots = [
            info for name, info in model.module_names.items() if _is_root(name)
        ]
        if not roots:
            return  # no entry point in this file set: nothing to reach from
        reached = self._reach(model, roots)
        for name, info in sorted(model.module_names.items()):
            if name in reached or name.split(".")[-1] == _REGISTRY_MODULE_TAIL:
                continue
            self.report_at(
                info.path, 1, 1,
                f"module {name} is reached from no entry point (CLI, "
                "experiments, benchmarks); only tests or package "
                "re-exports import it — delete it or wire it into the "
                "pipeline",
            )

    @staticmethod
    def _reach(model: ProjectModel, roots: list[ModuleInfo]) -> set[str]:
        """Names of the modules the roots import, transitively."""
        visited: set[str] = set()
        # Importing a module runs its enclosing packages' __init__s:
        # they are reached, but their re-exports are not followed.
        enclosing: set[str] = set()
        stack = list(roots)
        while stack:
            info = stack.pop()
            if info.name in visited:
                continue
            visited.add(info.name)
            parts = info.name.split(".")
            enclosing.update(".".join(parts[:cut]) for cut in range(1, len(parts)))
            for origin in info.imports.origins:
                target = _defining_module(model, origin)
                if target is None or target.name in visited:
                    continue
                stack.append(target)
                if _is_package(target):
                    prefix = target.name + "."
                    stack.extend(
                        module
                        for name, module in model.module_names.items()
                        if name.startswith(prefix)
                    )
        return visited | enclosing
