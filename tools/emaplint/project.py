"""Pass 1 of the two-pass engine: the whole-project analysis model.

The :class:`ProjectModel` is built once per lint run from every parsed
file and gives the concurrency rule family (EM007+) what a single-file
AST cannot: *who calls whom across modules* and *in which execution
context the callee runs*.

It holds four linked tables:

* **Symbol table** — every module, class, and function, keyed by a
  stable qualified name (``repro.gateway.gateway:ServingGateway.submit``).
* **Import graph** — which project modules each module imports, used
  for symbol resolution and for the cache's invalidation story.
* **Call graph** — resolved call edges.  Resolution goes beyond bare
  names: ``self.<method>()`` binds to the enclosing class,
  ``self.<attr>.<method>()`` follows attribute types inferred from
  ``__init__`` parameter annotations / ``self.x: T`` annotations /
  ``self.x = ClassName(...)`` constructor assignments, and local
  variables pick up types from parameter annotations and constructor
  calls.  Unresolvable receivers simply contribute no edge — the model
  is deliberately *under*-approximate, so rules built on it stay
  low-noise.
* **Context maps** — which functions are coroutines and which are
  transitively reachable from a coroutine (they run on the event
  loop).

Functions passed *by reference* (``loop.run_in_executor(None, fn)``,
``asyncio.to_thread(fn)``) are not call edges: the reference does not
execute in the referencing context.  That single property is what lets
EM007 bless executor offload without special-casing syntax.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from emaplint.registry import ImportMap, dotted_name

if TYPE_CHECKING:
    from emaplint.engine import SourceFile

#: Path components that anchor dotted module names.  A file under
#: ``.../src/repro/cloud/plane.py`` becomes ``repro.cloud.plane``; a
#: file under ``tools/emaplint/rules/x.py`` becomes
#: ``emaplint.rules.x``; everything else falls back to its stem.
_SOURCE_ROOTS = ("src", "tools")


def module_name_for(path_parts: Sequence[str]) -> str:
    """Dotted module name for a file path (best effort, stable)."""
    parts = list(path_parts)
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    for root in _SOURCE_ROOTS:
        if root in parts[:-1]:
            anchor = len(parts) - 1 - parts[-2::-1].index(root)
            dotted = parts[anchor:-1] + ([] if stem == "__init__" else [stem])
            if dotted:
                return ".".join(dotted)
    # tests/benchmarks/examples and loose files: parent dir + stem keeps
    # same-named files (conftest.py) from colliding in the name index.
    if len(parts) >= 2 and stem != "__init__":
        return f"{parts[-2]}.{stem}"
    return stem


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge leaving a function."""

    callee: str  #: project qname ``module:Qual`` or external dotted name
    line: int
    col: int
    external: bool


@dataclass
class FunctionInfo:
    """One module-level function or method."""

    qname: str  #: ``module:func`` / ``module:Class.method``
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    #: Parameter names, in order (used for dataflow helpers like
    #: EM010's emitter-helper detection).
    params: tuple[str, ...] = ()
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: methods, inferred attribute types, bases."""

    qname: str  #: ``module:ClassName``
    module: str
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)  #: name -> fn qname
    attr_types: dict[str, str] = field(default_factory=dict)  #: attr -> class qname
    bases: tuple[str, ...] = ()  #: resolved project base-class qnames


@dataclass
class ModuleInfo:
    """One parsed file in the project."""

    name: str
    path: str
    source: "SourceFile"
    imports: ImportMap
    #: Project modules this module imports (by module name).
    project_imports: set[str] = field(default_factory=set)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    @property
    def tree(self) -> ast.Module:
        return self.source.tree


def _annotation_dotted(node: ast.AST | None) -> str | None:
    """The class-name part of an annotation, stripping Optional/unions.

    Handles ``T``, ``pkg.T``, ``"T"`` strings, ``T | None`` and
    ``Optional[T]``; anything more exotic resolves to ``None``.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            name = _annotation_dotted(side)
            if name is not None and name != "None":
                return name
        return None
    if isinstance(node, ast.Subscript):
        head = dotted_name(node.value)
        if head is not None and head.rsplit(".", 1)[-1] == "Optional":
            return _annotation_dotted(node.slice)
        return None
    name = dotted_name(node)
    return None if name == "None" else name


class ProjectModel:
    """The linked pass-1 tables plus the reachability queries on top."""

    def __init__(self, sources: Iterable["SourceFile"]) -> None:
        self.modules: dict[str, ModuleInfo] = {}  #: keyed by path
        self.module_names: dict[str, ModuleInfo] = {}  #: first path wins
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        for source in sources:
            self._add_module(source)
        for info in self.modules.values():
            self._link_module(info)
        self._resolve_calls()

    # -- construction --------------------------------------------------

    def _add_module(self, source: "SourceFile") -> None:
        from pathlib import PurePath

        parts = PurePath(source.path).parts
        name = module_name_for(parts)
        info = ModuleInfo(
            name=name,
            path=source.path,
            source=source,
            imports=ImportMap().collect(source.tree),
        )
        self.modules[source.path] = info
        self.module_names.setdefault(name, info)

    def _link_module(self, info: ModuleInfo) -> None:
        for statement in info.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(info, statement, owner=None)
            elif isinstance(statement, ast.ClassDef):
                self._register_class(info, statement)
        # ``import repro.cloud.plane`` binds only ``repro`` in the alias
        # table; the full dotted target keeps the import closure
        # transitive.
        origins = set(info.imports.aliases.values()) | info.imports.origins
        for origin in origins:
            root = origin.split(".")[0]
            for candidate in (origin, origin.rsplit(".", 1)[0], root):
                if candidate in self.module_names and candidate != info.name:
                    info.project_imports.add(candidate)
                    break

    def _register_function(
        self,
        info: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        owner: ClassInfo | None,
    ) -> None:
        local = f"{owner.qname.split(':')[1]}.{node.name}" if owner else node.name
        qname = f"{info.name}:{local}"
        args = node.args
        params = tuple(
            arg.arg
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        )
        function = FunctionInfo(
            qname=qname,
            module=info.name,
            path=info.path,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            params=params,
        )
        info.functions[local] = function
        self.functions[qname] = function
        if owner is not None:
            owner.methods[node.name] = qname

    def _register_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        qname = f"{info.name}:{node.name}"
        cls = ClassInfo(qname=qname, module=info.name, node=node)
        info.classes[node.name] = cls
        self.classes[qname] = cls
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(info, statement, owner=cls)
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                annotated = _annotation_dotted(statement.annotation)
                if annotated is not None:
                    resolved = self.resolve_class_name(info, annotated)
                    if resolved is not None:
                        cls.attr_types[statement.target.id] = resolved.qname

    # -- symbol resolution ---------------------------------------------

    def _split_symbol(self, dotted: str) -> tuple[ModuleInfo, str] | None:
        """Split an import-rooted dotted name into (module, symbol)."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = self.module_names.get(".".join(parts[:cut]))
            if module is not None:
                return module, ".".join(parts[cut:])
        return None

    def resolve_class_name(
        self, info: ModuleInfo, dotted: str
    ) -> ClassInfo | None:
        """A class named in ``info``'s namespace, if it is project code."""
        head = dotted.split(".")[0]
        if head in info.classes and "." not in dotted:
            return info.classes[dotted]
        resolved = info.imports.resolve(dotted)
        split = self._split_symbol(resolved)
        if split is None:
            return None
        target_module, symbol = split
        return target_module.classes.get(symbol)

    def resolve_function_name(
        self, info: ModuleInfo, dotted: str
    ) -> FunctionInfo | None:
        """A function named in ``info``'s namespace, if project code."""
        if dotted in info.functions:
            return info.functions[dotted]
        resolved = info.imports.resolve(dotted)
        split = self._split_symbol(resolved)
        if split is None:
            return None
        target_module, symbol = split
        return target_module.functions.get(symbol)

    def method_of(self, cls: ClassInfo, name: str) -> str | None:
        """``cls``'s method qname, walking project base classes."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.qname in seen:
                continue
            seen.add(current.qname)
            if name in current.methods:
                return current.methods[name]
            stack.extend(
                self.classes[base]
                for base in current.bases
                if base in self.classes
            )
        return None

    # -- call-graph construction ---------------------------------------

    def _resolve_calls(self) -> None:
        for info in self.modules.values():
            for cls in info.classes.values():
                cls.bases = tuple(
                    resolved.qname
                    for base in cls.node.bases
                    if (name := dotted_name(base)) is not None
                    and (resolved := self.resolve_class_name(info, name))
                    is not None
                )
                self._infer_attr_types(info, cls)
            for local, function in info.functions.items():
                owner = None
                if "." in local:
                    owner = info.classes.get(local.rsplit(".", 1)[0])
                self._collect_calls(info, function, owner)

    def _infer_attr_types(self, info: ModuleInfo, cls: ClassInfo) -> None:
        """``self.x`` types from annotations and constructor assigns."""
        for method_qname in cls.methods.values():
            method = self.functions[method_qname]
            param_types = self._param_types(info, method.node)
            for node in ast.walk(method.node):
                target: ast.AST | None = None
                value: ast.AST | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    annotated = _annotation_dotted(node.annotation)
                    if (
                        annotated is not None
                        and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        resolved = self.resolve_class_name(info, annotated)
                        if resolved is not None:
                            cls.attr_types.setdefault(
                                target.attr, resolved.qname
                            )
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                if isinstance(value, ast.Name) and value.id in param_types:
                    cls.attr_types.setdefault(target.attr, param_types[value.id])
                elif isinstance(value, ast.Call):
                    callee = dotted_name(value.func)
                    if callee is not None:
                        resolved = self.resolve_class_name(info, callee)
                        if resolved is not None:
                            cls.attr_types.setdefault(
                                target.attr, resolved.qname
                            )

    def _param_types(
        self,
        info: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> dict[str, str]:
        types: dict[str, str] = {}
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            annotated = _annotation_dotted(arg.annotation)
            if annotated is None:
                continue
            resolved = self.resolve_class_name(info, annotated)
            if resolved is not None:
                types[arg.arg] = resolved.qname
        return types

    def _collect_calls(
        self,
        info: ModuleInfo,
        function: FunctionInfo,
        owner: ClassInfo | None,
    ) -> None:
        local_types = self._param_types(info, function.node)
        local_ext_types: dict[str, str] = {}
        for node in ast.walk(function.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self"
                and owner is not None
            ):
                # ``client = self._client`` — the local inherits the
                # attribute's inferred type.
                attr_type = owner.attr_types.get(node.value.attr)
                if attr_type is not None:
                    local_types[node.targets[0].id] = attr_type
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                callee = dotted_name(node.value.func)
                if callee is None:
                    continue
                resolved_cls = self.resolve_class_name(info, callee)
                if resolved_cls is not None:
                    local_types[node.targets[0].id] = resolved_cls.qname
                    continue
                # ``lock = threading.Lock()`` — remember the external
                # constructor so ``lock.acquire()`` resolves to
                # ``threading.Lock.acquire``.
                head = callee.split(".")[0]
                resolved = info.imports.resolve(callee)
                if (
                    head in info.imports.aliases
                    and self._split_symbol(resolved) is None
                ):
                    local_ext_types[node.targets[0].id] = resolved
        stack = list(ast.iter_child_nodes(function.node))
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue  # a reference, not an execution: no edges inside
            if isinstance(node, ast.Call):
                site = self._resolve_call(
                    info, owner, local_types, local_ext_types, node
                )
                if site is not None:
                    function.calls.append(site)
            stack.extend(ast.iter_child_nodes(node))

    def _resolve_call(
        self,
        info: ModuleInfo,
        owner: ClassInfo | None,
        local_types: Mapping[str, str],
        local_ext_types: Mapping[str, str],
        node: ast.Call,
    ) -> CallSite | None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return None
        line, col = node.lineno, node.col_offset

        def project(qname: str) -> CallSite:
            return CallSite(callee=qname, line=line, col=col, external=False)

        def external(name: str) -> CallSite:
            return CallSite(callee=name, line=line, col=col, external=True)

        parts = dotted.split(".")
        if parts[0] == "self" and owner is not None:
            if len(parts) == 2:
                method = self.method_of(owner, parts[1])
                if method is not None:
                    return project(method)
                return None
            if len(parts) == 3 and parts[1] in owner.attr_types:
                attr_cls = self.classes.get(owner.attr_types[parts[1]])
                if attr_cls is not None:
                    method = self.method_of(attr_cls, parts[2])
                    if method is not None:
                        return project(method)
                return None
            return None
        if len(parts) >= 2 and parts[0] in local_types:
            attr_cls = self.classes.get(local_types[parts[0]])
            if attr_cls is not None and len(parts) == 2:
                method = self.method_of(attr_cls, parts[1])
                if method is not None:
                    return project(method)
            return None
        if len(parts) == 2 and parts[0] in local_ext_types:
            # ``lock.acquire()`` where ``lock = threading.Lock()``.
            return external(f"{local_ext_types[parts[0]]}.{parts[1]}")
        function = self.resolve_function_name(info, dotted)
        if function is not None:
            return project(function.qname)
        cls = self.resolve_class_name(info, dotted)
        if cls is not None:
            init = self.method_of(cls, "__init__")
            return project(init) if init is not None else None
        resolved = info.imports.resolve(dotted)
        if self._split_symbol(resolved) is not None:
            return None  # project symbol with no callable target
        if resolved == dotted and parts[0] not in info.imports.aliases:
            # Unknown bare receiver (an unannotated local, a builtin):
            # only single-name builtins count as external calls.
            if len(parts) > 1:
                return None
        return external(resolved)

    # -- reachability ---------------------------------------------------

    def reachable_from(
        self, roots: Iterable[str]
    ) -> dict[str, tuple[str, ...]]:
        """Project functions reachable from ``roots`` via call edges.

        Returns ``qname -> path`` where path is the chain of function
        qnames from a root to (and including) the function — the first
        discovered chain, breadth-first, so messages show a shortest
        witness.
        """
        paths: dict[str, tuple[str, ...]] = {}
        frontier: list[str] = []
        for root in roots:
            if root in self.functions and root not in paths:
                paths[root] = (root,)
                frontier.append(root)
        while frontier:
            next_frontier: list[str] = []
            for qname in frontier:
                base = paths[qname]
                for site in self.functions[qname].calls:
                    if site.external or site.callee in paths:
                        continue
                    if site.callee not in self.functions:
                        continue
                    paths[site.callee] = base + (site.callee,)
                    next_frontier.append(site.callee)
            frontier = next_frontier
        return paths

    def async_roots(self) -> list[str]:
        """Every coroutine function in the project."""
        return [
            qname
            for qname, function in self.functions.items()
            if function.is_async
        ]

    # -- cache support --------------------------------------------------

    def import_closure(self, path: str) -> set[str]:
        """Paths of ``path``'s module plus its transitive project imports."""
        start = self.modules.get(path)
        if start is None:
            return {path}
        seen: set[str] = set()
        stack = [start]
        while stack:
            info = stack.pop()
            if info.path in seen:
                continue
            seen.add(info.path)
            for name in info.project_imports:
                imported = self.module_names.get(name)
                if imported is not None:
                    stack.append(imported)
        return seen
