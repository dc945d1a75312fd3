"""EM010: every emitted metric name lives in the checked-in registry.

Dashboards, the benchmark-regression gate, and DESIGN.md's
figure-to-metric map all address metrics *by name string*.  A typo'd
or renamed emission doesn't fail anything — the old panel silently
flatlines while a new, unplotted series accumulates.  This rule pins
both directions against ``src/repro/obs/names.py``:

* every literal name passed to ``inc`` / ``observe`` / ``set_gauge``
  on the :class:`~repro.obs.metrics.MetricsRegistry` must appear in
  ``METRIC_NAMES`` with the matching kind (counter / histogram /
  gauge), or match a ``METRIC_PREFIXES`` family (dynamic f-string
  names like ``obs.span.<name>.s``);
* every registry entry must be emitted somewhere, so the registry
  cannot rot into a list of ghosts.

Emission sites are resolved through the pass-1 model: direct
``obs.metrics().inc(...)`` calls, locals bound from ``obs.metrics()``,
``self.registry`` attributes typed :class:`MetricsRegistry`, and
one-hop *emitter helpers* (a project function that forwards one of its
parameters into a recording call — ``ResilientCloudClient.
_record_counter`` — whose call sites then count as emissions).
"""

from __future__ import annotations

import ast
from typing import Iterator

from emaplint.project import FunctionInfo, ProjectModel
from emaplint.registry import ProjectRule, dotted_name, rule

#: recording method -> instrument kind the registry must declare.
KIND_BY_METHOD = {
    "inc": "counter",
    "observe": "histogram",
    "set_gauge": "gauge",
}

#: The module that defines the registry mappings (matched by suffix so
#: fixture trees can carry their own).
_REGISTRY_MODULE_TAIL = "names"

#: Modules never scanned for emissions: the registry implementation
#: itself re-emits merged documents with dynamic names by design.
_EXCLUDED_MODULE_TAILS = ("obs.metrics",)


def _module_excluded(module_name: str) -> bool:
    return any(
        module_name == tail or module_name.endswith("." + tail)
        for tail in _EXCLUDED_MODULE_TAILS
    )


@rule
class MetricNameDrift(ProjectRule):
    id = "EM010"
    name = "metric-names-match-registry"
    rationale = (
        "A renamed or typo'd metric fails nothing at runtime — the "
        "dashboard panel flatlines and a ghost series accumulates; "
        "pinning emissions to the checked-in name registry makes "
        "drift a lint failure instead."
    )

    def check_project(self, model: ProjectModel) -> None:
        registry = self._load_registry(model)
        if registry is None:
            return  # no registry module in this file set: nothing to pin
        names, prefixes, registry_path, entry_lines = registry
        used_names: set[str] = set()
        used_prefixes: set[str] = set()
        record_calls = {
            qname: list(self._record_calls(model, function))
            for qname, function in model.functions.items()
            if not _module_excluded(function.module)
        }
        helpers = self._find_helpers(model, record_calls)
        for emission in self._emissions(model, record_calls, helpers):
            path, line, col, kind, name, is_prefix = emission
            if is_prefix:
                match = self._prefix_for(name, prefixes)
                if match is None:
                    self.report_at(
                        path, line, col,
                        f"dynamic metric name starting {name!r} matches "
                        "no METRIC_PREFIXES family in the registry — "
                        "register the prefix in repro/obs/names.py",
                    )
                else:
                    used_prefixes.add(match)
                    if prefixes[match] != kind:
                        self.report_at(
                            path, line, col,
                            f"metric family {match!r} is registered as "
                            f"a {prefixes[match]} but emitted as a "
                            f"{kind}",
                        )
                continue
            if name in names:
                used_names.add(name)
                if names[name] != kind:
                    self.report_at(
                        path, line, col,
                        f"metric {name!r} is registered as a "
                        f"{names[name]} but emitted as a {kind}",
                    )
                continue
            match = self._prefix_for(name, prefixes)
            if match is not None:
                used_prefixes.add(match)
                if prefixes[match] != kind:
                    self.report_at(
                        path, line, col,
                        f"metric family {match!r} is registered as a "
                        f"{prefixes[match]} but emitted as a {kind}",
                    )
                continue
            self.report_at(
                path, line, col,
                f"metric {name!r} is not in the METRIC_NAMES registry "
                "— register it in repro/obs/names.py (or fix the typo)",
            )
        for name in sorted(set(names) - used_names):
            self.report_at(
                registry_path, entry_lines.get(name, 1), 1,
                f"registered metric {name!r} is never emitted — remove "
                "the dead entry or restore the emission",
            )
        for prefix in sorted(set(prefixes) - used_prefixes):
            self.report_at(
                registry_path, entry_lines.get(prefix, 1), 1,
                f"registered metric family {prefix!r} is never emitted "
                "— remove the dead entry or restore the emission",
            )

    # -- registry loading ----------------------------------------------

    @staticmethod
    def _load_registry(
        model: ProjectModel,
    ) -> tuple[dict[str, str], dict[str, str], str, dict[str, int]] | None:
        for info in model.modules.values():
            if info.name.split(".")[-1] != _REGISTRY_MODULE_TAIL:
                continue
            names: dict[str, str] | None = None
            prefixes: dict[str, str] | None = None
            entry_lines: dict[str, int] = {}
            for statement in info.tree.body:
                if isinstance(statement, ast.Assign):
                    if len(statement.targets) != 1 or not isinstance(
                        statement.targets[0], ast.Name
                    ):
                        continue
                    target = statement.targets[0].id
                elif isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    target = statement.target.id
                else:
                    continue
                if target not in ("METRIC_NAMES", "METRIC_PREFIXES"):
                    continue
                if statement.value is None:
                    continue
                try:
                    value = ast.literal_eval(statement.value)
                except (ValueError, TypeError):
                    continue
                if not isinstance(value, dict):
                    continue
                if isinstance(statement.value, ast.Dict):
                    for key_node in statement.value.keys:
                        if isinstance(key_node, ast.Constant):
                            entry_lines[str(key_node.value)] = (
                                key_node.lineno
                            )
                if target == "METRIC_NAMES":
                    names = {str(k): str(v) for k, v in value.items()}
                else:
                    prefixes = {str(k): str(v) for k, v in value.items()}
            if names is not None:
                return names, prefixes or {}, info.path, entry_lines
        return None

    @staticmethod
    def _prefix_for(name: str, prefixes: dict[str, str]) -> str | None:
        for prefix in prefixes:
            if name.startswith(prefix):
                return prefix
        return None

    # -- emission discovery --------------------------------------------

    @staticmethod
    def _find_helpers(
        model: ProjectModel,
        record_calls: dict[str, list[tuple[ast.Call, str]]],
    ) -> dict[str, str]:
        """qname -> kind for functions forwarding a param into a record."""
        helpers: dict[str, str] = {}
        for qname, calls in record_calls.items():
            params = set(model.functions[qname].params)
            for call, kind in calls:
                if call.args and isinstance(call.args[0], ast.Name):
                    if call.args[0].id in params:
                        helpers[qname] = kind
        return helpers

    def _emissions(
        self,
        model: ProjectModel,
        record_calls: dict[str, list[tuple[ast.Call, str]]],
        helpers: dict[str, str],
    ) -> Iterator[tuple[str, int, int, str, str, bool]]:
        """(path, line, col, kind, name, is_prefix) per emission site."""
        for qname, calls in record_calls.items():
            function = model.functions[qname]
            registry_module = function.module.rsplit(".", 1)[-1] == (
                _REGISTRY_MODULE_TAIL
            )
            if registry_module:
                continue
            sites = {
                (site.line, site.col): site for site in function.calls
            }
            for call, kind in calls:
                yield from self._name_of(function, call, kind)
            # Helper call sites: the literal passed to the helper is an
            # emission of the helper's kind.
            for node in ast.walk(function.node):
                if not isinstance(node, ast.Call):
                    continue
                site = sites.get((node.lineno, node.col_offset))
                if site is None or site.external:
                    continue
                kind = helpers.get(site.callee)
                if kind is None:
                    continue
                yield from self._name_of(function, node, kind)

    @staticmethod
    def _name_of(
        function: FunctionInfo, call: ast.Call, kind: str
    ) -> Iterator[tuple[str, int, int, str, str, bool]]:
        if not call.args:
            return
        name_node = call.args[0]
        line, col = name_node.lineno, name_node.col_offset + 1
        if isinstance(name_node, ast.Constant) and isinstance(
            name_node.value, str
        ):
            yield function.path, line, col, kind, name_node.value, False
        elif isinstance(name_node, ast.JoinedStr):
            prefix = ""
            for part in name_node.values:
                if isinstance(part, ast.Constant) and isinstance(
                    part.value, str
                ):
                    prefix += part.value
                else:
                    break
            if prefix:
                yield function.path, line, col, kind, prefix, True
        # A bare Name (the helper's own forwarded parameter) or other
        # expression: handled at the helper's call sites instead.

    def _record_calls(
        self, model: ProjectModel, function: FunctionInfo
    ) -> Iterator[tuple[ast.Call, str]]:
        """Recording calls on a MetricsRegistry receiver in ``function``."""
        info = model.modules[function.path]
        owner = None
        local = function.qname.split(":")[1]
        if "." in local:
            owner = info.classes.get(local.rsplit(".", 1)[0])
        registry_locals = {
            node.targets[0].id
            for node in ast.walk(function.node)
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and self._is_metrics_call(info, node.value)
        }
        for node in ast.walk(function.node):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            kind = KIND_BY_METHOD.get(node.func.attr)
            if kind is None:
                continue
            receiver = node.func.value
            if self._is_metrics_call(info, receiver):
                yield node, kind  # obs.metrics().inc(...)
                continue
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in registry_locals
            ):
                yield node, kind  # registry = obs.metrics(); registry.inc
                continue
            dotted = dotted_name(receiver)
            if (
                dotted is not None
                and owner is not None
                and dotted.startswith("self.")
                and "." not in dotted[len("self."):]
            ):
                type_qname = owner.attr_types.get(dotted[len("self."):])
                if type_qname is not None and type_qname.endswith(
                    ":MetricsRegistry"
                ):
                    yield node, kind  # self.registry.observe(...)

    @staticmethod
    def _is_metrics_call(info, node: ast.AST) -> bool:
        """Whether ``node`` is an ``obs.metrics()`` style call."""
        if not isinstance(node, ast.Call) or node.args or node.keywords:
            return False
        dotted = dotted_name(node.func)
        if dotted is None:
            return False
        resolved = info.imports.resolve(dotted)
        return resolved.endswith("obs.metrics") or resolved == "metrics"
