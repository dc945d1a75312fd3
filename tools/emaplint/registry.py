"""Rule base class, finding record, and the global rule registry.

A rule is an :class:`ast.NodeVisitor` subclass with an ``id``/``name``
and a path scope.  The engine instantiates one visitor per (rule, file)
pair, so rules may keep per-file state freely; cross-file state is
deliberately unsupported (every file must lint clean on its own).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: Path components that are never linted: rule fixtures are deliberate
#: violations, caches are not source.
SKIPPED_PARTS = frozenset(
    {"fixtures", "__pycache__", ".git", ".mypy_cache", ".ruff_cache"}
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


class Rule(ast.NodeVisitor):
    """Base class for emaplint rules.

    Subclasses set ``id`` (``EMnnn``), ``name`` and ``rationale``, and
    implement ``visit_*`` methods that call :meth:`report`.  ``finish``
    runs after the whole tree has been visited — rules that need
    whole-file context collect during visitation and report there.

    Path scoping: ``include_parts``, when non-empty, restricts the rule
    to files whose path contains at least one of those directory
    chains; ``exclude_parts`` drops files containing any single listed
    component.  Scoping is applied by the engine and can be disabled
    wholesale (``LintEngine(scoped=False)``) for fixture tests.
    """

    id: str = "EM000"
    name: str = "abstract-rule"
    rationale: str = ""
    #: Project-wide rules run once over the pass-1 model instead of
    #: once per file; see :class:`ProjectRule`.
    project_wide: bool = False
    #: Sequences of path components that must appear contiguously for
    #: the rule to apply; empty means "applies everywhere".
    include_parts: tuple[tuple[str, ...], ...] = ()
    #: Single path components that exempt a file from this rule.
    exclude_parts: tuple[str, ...] = ()

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, parts: Sequence[str]) -> bool:
        """Whether a file with these path components is in scope."""
        if any(part in cls.exclude_parts for part in parts):
            return False
        if not cls.include_parts:
            return True
        for chain in cls.include_parts:
            span = len(chain)
            for start in range(len(parts) - span + 1):
                if tuple(parts[start : start + span]) == chain:
                    return True
        return False

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule_id=self.id,
                message=message,
            )
        )

    def finish(self, tree: ast.Module) -> None:
        """Hook for whole-file checks; default does nothing."""


class ProjectRule(Rule):
    """A rule that runs once per lint run over the whole-project model.

    Pass 2 instantiates project rules a single time and calls
    :meth:`check_project` with the pass-1 :class:`~emaplint.project.ProjectModel`;
    findings carry the path of the file they belong to (use
    :meth:`report_at`), and the engine applies per-file suppression and
    — when scoping is on — the rule's ``include_parts``/``exclude_parts``
    to each finding's own path.  The *model* always covers every linted
    file, so a scoped project rule still sees cross-module context from
    out-of-scope files.
    """

    project_wide = True

    def __init__(self, path: str = "<project>") -> None:
        super().__init__(path)

    def check_project(self, model: object) -> None:
        """Analyse the :class:`~emaplint.project.ProjectModel`."""

    def report_at(
        self, path: str, line: int, col: int, message: str
    ) -> None:
        self.findings.append(
            Finding(
                path=path,
                line=line,
                col=col,
                rule_id=self.id,
                message=message,
            )
        )


#: id -> rule class; populated by the :func:`rule` decorator at import
#: time of :mod:`emaplint.rules`.
RULES: dict[str, type[Rule]] = {}


def rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator registering a rule under its ``id``."""
    if not cls.id.startswith("EM") or cls.id == "EM000":
        raise ValueError(f"rule id must be a concrete EMnnn code, got {cls.id!r}")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls
    return cls


def all_rules() -> list[type[Rule]]:
    """Every registered rule class, ordered by id."""
    import emaplint.rules  # noqa: F401  (registration side effect)

    return [RULES[key] for key in sorted(RULES)]


@dataclass
class ImportMap:
    """Resolves local names back to their dotted import origins.

    Shared helper for rules that must recognise ``np.random.seed`` no
    matter how numpy was imported (``import numpy``, ``import numpy as
    np``, ``from numpy import random as nr``, ``from numpy.random
    import seed``).
    """

    aliases: dict[str, str] = field(default_factory=dict)
    #: Every imported dotted target in full: ``import a.b.c`` records
    #: ``a.b.c`` (its alias binds only ``a``), ``from a import b``
    #: records ``a.b``.
    origins: set[str] = field(default_factory=set)

    def collect(self, tree: ast.Module) -> "ImportMap":
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    self.origins.add(item.name)
                    self.aliases[item.asname or item.name.split(".")[0]] = (
                        item.name if item.asname else item.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for item in node.names:
                    if item.name == "*":
                        continue
                    origin = f"{node.module}.{item.name}"
                    self.origins.add(origin)
                    self.aliases[item.asname or item.name] = origin
        return self

    def resolve(self, dotted: str) -> str:
        """Map a source-level dotted name to its import-rooted form."""
        head, _, rest = dotted.partition(".")
        origin = self.aliases.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin


def dotted_name(node: ast.AST) -> str | None:
    """The ``a.b.c`` form of a Name/Attribute chain, else ``None``."""
    chain: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        chain.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    chain.append(current.id)
    return ".".join(reversed(chain))


def iter_findings(rules: Iterable[Rule]) -> list[Finding]:
    """All findings from a set of per-file rule instances, sorted."""
    collected: list[Finding] = []
    for instance in rules:
        collected.extend(instance.findings)
    return sorted(collected)
