"""The two-pass lint engine: discovery, parsing, dispatch, suppression.

Pass 1 parses every target file once and (when any project-wide rule is
active) builds the :class:`~emaplint.project.ProjectModel` — symbol
table, import graph, call graph, async context map.  Pass 2
runs the per-file rules over each tree and the project rules over the
model.

Suppression comments are resolved *after* rules run, so the engine can
report which suppressions were actually exercised — the repo-clean test
audits that list against an explicit allowlist.  A suppression that
silences **nothing** is itself an error (:data:`STALE_RULE_ID`): dead
``# emaplint: disable=`` comments cannot accumulate.

Results are cached per file, keyed by content hash:

* **Per-file rules** (EM001, EM004–EM006, EM008, EM012) depend only on the
  file's own text, so their raw findings are reused whenever the hash
  matches.
* **Project rules** (EM007, EM009, EM010, EM013) may attribute a
  finding in file ``A`` to context in file ``B`` — including *reverse*
  dependencies (an async caller of ``A`` living in ``B``), which no
  per-file import-closure key can capture soundly.  Their findings are
  therefore cached under the hash of the whole participating file set
  and reused only when no file (i.e. no file's import closure) changed.

A warm run with an unchanged tree never re-parses a single file.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Iterable, Sequence

from emaplint.registry import (
    RULES,
    SKIPPED_PARTS,
    Finding,
    ProjectRule,
    Rule,
    all_rules,
)

#: ``# emaplint: disable=EMNNN`` (one or more comma-separated ids).
#: No leading ``#`` anchor: suppressions are only searched for inside
#: COMMENT tokens, and this lets them share a line with other markers
#: (``# pragma: no cover - emaplint: disable=EMNNN``).
_SUPPRESS_RE = re.compile(
    r"\bemaplint:\s*(?P<kind>disable|disable-next-line)\s*=\s*"
    r"(?P<codes>EM\d{3}(?:\s*,\s*EM\d{3})*)"
)

#: Pseudo rule id for a suppression comment that suppressed nothing.
#: Engine-level like EM000 (parse failure): not registered, not
#: selectable, and deliberately not suppressible.
STALE_RULE_ID = "EM099"

#: Bump to invalidate every cache entry when result semantics change.
CACHE_VERSION = 1


@dataclass(frozen=True)
class Suppression:
    """One exercised suppression comment (for allowlist auditing)."""

    path: str
    line: int
    rule_id: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id}"


@dataclass
class SourceFile:
    """A parsed lint target plus its per-line suppression table."""

    path: str
    text: str
    tree: ast.Module
    #: line number -> set of rule ids disabled on that line.
    disabled: dict[int, set[str]]

    @classmethod
    def parse(cls, path: str, text: str) -> "SourceFile":
        tree = ast.parse(text, filename=path)
        return cls(path=path, text=text, tree=tree, disabled=_scan_suppressions(text))

    def is_suppressed(self, finding: Finding) -> bool:
        return finding.rule_id in self.disabled.get(finding.line, set())


def _scan_suppressions(text: str) -> dict[int, set[str]]:
    """Per-line disabled rule ids, honouring ``disable-next-line``.

    Comments are located with :mod:`tokenize` so string literals that
    merely *contain* the magic text do not suppress anything.
    """
    disabled: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            codes = {code.strip() for code in match.group("codes").split(",")}
            line = token.start[0]
            if match.group("kind") == "disable-next-line":
                line += 1
            disabled.setdefault(line, set()).update(codes)
    except tokenize.TokenError:  # unterminated constructs: no suppressions
        pass
    return disabled


@dataclass
class LintResult:
    """Outcome of one engine run over a file set."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Suppression] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def as_dict(self) -> dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "findings": [finding.as_dict() for finding in self.findings],
            "suppressed": [
                {"path": s.path, "line": s.line, "rule": s.rule_id}
                for s in self.suppressed
            ],
        }


def _finding_to_dict(finding: Finding) -> dict[str, object]:
    return finding.as_dict()


def _finding_from_dict(raw: dict[str, object]) -> Finding:
    return Finding(
        path=str(raw["path"]),
        line=int(raw["line"]),  # type: ignore[arg-type]
        col=int(raw["col"]),  # type: ignore[arg-type]
        rule_id=str(raw["rule"]),
        message=str(raw["message"]),
    )


class LintCache:
    """Content-hash-keyed reuse of raw (pre-suppression) findings.

    Per-file entries also carry the file's suppression table, so a warm
    run resolves suppressions and stale comments without re-parsing.
    The cache is a plain JSON document: share one instance across
    in-process runs, or round-trip it through :meth:`save`/:meth:`load`
    (the CLI's ``--cache`` flag) to persist across processes.
    """

    def __init__(self) -> None:
        self.per_file: dict[str, dict[str, object]] = {}
        self.project: dict[str, list[dict[str, object]]] = {}
        self.hits = 0
        self.misses = 0

    # -- keys ----------------------------------------------------------

    @staticmethod
    def file_key(path: str, text: str, rules_sig: str) -> str:
        digest = hashlib.sha256()
        digest.update(f"v{CACHE_VERSION}|{rules_sig}|{path}\0".encode())
        digest.update(text.encode("utf-8", "surrogatepass"))
        return digest.hexdigest()

    @staticmethod
    def project_key(items: Sequence[tuple[str, str]], rules_sig: str) -> str:
        digest = hashlib.sha256()
        digest.update(f"v{CACHE_VERSION}|{rules_sig}".encode())
        for path, text in sorted(items):
            blob = hashlib.sha256(
                text.encode("utf-8", "surrogatepass")
            ).hexdigest()
            digest.update(f"\0{path}\0{blob}".encode())
        return digest.hexdigest()

    # -- persistence ---------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        return {
            "version": CACHE_VERSION,
            "per_file": self.per_file,
            "project": self.project,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "LintCache":
        cache = cls()
        try:
            document = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            return cache
        if document.get("version") != CACHE_VERSION:
            return cache
        cache.per_file = dict(document.get("per_file", {}))
        cache.project = dict(document.get("project", {}))
        return cache


class LintEngine:
    """Runs a set of rules over files, directories, or raw source.

    ``select``/``ignore`` filter by rule id; ``scoped=False`` disables
    per-rule path scoping (used by fixture tests, which lint files
    living under an excluded ``fixtures/`` directory on purpose).
    ``report_stale=False`` turns off stale-suppression findings;
    ``cache`` enables content-hash result reuse across runs.
    """

    def __init__(
        self,
        select: Iterable[str] | None = None,
        ignore: Iterable[str] | None = None,
        scoped: bool = True,
        report_stale: bool = True,
        cache: LintCache | None = None,
    ) -> None:
        chosen = all_rules()
        if select is not None:
            wanted = set(select)
            unknown = wanted - set(RULES)
            if unknown:
                raise ValueError(f"unknown rule ids: {sorted(unknown)}")
            chosen = [cls for cls in chosen if cls.id in wanted]
        if ignore is not None:
            dropped = set(ignore)
            unknown = dropped - set(RULES)
            if unknown:
                raise ValueError(f"unknown rule ids: {sorted(unknown)}")
            chosen = [cls for cls in chosen if cls.id not in dropped]
        self.rule_classes: list[type[Rule]] = chosen
        self.file_rules = [cls for cls in chosen if not cls.project_wide]
        self.project_rules = [cls for cls in chosen if cls.project_wide]
        self.scoped = scoped
        self.report_stale = report_stale
        self.cache = cache
        self._file_sig = "file:" + ",".join(
            cls.id for cls in self.file_rules
        ) + f"|scoped={scoped}"
        self._project_sig = "project:" + ",".join(
            cls.id for cls in self.project_rules
        ) + f"|scoped={scoped}"

    # -- file discovery ----------------------------------------------

    @staticmethod
    def discover(targets: Sequence[str | Path]) -> list[Path]:
        """Python files under the targets, skipping fixture/cache dirs."""
        files: list[Path] = []
        for target in targets:
            path = Path(target)
            if path.is_dir():
                candidates: Iterable[Path] = sorted(path.rglob("*.py"))
            elif path.suffix == ".py":
                candidates = [path]
            else:
                raise FileNotFoundError(f"not a python file or directory: {path}")
            for candidate in candidates:
                if SKIPPED_PARTS.isdisjoint(candidate.parts):
                    files.append(candidate)
        return files

    # -- linting ------------------------------------------------------

    def lint_source(self, text: str, path: str = "<string>") -> LintResult:
        """Lint one in-memory source blob (fixture tests use this)."""
        return self.lint_sources([(path, text)])

    def lint_paths(self, targets: Sequence[str | Path]) -> LintResult:
        """Lint every ``.py`` file under the given files/directories."""
        items = [
            (str(file_path), file_path.read_text())
            for file_path in self.discover(targets)
        ]
        return self.lint_sources(items)

    def lint_sources(self, items: Sequence[tuple[str, str]]) -> LintResult:
        """Lint ``(path, text)`` pairs as one project.

        This is the real engine entry point: directory fixtures (which
        live under the skipped ``fixtures/`` tree) and unit tests hand
        sources straight in; :meth:`lint_paths` reads them from disk.
        """
        result = LintResult()
        result.files_checked = len(items)
        parsed: dict[str, SourceFile | Finding] = {}

        def source_for(path: str, text: str) -> SourceFile | Finding:
            if path not in parsed:
                parsed[path] = self._parse(path, text)
            return parsed[path]

        raw_findings: list[Finding] = []
        disabled_tables: dict[str, dict[int, set[str]]] = {}

        # -- pass 2a: per-file rules (cache key: the file itself) -----
        for path, text in items:
            key = (
                LintCache.file_key(path, text, self._file_sig)
                if self.cache is not None
                else None
            )
            if (
                key is not None
                and self.cache is not None
                and key in self.cache.per_file
            ):
                entry = self.cache.per_file[key]
                self.cache.hits += 1
                raw_findings.extend(
                    _finding_from_dict(raw)  # type: ignore[arg-type]
                    for raw in entry["findings"]  # type: ignore[union-attr]
                )
                disabled_tables[path] = {
                    int(line): set(codes)  # type: ignore[arg-type]
                    for line, codes in entry["disabled"].items()  # type: ignore[union-attr]
                }
                continue
            if self.cache is not None:
                self.cache.misses += 1
            source = source_for(path, text)
            if isinstance(source, Finding):  # syntax error pseudo-finding
                file_findings = [source]
                disabled_tables[path] = {}
            else:
                file_findings = self._run_file_rules(source)
                disabled_tables[path] = source.disabled
            raw_findings.extend(file_findings)
            if key is not None and self.cache is not None:
                self.cache.per_file[key] = {
                    "findings": [_finding_to_dict(f) for f in file_findings],
                    "disabled": {
                        str(line): sorted(codes)
                        for line, codes in disabled_tables[path].items()
                    },
                }

        # -- pass 1 + 2b: the project model and project rules ---------
        if self.project_rules:
            project_key = (
                LintCache.project_key(items, self._project_sig)
                if self.cache is not None
                else None
            )
            if (
                project_key is not None
                and self.cache is not None
                and project_key in self.cache.project
            ):
                self.cache.hits += 1
                raw_findings.extend(
                    _finding_from_dict(raw)
                    for raw in self.cache.project[project_key]
                )
            else:
                if project_key is not None and self.cache is not None:
                    self.cache.misses += 1
                project_findings = self._run_project_rules(
                    [
                        source
                        for path, text in items
                        if isinstance(
                            source := source_for(path, text), SourceFile
                        )
                    ]
                )
                raw_findings.extend(project_findings)
                if project_key is not None and self.cache is not None:
                    self.cache.project[project_key] = [
                        _finding_to_dict(f) for f in project_findings
                    ]

        # -- suppression resolution -----------------------------------
        used: set[tuple[str, int, str]] = set()
        for finding in raw_findings:
            table = disabled_tables.get(finding.path, {})
            if finding.rule_id in table.get(finding.line, set()):
                used.add((finding.path, finding.line, finding.rule_id))
                result.suppressed.append(
                    Suppression(
                        path=finding.path,
                        line=finding.line,
                        rule_id=finding.rule_id,
                    )
                )
            else:
                result.findings.append(finding)

        # -- stale suppressions ---------------------------------------
        if self.report_stale:
            active = {cls.id for cls in self.rule_classes}
            for path, table in disabled_tables.items():
                parts = Path(path).parts
                for line, codes in table.items():
                    for code in sorted(codes):
                        known = code in RULES
                        if known and code not in active:
                            continue  # rule not in this run: can't judge
                        if (
                            known
                            and self.scoped
                            and not RULES[code].applies_to(parts)
                        ):
                            reason = "rule does not apply to this file"
                        elif not known:
                            reason = "unknown rule id"
                        else:
                            reason = "nothing is suppressed here"
                        if known and (path, line, code) in used:
                            continue
                        result.findings.append(
                            Finding(
                                path=path,
                                line=line,
                                col=1,
                                rule_id=STALE_RULE_ID,
                                message=(
                                    f"stale suppression of {code}: {reason}; "
                                    "remove the disable comment"
                                ),
                            )
                        )

        result.findings.sort()
        result.suppressed.sort(key=lambda s: (s.path, s.line, s.rule_id))
        return result

    # -- internals ----------------------------------------------------

    def _parse(self, path: str, text: str) -> SourceFile | Finding:
        try:
            return SourceFile.parse(path, text)
        except SyntaxError as error:
            return Finding(
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 0) + 1,
                rule_id="EM000",
                message=f"file does not parse: {error.msg}",
            )

    def _run_file_rules(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        parts = Path(source.path).parts
        for rule_class in self.file_rules:
            if self.scoped and not rule_class.applies_to(parts):
                continue
            instance = rule_class(source.path)
            instance.visit(source.tree)
            instance.finish(source.tree)
            findings.extend(instance.findings)
        return findings

    def _run_project_rules(
        self, sources: list[SourceFile]
    ) -> list[Finding]:
        from emaplint.project import ProjectModel

        model = ProjectModel(sources)
        findings: list[Finding] = []
        for rule_class in self.project_rules:
            instance = rule_class()
            assert isinstance(instance, ProjectRule)
            instance.check_project(model)
            for finding in instance.findings:
                if self.scoped and not rule_class.applies_to(
                    Path(finding.path).parts
                ):
                    continue
                findings.append(finding)
        return findings
