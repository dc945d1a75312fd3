"""emaplint: EMAP's project-specific static-analysis pass.

The repository's correctness story rests on invariants no generic
linter knows about: compiled search and tracking paths bit-identical to
their scalar references, deterministic seeded EEG synthesis, and an
async serving gateway that never blocks its event loop or leaks a
task.  Each
:class:`~emaplint.registry.Rule` encodes one such invariant as an AST
check; the :class:`~emaplint.engine.LintEngine` runs every registered
rule over a file set in a single parse per file.

Usage::

    python -m emaplint src tests benchmarks
    python -m emaplint --format=json src
    python -m emaplint --list-rules

Findings can be suppressed per line with a trailing
``# emaplint: disable=EM004`` comment (or ``disable-next-line=`` on the
line above); the test suite holds the allowlist of accepted
suppressions, so new ones are a reviewed decision rather than a quiet
opt-out.
"""

from __future__ import annotations

from emaplint.engine import (
    STALE_RULE_ID,
    LintCache,
    LintEngine,
    LintResult,
    SourceFile,
)
from emaplint.registry import (
    RULES,
    Finding,
    ProjectRule,
    Rule,
    all_rules,
    rule,
)

__version__ = "1.0.0"

__all__ = [
    "Finding",
    "LintCache",
    "LintEngine",
    "LintResult",
    "ProjectRule",
    "RULES",
    "Rule",
    "STALE_RULE_ID",
    "SourceFile",
    "all_rules",
    "rule",
    "__version__",
]
