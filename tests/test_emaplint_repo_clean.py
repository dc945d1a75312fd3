"""The emaplint gate: the whole repository lints clean.

This is the test-suite twin of the CI job that runs
``python -m emaplint src tests benchmarks``: every rule, every
first-party tree, zero findings — and zero suppressions beyond the
explicit allowlist below, so ``# emaplint: disable=`` comments cannot
accumulate silently.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

from emaplint import LintEngine  # noqa: E402

#: Every tree emaplint must keep clean (the CI job lints the first
#: three; tools and examples ride along here for full coverage).
LINTED_TREES = ("src", "tests", "benchmarks", "tools", "examples")

#: The only suppressions the repository is allowed to carry, as
#: (path-relative-to-repo-root, rule id) pairs.  Adding one here is a
#: reviewed decision, not a drive-by comment.
SUPPRESSION_ALLOWLIST = {
    # The inline (non-offloaded) batched plane walk deliberately
    # blocks the loop: it is the as-fast-as-possible simulation path,
    # and ``GatewayConfig.offload_batches`` is the sanctioned escape.
    ("src/repro/gateway/gateway.py", "EM007"),
    # The sanitizer's own tests manufacture fire-and-forget tasks on
    # purpose — they are the leak under test.
    ("tests/test_obs_sanitize.py", "EM008"),
}

#: Trees where EM006 (silent broad excepts) may NEVER be suppressed,
#: not even via the allowlist: the fault-handling code is exactly
#: where a swallowed exception would hide a resilience bug.  The
#: gateway rides the same resilient-call state machine, so its except
#: clauses are held to the same bar.  The search engine joins the list
#: because a swallowed exception there would silently return a wrong
#: correlation set instead of failing loudly.
#: The kernel library, the edge kernels and the fleet planner join for
#: the same reason: a swallowed exception in backend selection or the
#: fused step would silently degrade to the slow fallback (or worse,
#: commit a partial megabatch) instead of failing loudly — the failure
#: modes the explicit ``KernelError`` / deferred-commit design exists
#: to surface.
EM006_NEVER_SUPPRESS = (
    "src/repro/faults/",
    "src/repro/cloud/client.py",
    "src/repro/cloud/search.py",
    "src/repro/kernels.py",
    "src/repro/edge/_kernels.py",
    "src/repro/edge/fleet.py",
    "src/repro/gateway/",
)


def _relative(path: str) -> str:
    return Path(path).resolve().relative_to(REPO_ROOT).as_posix()


def test_repository_lints_clean():
    result = LintEngine().lint_paths(
        [REPO_ROOT / tree for tree in LINTED_TREES]
    )
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.clean, f"emaplint findings:\n{rendered}"
    assert result.files_checked > 100  # the walk really saw the repo


def test_suppressions_are_allowlisted():
    result = LintEngine().lint_paths(
        [REPO_ROOT / tree for tree in LINTED_TREES]
    )
    used = {(_relative(s.path), s.rule_id) for s in result.suppressed}
    rogue = used - SUPPRESSION_ALLOWLIST
    assert not rogue, f"unreviewed emaplint suppressions: {sorted(rogue)}"
    stale = SUPPRESSION_ALLOWLIST - used
    assert not stale, f"allowlisted suppressions no longer used: {sorted(stale)}"


def test_fault_handling_code_never_suppresses_em006():
    """The resilient-call path and the fault injector catch exceptions
    for a living; a suppressed EM006 there would let a broad except
    silently swallow the very failures the subsystem must surface."""
    for path, rule_id in SUPPRESSION_ALLOWLIST:
        if rule_id != "EM006":
            continue
        for banned in EM006_NEVER_SUPPRESS:
            assert not path.startswith(banned), (
                f"EM006 may not be allowlisted under {banned}: {path}"
            )
    result = LintEngine().lint_paths([REPO_ROOT / "src"])
    rogue = [
        (_relative(s.path), s.rule_id)
        for s in result.suppressed
        if s.rule_id == "EM006"
        and any(_relative(s.path).startswith(p) for p in EM006_NEVER_SUPPRESS)
    ]
    assert not rogue, f"EM006 suppressed in fault-handling code: {rogue}"
