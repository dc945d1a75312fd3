"""Per-rule fixture tests: each rule fires on its minimal bad example
and stays silent on the good twin.

Single-file rules use an ``emNNN_{bad,good}.py`` fixture pair; rules
that need cross-file context (EM010's registry-vs-emitter split,
EM013's import graph) use an ``emNNN_{bad,good}/`` fixture *directory*
whose files, subdirectories included, are linted together as one
project.
"""

from pathlib import Path

import pytest

from emaplint.engine import LintEngine
from emaplint.registry import RULES, all_rules

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> number of findings its bad fixture must produce.
EXPECTED_BAD_FINDINGS = {
    "EM001": 4,
    "EM004": 2,
    "EM005": 5,
    "EM006": 2,
    "EM007": 3,
    "EM008": 3,
    "EM009": 3,
    "EM010": 4,
    "EM012": 2,
    "EM013": 3,
}


def _fixture_target(rule_id: str, twin: str) -> Path:
    directory = FIXTURES / f"{rule_id.lower()}_{twin}"
    if directory.is_dir():
        return directory
    return FIXTURES / f"{rule_id.lower()}_{twin}.py"


def _lint_fixture(rule_id: str, twin: str):
    target = _fixture_target(rule_id, twin)
    engine = LintEngine(select=[rule_id], scoped=False)
    if target.is_dir():
        items = [
            (str(path), path.read_text())
            for path in sorted(target.rglob("*.py"))
        ]
        return engine.lint_sources(items)
    return engine.lint_source(target.read_text(), path=str(target))


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD_FINDINGS))
def test_rule_fires_on_bad_fixture(rule_id):
    result = _lint_fixture(rule_id, "bad")
    assert len(result.findings) == EXPECTED_BAD_FINDINGS[rule_id], [
        finding.render() for finding in result.findings
    ]
    assert {finding.rule_id for finding in result.findings} == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(EXPECTED_BAD_FINDINGS))
def test_rule_silent_on_good_fixture(rule_id):
    result = _lint_fixture(rule_id, "good")
    assert result.findings == [], [
        finding.render() for finding in result.findings
    ]


def test_every_registered_rule_has_fixture_coverage():
    registered = {cls.id for cls in all_rules()}
    assert registered == set(EXPECTED_BAD_FINDINGS)
    for rule_id in registered:
        for twin in ("bad", "good"):
            target = _fixture_target(rule_id, twin)
            assert target.is_dir() or target.is_file(), target


def test_rule_metadata_complete():
    for rule_class in all_rules():
        assert rule_class.id in RULES
        assert rule_class.name and rule_class.name != "abstract-rule"
        assert rule_class.rationale


def test_em004_scoped_out_of_tests_and_benchmarks():
    source = "x = 1.0\nflag = x == 0.0\n"
    scoped = LintEngine(select=["EM004"])  # default scoping on
    assert scoped.lint_source(source, path="tests/test_thing.py").findings == []
    assert scoped.lint_source(source, path="benchmarks/bench.py").findings == []
    assert len(scoped.lint_source(source, path="src/repro/x.py").findings) == 1


def test_em005_scoped_to_hot_paths():
    source = "def search(frame):\n    return frame\n"
    scoped = LintEngine(select=["EM005"])
    hot = scoped.lint_source(source, path="src/repro/cloud/search.py")
    assert len(hot.findings) == 2  # unannotated param + missing return
    cold = scoped.lint_source(source, path="src/repro/signals/filters.py")
    assert cold.findings == []


def test_em007_scoped_findings_keep_out_of_scope_context():
    """A scoped project rule still *uses* out-of-scope files as context.

    The async caller lives outside ``src/repro`` here, so no finding is
    reported there — but the blocking callee inside ``src/repro`` is
    still discovered through that caller.
    """
    callee = "import time\n\ndef load():\n    time.sleep(1)\n"
    caller = (
        "from repro.work import load\n\n"
        "async def handler():\n    return load()\n"
    )
    engine = LintEngine(select=["EM007"])  # scoping on
    result = engine.lint_sources(
        [
            ("src/repro/work.py", callee),
            ("benchmarks/driver.py", caller),
        ]
    )
    assert [f.path for f in result.findings] == ["src/repro/work.py"]
    assert "time.sleep" in result.findings[0].message


def test_em007_executor_handoff_not_an_edge():
    source = (
        "import asyncio\nimport time\n\n"
        "def load():\n    time.sleep(1)\n\n"
        "async def handler():\n"
        "    loop = asyncio.get_running_loop()\n"
        "    await loop.run_in_executor(None, load)\n"
    )
    engine = LintEngine(select=["EM007"], scoped=False)
    assert engine.lint_source(source, path="mod.py").findings == []


def test_em010_silent_without_registry_module():
    """No names.py in the linted set: nothing to pin against."""
    source = (
        "from repro import obs\n\n"
        "def f():\n    obs.metrics().inc('anything.at.all')\n"
    )
    engine = LintEngine(select=["EM010"], scoped=False)
    assert engine.lint_source(source, path="app.py").findings == []


def test_em013_tests_are_not_entry_points():
    """A module that only a test imports is still unreached, and with
    scoping on only library modules are reported."""
    engine = LintEngine(select=["EM013"])  # scoping on
    result = engine.lint_sources(
        [
            ("src/repro/cli.py", "from repro.work import run\n"),
            ("src/repro/work.py", "def run():\n    return 1\n"),
            ("src/repro/extra.py", "def unused():\n    return 2\n"),
            ("tests/test_extra.py", "from repro.extra import unused\n"),
        ]
    )
    assert [f.path for f in result.findings] == ["src/repro/extra.py"]
    assert "repro.extra" in result.findings[0].message


def test_em013_silent_without_entry_points():
    """Linting a subtree with no entry point in it flags nothing."""
    engine = LintEngine(select=["EM013"], scoped=False)
    source = "def helper():\n    return 1\n"
    assert engine.lint_source(source, path="src/repro/lonely.py").findings == []
