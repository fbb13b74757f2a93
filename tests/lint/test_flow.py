"""Fixture-driven tests for the whole-program flow rules REP101–REP106.

The mini project under ``fixtures_flow/`` marks every line it expects a
flow finding on with a trailing ``# flow-expect: REPxxx`` comment
(repeat a rule id for multiple findings on one line). Every *unmarked*
line doubles as a false-positive-avoidance assertion, because the harness
compares the exact multiset of ``(path, line, rule)`` findings.

The fixture tree is copied to a temp directory before analysis: its real
location lives under ``tests/lint/``, and the flow rules deliberately
never report into a ``lint`` path segment.
"""

from __future__ import annotations

import re
import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro.lint.flow import FLOW_REGISTRY, analyze_paths, build_index
from repro.lint.flow.index import module_name

FIXTURES = Path(__file__).parent / "fixtures_flow"

_EXPECT_RE = re.compile(r"#\s*flow-expect:\s*(?P<rules>[A-Z0-9_,\s]+)")


def _copy_fixtures(root: Path) -> Path:
    target = root / "flowproj"
    shutil.copytree(FIXTURES, target)
    return target


def _expected(project: Path) -> Counter:
    expected: Counter = Counter()
    for path in sorted(project.rglob("*.py")):
        rel = path.relative_to(project).as_posix()
        for lineno, text in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            match = _EXPECT_RE.search(text)
            if match is None:
                continue
            for rule in match.group("rules").split(","):
                if rule.strip():
                    expected[(rel, lineno, rule.strip())] += 1
    assert expected, f"no flow expectations found under {project}"
    return expected


@pytest.fixture(scope="module")
def flow_project(tmp_path_factory) -> tuple[Path, list]:
    project = _copy_fixtures(tmp_path_factory.mktemp("flow"))
    return project, analyze_paths([project])


class TestFixtureExpectations:
    def test_findings_match_markers_exactly(self, flow_project):
        project, findings = flow_project
        actual: Counter = Counter()
        for finding in findings:
            rel = Path(finding.path).relative_to(project).as_posix()
            actual[(rel, finding.line, finding.rule)] += 1
        expected = _expected(project)
        missing = expected - actual
        unexpected = actual - expected
        assert not missing, f"expected findings never reported: {dict(missing)}"
        assert not unexpected, f"unexpected findings: {dict(unexpected)}"

    def test_every_flow_rule_has_a_true_positive(self, flow_project):
        _, findings = flow_project
        assert {f.rule for f in findings} == set(FLOW_REGISTRY)

    def test_suppression_silences_flow_finding(self, flow_project):
        project, findings = flow_project
        source = (project / "tuners" / "search.py").read_text(encoding="utf-8")
        suppressed_line = next(
            lineno
            for lineno, text in enumerate(source.splitlines(), start=1)
            if "repro-lint: off[REP102]" in text
        )
        hits = [
            f
            for f in findings
            if f.path.endswith("tuners/search.py") and f.line == suppressed_line
        ]
        assert hits == []

    def test_messages_carry_call_chains(self, flow_project):
        _, findings = flow_project
        deep = [
            f
            for f in findings
            if f.rule == "REP101" and "deep_price" in f.message
        ]
        assert deep, "two-hop REP101 finding missing"
        assert "->" in deep[0].message  # the path is spelled out


class TestSelect:
    def test_select_restricts_rules(self, tmp_path):
        project = _copy_fixtures(tmp_path)
        findings = analyze_paths([project], select={"REP104"})
        assert findings
        assert {f.rule for f in findings} == {"REP104"}


class TestSummaries:
    def test_syntax_error_file_is_tolerated(self, tmp_path):
        project = _copy_fixtures(tmp_path)
        clean = analyze_paths([project])
        (project / "broken.py").write_text("def broken(:\n", encoding="utf-8")
        # The rest of the project still reports, exactly as before.
        assert clean and analyze_paths([project]) == clean

    def test_edit_changes_findings_on_the_next_run(self, tmp_path):
        project = _copy_fixtures(tmp_path)
        before = analyze_paths([project])
        rng = project / "helpers" / "rng.py"
        fixed = rng.read_text(encoding="utf-8").replace(
            "def make_global_gen():\n    return random.Random()",
            "def make_global_gen(seed=0):\n    return random.Random(seed)",
        )
        rng.write_text(fixed, encoding="utf-8")
        after = analyze_paths([project])

        def laundered(findings):
            return {
                (f.path, f.line)
                for f in findings
                if f.rule == "REP102" and "make_global_gen" in f.message
            }

        assert laundered(before)
        assert laundered(after) == set()

    def test_build_index_resolves_cross_module_imports(self, tmp_path):
        project = _copy_fixtures(tmp_path)
        paths = [
            (p.as_posix(), module_name(p)) for p in sorted(project.rglob("*.py"))
        ]
        index = build_index(paths)
        summary = index.summaries[
            (project / "tuners" / "search.py").as_posix()
        ]
        targets = index.resolve_call(summary, "sneaky_price")
        assert targets == ("helpers.pricing:sneaky_price",)
