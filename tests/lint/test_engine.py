"""Engine, suppression, baseline, and CLI tests for ``repro.lint``."""

from __future__ import annotations

import json

import pytest

from repro.lint import Baseline, BaselineEntry, LintEngine, REGISTRY
from repro.lint.cli import main as lint_main
from repro.lint.engine import SYNTAX_RULE, iter_python_files
from repro.lint.findings import Finding
from repro.lint.suppressions import ALL_RULES, is_suppressed, parse_suppressions


class TestSuppressions:
    def test_single_rule(self):
        table = parse_suppressions("x = 1  # repro-lint: off[REP004]\n")
        assert table == {1: {"REP004"}}

    def test_multiple_rules(self):
        table = parse_suppressions("x = 1  # repro-lint: off[REP004, REP005]\n")
        assert table == {1: {"REP004", "REP005"}}

    def test_bare_off_suppresses_everything(self):
        table = parse_suppressions("x = 1  # repro-lint: off\n")
        assert table == {1: {ALL_RULES}}
        assert is_suppressed(table, 1, "REP001")
        assert is_suppressed(table, 1, "REP006")

    def test_unrelated_comment_is_not_a_suppression(self):
        assert parse_suppressions("x = 1  # repro-lint-expect: REP004\n") == {}

    def test_other_lines_unaffected(self):
        table = parse_suppressions("x = 1  # repro-lint: off[REP004]\ny = 2\n")
        assert not is_suppressed(table, 2, "REP004")


class TestEngine:
    def test_syntax_error_becomes_rep000(self):
        findings = LintEngine().check_source("def broken(:\n", "mod.py")
        assert len(findings) == 1
        assert findings[0].rule == SYNTAX_RULE

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError, match="REP999"):
            LintEngine(select=["REP999"])

    def test_registry_has_all_rules(self):
        assert set(REGISTRY) == {
            "REP001", "REP002", "REP003", "REP004",
            "REP005", "REP006", "REP007",
        }

    def test_findings_sorted_by_position(self):
        source = (
            "def f(m, q, c, xs=[]):\n"
            "    return m.true_cost(q, c)\n"
        )
        findings = LintEngine().check_source(source, "tuners/m.py")
        assert [f.rule for f in findings] == ["REP006", "REP001"]
        assert findings[0].line <= findings[1].line


class TestBaseline:
    def _finding(self, message="msg", path="src/m.py", rule="REP001"):
        return Finding(rule=rule, path=path, line=3, col=0, message=message)

    def test_split_partitions(self):
        accepted_f = self._finding("accepted")
        new_f = self._finding("brand new")
        baseline = Baseline(
            [
                BaselineEntry(path="src/m.py", rule="REP001", message="accepted"),
                BaselineEntry(path="src/m.py", rule="REP001", message="gone"),
            ]
        )
        new, accepted, stale = baseline.split([accepted_f, new_f])
        assert new == [new_f]
        assert accepted == [accepted_f]
        assert [entry.message for entry in stale] == ["gone"]

    def test_line_drift_does_not_stale(self):
        baseline = Baseline(
            [BaselineEntry(path="src/m.py", rule="REP001", message="msg", line=99)]
        )
        new, accepted, stale = baseline.split([self._finding()])
        assert not new and not stale and len(accepted) == 1

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([self._finding()]).save(path)
        loaded = Baseline.load(path)
        assert [entry.key for entry in loaded.entries] == [
            ("src/m.py", "REP001", "msg")
        ]


class TestCli:
    def _write_dirty(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("def f(xs=[]):\n    return xs\n", encoding="utf-8")
        return target

    def test_findings_exit_1(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        assert lint_main([str(target), "--no-baseline"]) == 1
        assert "REP006" in capsys.readouterr().out

    def test_clean_exit_0(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("def f(xs=None):\n    return xs\n", encoding="utf-8")
        assert lint_main([str(target), "--no-baseline"]) == 0

    def test_baseline_silences_and_exits_0(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(target), "--write-baseline", str(baseline)]) == 0
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_stale_baseline_reported_but_exit_0(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "path": "gone.py",
                            "rule": "REP001",
                            "message": "old",
                            "justification": "was fixed",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        assert "stale" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        assert lint_main([str(target), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "REP006"
        assert payload["baselined"] == []
        assert payload["stale_baseline"] == []

    def test_select_unknown_rule_exit_2(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        assert lint_main([str(target), "--select", "REP999"]) == 2

    def test_missing_path_exit_2(self, tmp_path):
        assert lint_main([str(tmp_path / "nope.py")]) == 2

    def test_no_paths_exit_2(self):
        assert lint_main([]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP006"):
            assert rule_id in out


class TestBaselineJustification:
    """The --justification flag and the placeholder-sentinel warning."""

    def _write_dirty(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("def f(xs=[]):\n    return xs\n", encoding="utf-8")
        return target

    def test_written_baseline_carries_the_justification(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert (
            lint_main(
                [
                    str(target),
                    "--write-baseline",
                    str(baseline),
                    "--justification",
                    "mutable default is load-bearing here",
                ]
            )
            == 0
        )
        assert "mutable default is load-bearing here" in capsys.readouterr().out
        entries = json.loads(baseline.read_text(encoding="utf-8"))["entries"]
        assert all(
            e["justification"] == "mutable default is load-bearing here"
            for e in entries
        )
        # A justified baseline stays warning-free on the next run.
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        assert "placeholder" not in capsys.readouterr().err

    def test_placeholder_entries_warn_until_replaced(self, tmp_path, capsys):
        from repro.lint.baseline import PLACEHOLDER_JUSTIFICATION

        target = self._write_dirty(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert lint_main([str(target), "--write-baseline", str(baseline)]) == 0
        entries = json.loads(baseline.read_text(encoding="utf-8"))["entries"]
        assert all(
            e["justification"] == PLACEHOLDER_JUSTIFICATION for e in entries
        )
        capsys.readouterr()
        # The findings stay silenced (exit 0) but the run nags on stderr.
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        assert "placeholder" in capsys.readouterr().err

    def test_justification_without_write_baseline_is_an_error(
        self, tmp_path, capsys
    ):
        target = self._write_dirty(tmp_path)
        assert lint_main([str(target), "--justification", "why"]) == 2
        assert "--write-baseline" in capsys.readouterr().err


class TestSuppressionEdgeCases:
    """Multi-rule comments, continuation lines, unknown-rule warnings."""

    def test_multiple_rules_one_comment_suppresses_both(self):
        source = (
            "def f(m, q, c, xs=[]):  # repro-lint: off[REP006, REP001]\n"
            "    return m.true_cost(q, c)  # repro-lint: off[REP001]\n"
        )
        assert LintEngine().check_source(source, "tuners/m.py") == []

    def test_continuation_line_suppression_covers_the_statement(self):
        source = (
            "def f(m, q, c):\n"
            "    return m.true_cost(\n"
            "        q, c,\n"
            "    )  # repro-lint: off[REP001]\n"
        )
        assert LintEngine().check_source(source, "tuners/m.py") == []

    def test_continuation_suppression_does_not_leak_past_statement(self):
        source = (
            "def f(m, q, c):\n"
            "    first = m.true_cost(\n"
            "        q, c,\n"
            "    )  # repro-lint: off[REP001]\n"
            "    return m.true_cost(q, c)\n"
        )
        findings = LintEngine().check_source(source, "tuners/m.py")
        assert [f.rule for f in findings] == ["REP001"]
        assert findings[0].line == 5

    def test_unknown_rule_suppression_warns(self):
        source = "x = 1  # repro-lint: off[REP04]\n"
        findings = LintEngine().check_source(source, "mod.py")
        assert [f.rule for f in findings] == ["REP008"]
        assert "REP04" in findings[0].message
        assert findings[0].line == 1

    def test_known_flow_rule_suppression_does_not_warn(self):
        source = "x = 1  # repro-lint: off[REP102]\n"
        assert LintEngine().check_source(source, "mod.py") == []

    def test_bare_off_does_not_warn(self):
        source = "x = 1  # repro-lint: off\n"
        assert LintEngine().check_source(source, "mod.py") == []

    def test_rep008_can_be_ignored(self):
        source = "x = 1  # repro-lint: off[REP04]\n"
        engine = LintEngine(ignore=["REP008"])
        assert engine.check_source(source, "mod.py") == []

    def test_rep008_is_itself_suppressible(self):
        source = "x = 1  # repro-lint: off[REP04, REP008]\n"
        assert LintEngine().check_source(source, "mod.py") == []


class TestIgnore:
    _SOURCE = "def f(m, q, c, xs=[]):\n    return m.true_cost(q, c)\n"

    def test_ignore_drops_a_rule(self):
        findings = LintEngine(ignore=["REP006"]).check_source(
            self._SOURCE, "tuners/m.py"
        )
        assert [f.rule for f in findings] == ["REP001"]

    def test_ignore_applies_after_select(self):
        engine = LintEngine(select=["REP001", "REP006"], ignore=["REP006"])
        findings = engine.check_source(self._SOURCE, "tuners/m.py")
        assert [f.rule for f in findings] == ["REP001"]

    def test_unknown_ignore_rejected(self):
        with pytest.raises(ValueError, match="REP999"):
            LintEngine(ignore=["REP999"])


class TestBaselineFormat:
    def test_save_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline(
            [BaselineEntry(path="src/m.py", rule="REP001", message="msg")]
        ).save(path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("}\n")
        entry_keys = list(json.loads(text)["entries"][0])
        assert entry_keys == sorted(entry_keys)


class TestIterPythonFiles:
    def _tree(self, tmp_path):
        (tmp_path / "pkg" / "sub").mkdir(parents=True)
        for name in ("pkg/a.py", "pkg/sub/b.py", "pkg/notes.txt", "top.py"):
            (tmp_path / name).write_text("x = 1\n", encoding="utf-8")
        return tmp_path

    def test_overlapping_arguments_list_each_file_once(self, tmp_path):
        root = self._tree(tmp_path)
        files = iter_python_files(
            [root, root / "pkg", root / "pkg" / "sub" / "b.py", root / "top.py"]
        )
        assert files == [
            root / "pkg" / "a.py", root / "pkg" / "sub" / "b.py", root / "top.py"
        ]

    def test_argument_order_does_not_change_the_list(self, tmp_path):
        root = self._tree(tmp_path)
        arguments = [root / "top.py", root / "pkg" / "sub", root / "pkg"]
        assert iter_python_files(arguments) == iter_python_files(arguments[::-1])
        assert iter_python_files([str(a) for a in arguments]) == iter_python_files(
            arguments
        )


class TestCliFlowSurface:
    def _write_dirty(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("def f(xs=[]):\n    return xs\n", encoding="utf-8")
        return target

    def _write_flow_project(self, tmp_path):
        project = tmp_path / "proj"
        (project / "tuners").mkdir(parents=True)
        (project / "tuners" / "search.py").write_text(
            "import random\n\n\n"
            "def pick(items):\n"
            "    gen = random.Random()\n"
            "    return gen.random()\n",
            encoding="utf-8",
        )
        return project

    def test_ignore_flag(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        assert lint_main(
            [str(target), "--no-baseline", "--ignore", "REP006"]
        ) == 0

    def test_unknown_ignore_exit_2(self, tmp_path):
        target = self._write_dirty(tmp_path)
        assert lint_main([str(target), "--ignore", "REP999"]) == 2

    @pytest.mark.parametrize(
        "flag",
        [["--jobs", "2"], ["--cache", "cache.json"], ["--no-cache"], ["--stats"]],
        ids=["jobs", "cache", "no-cache", "stats"],
    )
    def test_removed_speed_flags_are_usage_errors(self, tmp_path, capsys, flag):
        """The lint pass is one serial pass: a command line that still asks
        for a pool or a summary cache is refused, not silently obeyed."""
        target = self._write_dirty(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            lint_main([str(target), "--no-baseline", *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("flow", [[], ["--flow"]])
    def test_overlapping_paths_lint_each_file_once(self, tmp_path, capsys, flow):
        project = self._write_flow_project(tmp_path)
        dirty = project / "tuners" / "dirty.py"
        dirty.write_text("def f(xs=[]):\n    return xs\n", encoding="utf-8")
        args = ["--no-baseline", "--format", "json", *flow]
        assert lint_main([str(project), *args]) == 1
        union = capsys.readouterr().out
        overlapping = [str(project / "tuners"), str(project), str(dirty)]
        assert lint_main([*overlapping, *args]) == 1
        assert capsys.readouterr().out == union

    def test_flow_flag_reports_flow_findings(self, tmp_path, capsys):
        project = self._write_flow_project(tmp_path)
        assert lint_main([str(project), "--no-baseline", "--flow"]) == 1
        assert "REP102" in capsys.readouterr().out

    def test_selecting_flow_rule_implies_flow(self, tmp_path, capsys):
        project = self._write_flow_project(tmp_path)
        assert lint_main(
            [str(project), "--no-baseline", "--select", "REP102"]
        ) == 1
        assert "REP102" in capsys.readouterr().out

    def test_ignoring_every_flow_rule_skips_flow(self, tmp_path, capsys):
        project = self._write_flow_project(tmp_path)
        ignore = "REP101,REP102,REP103,REP104,REP105,REP106"
        assert lint_main(
            [str(project), "--no-baseline", "--flow", "--ignore", ignore]
        ) == 0

    def test_sarif_format(self, tmp_path, capsys):
        target = self._write_dirty(tmp_path)
        assert lint_main(
            [str(target), "--no-baseline", "--format", "sarif"]
        ) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "REP006"

    def test_list_rules_includes_flow(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP101" in out and "REP105" in out
        assert "whole-program" in out

    def test_exclude_drops_directory_findings(self, tmp_path, capsys):
        nested = tmp_path / "fixtures"
        nested.mkdir()
        (nested / "mod.py").write_text(
            "def f(xs=[]):\n    return xs\n", encoding="utf-8"
        )
        (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(tmp_path), "--no-baseline"]) == 1
        capsys.readouterr()
        assert lint_main(
            [str(tmp_path), "--no-baseline", "--exclude", "fixtures"]
        ) == 0
