"""``python -m repro.lint`` — run the budget-safety/determinism linter.

Usage:
    python -m repro.lint src/                 # per-file rules only
    python -m repro.lint src/ --flow          # + whole-program flow rules
    python -m repro.lint src/ --format sarif  # code-scanning upload payload
    python -m repro.lint src/ --select REP004,REP005 --ignore REP005
    python -m repro.lint src/ --write-baseline lint-baseline.json
    python -m repro.lint --list-rules

Exit codes: 0 — clean (every finding baselined); 1 — new findings;
2 — usage error. A ``lint-baseline.json`` in the working directory is
picked up automatically; pass ``--no-baseline`` to see everything.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.baseline import DEFAULT_BASELINE, Baseline
from repro.lint.engine import (
    FLOW_RULE_IDS,
    REGISTRY,
    UNKNOWN_SUPPRESSION_RULE,
    LintEngine,
)
from repro.lint.reporters import report_json, report_text

# Importing the rules module populates the registry.
from repro.lint import rules as _rules  # noqa: F401


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "Budget-safety & determinism static analysis "
            "(per-file REP001-REP007, whole-program REP101-REP106)"
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument("--format", default="text",
                        choices=("text", "json", "sarif"),
                        help="reporter (default text)")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--ignore", default=None, metavar="RULES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--exclude", default=None, metavar="SEGMENTS",
                        help="comma-separated directory names whose findings "
                             "are dropped (e.g. fixtures,fixtures_flow)")
    parser.add_argument("--flow", action="store_true",
                        help="also run the whole-program flow rules "
                             "(REP101-REP106)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline file of accepted findings "
                             f"(default: ./{DEFAULT_BASELINE} when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", default=None, metavar="PATH",
                        help="snapshot current findings into PATH and exit 0")
    parser.add_argument("--justification", default=None, metavar="TEXT",
                        help="one-line justification applied to every entry "
                             "--write-baseline snapshots (default: a "
                             "placeholder that normal runs warn about until "
                             "replaced)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")
    return parser


def _split_rules(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _partition_select(
    select: list[str] | None,
) -> tuple[list[str] | None, set[str] | None]:
    """Split ``--select`` into engine rule ids and flow rule ids.

    Returns ``(engine_select, flow_select)``; ``None`` means "all". Unknown
    ids raise ``ValueError``.
    """
    if select is None:
        return None, None
    engine_ids = set(REGISTRY) | {UNKNOWN_SUPPRESSION_RULE}
    flow_ids = set(FLOW_RULE_IDS)
    unknown = [r for r in select if r not in engine_ids | flow_ids]
    if unknown:
        raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
    return (
        [r for r in select if r in engine_ids],
        {r for r in select if r in flow_ids},
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        from repro.lint.flow.rules import FLOW_REGISTRY

        for rule_id in sorted(REGISTRY):
            rule = REGISTRY[rule_id]
            scope = ",".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule_id}  {rule.title}  [scope: {scope}]")
        for rule_id in sorted(FLOW_REGISTRY):
            print(f"{rule_id}  {FLOW_REGISTRY[rule_id].title}  [whole-program]")
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro.lint: error: no paths given", file=sys.stderr)
        return 2

    select = _split_rules(args.select)
    ignore = _split_rules(args.ignore)
    try:
        engine_select, flow_select = _partition_select(select)
        engine_ignore, flow_ignore = _partition_select(ignore)
        engine = LintEngine(select=engine_select, ignore=engine_ignore)
    except ValueError as error:
        print(f"repro.lint: error: {error}", file=sys.stderr)
        return 2
    if flow_select:
        # Selecting a flow rule implies running the flow analyzer.
        args.flow = True
    flow_run = set(FLOW_RULE_IDS) if flow_select is None else set(flow_select)
    if flow_ignore:
        flow_run -= flow_ignore

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(
            f"repro.lint: error: no such path: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    findings = engine.check_paths(args.paths)

    if args.flow and flow_run:
        from repro.lint.flow.rules import analyze_paths

        findings.extend(analyze_paths(args.paths, select=flow_run))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    excluded = _split_rules(args.exclude)
    if excluded:
        from pathlib import PurePosixPath

        segments = set(excluded)
        findings = [
            finding
            for finding in findings
            if not set(PurePosixPath(finding.path).parts[:-1]) & segments
        ]

    if args.write_baseline is not None:
        Baseline.from_findings(
            findings, justification=args.justification
        ).save(args.write_baseline)
        if args.justification is None:
            print(
                f"wrote {len(findings)} finding(s) to {args.write_baseline}; "
                "add a justification to each entry before checking it in"
            )
        else:
            print(
                f"wrote {len(findings)} finding(s) to {args.write_baseline} "
                f"(justification: {args.justification!r})"
            )
        return 0
    if args.justification is not None:
        print(
            "repro.lint: error: --justification requires --write-baseline",
            file=sys.stderr,
        )
        return 2

    baseline = Baseline()
    if not args.no_baseline:
        baseline_path = args.baseline
        if baseline_path is None and Path(DEFAULT_BASELINE).exists():
            baseline_path = DEFAULT_BASELINE
        if baseline_path is not None:
            if not Path(baseline_path).exists():
                print(
                    f"repro.lint: error: baseline {baseline_path!r} not found",
                    file=sys.stderr,
                )
                return 2
            baseline = Baseline.load(baseline_path)

    unjustified = baseline.unjustified()
    if unjustified:
        print(
            f"repro.lint: warning: {len(unjustified)} baseline entr"
            f"{'y' if len(unjustified) == 1 else 'ies'} still carr"
            f"{'ies' if len(unjustified) == 1 else 'y'} the placeholder "
            "justification — replace it before checking the baseline in:",
            file=sys.stderr,
        )
        for entry in unjustified:
            print(f"  {entry.path}: {entry.rule}", file=sys.stderr)

    new, accepted, stale = baseline.split(findings)
    if args.format == "sarif":
        from repro.lint.sarif import report_sarif as reporter
    elif args.format == "json":
        reporter = report_json
    else:
        reporter = report_text
    reporter(new, accepted, stale, sys.stdout)
    return 1 if new else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
