"""The ``repro.lint`` rule engine: visitor framework and rule registry.

Rules are :class:`ast.NodeVisitor` subclasses registered with
:func:`register`. The engine parses each file once, instantiates every
selected rule whose path scope matches, runs it over the tree, and filters
the collected findings through the per-line suppression table
(:mod:`repro.lint.suppressions`).

Path scoping uses directory segments, not package imports, so the same
rules run unchanged over ``src/repro/...`` and over the test fixture tree
(``tests/lint/fixtures/tuners/...`` exercises the ``tuners``-scoped rules).
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePosixPath
from typing import ClassVar, Iterable

from repro.lint.findings import Finding
from repro.lint.suppressions import ALL_RULES, is_suppressed, parse_suppressions

#: Rule id reserved for files the engine cannot parse.
SYNTAX_RULE = "REP000"

#: Rule id for suppression comments that name a rule nobody registered —
#: a typo'd rule id in a suppression must warn, not silently pass.
UNKNOWN_SUPPRESSION_RULE = "REP008"

#: The whole-program flow rules (implemented in :mod:`repro.lint.flow`);
#: listed here so suppressions naming them are recognized as known.
FLOW_RULE_IDS = ("REP101", "REP102", "REP103", "REP104", "REP105", "REP106")


def known_rule_ids() -> frozenset[str]:
    """Every rule id a suppression comment may legitimately name."""
    return frozenset(REGISTRY) | frozenset(FLOW_RULE_IDS) | {
        SYNTAX_RULE,
        UNKNOWN_SUPPRESSION_RULE,
    }


class LintContext:
    """Per-file state shared by every rule run over one module."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.suppressions = parse_suppressions(source)
        self.segments = frozenset(PurePosixPath(path).parts[:-1])


class Rule(ast.NodeVisitor):
    """Base class for lint rules.

    Class attributes:
        rule_id: Stable identifier (``"REP001"`` ... ).
        title: One-line summary used by ``--list-rules`` and docs.
        scope: Only run on files under a directory named like one of these
            segments (``None`` = every file).
        exempt: Never run on files under a directory named like one of
            these segments (the rule's allowlist).
    """

    rule_id: ClassVar[str] = "REP???"
    title: ClassVar[str] = ""
    scope: ClassVar[tuple[str, ...] | None] = None
    exempt: ClassVar[tuple[str, ...]] = ()

    def __init__(self, ctx: LintContext):
        self.ctx = ctx
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, ctx: LintContext) -> bool:
        """Whether this rule's path scope matches ``ctx``."""
        if any(segment in ctx.segments for segment in cls.exempt):
            return False
        if cls.scope is None:
            return True
        return any(segment in ctx.segments for segment in cls.scope)

    def report(self, node: ast.AST, message: str) -> None:
        """Record one violation anchored at ``node``."""
        self.findings.append(
            Finding(
                rule=self.rule_id,
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def run(self) -> list[Finding]:
        """Execute the rule over the module tree and return its findings."""
        self.visit(self.ctx.tree)
        return self.findings


#: The global rule registry, keyed by rule id.
REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to :data:`REGISTRY`."""
    rule_id = rule_cls.rule_id
    if rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    REGISTRY[rule_id] = rule_cls
    return rule_cls


class LintEngine:
    """Runs a set of rules over files and directories.

    Args:
        select: Rule ids to run (default: every registered rule).
        ignore: Rule ids to skip — the complement of ``select``; applied
            after it, so ``select={A, B}, ignore={B}`` runs only A.
    """

    def __init__(
        self,
        select: Iterable[str] | None = None,
        ignore: Iterable[str] | None = None,
    ):
        selectable = set(REGISTRY) | {UNKNOWN_SUPPRESSION_RULE}
        if select is None:
            chosen = set(REGISTRY)
            self._warn_unknown_suppressions = True
        else:
            unknown = [rule for rule in select if rule not in selectable]
            if unknown:
                raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
            chosen = set(select) & set(REGISTRY)
            self._warn_unknown_suppressions = UNKNOWN_SUPPRESSION_RULE in set(select)
        if ignore is not None:
            unknown = [rule for rule in ignore if rule not in selectable]
            if unknown:
                raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
            chosen -= set(ignore)
            if UNKNOWN_SUPPRESSION_RULE in set(ignore):
                self._warn_unknown_suppressions = False
        self._rules = [REGISTRY[key] for key in sorted(chosen)]

    @property
    def rules(self) -> list[type[Rule]]:
        return list(self._rules)

    def check_source(self, source: str, path: str) -> list[Finding]:
        """Lint one module given as text; ``path`` drives rule scoping."""
        posix = PurePosixPath(path).as_posix()
        try:
            tree = ast.parse(source, filename=posix)
        except SyntaxError as error:
            return [
                Finding(
                    rule=SYNTAX_RULE,
                    path=posix,
                    line=error.lineno or 1,
                    col=(error.offset or 1) - 1,
                    message=f"syntax error: {error.msg}",
                )
            ]
        ctx = LintContext(posix, source, tree)
        findings: list[Finding] = []
        for rule_cls in self._rules:
            if not rule_cls.applies_to(ctx):
                continue
            findings.extend(rule_cls(ctx).run())
        findings = [
            finding
            for finding in findings
            if not is_suppressed(ctx.suppressions, finding.line, finding.rule)
        ]
        if self._warn_unknown_suppressions:
            findings.extend(self._unknown_suppressions(ctx))
        findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return findings

    @staticmethod
    def _unknown_suppressions(ctx: LintContext) -> list[Finding]:
        """REP008 warnings for suppressions naming unregistered rules."""
        from repro.lint.suppressions import parse_raw_suppressions

        known = known_rule_ids()
        findings: list[Finding] = []
        raw_table = parse_raw_suppressions(ctx.source)
        for line in sorted(raw_table):
            if is_suppressed(
                ctx.suppressions, line, UNKNOWN_SUPPRESSION_RULE
            ):
                continue  # the warning itself is suppressible
            for rule in sorted(raw_table[line] - known - {ALL_RULES}):
                findings.append(
                    Finding(
                        rule=UNKNOWN_SUPPRESSION_RULE,
                        path=ctx.path,
                        line=line,
                        col=0,
                        message=(
                            f"unknown-suppression: `# repro-lint: off[{rule}]` "
                            "names a rule that does not exist; the suppression "
                            "has no effect (typo?)"
                        ),
                    )
                )
        return findings

    def check_file(self, path) -> list[Finding]:
        """Lint one file on disk."""
        file_path = Path(path)
        source = file_path.read_text(encoding="utf-8")
        return self.check_source(source, file_path.as_posix())

    def check_paths(self, paths: Iterable) -> list[Finding]:
        """Lint files and directory trees, each file once, in the sorted
        order of :func:`iter_python_files` so output (and baselines) are
        stable."""
        findings: list[Finding] = []
        for file_path in iter_python_files(paths):
            findings.extend(self.check_file(file_path))
        return findings


def iter_python_files(paths: Iterable) -> list[Path]:
    """Expand files and directory trees into one sorted ``*.py`` list that
    names each file once, however the arguments overlap."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        files.update(path.rglob("*.py") if path.is_dir() else (path,))
    return sorted(files)
