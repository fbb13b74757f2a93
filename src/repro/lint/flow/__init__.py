"""Whole-program flow analysis for ``repro.lint`` (rules REP101–REP106).

The per-file rules of :mod:`repro.lint.rules` see one module at a time, so
an invariant violation that spans a call chain — a helper two hops from a
tuner that forwards to ``CostModel.cost``, an unseeded RNG laundered
through a factory, an unpicklable payload smuggled into a ``CellSpec`` —
escapes them. This package closes that gap in three layers:

* :mod:`repro.lint.flow.summary` — the per-file extraction: imports,
  symbols, raw call references, cost-path sinks, RNG sources, exception
  handlers, spec construction sites. A summary is a pure function of the
  file's text.
* :mod:`repro.lint.flow.index` — the whole-program link step: module map,
  import resolution, symbol table and call graph over the summaries.
* :mod:`repro.lint.flow.rules` — the interprocedural rules REP101–REP106
  run over the :class:`~repro.lint.flow.index.ProjectIndex`.

:func:`analyze_paths` is the one-call entry point used by the CLI: one
serial pass that summarizes each file once, links the summaries and runs
the rules.
"""

from repro.lint.flow.index import ProjectIndex, build_index
from repro.lint.flow.rules import FLOW_REGISTRY, analyze_paths

__all__ = [
    "FLOW_REGISTRY",
    "ProjectIndex",
    "analyze_paths",
    "build_index",
]
