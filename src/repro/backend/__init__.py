"""Pluggable cost backends: the engine layer behind every what-if call.

The :class:`CostBackend` protocol defines the contract; the registry in
:mod:`repro.backend.factory` maps names to engines:

========== ==================================================================
name       engine
========== ==================================================================
analytic   the simulated what-if optimizer (default, bit-identical baseline)
noisy      analytic × seeded multiplicative noise (robustness studies)
replay     a recorded session served from its what-if cache shard — zero
           cost-model invocations
postgres   live Postgres planner over HypoPG hypothetical indexes
========== ==================================================================

There is one cost store, the persistent what-if cache
(:mod:`repro.backend.cache`): a session run with ``whatif_cache`` on any
backend records every fresh pricing in its shard file, and that file is
what the ``replay`` backend serves.

Resolve backends through :func:`build_backend` (or carry a picklable
:class:`BackendSpec` across process boundaries); constructing
:class:`~repro.optimizer.whatif.WhatIfOptimizer` directly outside this
package and :mod:`repro.optimizer` is flagged by lint rule REP007.
"""

from repro.backend.analytic import AnalyticBackend
from repro.backend.base import CostBackend
from repro.backend.factory import (
    BACKEND_NAMES,
    BACKENDS,
    BackendSpec,
    build_backend,
    resolve_spec,
)
from repro.backend.noisy import NoisyBackend
from repro.backend.postgres import PostgresBackend
from repro.backend.replay import ReplayBackend

__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "AnalyticBackend",
    "BackendSpec",
    "CostBackend",
    "NoisyBackend",
    "PostgresBackend",
    "ReplayBackend",
    "build_backend",
    "resolve_spec",
]
