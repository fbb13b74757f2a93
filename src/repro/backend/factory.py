"""Backend registry and factory, mirroring :func:`repro.budget.policy.build_policy`.

Consumers never construct a concrete backend class: they hold a
:class:`~repro.config.BackendSpec` — a small frozen dataclass of primitives
that pickles across the experiment process pool, declared in
:mod:`repro.config` and re-exported here — and exchange it for a live
:class:`~repro.backend.base.CostBackend` via :func:`build_backend`. The
session layer (:meth:`repro.tuners.base.TuningSession`), the eval grid, the
parallel workers, and the CLI all resolve backends through here, so
registering a new engine (say a real-DBMS EXPLAIN backend) is one entry in
:data:`BACKENDS`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.backend.analytic import AnalyticBackend
from repro.backend.noisy import NoisyBackend
from repro.backend.postgres import PostgresBackend
from repro.backend.replay import ReplayBackend
from repro.config import _BACKEND_NAMES, BackendSpec, ReproConfig
from repro.exceptions import TuningError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backend.base import CostBackend
    from repro.budget.events import EventLog
    from repro.budget.policy import BudgetPolicy
    from repro.optimizer.cost_model import CostModel
    from repro.workload.query import Workload

#: Registered backend classes by name.
BACKENDS: dict[str, type[AnalyticBackend]] = {
    AnalyticBackend.name: AnalyticBackend,
    NoisyBackend.name: NoisyBackend,
    ReplayBackend.name: ReplayBackend,
    PostgresBackend.name: PostgresBackend,
}

#: Backend names accepted by ``--backend`` and ``REPRO_BACKEND``.
BACKEND_NAMES: tuple[str, ...] = tuple(BACKENDS)

assert BACKEND_NAMES == _BACKEND_NAMES, "config.py name list drifted from registry"


def resolve_spec(
    spec: "BackendSpec | str | None", config: ReproConfig | None = None
) -> BackendSpec:
    """Normalise a spec/name/None selection into a :class:`BackendSpec`.

    A spec is returned as is; ``None`` is the config's own spec, and a bare
    name replaces the config spec's name, keeping its other settings. The
    config defaults to :meth:`~repro.config.ReproConfig.from_env`, so
    ``REPRO_BACKEND`` et al. apply.

    Raises:
        TuningError: When the selection is replay without a trace path.
            Checked here rather than by the spec, because the environment
            may select replay and a flag supply the trace; the grid runner
            and :func:`build_backend` both resolve through here, so a grid
            fails before it starts a worker.
    """
    if isinstance(spec, BackendSpec):
        resolved = spec
    else:
        base = (config or ReproConfig.from_env()).backend
        resolved = base if spec is None else replace(base, name=spec)
    if resolved.name == "replay" and not resolved.trace_path:
        raise TuningError(
            "backend 'replay' requires a trace path "
            "(--backend-trace / REPRO_BACKEND_TRACE)"
        )
    return resolved


def build_backend(
    spec: "BackendSpec | str | None",
    workload: "Workload",
    *,
    budget: int | None = None,
    policy: "BudgetPolicy | None" = None,
    config: ReproConfig | None = None,
    events: "EventLog | None" = None,
    cost_model: "CostModel | None" = None,
    **backend_kwargs,
) -> "CostBackend":
    """Build the cost backend selected by ``spec`` for ``workload``.

    The keyword surface mirrors the
    :class:`~repro.optimizer.whatif.WhatIfOptimizer` constructor (budget
    *or* policy, engine knobs, event stream); backend-specific parameters
    (shard path, noise, DSN) come from the spec, and the persistent cache
    from ``config``. Extra keyword arguments are forwarded to the backend
    constructor verbatim — this is how tests inject a fake ``connector``
    into the postgres backend.
    """
    resolved = resolve_spec(spec, config)
    kwargs: dict = dict(
        budget=budget,
        cost_model=cost_model,
        config=config,
        policy=policy,
        events=events,
    )
    if resolved.name == "replay":
        kwargs["trace_path"] = resolved.trace_path
    elif resolved.name == "noisy":
        kwargs["noise"] = resolved.noise
        kwargs["noise_seed"] = resolved.noise_seed
    elif resolved.name == "postgres":
        kwargs["pg_dsn"] = resolved.pg_dsn
        kwargs["pg_schema"] = resolved.pg_schema
    kwargs.update(backend_kwargs)
    return BACKENDS[resolved.name](workload, **kwargs)
