"""Backend registry and factory, mirroring :func:`repro.budget.policy.build_policy`.

Consumers never construct a concrete backend class: they hold a
:class:`BackendSpec` — a small frozen dataclass of primitives that pickles
across the experiment process pool — and exchange it for a live
:class:`~repro.backend.base.CostBackend` via :func:`build_backend`. The
session layer (:meth:`repro.tuners.base.TuningSession`), the eval grid, the
parallel workers, and the CLI all resolve backends through here, so
registering a new engine (say a real-DBMS EXPLAIN backend) is one entry in
:data:`BACKENDS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.backend.analytic import AnalyticBackend
from repro.backend.noisy import NoisyBackend
from repro.backend.postgres import PostgresBackend
from repro.backend.replay import ReplayBackend
from repro.config import _BACKEND_NAMES, ReproConfig
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


@dataclass(frozen=True)
class BackendSpec:
    """A picklable description of a cost backend.

    Everything a worker process needs to rebuild the backend: plain
    primitives, no live objects. Equal specs build behaviourally identical
    backends (the noisy perturbation stream is keyed on ``noise_seed``, not
    on object identity), which is what makes parallel grid cells
    reproducible.

    Attributes:
        name: Registered backend name (see :data:`BACKEND_NAMES`).
        trace_path: The what-if cache shard the replay backend serves a
            recorded session from (required by replay, ignored by the
            others).
        noise: Noise level σ for the noisy backend.
        noise_seed: Perturbation-stream seed for the noisy backend.
        pg_dsn: Connection string for the postgres backend. ``None`` defers
            to ``REPRO_PG_DSN`` at build time, so a spec pickled on the
            driver can resolve the DSN in the worker's environment.
        pg_schema: Optional schema (``search_path``) for the postgres
            backend's tables.
        whatif_cache: Persistent cross-session what-if cache directory
            (``None`` disables; never affects results).
    """

    name: str = "analytic"
    trace_path: str | None = None
    noise: float = 0.1
    noise_seed: int = 0
    pg_dsn: str | None = None
    pg_schema: str | None = None
    whatif_cache: str | None = None

    def __post_init__(self) -> None:
        if self.name not in BACKENDS:
            raise TuningError(
                f"unknown backend {self.name!r}; expected one of {BACKEND_NAMES}"
            )
        if self.name == "replay" and not self.trace_path:
            raise TuningError(
                f"backend {self.name!r} requires a trace path "
                "(--backend-trace / REPRO_BACKEND_TRACE)"
            )
        if self.noise < 0:
            raise TuningError(f"noise must be non-negative, got {self.noise}")

    @classmethod
    def from_config(cls, config: ReproConfig) -> "BackendSpec":
        """The spec selected by a config's ``backend*``/``noise*`` knobs."""
        return cls(
            name=config.backend,
            trace_path=config.backend_trace,
            noise=config.noise,
            noise_seed=config.noise_seed,
            pg_dsn=config.pg_dsn,
            pg_schema=config.pg_schema,
            whatif_cache=config.whatif_cache,
        )


def resolve_spec(
    spec: "BackendSpec | str | None", config: ReproConfig | None = None
) -> BackendSpec:
    """Normalise a spec/name/None selection into a :class:`BackendSpec`.

    ``None`` defers entirely to the config (itself defaulting to
    :meth:`~repro.config.ReproConfig.from_env`, so ``REPRO_BACKEND`` et al.
    apply); a bare name keeps the config's trace/noise knobs.
    """
    if isinstance(spec, BackendSpec):
        return spec
    base = config or ReproConfig.from_env()
    if spec is None:
        return BackendSpec.from_config(base)
    return BackendSpec(
        name=spec,
        trace_path=base.backend_trace,
        noise=base.noise,
        noise_seed=base.noise_seed,
        pg_dsn=base.pg_dsn,
        pg_schema=base.pg_schema,
        whatif_cache=base.whatif_cache,
    )


def build_backend(
    spec: "BackendSpec | str | None",
    workload: "Workload",
    *,
    budget: int | None = None,
    policy: "BudgetPolicy | None" = None,
    config: ReproConfig | None = None,
    events: "EventLog | None" = None,
    cost_model: "CostModel | None" = None,
    normalize_cache: bool | None = None,
    **backend_kwargs,
) -> "CostBackend":
    """Build the cost backend selected by ``spec`` for ``workload``.

    The keyword surface mirrors the
    :class:`~repro.optimizer.whatif.WhatIfOptimizer` constructor (budget
    *or* policy, engine knobs, event stream); backend-specific parameters
    (shard path, noise, DSN) come from the spec. Extra keyword arguments are
    forwarded to the backend constructor verbatim — this is how tests
    inject a fake ``connector`` into the postgres backend.
    """
    resolved = resolve_spec(spec, config)
    kwargs: dict = dict(
        budget=budget,
        cost_model=cost_model,
        normalize_cache=normalize_cache,
        whatif_cache=resolved.whatif_cache,
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
