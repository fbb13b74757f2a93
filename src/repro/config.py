"""Tuning constraints and algorithm knobs.

The paper distinguishes two kinds of limits (Section 1):

* the *budget constraint* ``B`` — how many what-if optimizer calls the
  enumeration step may issue while searching; and
* *tuning constraints* ``Γ`` imposed on the outcome — the cardinality
  constraint ``K`` (maximum number of recommended indexes) and, optionally,
  a storage constraint (maximum total size of the recommended indexes).

:class:`TuningConstraints` captures ``Γ``; the budget is passed separately to
each tuner because it parameterises the search, not the result.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.exceptions import ConstraintError


#: Budget-policy names accepted by :attr:`ReproConfig.budget_policy`,
#: :func:`repro.budget.policy.build_policy` and the CLI.
POLICY_NAMES = ("fcfs", "wii", "esc", "esc+wii")

#: Cost-backend names accepted by :attr:`BackendSpec.name`. Mirrors
#: :data:`repro.backend.factory.BACKEND_NAMES` (kept literal here so the
#: config layer never imports the backend package — the backend package
#: imports this module).
_BACKEND_NAMES = ("analytic", "noisy", "replay", "postgres")


def float_env(name: str, default: float) -> float:
    """``float`` of environment variable ``name``, or ``default`` if unset.

    Raises:
        ConstraintError: When the variable is set but not a number.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConstraintError(f"{name} must be a number, got {raw!r}") from None


def int_env(name: str, default: int) -> int:
    """``int`` of environment variable ``name``, or ``default`` if unset.

    Raises:
        ConstraintError: When the variable is set but not an integer.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConstraintError(f"{name} must be an integer, got {raw!r}") from None


#: Case-insensitive spellings :func:`bool_env` reads as off and as on.
_FALSE_WORDS = ("", "0", "false", "no", "off")
_TRUE_WORDS = ("1", "true", "yes", "on")


def bool_env(name: str, default: bool) -> bool:
    """Switch of environment variable ``name``, or ``default`` if unset.

    Case-insensitive: ``""``, ``0``, ``false``, ``no`` and ``off`` mean off;
    ``1``, ``true``, ``yes`` and ``on`` mean on.

    Raises:
        ConstraintError: When the variable is set to anything else.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    word = raw.lower()
    if word in _FALSE_WORDS:
        return False
    if word in _TRUE_WORDS:
        return True
    raise ConstraintError(
        f"{name} must be one of {_TRUE_WORDS + _FALSE_WORDS[1:]} "
        f"(any case) or empty, got {raw!r}"
    )


@dataclass(frozen=True)
class BackendSpec:
    """The cost-backend selection: the one home of the backend settings.

    Everything a worker process needs to rebuild the backend: plain
    primitives, no live objects, so a spec pickles across the experiment
    process pool. Equal specs build behaviourally identical backends (the
    noisy perturbation stream is keyed on ``noise_seed``, not on object
    identity), which is what makes parallel grid cells reproducible.
    :func:`repro.backend.factory.build_backend` exchanges a spec for a live
    backend; :meth:`from_env` is the one reader of the settings'
    ``REPRO_*`` variables.

    Attributes:
        name: Registered backend name — ``"analytic"`` (the simulated
            optimizer, bit-identical baseline), ``"noisy"`` (seeded
            multiplicative perturbation for robustness studies),
            ``"replay"`` (serve a recorded session from its what-if cache
            shard; zero cost-model invocations), or ``"postgres"``.
            **Semantic knob** for ``"noisy"`` and ``"postgres"``.
        trace_path: The what-if cache shard file the replay backend serves
            (``DIR/whatif-<fingerprint>.jsonl`` of a session recorded with
            :attr:`ReproConfig.whatif_cache`); required by replay, ignored
            by the others.
        noise: Relative noise level σ of the noisy backend; each non-empty
            (query, configuration) cost is multiplied by ``exp(σ·z)`` with
            ``z`` a seeded standard normal. ``0`` reproduces the analytic
            backend bit-for-bit.
        noise_seed: Seed of the noisy backend's perturbation stream.
        pg_dsn: Connection string for the postgres backend (e.g.
            ``postgresql://user@host/db``). ``None`` defers to
            ``REPRO_PG_DSN`` at build time, so a spec built in code can
            resolve the DSN in the worker's environment.
        pg_schema: Optional schema (``search_path``) for the postgres
            backend's tables; ``None`` uses the server default.
    """

    name: str = "analytic"
    trace_path: str | None = None
    noise: float = 0.1
    noise_seed: int = 0
    pg_dsn: str | None = None
    pg_schema: str | None = None

    def __post_init__(self) -> None:
        if self.name not in _BACKEND_NAMES:
            raise ConstraintError(
                f"unknown backend {self.name!r}; expected one of {_BACKEND_NAMES}"
            )
        if self.noise < 0:
            raise ConstraintError(f"noise must be non-negative, got {self.noise}")

    @classmethod
    def from_env(cls, **flags) -> "BackendSpec":
        """The spec the ``REPRO_*`` variables select, with ``flags`` applied.

        Reads ``REPRO_BACKEND``, ``REPRO_BACKEND_TRACE``, ``REPRO_NOISE``,
        ``REPRO_NOISE_SEED``, ``REPRO_PG_DSN`` and ``REPRO_PG_SCHEMA``.
        Each keyword names a field; a value other than ``None`` wins over
        its variable (the CLI passes its flags straight through), ``None``
        keeps the variable's value.

        Raises:
            ConstraintError: When a variable is malformed or the resulting
                spec is invalid.
        """
        settings = {
            "name": os.environ.get("REPRO_BACKEND", "analytic"),
            "trace_path": os.environ.get("REPRO_BACKEND_TRACE") or None,
            "noise": float_env("REPRO_NOISE", 0.1),
            "noise_seed": int_env("REPRO_NOISE_SEED", 0),
            "pg_dsn": os.environ.get("REPRO_PG_DSN") or None,
            "pg_schema": os.environ.get("REPRO_PG_SCHEMA") or None,
        }
        settings.update(
            (field, value) for field, value in flags.items() if value is not None
        )
        return cls(**settings)


@dataclass(frozen=True)
class ReproConfig:
    """The settings of one run: engine knobs, budget policy and backend.

    Each entry point — ``tune``, ``eval`` and
    :class:`~repro.eval.runner.ExperimentRunner` — resolves one config, in
    the parent process, and hands it whole to every session it runs, so a
    worker never reads the environment.

    Which what-if calls count is no knob: DESIGN §1 states the one rule.
    The engine knob ``whatif_cache`` changes how fast sessions run, never
    what they compute. (How many jobs price a batch wave is no knob at all
    but a property of the backend's pricer,
    :attr:`~repro.optimizer.whatif.WhatIfOptimizer.pricing_jobs`.) The
    budget-policy knobs select the *semantic* budget discipline of the
    session (FCFS is the paper's default and the bit-identical baseline).

    Attributes:
        whatif_cache: Persistent cross-session what-if cache directory
            (:mod:`repro.backend.cache`); ``None`` disables it, ``"1"`` /
            ``"default"`` select ``~/.cache/repro``. A cache hit replaces
            pricing work, never a budget charge, so warm runs stay
            bit-identical to cold ones. Its shard records the session for
            the replay backend.
        budget_policy: Budget discipline of the run's sessions —
            ``"fcfs"`` (Section 4.2.1, default), ``"wii"`` (per-query
            slices with dynamic reallocation), ``"esc"`` (early stop over
            FCFS), or ``"esc+wii"`` (see :data:`POLICY_NAMES`). **Semantic
            knob**: non-FCFS policies change which calls are granted and
            therefore the outcomes.
        wii_release_rate: Fraction of an idle query's unused slice released
            to the shared pool at each checkpoint (Wii policies).
        esc_patience: Checkpoints without sufficient gain before the
            early-stop policy halts the session.
        esc_min_delta: Minimum improvement gain (percentage points) over
            the patience window; less is a plateau.
        sanitize: Install the opt-in runtime sanitizers
            (:mod:`repro.lint.sanitizers`) on every tuning session:
            monotonicity checks on observed costs and online validation of
            the event stream. Observation-only — costs, budget accounting,
            and outcomes are unchanged; a detected invariant violation
            raises :class:`~repro.exceptions.InvariantViolationError`
            instead of silently continuing.
        backend: Cost backend of the run's sessions (a
            :class:`BackendSpec`; analytic unless built from the
            environment).
    """

    whatif_cache: str | None = None
    budget_policy: str = "fcfs"
    wii_release_rate: float = 0.5
    esc_patience: int = 3
    esc_min_delta: float = 0.1
    sanitize: bool = False
    backend: BackendSpec = BackendSpec()

    def __post_init__(self) -> None:
        if self.budget_policy not in POLICY_NAMES:
            raise ConstraintError(
                f"unknown budget_policy {self.budget_policy!r}; "
                f"expected one of {POLICY_NAMES}"
            )
        if not 0.0 < self.wii_release_rate <= 1.0:
            raise ConstraintError(
                f"wii_release_rate must lie in (0, 1], got {self.wii_release_rate}"
            )
        if self.esc_patience < 1:
            raise ConstraintError(
                f"esc_patience must be at least 1, got {self.esc_patience}"
            )
        if self.esc_min_delta < 0:
            raise ConstraintError(
                f"esc_min_delta must be non-negative, got {self.esc_min_delta}"
            )

    @classmethod
    def from_env(cls, **flags) -> "ReproConfig":
        """The config the ``REPRO_*`` variables select, with ``flags`` applied.

        Reads ``REPRO_WHATIF_CACHE``, ``REPRO_BUDGET_POLICY``,
        ``REPRO_WII_RELEASE_RATE``, ``REPRO_ESC_PATIENCE``,
        ``REPRO_ESC_MIN_DELTA`` and ``REPRO_SANITIZE``. Like
        :meth:`BackendSpec.from_env`, each keyword names a field and a value
        other than ``None`` wins over its variable; ``backend`` may be a
        spec already built from the backend flags, and without one
        :meth:`BackendSpec.from_env` reads the backend's variables.

        Raises:
            ConstraintError: When a variable is malformed or the resulting
                config is invalid.
        """
        settings = {
            "whatif_cache": os.environ.get("REPRO_WHATIF_CACHE") or None,
            "budget_policy": os.environ.get("REPRO_BUDGET_POLICY", "fcfs"),
            "wii_release_rate": float_env("REPRO_WII_RELEASE_RATE", 0.5),
            "esc_patience": int_env("REPRO_ESC_PATIENCE", 3),
            "esc_min_delta": float_env("REPRO_ESC_MIN_DELTA", 0.1),
            "sanitize": bool_env("REPRO_SANITIZE", False),
        }
        settings.update(
            (field, value) for field, value in flags.items() if value is not None
        )
        if "backend" not in settings:
            settings["backend"] = BackendSpec.from_env()
        return cls(**settings)


@dataclass(frozen=True)
class TuningConstraints:
    """Outcome constraints ``Γ`` for index tuning.

    Attributes:
        max_indexes: Cardinality constraint ``K``; the recommended
            configuration contains at most this many indexes.
        max_storage_bytes: Optional storage constraint; the summed estimated
            size of the recommended indexes may not exceed it. ``None``
            disables the storage constraint (the paper's default setting).
        min_improvement_percent: Optional "minimum improvement required"
            constraint (the constrained-tuning line of work the paper cites
            as [18]): when the best configuration found improves the
            workload by less than this percentage, the tuner recommends
            nothing rather than marginal indexes.
    """

    max_indexes: int = 10
    max_storage_bytes: int | None = None
    min_improvement_percent: float | None = None

    def __post_init__(self) -> None:
        if self.max_indexes < 1:
            raise ConstraintError(
                f"max_indexes must be at least 1, got {self.max_indexes}"
            )
        if self.max_storage_bytes is not None and self.max_storage_bytes <= 0:
            raise ConstraintError(
                f"max_storage_bytes must be positive, got {self.max_storage_bytes}"
            )
        if self.min_improvement_percent is not None and not (
            0.0 <= self.min_improvement_percent <= 100.0
        ):
            raise ConstraintError(
                "min_improvement_percent must lie in [0, 100], got "
                f"{self.min_improvement_percent}"
            )

    def admits(self, configuration, *, extra_bytes: int = 0) -> bool:
        """Return whether ``configuration`` satisfies the constraints.

        Args:
            configuration: Iterable of :class:`repro.catalog.Index`.
            extra_bytes: Additional storage to charge (used when testing
                whether an index can still be *added* to a configuration).
        """
        indexes = list(configuration)
        if len(indexes) > self.max_indexes:
            return False
        if self.max_storage_bytes is not None:
            total = sum(ix.estimated_size_bytes for ix in indexes) + extra_bytes
            if total > self.max_storage_bytes:
                return False
        return True


@dataclass(frozen=True)
class MCTSConfig:
    """Knobs for the MCTS enumeration algorithm (Sections 5 and 6).

    The defaults reproduce the configuration the paper reports as best and
    most consistent (Section 7.1): ε-greedy action selection seeded with
    singleton priors, myopic rollout with step size 0, and greedy (BG)
    extraction of the final configuration.

    Attributes:
        selection_policy: ``"epsilon_greedy"`` (prior-seeded, Eq. 6),
            ``"uct"`` (Eq. 5), or ``"boltzmann"`` (softmax exploration, the
            classic variant Eq. 6 simplifies — kept for ablations).
        uct_lambda: Exploration constant λ for UCT; √2 per Kocsis &
            Szepesvári, as chosen in Section 6.1.1.
        boltzmann_temperature: Temperature τ for the Boltzmann policy.
        rollout_policy: ``"myopic"`` (fixed look-ahead step) or ``"random"``
            (uniform look-ahead step in ``{0, .., K - d}``, Section 6.2).
        myopic_step: Fixed look-ahead step size for the myopic rollout.
        extraction: ``"bg"`` (Best Greedy) or ``"bce"`` (Best Configuration
            Explored), Section 6.3.
        use_priors: Whether to run Algorithm 4 and seed Q̂ with singleton
            percentage improvements (required by the ε-greedy variant;
            optional under UCT).
        prior_budget_fraction: Fraction of the total budget reserved for
            Algorithm 4; the paper uses ``B' = min(B/2, P)`` i.e. 0.5.
        prior_query_selection: Query-selection policy inside Algorithm 4 —
            ``"round_robin"`` (paper default) or ``"cost_proportional"``.
        prior_index_selection: Index-selection policy inside Algorithm 4 —
            ``"largest_table"`` (paper default) or ``"uniform"``.
        hybrid_extraction: When true, return the better of the BG and BCE
            configurations (the "simple hybrid strategy" of Appendix C.2).
        episode_query_selection: How EvaluateCostWithBudget picks the query
            receiving the counted call each episode — ``"cost_proportional"``
            (the paper's strategy), ``"uniform"``, or ``"round_robin"``
            ("other strategies are possible", Section 5.2).
        rave_weight: Weight of the RAVE-style all-moves-as-first statistic
            blended into Q̂ (Section 8 suggests RAVE as a further
            optimization); 0 disables it (the paper's setting).
    """

    selection_policy: str = "epsilon_greedy"
    uct_lambda: float = 2.0**0.5
    boltzmann_temperature: float = 0.1
    rollout_policy: str = "myopic"
    myopic_step: int = 0
    extraction: str = "bg"
    use_priors: bool = True
    prior_budget_fraction: float = 0.5
    prior_query_selection: str = "round_robin"
    prior_index_selection: str = "largest_table"
    hybrid_extraction: bool = False
    episode_query_selection: str = "cost_proportional"
    rave_weight: float = 0.0

    _SELECTION_POLICIES = ("epsilon_greedy", "uct", "boltzmann")
    _ROLLOUT_POLICIES = ("myopic", "random")
    _EXTRACTIONS = ("bg", "bce")
    _QUERY_SELECTIONS = ("round_robin", "cost_proportional")
    _INDEX_SELECTIONS = ("largest_table", "uniform")
    _EPISODE_QUERY_SELECTIONS = ("cost_proportional", "uniform", "round_robin")

    def __post_init__(self) -> None:
        if self.selection_policy not in self._SELECTION_POLICIES:
            raise ConstraintError(
                f"unknown selection_policy {self.selection_policy!r}; "
                f"expected one of {self._SELECTION_POLICIES}"
            )
        if self.rollout_policy not in self._ROLLOUT_POLICIES:
            raise ConstraintError(
                f"unknown rollout_policy {self.rollout_policy!r}; "
                f"expected one of {self._ROLLOUT_POLICIES}"
            )
        if self.extraction not in self._EXTRACTIONS:
            raise ConstraintError(
                f"unknown extraction {self.extraction!r}; "
                f"expected one of {self._EXTRACTIONS}"
            )
        if self.prior_query_selection not in self._QUERY_SELECTIONS:
            raise ConstraintError(
                f"unknown prior_query_selection {self.prior_query_selection!r}"
            )
        if self.prior_index_selection not in self._INDEX_SELECTIONS:
            raise ConstraintError(
                f"unknown prior_index_selection {self.prior_index_selection!r}"
            )
        if not 0.0 <= self.prior_budget_fraction <= 1.0:
            raise ConstraintError(
                "prior_budget_fraction must lie in [0, 1], got "
                f"{self.prior_budget_fraction}"
            )
        if self.myopic_step < 0:
            raise ConstraintError(
                f"myopic_step must be non-negative, got {self.myopic_step}"
            )
        if self.uct_lambda < 0:
            raise ConstraintError(
                f"uct_lambda must be non-negative, got {self.uct_lambda}"
            )
        if self.boltzmann_temperature <= 0:
            raise ConstraintError(
                "boltzmann_temperature must be positive, got "
                f"{self.boltzmann_temperature}"
            )
        if self.episode_query_selection not in self._EPISODE_QUERY_SELECTIONS:
            raise ConstraintError(
                "unknown episode_query_selection "
                f"{self.episode_query_selection!r}"
            )
        if not 0.0 <= self.rave_weight <= 1.0:
            raise ConstraintError(
                f"rave_weight must lie in [0, 1], got {self.rave_weight}"
            )


#: Ablation presets matching the four series of Figures 22-23.
ABLATION_PRESETS: dict[str, MCTSConfig] = {
    "uct_only": MCTSConfig(selection_policy="uct", use_priors=False, extraction="bce"),
    "uct_greedy": MCTSConfig(selection_policy="uct", use_priors=False, extraction="bg"),
    "prior_only": MCTSConfig(selection_policy="epsilon_greedy", extraction="bce"),
    "prior_greedy": MCTSConfig(selection_policy="epsilon_greedy", extraction="bg"),
}
