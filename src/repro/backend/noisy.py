"""Noisy backend: seeded multiplicative cost perturbation for robustness studies.

Real what-if optimizers misestimate: the cost the tuner *searches* on is
not the cost the workload *pays*. The noisy backend reproduces that regime
on top of the analytic model so the robustness experiment can measure how
gracefully greedy/DTA/MCTS degrade as cost-model error grows (the
Wii/Esc line of work studies budget decisions under exactly this kind of
what-if uncertainty).
"""

from __future__ import annotations

import math
import random
from hashlib import blake2b
from time import perf_counter

from repro.backend.analytic import AnalyticBackend
from repro.backend.cache import canonical_key
from repro.catalog import Index
from repro.exceptions import TuningError
from repro.optimizer.prepared import PreparedQuery
from repro.workload.query import Query


class NoisyBackend(AnalyticBackend):
    """Analytic costs perturbed by seeded multiplicative log-normal noise.

    Every *non-empty* (query, configuration) evaluation is multiplied by
    ``exp(σ·z)`` where ``σ = noise`` and ``z`` is a standard normal drawn
    from a stream keyed on ``(noise_seed, qid, canonical key)``:

    * **deterministic** — the factor depends only on the seed and the pair,
      never on evaluation order, so reruns, batched pricing at any pool
      size, and parallel workers see identical perturbed costs;
    * **empty configurations stay clean** — tuners always know the current
      cost (the free baseline of :meth:`empty_cost`), so noise applies to
      hypothetical configurations only;
    * **evaluation stays clean** — :meth:`true_cost` /
      :meth:`true_workload_cost` bypass the perturbation (and the noisy
      what-if cache) entirely, so reported improvements measure the *real*
      quality of decisions made on noisy estimates;
    * ``noise=0`` reproduces the analytic backend bit-for-bit
      (``exp(0·z) == 1.0`` exactly).

    Perturbed costs deliberately violate Assumption 1 (monotonicity), so
    :attr:`monotonic` is false and the opt-in monotonicity sanitizer is not
    installed on sessions using this backend.

    Args:
        workload: The workload being tuned.
        noise: Relative noise level σ (log-normal scale); must be ≥ 0.
        noise_seed: Seed of the perturbation stream.
        **kwargs: Forwarded to the analytic engine.
    """

    name = "noisy"
    monotonic = False

    def __init__(self, workload, *args, noise: float = 0.1, noise_seed: int = 0, **kwargs):
        if noise < 0:
            raise TuningError(f"noise must be non-negative, got {noise}")
        super().__init__(workload, *args, **kwargs)
        self._noise = float(noise)
        self._noise_seed = int(noise_seed)
        self._true_cache: dict = {}

    @property
    def noise(self) -> float:
        """Relative noise level σ."""
        return self._noise

    @property
    def noise_seed(self) -> int:
        """Seed of the perturbation stream."""
        return self._noise_seed

    def _factor(self, qid: str, key: frozenset[Index]) -> float:
        """The pair's perturbation factor ``exp(σ·z)`` (order-independent)."""
        material = "|".join((str(self._noise_seed), qid, *canonical_key(key)))
        digest = blake2b(material.encode(), digest_size=8).digest()
        z = random.Random(int.from_bytes(digest, "big")).gauss(0.0, 1.0)
        return math.exp(self._noise * z)

    def _evaluate(self, prepared: PreparedQuery, key: frozenset[Index]) -> float:
        cost = super()._evaluate(prepared, key)
        if not key or self._noise == 0.0:
            return cost
        return cost * self._factor(prepared.qid, key)

    def cache_identity(self) -> dict:
        """Extend the shard key with the perturbation parameters.

        Persisted costs are *post-noise*, so a different σ or seed must
        land in a different shard file (σ = 0 still keys separately from
        the analytic shard — the name field already differs).
        """
        identity = super().cache_identity()
        identity["noise"] = self._noise
        identity["noise_seed"] = self._noise_seed
        return identity

    # ------------------------------------------------------------------ #
    # clean evaluation
    # ------------------------------------------------------------------ #

    def true_cost(self, query: Query, configuration) -> float:
        """Uncounted *clean* ground-truth cost (evaluation only).

        Bypasses both the perturbation and the (noisy) what-if cache: the
        robustness experiment scores configurations chosen under noise by
        what they would actually cost. Clean pricings keep their own cache
        and are not reported to cost observers (observers watch the costs
        the search saw).
        """
        mask = self._mask(configuration)
        if not mask:
            return self.empty_cost(query)
        prepared = self.prepared(query)
        norm = self._norm(query.qid, mask)
        if not norm:
            return self.empty_cost(query)
        cached = self._true_cache.get((query.qid, norm))
        if cached is not None:
            return cached
        start = perf_counter()
        cost = self._model.cost(prepared, self._configuration(norm))
        self._stats.cost_seconds += perf_counter() - start
        self._stats.cost_evaluations += 1
        self._true_cache[(query.qid, norm)] = cost
        return cost
