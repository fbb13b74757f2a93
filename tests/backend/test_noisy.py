"""Noisy backend: seeded determinism, clean evaluation, noise=0 identity."""

from __future__ import annotations

from repro.backend import BackendSpec, build_backend
from repro.config import ReproConfig
from repro.tuners import MCTSTuner, VanillaGreedyTuner


def _spec(noise, seed=0):
    return BackendSpec(name="noisy", noise=noise, noise_seed=seed)


def test_same_seed_same_costs_different_seed_differs(
    toy_workload, counting_pairs
):
    def script(spec):
        backend = build_backend(spec, toy_workload)
        return [backend.whatif_cost(q, c) for q, c in counting_pairs]

    baseline = script(_spec(0.3, seed=1))
    assert script(_spec(0.3, seed=1)) == baseline
    assert script(_spec(0.3, seed=2)) != baseline


def test_perturbation_is_order_independent(toy_workload, counting_pairs):
    forward = build_backend(_spec(0.3), toy_workload)
    backward = build_backend(_spec(0.3), toy_workload)
    costs_fwd = {(q.qid, c): forward.whatif_cost(q, c) for q, c in counting_pairs}
    costs_bwd = {
        (q.qid, c): backward.whatif_cost(q, c) for q, c in reversed(counting_pairs)
    }
    assert costs_fwd == costs_bwd


def test_noise_zero_is_the_analytic_backend(toy_workload):
    noisy = MCTSTuner(seed=0).tune(
        toy_workload,
        budget=60,
        optimizer_config=ReproConfig.from_env(backend=_spec(0.0)),
    )
    exact = MCTSTuner(seed=0).tune(
        toy_workload,
        budget=60,
        optimizer_config=ReproConfig.from_env(backend=BackendSpec(name="analytic")),
    )
    assert noisy.configuration == exact.configuration
    assert noisy.estimated_cost == exact.estimated_cost
    assert noisy.calls_used == exact.calls_used
    assert [c.cost for c in noisy.optimizer.call_log] == [
        c.cost for c in exact.optimizer.call_log
    ]


def test_nonzero_noise_perturbs_counted_costs(toy_workload, counting_pairs):
    noisy = build_backend(_spec(0.3), toy_workload)
    exact = build_backend("analytic", toy_workload)
    noisy_costs = [noisy.whatif_cost(q, c) for q, c in counting_pairs]
    exact_costs = [exact.whatif_cost(q, c) for q, c in counting_pairs]
    assert noisy_costs != exact_costs
    assert all(cost > 0 for cost in noisy_costs)


def test_true_cost_stays_clean(toy_workload, counting_pairs):
    noisy = build_backend(_spec(0.5), toy_workload)
    exact = build_backend("analytic", toy_workload)
    for query, config in counting_pairs:
        # Search view first, to prove the clean path bypasses the noisy cache.
        noisy.whatif_cost(query, config)
        assert noisy.true_cost(query, config) == exact.true_cost(query, config)
    assert noisy.true_workload_cost(counting_pairs[0][1]) == exact.true_workload_cost(
        counting_pairs[0][1]
    )


def test_empty_configuration_is_never_perturbed(toy_workload):
    noisy = build_backend(_spec(0.5), toy_workload)
    exact = build_backend("analytic", toy_workload)
    for query in toy_workload.queries:
        assert noisy.empty_cost(query) == exact.empty_cost(query)


def test_improvement_reported_against_clean_costs(toy_workload):
    result = VanillaGreedyTuner().tune(
        toy_workload,
        budget=60,
        optimizer_config=ReproConfig.from_env(backend=_spec(0.4, seed=3)),
    )
    clean = build_backend("analytic", toy_workload)
    assert result.optimizer.true_workload_cost(
        result.configuration
    ) == clean.true_workload_cost(result.configuration)
    assert result.baseline_cost == clean.empty_workload_cost()
