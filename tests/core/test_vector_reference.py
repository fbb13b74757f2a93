"""Differential tests: the array-backed search against dict/loop references.

The references below are the per-action implementations the NumPy code
replaced — per-action statistics objects, a list comprehension over every
candidate with one ``TuningConstraints.admits`` call each, and a per-query
normalize-then-``derived_cost`` loop — kept here as executable
specifications. Hypothesis drives both with the same inputs; they must pick
the same slot, leave the RNG in the same state, return the same action
positions, and derive exactly equal costs.

One deliberate difference: the sampling references total their weights
with a left-to-right accumulation (``itertools.accumulate``), not builtin
``sum``, which is compensated from CPython 3.12 on. The array code's total
is the last cumulative weight, i.e. the left-to-right sum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.noisy import NoisyBackend
from repro.config import TuningConstraints
from repro.core.mdp import IndexTuningMDP
from repro.core.node import TreeNode
from repro.core.selection import BoltzmannPolicy, EpsilonGreedyPriorPolicy, UCTPolicy
from repro.optimizer.whatif import WhatIfOptimizer

# --------------------------------------------------------------------------- #
# references
# --------------------------------------------------------------------------- #


@dataclass
class RefStats:
    """Per-action bookkeeping of the dict-backed tree."""

    prior: float = 0.0
    visits: int = 0
    total_return: float = 0.0

    @property
    def q_value(self) -> float:
        if self.visits == 0:
            return self.prior
        return self.total_return / self.visits

    def update(self, reward: float) -> None:
        self.visits += 1
        self.total_return += reward


@dataclass
class RefNode:
    """A dict-backed node whose actions are the slots ``0..n-1``."""

    actions: list[int]
    stats: dict[int, RefStats]
    visits: int = 0

    def update(self, action: int, reward: float) -> None:
        self.visits += 1
        self.stats[action].update(reward)


def ref_epsilon_greedy(node: RefNode, rng: random.Random) -> int:
    weights = [max(0.0, node.stats[a].q_value) for a in node.actions]
    total = list(accumulate(weights))[-1]
    if total <= 0.0:
        return rng.choice(node.actions)
    threshold = rng.random() * total
    cumulative = 0.0
    for action, weight in zip(node.actions, weights, strict=True):
        cumulative += weight
        if cumulative >= threshold:
            return action
    return node.actions[-1]


def ref_uct(node: RefNode, rng: random.Random, exploration: float) -> int:
    def score(action: int) -> float:
        stats = node.stats[action]
        if stats.visits == 0:
            return math.inf
        bonus = exploration * math.sqrt(math.log(max(node.visits, 1)) / stats.visits)
        return stats.q_value + bonus

    unvisited = [a for a in node.actions if node.stats[a].visits == 0]
    if unvisited:
        return rng.choice(unvisited)
    return max(node.actions, key=score)


def ref_boltzmann_weights(node: RefNode, temperature: float) -> list[float]:
    values = [node.stats[a].q_value / temperature for a in node.actions]
    peak = max(values)
    return [math.exp(v - peak) for v in values]


def ref_boltzmann(node: RefNode, rng: random.Random, temperature: float) -> int:
    weights = ref_boltzmann_weights(node, temperature)
    total = list(accumulate(weights))[-1]
    threshold = rng.random() * total
    cumulative = 0.0
    for action, weight in zip(node.actions, weights, strict=True):
        cumulative += weight
        if cumulative >= threshold:
            return action
    return node.actions[-1]


def ref_actions(candidates, constraints: TuningConstraints, state) -> list:
    if len(state) >= constraints.max_indexes:
        return []
    return [
        index
        for index in candidates
        if index not in state
        and constraints.admits(state, extra_bytes=index.estimated_size_bytes)
    ]


def ref_derived_query_costs(optimizer: WhatIfOptimizer, configuration) -> list[float]:
    mask = optimizer._mask(configuration)
    derivation = optimizer.derivation
    out = []
    for query in optimizer.workload:
        optimizer.prepared(query)
        norm = optimizer._norm(query.qid, mask) if mask else mask
        out.append(
            query.weight
            * derivation.derived_cost(query.qid, norm, optimizer.empty_cost(query))
        )
    return out


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #

_unit = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def node_pairs(draw):
    """A node and its reference twin, with the same priors and history."""
    count = draw(st.integers(min_value=1, max_value=30))
    if draw(st.booleans()):
        priors = [0.0] * count
    else:
        priors = draw(st.lists(_unit, min_size=count, max_size=count))
    node = TreeNode.create(frozenset(), np.arange(count), np.array(priors))
    ref = RefNode(
        actions=list(range(count)),
        stats={slot: RefStats(prior=max(0.0, prior)) for slot, prior in enumerate(priors)},
    )
    if draw(st.booleans()):
        # Every action visited: UCT's argmax branch.
        visits = [(slot, draw(_unit)) for slot in range(count)]
    else:
        visits = []
    visits += draw(
        st.lists(st.tuples(st.integers(0, count - 1), _unit), max_size=3 * count)
    )
    for slot, reward in visits:
        node.update(slot, reward)
        ref.update(slot, reward)
    return node, ref


def _same_picks(pick, ref_pick, seed: int) -> None:
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(5):
        assert pick(rng) == ref_pick(ref_rng)
    assert rng.getstate() == ref_rng.getstate()


# --------------------------------------------------------------------------- #
# selection
# --------------------------------------------------------------------------- #


@settings(max_examples=100, deadline=None)
@given(pair=node_pairs())
def test_q_vector_matches_reference(pair):
    node, ref = pair
    assert node.q.tolist() == [ref.stats[a].q_value for a in ref.actions]
    assert node.action_visits.tolist() == [ref.stats[a].visits for a in ref.actions]
    assert node.visits == ref.visits


@settings(max_examples=100, deadline=None)
@given(pair=node_pairs(), seed=st.integers(0, 2**32))
def test_epsilon_greedy_matches_reference(pair, seed):
    node, ref = pair
    policy = EpsilonGreedyPriorPolicy()
    _same_picks(
        lambda rng: policy.select(node, rng),
        lambda rng: ref_epsilon_greedy(ref, rng),
        seed,
    )


@settings(max_examples=100, deadline=None)
@given(
    pair=node_pairs(),
    seed=st.integers(0, 2**32),
    exploration=st.sampled_from([0.0, 0.5, 2.0**0.5, 3.0]),
)
def test_uct_matches_reference(pair, seed, exploration):
    node, ref = pair
    policy = UCTPolicy(exploration=exploration)
    _same_picks(
        lambda rng: policy.select(node, rng),
        lambda rng: ref_uct(ref, rng, exploration),
        seed,
    )


@settings(max_examples=100, deadline=None)
@given(
    pair=node_pairs(),
    seed=st.integers(0, 2**32),
    temperature=st.sampled_from([0.01, 0.1, 1.0, 100.0]),
)
def test_boltzmann_matches_reference(pair, seed, temperature):
    node, ref = pair
    values = node.q / temperature
    # np.exp need not round like math.exp: allow the cumulative weights a
    # few ulps, and require the same picks and RNG state.
    np.testing.assert_array_max_ulp(
        np.cumsum(np.exp(values - values.max())),
        np.array(list(accumulate(ref_boltzmann_weights(ref, temperature)))),
        maxulp=4,
    )
    policy = BoltzmannPolicy(temperature=temperature)
    _same_picks(
        lambda rng: policy.select(node, rng),
        lambda rng: ref_boltzmann(ref, rng, temperature),
        seed,
    )


# --------------------------------------------------------------------------- #
# actions
# --------------------------------------------------------------------------- #


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_actions_match_reference(data, toy_candidates):
    mdp_candidates = data.draw(
        st.lists(st.sampled_from(toy_candidates), min_size=1, max_size=25, unique=True)
    )
    members = data.draw(st.lists(st.sampled_from(mdp_candidates), max_size=7, unique=True))
    state = frozenset(members)
    sizes = [index.estimated_size_bytes for index in mdp_candidates]
    used = sum(index.estimated_size_bytes for index in members)
    cap = data.draw(
        st.one_of(
            st.none(),
            st.integers(min_value=1, max_value=2 * sum(sizes)),
            # Exactly full after adding some candidate: the boundary admits.
            st.sampled_from([used + size for size in sizes]),
        )
    )
    constraints = TuningConstraints(
        max_indexes=data.draw(st.integers(min_value=1, max_value=6)),
        max_storage_bytes=cap,
    )
    mdp = IndexTuningMDP(mdp_candidates, constraints)
    positions = mdp.actions(state)
    assert positions.tolist() == sorted(positions.tolist())
    assert [mdp.candidates[p] for p in positions] == ref_actions(
        mdp.candidates, constraints, state
    )


# --------------------------------------------------------------------------- #
# derivation
# --------------------------------------------------------------------------- #

_configurations = st.lists(st.integers(0, 10**6), max_size=6)


@pytest.mark.parametrize(
    "engine",
    [
        WhatIfOptimizer,
        # Noisy costs break monotonicity: an observation may cost more than
        # the empty configuration and must then not lower the derived cost.
        lambda workload, **kwargs: NoisyBackend(workload, noise=0.4, noise_seed=1, **kwargs),
    ],
    ids=["analytic", "noisy"],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_derived_costs_match_reference(data, engine, toy_workload, toy_candidates):
    """Random observation stores (recorded by counted calls), random probes."""
    optimizer = engine(toy_workload, budget=None)
    pool = toy_candidates

    def configuration(picks: list[int]) -> frozenset:
        return frozenset(pool[pick % len(pool)] for pick in picks)

    observations = data.draw(
        st.lists(st.tuples(st.sampled_from(toy_workload.queries), _configurations), max_size=40)
    )
    for query, picks in observations:
        optimizer.whatif_cost(query, configuration(picks))

    for picks in data.draw(st.lists(_configurations, min_size=1, max_size=8)):
        probe = configuration(picks)
        assert optimizer.derived_query_costs(probe) == ref_derived_query_costs(
            optimizer, probe
        )

    # The member index also answers greedy's incremental probes.
    derivation = optimizer.derivation
    log = optimizer.call_log
    base = configuration(data.draw(_configurations))
    extra = pool[data.draw(st.integers(0, len(pool) - 1))]
    trial = base | {extra}
    position = optimizer.position(extra)
    for query in toy_workload:
        known = [
            call for call in log if call.qid == query.qid and extra in call.configuration
        ]
        assert derivation.has_observation(query.qid, position) == bool(known)
        base_cost = optimizer.derived_cost(query, base)
        expected = min(
            [base_cost] + [call.cost for call in known if call.configuration <= trial]
        )
        assert (
            derivation.derived_cost_with_extra(
                query.qid, base_cost, optimizer._mask(trial), position
            )
            == expected
        )
