"""Differential tests: the array-backed search against dict/loop references.

The references below are the per-action implementations the NumPy code
replaced — per-action statistics objects, a list comprehension over every
candidate with one ``TuningConstraints.admits`` call each, and a per-query
normalize-then-``derived_cost`` loop — kept here as executable
specifications. Hypothesis drives both with the same inputs; they must pick
the same slot, leave the RNG in the same state, return the same action
positions, and derive exactly equal costs.

The episode loop's own shortcuts are checked the same way: the search's
inline episode-query draw against ``random.choices``, a child's action set
taken from its parent's against :meth:`IndexTuningMDP.actions`, a
re-entered leaf's re-derived actions and first selection against its
creation array and the per-action references, and the flat member-keyed
``lowest_within`` against a minimum over every recorded observation.

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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.noisy import NoisyBackend
from repro.config import MCTSConfig, TuningConstraints
from repro.core.mdp import IndexTuningMDP
from repro.core.node import TreeNode
from repro.core.search import MCTSSearch
from repro.core.selection import BoltzmannPolicy, EpsilonGreedyPriorPolicy, UCTPolicy
from repro.optimizer.derivation import CostDerivation
from repro.optimizer.whatif import WhatIfOptimizer
from repro.tuners.base import TuningSession

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


@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_first_selection_matches_reference(data, seed):
    """A node's statistics arrive with its first selection: selecting from
    a node that never allocated them picks what the reference picks."""
    width = data.draw(st.integers(min_value=1, max_value=300))
    chosen = data.draw(st.lists(st.integers(0, width - 1), min_size=1, unique=True))
    actions = np.array(sorted(chosen), dtype=np.min_scalar_type(width))
    priors = np.array(data.draw(st.lists(_unit, min_size=width, max_size=width)))
    if data.draw(st.booleans()):
        priors = -priors
    policies = [
        (EpsilonGreedyPriorPolicy(), ref_epsilon_greedy),
        (UCTPolicy(), lambda node, rng: ref_uct(node, rng, 2.0**0.5)),
        (BoltzmannPolicy(temperature=0.1), lambda node, rng: ref_boltzmann(node, rng, 0.1)),
    ]
    for policy, ref_select in policies:
        node = TreeNode.create(frozenset(), actions, priors)
        ref = RefNode(
            actions=list(range(len(actions))),
            stats={
                slot: RefStats(prior=max(0.0, float(priors[position])))
                for slot, position in enumerate(actions.tolist())
            },
        )
        assert not node.has_statistics
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert policy.select(node, rng) == ref_select(ref, ref_rng)
        assert rng.getstate() == ref_rng.getstate()
        assert node.has_statistics


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


# --------------------------------------------------------------------------- #
# episode loop
# --------------------------------------------------------------------------- #

_derived_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-12, 5e-13, -1.0, 1e300, 1e308, -math.inf, math.nan]),
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e308),
    st.floats(allow_nan=True, allow_infinity=True),
)


@pytest.fixture(scope="module")
def episode_search(toy_workload, toy_candidates):
    """A search at the paper's defaults: cost-proportional episode queries."""
    engine = WhatIfOptimizer(toy_workload, budget=None)
    return MCTSSearch(TuningSession(toy_workload, toy_candidates, backend=engine))


def _same_draw_as_choices(search: MCTSSearch, derived: list[float], seed: int) -> None:
    ref_rng = random.Random(seed)
    search._rng.seed(seed)
    weights = [max(1e-12, value) for value in derived]
    try:
        (expected,) = ref_rng.choices(range(len(derived)), weights=weights, k=1)
    except ValueError as error:
        with pytest.raises(ValueError, match=str(error)):
            search._pick_episode_query(derived)
    else:
        assert search._pick_episode_query(derived) == expected
    assert search._rng.getstate() == ref_rng.getstate()


# Values at the 1e-12 floor, where flooring decides the draw.
_tiny_values = st.sampled_from([0.0, -0.0, -1.0, 1e-13, 5e-13, 1e-12, 2e-12, 1e-11])


@settings(max_examples=300, deadline=None)
@given(
    derived=st.one_of(
        st.lists(_derived_values, min_size=1, max_size=40),
        st.lists(_tiny_values, min_size=1, max_size=8),
    ),
    seed=st.integers(0, 2**32),
)
def test_episode_query_draw_matches_choices(episode_search, derived, seed):
    """Same position and RNG state as ``random.choices`` over the floored
    derived costs, or the same ``ValueError`` when the total is not finite."""
    _same_draw_as_choices(episode_search, derived, seed)


@pytest.mark.parametrize(
    "derived",
    [[1.0, math.inf], [math.inf], [1e308, 1e308], [1e308, 0.0, 1e308, -1.0]],
    ids=["inf", "only-inf", "overflow", "overflow-late"],
)
def test_episode_query_draw_rejects_a_non_finite_total(episode_search, derived):
    with pytest.raises(ValueError, match="finite"):
        episode_search._pick_episode_query(derived)
    _same_draw_as_choices(episode_search, derived, seed=7)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_child_actions_match_actions(data, toy_candidates):
    """Walking down from the root, each child's actions taken from its
    parent's equal ``actions(child_state)``, dtype included."""
    mdp_candidates = data.draw(
        st.lists(st.sampled_from(toy_candidates), min_size=1, max_size=25, unique=True)
    )
    sizes = [index.estimated_size_bytes for index in mdp_candidates]
    cap = data.draw(
        st.one_of(
            st.none(),
            st.integers(min_value=1, max_value=2 * sum(sizes)),
            # Exactly full after adding one or two candidates.
            st.sampled_from(sizes + [a + b for a in sizes for b in sizes]),
        )
    )
    constraints = TuningConstraints(
        max_indexes=data.draw(st.integers(min_value=1, max_value=8)),
        max_storage_bytes=cap,
    )
    mdp = IndexTuningMDP(mdp_candidates, constraints)
    state = mdp.initial_state
    actions = mdp.actions(state)
    while len(actions):
        slot = data.draw(st.integers(0, len(actions) - 1))
        state = mdp.transition(state, mdp.candidates[int(actions[slot])])
        child = mdp.child_actions(actions, slot, state)
        expected = mdp.actions(state)
        assert child.dtype == expected.dtype
        assert child.tolist() == expected.tolist()
        actions = child


class _RecordingPolicy:
    """The search's policy, recording each selection with the RNG state
    before and after it."""

    def __init__(self, inner):
        self._inner = inner
        self.selections: list = []

    def select(self, node, rng):
        before = rng.getstate()
        slot = self._inner.select(node, rng)
        self.selections.append((node, node.actions, before, slot, rng.getstate()))
        return slot


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("policy", ["epsilon_greedy", "uct"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_reentered_leaf_matches_reference(policy, capped, seed, toy_workload, toy_candidates):
    """A leaf drops its actions after its rollout; when an episode enters it
    again the search re-derives them. They must equal ``actions(state)``
    and the array the node was created with, and its first selection must
    pick the reference's slot and leave the RNG in the same state."""
    sizes = sorted(index.estimated_size_bytes for index in toy_candidates)
    constraints = TuningConstraints(
        max_indexes=5,
        # Three median indexes: binds below the root.
        max_storage_bytes=3 * sizes[len(sizes) // 2] if capped else None,
    )
    # UCT enters a root child again only once all 35 have been visited.
    engine = WhatIfOptimizer(toy_workload, budget=200)
    search = MCTSSearch(
        TuningSession(toy_workload, toy_candidates, constraints, backend=engine),
        config=MCTSConfig(selection_policy=policy),
        seed=seed,
    )
    recorder = _RecordingPolicy(search._policy)
    search._policy = recorder
    created = {}
    create = TreeNode.create.__func__

    def recording_create(cls, state, actions, priors=None):
        node = create(cls, state, actions, priors)
        created[node] = actions
        return node

    with mock.patch.object(TreeNode, "create", classmethod(recording_create)):
        search.run()

    mdp = search._mdp
    priors = search._prior_vector
    selected: set = set()
    reentered = bound = 0
    for node, actions, before, slot, after in recorder.selections:
        if node in selected or node is search.root:
            selected.add(node)
            continue
        # A non-root node's first selection comes when an episode enters it
        # again: its rollout dropped the array it was created with.
        selected.add(node)
        reentered += 1
        assert actions is not created[node]
        expected = mdp.actions(node.state)
        assert actions.dtype == created[node].dtype == expected.dtype
        assert actions.tolist() == created[node].tolist() == expected.tolist()
        assert [mdp.candidates[p] for p in actions] == ref_actions(
            mdp.candidates, constraints, node.state
        )
        bound += len(actions) + len(node.state) < len(mdp.candidates)
        ref = RefNode(
            actions=list(range(len(actions))),
            stats={
                slot: RefStats(
                    prior=0.0 if priors is None else max(0.0, float(priors[position]))
                )
                for slot, position in enumerate(actions.tolist())
            },
        )
        ref_rng = random.Random()
        ref_rng.setstate(before)
        if policy == "uct":
            ref_slot = ref_uct(ref, ref_rng, 2.0**0.5)
        else:
            ref_slot = ref_epsilon_greedy(ref, ref_rng)
        assert slot == ref_slot
        assert after == ref_rng.getstate()
    assert reentered
    # Only the root and the nodes entered again hold actions; terminal
    # leaves keep their empty array.
    for node in created:
        assert (node.actions is None) == (
            node not in selected and node is not search.root and len(created[node]) > 0
        )
    if capped:
        assert bound


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lowest_within_matches_brute_force(data):
    """The flat member-keyed walk against a minimum over every observation
    ever recorded, lower costs recorded again for the same key included."""
    derivation = CostDerivation()
    qids = ["q1", "q2", "q3", "q4"]
    masks = st.integers(min_value=0, max_value=2**12 - 1)
    costs = st.one_of(st.floats(min_value=0.0, max_value=1e6), st.just(math.inf))
    recorded: list[tuple[str, int, float]] = []
    for qid, mask, cost in data.draw(
        st.lists(st.tuples(st.sampled_from(qids), masks, costs), max_size=60)
    ):
        derivation.record(qid, mask, cost)
        recorded.append((qid, mask, cost))
        if data.draw(st.booleans()):
            # The same key again, cheaper.
            cheaper = cost / 2 if cost < math.inf else 1.0
            derivation.record(qid, mask, cheaper)
            recorded.append((qid, mask, cheaper))
    for probe in data.draw(st.lists(masks, min_size=1, max_size=10)):
        expected: dict[str, float] = {}
        for qid, mask, cost in recorded:
            if mask and not mask & ~probe and cost < expected.get(qid, math.inf):
                expected[qid] = cost
        assert derivation.lowest_within(probe) == expected
    for qid in qids:
        for position in range(12):
            assert derivation.has_observation(qid, position) == any(
                other == qid and mask >> position & 1 for other, mask, _ in recorded
            )
