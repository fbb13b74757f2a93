"""MDP formulation tests (Section 5.1)."""

import pytest

from repro.catalog import Index
from repro.config import TuningConstraints
from repro.core.mdp import IndexTuningMDP


@pytest.fixture
def indexes(star_schema):
    fact = star_schema.table("fact")
    dim = star_schema.table("dim1")
    return [
        Index.build(fact, ["fk1"]),
        Index.build(fact, ["fk2"]),
        Index.build(dim, ["id"]),
    ]


def action_indexes(mdp, state):
    """``A(s)`` as indexes (the MDP returns candidate positions)."""
    return [mdp.candidates[position] for position in mdp.actions(state)]


class TestActions:
    def test_root_actions_are_all_candidates(self, indexes):
        mdp = IndexTuningMDP(indexes, TuningConstraints(max_indexes=3))
        assert set(action_indexes(mdp, mdp.initial_state)) == set(indexes)

    def test_actions_exclude_state(self, indexes):
        mdp = IndexTuningMDP(indexes, TuningConstraints(max_indexes=3))
        state = frozenset({indexes[0]})
        assert indexes[0] not in action_indexes(mdp, state)

    def test_cardinality_limits_actions(self, indexes):
        mdp = IndexTuningMDP(indexes, TuningConstraints(max_indexes=1))
        state = frozenset({indexes[0]})
        assert action_indexes(mdp, state) == []

    def test_storage_constraint_limits_actions(self, indexes):
        tiny = indexes[0].estimated_size_bytes + 1
        mdp = IndexTuningMDP(
            indexes, TuningConstraints(max_indexes=3, max_storage_bytes=tiny)
        )
        state = frozenset({indexes[0]})
        remaining = action_indexes(mdp, state)
        assert all(
            ix.estimated_size_bytes + indexes[0].estimated_size_bytes <= tiny
            for ix in remaining
        )


class TestTransitions:
    def test_deterministic_transition(self, indexes):
        mdp = IndexTuningMDP(indexes, TuningConstraints(max_indexes=3))
        state = mdp.transition(frozenset(), indexes[0])
        assert state == frozenset({indexes[0]})

    def test_transition_rejects_contained_action(self, indexes):
        mdp = IndexTuningMDP(indexes, TuningConstraints(max_indexes=3))
        with pytest.raises(ValueError):
            mdp.transition(frozenset({indexes[0]}), indexes[0])


class TestTerminal:
    def test_full_state_is_terminal(self, indexes):
        mdp = IndexTuningMDP(indexes, TuningConstraints(max_indexes=2))
        assert mdp.is_terminal(frozenset(indexes[:2]))

    def test_root_not_terminal(self, indexes):
        mdp = IndexTuningMDP(indexes, TuningConstraints(max_indexes=2))
        assert not mdp.is_terminal(mdp.initial_state)

    def test_max_depth(self, indexes):
        mdp = IndexTuningMDP(indexes, TuningConstraints(max_indexes=3))
        assert mdp.max_depth_from(frozenset()) == 3
        assert mdp.max_depth_from(frozenset(indexes[:2])) == 1

    def test_state_space_size_example3(self, indexes):
        """Example 3: with |I| = 3, K = 2, the terminal states are pairs."""
        mdp = IndexTuningMDP(indexes, TuningConstraints(max_indexes=2))
        pairs = [
            frozenset({indexes[i], indexes[j]})
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert all(mdp.is_terminal(pair) for pair in pairs)
        singles = [frozenset({ix}) for ix in indexes]
        assert all(not mdp.is_terminal(single) for single in singles)
