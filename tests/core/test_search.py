"""Algorithm 3 (MCTS search) tests."""

import sys

import numpy as np
import pytest

from repro.config import MCTSConfig, TuningConstraints
from repro.core.search import MCTSSearch
from repro.optimizer.whatif import WhatIfOptimizer
from repro.tuners.base import TuningSession


def make_search(workload, candidates, budget=60, k=5, config=None, seed=0):
    optimizer = WhatIfOptimizer(workload, budget=budget)
    search = MCTSSearch(
        TuningSession(
            workload,
            candidates,
            TuningConstraints(max_indexes=k),
            backend=optimizer,
        ),
        config=config or MCTSConfig(),
        seed=seed,
    )
    return optimizer, search


class TestBudgetDiscipline:
    def test_never_exceeds_budget(self, toy_workload, toy_candidates):
        optimizer, search = make_search(toy_workload, toy_candidates, budget=40)
        search.run()
        assert optimizer.calls_used <= 40

    def test_spends_meaningful_budget(self, toy_workload, toy_candidates):
        optimizer, search = make_search(toy_workload, toy_candidates, budget=40)
        search.run()
        assert optimizer.calls_used >= 30

    def test_prior_subbudget_is_half(self, toy_workload, toy_candidates):
        optimizer, search = make_search(toy_workload, toy_candidates, budget=40)
        search.run()
        # Priors use at most B' = min(B/2, P) = 20 counted calls: all
        # singleton evaluations in the log beyond 20 come from episodes.
        prior_calls = sum(
            1
            for entry in optimizer.call_log[:20]
            if len(entry.configuration) == 1
        )
        assert prior_calls <= 20


class TestSearchTree:
    def test_root_exists_after_run(self, toy_workload, toy_candidates):
        _, search = make_search(toy_workload, toy_candidates)
        search.run()
        assert search.root is not None
        assert search.root.state == frozenset()

    def test_tree_grows(self, toy_workload, toy_candidates):
        _, search = make_search(toy_workload, toy_candidates, budget=80)
        search.run()
        assert search.root.subtree_size() > 1

    def test_episodes_counted(self, toy_workload, toy_candidates):
        _, search = make_search(toy_workload, toy_candidates)
        search.run()
        assert search.episodes > 0

    def test_tree_respects_cardinality(self, toy_workload, toy_candidates):
        _, search = make_search(toy_workload, toy_candidates, k=2, budget=80)
        search.run()

        def max_depth(node):
            if not node.children:
                return len(node.state)
            return max(max_depth(child) for child in node.children.values())

        assert max_depth(search.root) <= 2


class TestResultQuality:
    def test_configuration_admissible(self, toy_workload, toy_candidates):
        _, search = make_search(toy_workload, toy_candidates, k=3)
        config, _ = search.run()
        assert len(config) <= 3

    def test_finds_improvement(self, toy_workload, toy_candidates):
        optimizer, search = make_search(toy_workload, toy_candidates, budget=100)
        config, _ = search.run()
        improvement = 1 - optimizer.true_workload_cost(config) / optimizer.empty_workload_cost()
        assert improvement > 0.15

    def test_reproducible_for_seed(self, toy_workload, toy_candidates):
        _, first = make_search(toy_workload, toy_candidates, seed=42)
        _, second = make_search(toy_workload, toy_candidates, seed=42)
        assert first.run()[0] == second.run()[0]

    def test_history_monotone_in_calls(self, toy_workload, toy_candidates):
        _, search = make_search(toy_workload, toy_candidates, budget=100)
        _, history = search.run()
        calls = [c for c, _ in history]
        assert calls == sorted(calls)

    def test_history_final_entry_is_result(self, toy_workload, toy_candidates):
        _, search = make_search(toy_workload, toy_candidates)
        config, history = search.run()
        assert history[-1][1] == config


class TestPolicyVariants:
    @pytest.mark.parametrize(
        "config",
        [
            MCTSConfig(selection_policy="uct", use_priors=False, extraction="bce"),
            MCTSConfig(selection_policy="uct", use_priors=False, extraction="bg"),
            MCTSConfig(selection_policy="epsilon_greedy", extraction="bce"),
            MCTSConfig(selection_policy="epsilon_greedy", extraction="bg"),
            MCTSConfig(rollout_policy="random"),
            MCTSConfig(rollout_policy="myopic", myopic_step=1),
            MCTSConfig(hybrid_extraction=True),
        ],
        ids=[
            "uct_bce",
            "uct_bg",
            "prior_bce",
            "prior_bg",
            "random_rollout",
            "myopic_step1",
            "hybrid",
        ],
    )
    def test_all_variants_run_within_budget(self, toy_workload, toy_candidates, config):
        optimizer, search = make_search(
            toy_workload, toy_candidates, budget=50, config=config
        )
        configuration, _ = search.run()
        assert optimizer.calls_used <= 50
        assert len(configuration) <= 5

    def test_priors_disabled_leaves_empty_priors(self, toy_workload, toy_candidates):
        config = MCTSConfig(selection_policy="uct", use_priors=False)
        _, search = make_search(toy_workload, toy_candidates, config=config)
        search.run()
        assert search.priors == {}

    def test_priors_enabled_populates(self, toy_workload, toy_candidates):
        _, search = make_search(toy_workload, toy_candidates)
        search.run()
        assert len(search.priors) == len(toy_candidates)


class TestStorageConstraint:
    def test_storage_respected(self, toy_workload, toy_candidates):
        cap = 3 * min(ix.estimated_size_bytes for ix in toy_candidates)
        optimizer = WhatIfOptimizer(toy_workload, budget=50)
        search = MCTSSearch(
            TuningSession(
                toy_workload,
                toy_candidates,
                TuningConstraints(max_indexes=5, max_storage_bytes=cap),
                backend=optimizer,
            ),
            seed=0,
        )
        config, _ = search.run()
        assert sum(ix.estimated_size_bytes for ix in config) <= cap


class TestUCTSlowProgress:
    """Section 6.1.1's observation: under UCB1 every child of an expanded
    node must be visited once before any is revisited, so small budgets only
    expand the first tree levels."""

    def test_root_children_visited_before_revisits(self, toy_workload, toy_candidates):
        config = MCTSConfig(selection_policy="uct", use_priors=False)
        optimizer = WhatIfOptimizer(toy_workload, budget=len(toy_candidates) // 2)
        search = MCTSSearch(
            TuningSession(
                toy_workload,
                toy_candidates,
                TuningConstraints(max_indexes=5),
                backend=optimizer,
            ),
            config=config,
            seed=0,
        )
        search.run()
        root = search.root
        visit_counts = root.action_visits.tolist()
        # No action is visited twice while siblings remain unvisited.
        if 0 in visit_counts:
            assert max(visit_counts) <= 1

    def test_uct_tree_shallower_than_prior_tree(self, toy_workload, toy_candidates):
        def depth_of(config):
            optimizer = WhatIfOptimizer(toy_workload, budget=60)
            search = MCTSSearch(
                TuningSession(
                    toy_workload,
                    toy_candidates,
                    TuningConstraints(max_indexes=5),
                    backend=optimizer,
                ),
                config=config,
                seed=0,
            )
            search.run()

            def max_depth(node):
                if not node.children:
                    return len(node.state)
                return max(max_depth(child) for child in node.children.values())

            return max_depth(search.root)

        uct_depth = depth_of(MCTSConfig(selection_policy="uct", use_priors=False))
        prior_depth = depth_of(MCTSConfig())
        assert uct_depth <= prior_depth + 1


class TestWideCandidateSet:
    """A TPC-DS session at the paper's defaults (761 candidates, B = 500,
    K = 20), pinned to the values the dict-backed tree produced."""

    def test_tpcds_session_is_pinned(self):
        from collections import Counter

        from repro.tuners import MCTSTuner
        from repro.workload.suites.tpcds import tpcds_workload

        tuner = MCTSTuner(seed=0)
        result = tuner.tune(tpcds_workload(), 500, TuningConstraints(max_indexes=20))
        assert result.calls_used == 500
        assert tuner.last_search.episodes == 2108
        assert Counter(event.kind for event in result.events) == {
            "budget_grant": 500,
            "checkpoint": 19,
            "phase": 3,
            "whatif_call": 500,
        }
        assert sorted(index.display() for index in result.configuration) == [
            "catalog_sales(cs_customer_sk) INCLUDE (cs_catalog_page_sk, cs_net_profit, cs_ship_mode_sk)",
            "catalog_sales(cs_list_price, cs_catalog_page_sk, cs_customer_sk)",
            "catalog_sales(cs_warehouse_sk) INCLUDE (cs_call_center_sk, cs_catalog_page_sk, cs_customer_sk, cs_item_sk, cs_sold_date_sk)",
            "catalog_sales(cs_warehouse_sk) INCLUDE (cs_customer_sk, cs_net_paid)",
            "inventory(inv_item_sk) INCLUDE (inv_date_sk, inv_warehouse_sk)",
            "inventory(inv_quantity_on_hand) INCLUDE (inv_date_sk, inv_item_sk, inv_warehouse_sk)",
            "inventory(inv_warehouse_sk) INCLUDE (inv_date_sk, inv_item_sk)",
            "inventory(inv_warehouse_sk) INCLUDE (inv_date_sk, inv_item_sk, inv_quantity_on_hand)",
            "store_sales(ss_cdemo_sk)",
            "store_sales(ss_customer_sk) INCLUDE (ss_cdemo_sk, ss_hdemo_sk, ss_item_sk, ss_promo_sk, ss_quantity, ss_store_sk)",
            "store_sales(ss_customer_sk) INCLUDE (ss_cdemo_sk, ss_hdemo_sk, ss_item_sk, ss_promo_sk, ss_sold_date_sk, ss_store_sk)",
            "store_sales(ss_item_sk) INCLUDE (ss_cdemo_sk, ss_customer_sk, ss_hdemo_sk, ss_promo_sk, ss_store_sk)",
            "store_sales(ss_item_sk) INCLUDE (ss_customer_sk, ss_ext_tax, ss_net_paid, ss_promo_sk, ss_sold_date_sk, ss_store_sk)",
            "store_sales(ss_item_sk) INCLUDE (ss_customer_sk, ss_net_paid_inc_tax, ss_sold_date_sk)",
            "store_sales(ss_promo_sk) INCLUDE (ss_cdemo_sk, ss_customer_sk, ss_hdemo_sk, ss_sales_price, ss_sold_date_sk)",
            "store_sales(ss_promo_sk) INCLUDE (ss_cdemo_sk, ss_item_sk)",
            "store_sales(ss_sales_price)",
            "store_sales(ss_store_sk) INCLUDE (ss_cdemo_sk, ss_hdemo_sk, ss_item_sk, ss_list_price, ss_promo_sk, ss_sold_date_sk)",
            "web_sales(ws_customer_sk)",
            "web_sales(ws_ship_mode_sk) INCLUDE (ws_customer_sk, ws_ext_wholesale_cost, ws_item_sk, ws_sold_date_sk, ws_web_page_sk, ws_web_site_sk)",
        ]
        assert result.true_improvement() == 39.17846489885921


class TestWideTreeMemory:
    """The pinned TPC-DS session's tree: statistics only where a node was
    selected, visits and returns only for visited slots, action arrays only
    where the search reads them again, positions in the narrowest dtype."""

    @pytest.fixture(scope="class")
    def root(self):
        from repro.tuners import MCTSTuner
        from repro.workload.suites.tpcds import tpcds_workload

        tuner = MCTSTuner(seed=0)
        tuner.tune(tpcds_workload(), 500, TuningConstraints(max_indexes=20))
        return tuner.last_search.root

    @staticmethod
    def nodes(root):
        stack = [root]
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            yield node

    def test_unselected_nodes_hold_no_statistics(self, root):
        nodes = list(self.nodes(root))
        assert len(nodes) == 2108
        unselected = [node for node in nodes if node.visits == 0]
        assert len(unselected) == 1525
        assert not any(node.has_statistics for node in unselected)

    def test_tree_arrays_are_narrow(self, root):
        nodes = list(self.nodes(root))
        # A leaf drops its actions after its rollout and gets them back when
        # an episode enters it again, so exactly the never-selected nodes
        # (none of them terminal here) hold none.
        assert [node.actions is None for node in nodes] == [
            node.visits == 0 for node in nodes
        ]
        assert sum(node.actions is None for node in nodes) == 1525
        total = 0
        for node in nodes:
            if node.actions is not None:
                assert node.actions.dtype == np.uint16
                total += node.actions.nbytes
            if node.has_statistics:
                assert node.action_visits.dtype == np.uint32
                # Visits and returns are kept for the visited slots only.
                total += (
                    node.q.nbytes
                    + sys.getsizeof(node._counts)
                    + sys.getsizeof(node._returns)
                )
        # 4.76 MB; 12.05 MB with dense visits and returns and every leaf's
        # actions kept, 13.82 MB with int64 visits as well, and 51.2 MB if
        # every node allocated its statistics at creation.
        assert total < 5_500_000
