"""Tests for graph algorithms, antichains (Dilworth) and statistics helpers."""

import gc

import pytest

from repro.analysis import (
    NEG_INF,
    alap_times,
    asap_times,
    brute_force_maximum_antichain,
    critical_path_length,
    descendants,
    descendants_map,
    fit_power_law,
    geometric_mean,
    is_antichain,
    longest_path_matrix,
    longest_path_to_sinks,
    longest_paths_from,
    maximum_antichain,
    maximum_antichain_size,
    minimum_chain_cover_size,
    percentage_breakdown,
    redundant_edges,
    summarize,
    transitive_closure_pairs,
    worst_case_total_time,
)
from repro.analysis.graphalgo import ancestors, is_redundant_edge, mini_graph_remains_acyclic
from repro.core import DDGBuilder, chain_ddg, fork_join_ddg
from repro.core.graph import Edge
from repro.core.types import DependenceKind


class TestLongestPaths:
    def test_longest_paths_from_source(self, diamond_ddg):
        dist = longest_paths_from(diamond_ddg, "a")
        assert dist["a"] == 0 and dist["b"] == 1 and dist["d"] == 2

    def test_unreachable_is_neg_inf(self, chains3x3_ddg):
        dist = longest_paths_from(chains3x3_ddg, "c0_v0")
        assert dist["c1_v0"] == NEG_INF

    def test_matrix_consistent_with_single_source(self, diamond_ddg):
        lp = longest_path_matrix(diamond_ddg)
        for src in diamond_ddg.nodes():
            assert lp[src] == longest_paths_from(diamond_ddg, src)

    def test_longest_path_to_sinks(self, diamond_ddg):
        dist = longest_path_to_sinks(diamond_ddg)
        assert dist["a"] == 2 and dist["d"] == 0

    def test_critical_path(self, diamond_ddg, chain5_ddg):
        assert critical_path_length(diamond_ddg) == 2
        assert critical_path_length(chain5_ddg) == 4

    def test_asap_alap_bracket(self, diamond_ddg):
        asap = asap_times(diamond_ddg)
        alap = alap_times(diamond_ddg)
        assert all(asap[v] <= alap[v] for v in diamond_ddg.nodes())

    def test_worst_case_total_time_dominates_critical_path(self, figure2):
        assert worst_case_total_time(figure2) >= critical_path_length(figure2)


class TestReachability:
    def test_descendants_and_ancestors(self, diamond_ddg):
        assert descendants(diamond_ddg, "a") == {"a", "b", "c", "d"}
        assert descendants(diamond_ddg, "b", include_self=False) == {"d"}
        assert ancestors(diamond_ddg, "d", include_self=False) == {"a", "b", "c"}

    def test_descendants_map_matches_pointwise(self, fork4_ddg):
        dm = descendants_map(fork4_ddg)
        for node in fork4_ddg.nodes():
            assert dm[node] == descendants(fork4_ddg, node)

    def test_transitive_closure_pairs(self, chain5_ddg):
        pairs = transitive_closure_pairs(chain5_ddg)
        assert ("v0", "v4") in pairs and ("v4", "v0") not in pairs
        assert len(pairs) == 10  # 5 choose 2 ordered along the chain

    def test_mini_graph_acyclicity_leaves_no_garbage(self):
        # The reduction loop checks every push; a reference cycle left per
        # call would feed the collector on every iteration.
        below = {"a": {"b"}, "b": set(), "c": set()}

        def reaches(u, v):
            return v in below[u]

        edges = [
            Edge("b", "c", 1, DependenceKind.SERIAL, None),
            Edge("a", "c", 1, DependenceKind.SERIAL, None),
        ]
        gc.collect()
        gc.disable()
        try:
            assert mini_graph_remains_acyclic(edges, reaches)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("seed", range(4))
    def test_mini_graph_check_agrees_for_both_reach_predicates(self, seed):
        # The context tests set membership and the warm analysis tests a
        # bit; both must answer as the graph walk does, cycle-closing arc
        # sets included.
        import random

        from repro.analysis.context import context_for
        from repro.analysis.graphalgo import would_remain_acyclic
        from repro.codes.generator import layered_random_ddg
        from repro.saturation.incremental import IncrementalAnalysis

        rng = random.Random(seed)
        ddg = layered_random_ddg(nodes=14, layers=4, seed=seed)
        ctx = context_for(ddg)
        analysis = IncrementalAnalysis(ddg.copy())
        nodes = ddg.nodes()
        verdicts = set()
        for _ in range(60):
            edges = [
                Edge(*rng.sample(nodes, 2), 1, DependenceKind.SERIAL, None)
                for _ in range(rng.randint(1, 3))
            ]
            expected = would_remain_acyclic(ddg, edges)
            assert ctx.remains_acyclic_with_edges(edges) == expected, edges
            assert analysis.remains_acyclic_with_edges(edges) == expected, edges
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestRedundantEdges:
    def test_redundant_serial_edge_detected(self):
        g = (
            DDGBuilder("g").default_type("int")
            .value("a", latency=3).value("b", latency=3).op("c")
            .flow("a", "b").flow("b", "c")
            .serial("a", "c", latency=1)   # implied by a->b->c (latency 6)
            .build()
        )
        reds = redundant_edges(g)
        assert len(reds) == 1 and reds[0].is_serial

    def test_flow_edges_never_reported(self, diamond_ddg):
        assert all(e.is_serial for e in redundant_edges(diamond_ddg))

    def test_non_redundant_edge(self):
        g = (
            DDGBuilder("g").default_type("int")
            .value("a", latency=1).op("c")
            .flow("a", "c")
            .build()
        )
        assert redundant_edges(g) == []


class TestAntichain:
    def chain_poset(self, n):
        elems = list(range(n))
        pairs = [(i, j) for i in elems for j in elems if i < j]
        return elems, pairs

    def test_chain_has_width_one(self):
        elems, pairs = self.chain_poset(6)
        assert maximum_antichain_size(elems, pairs) == 1

    def test_empty_order_width_is_n(self):
        assert maximum_antichain_size(list(range(5)), []) == 5

    def test_antichain_is_valid(self):
        elems = list("abcdef")
        pairs = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("e", "f")]
        anti = maximum_antichain(elems, pairs)
        assert is_antichain(anti, pairs)

    def test_matches_brute_force_on_random_posets(self):
        import random

        rng = random.Random(42)
        for trial in range(12):
            n = rng.randint(3, 8)
            elems = list(range(n))
            pairs = set()
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.4:
                        pairs.add((i, j))
            # transitive closure
            changed = True
            while changed:
                changed = False
                for (a, b) in list(pairs):
                    for (c, d) in list(pairs):
                        if b == c and (a, d) not in pairs:
                            pairs.add((a, d))
                            changed = True
            assert maximum_antichain_size(elems, pairs) == brute_force_maximum_antichain(
                elems, pairs
            )

    def test_dilworth_duality(self):
        elems = list("abcdef")
        pairs = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        assert maximum_antichain_size(elems, pairs) == minimum_chain_cover_size(elems, pairs)

    def test_empty_elements(self):
        assert maximum_antichain([], []) == []
        assert minimum_chain_cover_size([], []) == 0


class TestStats:
    def test_summarize(self):
        s = summarize([1, 2, 3, 4])
        assert s.count == 4 and s.mean == 2.5 and s.minimum == 1 and s.maximum == 4

    def test_summarize_empty(self):
        assert summarize([]).count == 0

    def test_percentage_breakdown(self):
        pct = percentage_breakdown({"a": 3, "b": 1})
        assert pct["a"] == 75.0 and pct["b"] == 25.0

    def test_percentage_breakdown_empty(self):
        assert percentage_breakdown({"a": 0}) == {"a": 0.0}

    def test_fit_power_law_recovers_exponent(self):
        xs = [10, 20, 40, 80]
        ys = [3 * x ** 2 for x in xs]
        alpha, c = fit_power_law(xs, ys)
        assert abs(alpha - 2.0) < 1e-6 and abs(c - 3.0) < 1e-6

    def test_fit_power_law_needs_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])

    def test_geometric_mean(self):
        assert abs(geometric_mean([1, 100]) - 10.0) < 1e-9
