"""Tests for potential killers, killing functions and the disjoint-value DAG."""

import pytest

from repro.codes.generator import layered_random_ddg
from repro.core import DDGBuilder, asap_schedule
from repro.core.types import INT, Value
from repro.errors import KillingFunctionError
from repro.reduction import reduce_saturation_heuristic
from repro.saturation import (
    KillingFunction,
    canonical_killing_function,
    disjoint_value_dag,
    enumerate_killing_functions,
    greedy_saturation,
    killed_graph,
    killing_function_from_schedule,
    potential_killers,
    potential_killers_map,
    saturating_antichain,
)


@pytest.fixture
def reuse_ddg():
    """a feeds b and c; c also reads b: pkill(a) = {b, c}? no -- b reaches c.

    Structure: a -> b, a -> c, b -> c.  Consumer b of a reaches consumer c,
    so only c can be the last reader of a.
    """

    return (
        DDGBuilder("reuse")
        .default_type("int")
        .value("a")
        .value("b")
        .value("c")
        .flow("a", "b")
        .flow("a", "c")
        .flow("b", "c")
        .build()
    )


class TestPotentialKillers:
    def test_dominated_consumer_excluded(self, reuse_ddg):
        pk = potential_killers(reuse_ddg, Value("a", INT))
        assert pk == ["c"]

    def test_independent_consumers_all_potential(self, fork4_ddg):
        g = fork4_ddg
        pk = potential_killers(g, Value("src", INT))
        assert sorted(pk) == [f"mid{i}" for i in range(4)]

    def test_map_covers_all_values(self, figure2):
        g = figure2.with_bottom()
        pk = potential_killers_map(g, INT)
        assert {v.node for v in pk} == {"a", "b", "c", "d"}
        for killers in pk.values():
            assert killers  # every value has at least one potential killer

    def test_pkill_subset_of_consumers(self, chains3x3_ddg):
        g = chains3x3_ddg.with_bottom()
        pk = potential_killers_map(g, INT)
        for value, killers in pk.items():
            assert set(killers) <= set(g.consumers(value.node, INT))


class TestKillingFunction:
    def test_validate_accepts_legal_choice(self, reuse_ddg):
        kf = KillingFunction(INT, {Value("a", INT): "c"})
        kf.validate(reuse_ddg)

    def test_validate_rejects_non_killer(self, reuse_ddg):
        kf = KillingFunction(INT, {Value("a", INT): "b"})
        with pytest.raises(KillingFunctionError):
            kf.validate(reuse_ddg)

    def test_validate_rejects_unknown_value(self, reuse_ddg):
        kf = KillingFunction(INT, {Value("zzz", INT): "b"})
        with pytest.raises(KillingFunctionError):
            kf.validate(reuse_ddg)

    def test_schedule_induced_is_valid(self, figure2):
        g = figure2.with_bottom()
        kf = killing_function_from_schedule(g, asap_schedule(g), INT)
        assert kf.is_valid(g)
        assert len(kf) == 4

    def test_schedule_induced_can_close_a_zero_latency_cycle(self):
        """Ops issued in the same cycle can close a zero-latency killed cycle.

        After one R=3 serialization (the zero-latency arc n15 -> n13) the
        ASAP-induced killing function adds the killing arcs n13 -> n14 and
        n14 -> n15; all three ops issue at cycle 10.  The schedule satisfies
        every arc of the killed graph, so the cycle cannot have a positive
        latency, yet it is a cycle: the induced function is invalid here.
        """

        base = layered_random_ddg(nodes=16, layers=4, seed=26)
        reduced = reduce_saturation_heuristic(base, INT, 3, max_iterations=1)
        assert [(e.src, e.dst, e.latency) for e in reduced.added_edges] == [
            ("n15", "n13", 0)
        ]
        g = reduced.extended_ddg.with_bottom()
        schedule = asap_schedule(g)
        kf = killing_function_from_schedule(g, schedule, INT)
        killed = killed_graph(g, kf)
        assert schedule.is_valid(killed)
        assert not killed.is_acyclic()
        cycle = [("n13", "n14"), ("n14", "n15"), ("n15", "n13")]
        assert all(killed.best_latency_between(u, v) == 0 for u, v in cycle)
        assert {schedule[node] for node in ("n13", "n14", "n15")} == {10}
        # The canonical candidate is cyclic too; Greedy-k skips both.
        assert not canonical_killing_function(g, INT).is_valid(g)
        result = greedy_saturation(reduced.extended_ddg, INT)
        assert result.rs == 11
        assert result.details["invalid_candidates_skipped"] is True

    def test_canonical_killing_function_structure(self, figure2):
        g = figure2.with_bottom()
        kf = canonical_killing_function(g, INT)
        pk = potential_killers_map(g, INT)
        for value, killer in kf.items():
            assert killer in pk[value]

    def test_killed_graph_adds_arcs_forcing_killer_last(self, fork4_ddg):
        g = fork4_ddg.with_bottom()
        kf = KillingFunction(INT, {Value("src", INT): "mid2"})
        gk = killed_graph(g, kf)
        # arcs from the other potential killers towards the chosen one
        for other in ("mid0", "mid1", "mid3"):
            assert "mid2" in gk.successors(other)
        assert gk.is_acyclic()

    def test_enumerate_killing_functions_small(self, fork4_ddg):
        g = fork4_ddg.with_bottom()
        kfs = list(enumerate_killing_functions(g, INT))
        # src has 4 potential killers; the four mids are killed by join (1 each).
        assert len(kfs) == 4
        for kf in kfs:
            assert kf.is_valid(g)

    def test_enumerate_limit(self, fork4_ddg):
        g = fork4_ddg.with_bottom()
        assert len(list(enumerate_killing_functions(g, INT, limit=2))) == 2


class TestDisjointValueDAG:
    def test_chain_is_totally_ordered(self, chain5_ddg):
        g = chain5_ddg.with_bottom()
        kf = killing_function_from_schedule(g, asap_schedule(g), INT)
        dag = disjoint_value_dag(g, kf)
        assert dag.width == 1
        # v0 dies when v1 reads it, so v1's value is ordered after v0's.
        assert (Value("v0", INT), Value("v1", INT)) in dag.closure

    def test_independent_values_incomparable(self, figure2):
        g = figure2.with_bottom()
        kf = killing_function_from_schedule(g, asap_schedule(g), INT)
        antichain, dag = saturating_antichain(g, kf)
        assert len(antichain) == 4
        assert dag.width == 4

    def test_edges_imply_closure(self, chains3x3_ddg):
        g = chains3x3_ddg.with_bottom()
        kf = killing_function_from_schedule(g, asap_schedule(g), INT)
        dag = disjoint_value_dag(g, kf)
        assert dag.edges <= dag.closure

    def test_no_self_edges(self, figure2):
        g = figure2.with_bottom()
        kf = canonical_killing_function(g, INT)
        dag = disjoint_value_dag(g, kf)
        assert all(u != v for u, v in dag.closure)

    def test_comparable_helper(self, chain5_ddg):
        g = chain5_ddg.with_bottom()
        kf = killing_function_from_schedule(g, asap_schedule(g), INT)
        dag = disjoint_value_dag(g, kf)
        assert dag.comparable(Value("v0", INT), Value("v3", INT))
