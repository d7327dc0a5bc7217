"""Tests comparing the saturation methods: greedy heuristic, exact intLP, oracles, bounds."""

import pytest

from repro.codes.suite import kernel_suite
from repro.core import DDGBuilder, chain_ddg, fork_join_ddg, independent_chains_ddg, vliw, retarget
from repro.core.types import INT, FLOAT
from repro.saturation import (
    SaturationResult,
    build_rs_program,
    compute_saturation,
    exact_saturation,
    greedy_saturation,
    intlp_saturation,
    saturation_bounds,
    saturation_by_killing_enumeration,
    saturation_by_schedule_enumeration,
    trivially_within_budget,
)

SMALL_SHAPES = [
    ("chain4", chain_ddg(4), 1),
    ("fork3", fork_join_ddg(3), 3),
    ("fork5", fork_join_ddg(5), 5),
    ("chains2x3", independent_chains_ddg(2, 3), 2),
    ("chains3x2", independent_chains_ddg(3, 2), 3),
]


class TestAnalyticalShapes:
    @pytest.mark.parametrize("name,ddg,expected", SMALL_SHAPES, ids=[s[0] for s in SMALL_SHAPES])
    @pytest.mark.needs_ilp_solver
    def test_exact_matches_analytical(self, name, ddg, expected):
        assert exact_saturation(ddg, INT).rs == expected

    @pytest.mark.parametrize("name,ddg,expected", SMALL_SHAPES, ids=[s[0] for s in SMALL_SHAPES])
    def test_greedy_matches_analytical(self, name, ddg, expected):
        assert greedy_saturation(ddg, INT).rs == expected

    @pytest.mark.parametrize("name,ddg,expected", SMALL_SHAPES, ids=[s[0] for s in SMALL_SHAPES])
    def test_schedule_enumeration_matches(self, name, ddg, expected):
        assert saturation_by_schedule_enumeration(ddg, INT).rs == expected

    @pytest.mark.needs_ilp_solver
    def test_figure2_saturation_is_four(self, figure2):
        assert exact_saturation(figure2, INT).rs == 4
        assert greedy_saturation(figure2, INT).rs == 4

    def test_empty_type_returns_zero(self, figure2):
        assert exact_saturation(figure2, FLOAT).rs == 0
        assert greedy_saturation(figure2, FLOAT).rs == 0


@pytest.mark.needs_ilp_solver
class TestSandwichInvariants:
    @pytest.mark.parametrize(
        "entry",
        [e for e in kernel_suite() if e.size <= 20],
        ids=lambda e: e.name,
    )
    def test_greedy_between_bounds_and_below_exact(self, entry):
        for rtype in entry.ddg.register_types():
            bounds = saturation_bounds(entry.ddg, rtype)
            greedy = greedy_saturation(entry.ddg, rtype)
            exact = exact_saturation(entry.ddg, rtype, time_limit=60)
            assert bounds.lower <= exact.rs <= bounds.upper
            assert greedy.rs <= exact.rs, "heuristic must be a valid lower bound"
            assert exact.rs - greedy.rs <= 1, "paper: maximal empirical error is one register"

    def test_witness_schedule_realises_exact_value(self, figure2):
        from repro.core.lifetime import register_need

        result = intlp_saturation(figure2, INT)
        assert result.witness_schedule is not None
        need = register_need(result.witness_schedule and _bottom(figure2), result.witness_schedule, INT)
        assert need == result.rs

    def test_saturating_values_count_matches_rs(self, figure2):
        result = exact_saturation(figure2, INT)
        assert len(result.saturating_values) == result.rs
        greedy = greedy_saturation(figure2, INT)
        assert len(greedy.saturating_values) == greedy.rs


def _bottom(ddg):
    return ddg.with_bottom()


class TestOracles:
    def test_killing_enumeration_matches_exact_on_small_graphs(self):
        for name, ddg, expected in SMALL_SHAPES[:3]:
            result = saturation_by_killing_enumeration(ddg, INT)
            assert result.rs == expected

    def test_schedule_enumeration_truncation_flagged(self, fork4_ddg):
        result = saturation_by_schedule_enumeration(fork4_ddg, INT, limit=3)
        assert not result.optimal and result.details["truncated"]

    @pytest.mark.needs_ilp_solver
    def test_compute_saturation_dispatch(self, figure2):
        assert compute_saturation(figure2, INT, method="greedy").rs == 4
        assert compute_saturation(figure2, INT, method="exact").rs == 4
        assert compute_saturation(figure2, INT, method="killing-enum").rs == 4
        with pytest.raises(ValueError):
            compute_saturation(figure2, INT, method="magic")


class TestBounds:
    def test_trivial_budget_check(self, figure2):
        assert trivially_within_budget(figure2, INT, 4)
        assert not trivially_within_budget(figure2, INT, 3)

    def test_bounds_ordering(self, figure2):
        b = saturation_bounds(figure2, INT)
        assert 1 <= b.lower <= b.upper == 4
        assert b.is_tight == (b.lower == b.upper)

    def test_bounds_empty_type(self, figure2):
        b = saturation_bounds(figure2, FLOAT)
        assert b.lower == b.upper == 0


class TestModelSize:
    def test_rs_program_size_is_quadratic(self):
        ddg = fork_join_ddg(6)
        program, info = build_rs_program(ddg, INT, prune_redundant_arcs=False,
                                         prune_noninterfering_pairs=False)
        n = info.ddg.n
        m = info.ddg.m
        stats = program.statistics()
        assert stats["variables"] <= 8 * n * n
        assert stats["constraints"] <= 8 * (m + n * n)

    def test_pruning_reduces_model(self, chain5_ddg):
        full, _ = build_rs_program(chain5_ddg, INT, prune_redundant_arcs=False,
                                   prune_noninterfering_pairs=False)
        pruned, _ = build_rs_program(chain5_ddg, INT)
        assert pruned.num_variables <= full.num_variables
        assert pruned.num_constraints < full.num_constraints

    @pytest.mark.needs_ilp_solver
    def test_pruning_preserves_optimum(self):
        for name, ddg, expected in SMALL_SHAPES:
            assert intlp_saturation(ddg, INT, prune=False).rs == expected


@pytest.mark.needs_ilp_solver
class TestVLIWOffsets:
    def test_saturation_with_offsets_still_bounded(self):
        ddg = retarget(fork_join_ddg(4, latency=3), vliw())
        exact = intlp_saturation(ddg, INT)
        greedy = greedy_saturation(ddg, INT)
        assert 1 <= greedy.rs <= exact.rs <= 5
