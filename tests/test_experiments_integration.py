"""Tests for the experiment harness and end-to-end integration scenarios."""

import pytest

from repro.codes import SuiteEntry, kernel_suite, suite_by_name
from repro.core import superscalar, vliw
from repro.core.types import FLOAT, INT
from repro.experiments import (
    PAPER_BREAKDOWN,
    format_breakdown,
    format_table,
    run_ilp_size_study,
    run_pipeline,
    run_pipeline_experiment,
    run_rs_optimality,
    run_reduction_optimality,
    section,
)
from repro.allocation import linear_scan_allocate
from repro.reduction import reduce_saturation_heuristic
from repro.saturation import greedy_saturation
from repro.scheduling import list_schedule


def tiny_suite(max_size=14, count=5):
    return [e for e in kernel_suite() if e.size <= max_size][:count]


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2], [30, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T" and "30" in text

    def test_format_breakdown_with_reference(self):
        text = format_breakdown({"x": 50.0}, {"x": 1}, paper_reference={"x": 72.2})
        assert "72.20" in text and "50.00" in text

    def test_section(self):
        assert "TITLE" in section("TITLE")


@pytest.mark.needs_ilp_solver
class TestRSOptimalityExperiment:
    def test_report_structure_and_paper_claim(self):
        report = run_rs_optimality(suite=tiny_suite())
        assert report.instances >= 4
        # the paper's headline finding: error at most one register, never negative
        assert 0 <= report.max_error <= 1
        assert report.min_error >= 0
        assert sum(report.error_histogram().values()) == report.instances
        assert "RS*" in report.to_table()
        assert any("maximal empirical error" in line for line in report.summary_lines())

    def test_bounds_proofs_are_reported(self):
        report = run_rs_optimality(suite=tiny_suite())
        proven = [c for c in report.comparisons if c.backend == "bounds"]
        assert 1 <= report.bounds_count == len(proven) <= report.instances
        assert all(c.heuristic_is_optimal for c in proven)
        line = f"proven optimal by bounds     : {len(proven)} of {report.instances}"
        assert line in report.summary_lines()


@pytest.mark.needs_ilp_solver
class TestReductionOptimalityExperiment:
    def test_categories_and_impossible_cases(self):
        report = run_reduction_optimality(
            suite=tiny_suite(max_size=12, count=4), max_nodes=12, time_limit=60
        )
        assert report.instances >= 1
        counts = report.category_counts()
        pct = report.category_percentages()
        assert abs(sum(pct.values()) - 100.0) < 1e-6 or report.instances == 0
        # the two provably impossible categories never occur
        assert report.impossible_cases_observed == 0
        assert set(PAPER_BREAKDOWN) <= set(counts)
        assert "category" in report.breakdown_report()


@pytest.mark.needs_ilp_solver
class TestILPSizeExperiment:
    def test_quadratic_growth_confirmed(self):
        report = run_ilp_size_study(sizes=(8, 12, 16, 24))
        assert len(report.points) == 4
        assert report.variable_exponent() < 2.6
        assert report.constraint_exponent() < 2.6
        assert report.variables_within_bound()
        assert report.constraints_within_bound()
        assert "m+n^2" in report.to_table()


class TestPipelineExperiment:
    def test_single_pipeline_run_spill_free(self):
        entry = suite_by_name("livermore-k7")
        machine = superscalar(float_registers=5)
        outcome = run_pipeline(entry, FLOAT, machine)
        assert outcome.spill_free
        assert outcome.registers_used <= 5
        assert outcome.rs_after <= max(outcome.rs_before, 5)

    def test_pipeline_without_pressure_adds_no_arcs(self):
        entry = suite_by_name("linpack-daxpy")
        machine = superscalar(float_registers=32)
        outcome = run_pipeline(entry, FLOAT, machine)
        assert not outcome.reduction_needed and outcome.arcs_added == 0

    def test_pipeline_experiment_over_suite(self):
        report = run_pipeline_experiment(
            suite=tiny_suite(max_size=12, count=4), machine=superscalar(), registers=6
        )
        assert report.outcomes
        assert report.spill_free_count == len(report.outcomes)
        assert "no-spill" in report.to_table()


class TestEndToEnd:
    @pytest.mark.parametrize("name,rtype,budget", [
        ("livermore-k1", FLOAT, 3),
        ("whetstone-m1", FLOAT, 3),
        ("specfp-swim", FLOAT, 6),
        ("dsp-horner7", FLOAT, 6),
        ("figure2", INT, 3),
    ])
    def test_reduce_schedule_allocate_without_spill(self, name, rtype, budget):
        """The Figure-1 promise: after RS reduction any schedule allocates in R registers."""

        entry = suite_by_name(name)
        machine = superscalar(int_registers=budget, float_registers=budget)
        rs = greedy_saturation(entry.ddg, rtype)
        working = entry.ddg
        if rs.rs > budget:
            reduction = reduce_saturation_heuristic(entry.ddg, rtype, budget, machine=machine)
            assert reduction.success, f"{name}: heuristic could not reach {budget}"
            working = reduction.extended_ddg
        g = working.with_bottom()
        schedule = list_schedule(g, machine)
        allocation = linear_scan_allocate(g, schedule, rtype, registers=budget)
        assert allocation.success, f"{name}: allocation spilled with {budget} registers"

    def test_vliw_end_to_end(self):
        entry = suite_by_name("dsp-fir6")
        machine = vliw(float_registers=8, int_registers=8)
        from repro.core import retarget

        ddg = retarget(entry.ddg, machine)
        for rtype in ddg.register_types():
            rs = greedy_saturation(ddg, rtype)
            budget = machine.registers(rtype)
            working = ddg
            if rs.rs > budget:
                reduction = reduce_saturation_heuristic(ddg, rtype, budget, machine=machine)
                assert reduction.success
                working = reduction.extended_ddg
            g = working.with_bottom()
            schedule = list_schedule(g, machine)
            allocation = linear_scan_allocate(g, schedule, rtype, registers=budget)
            assert allocation.success
