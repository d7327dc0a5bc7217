"""Tests for the solver-backend registry and backend parity."""

import pytest

pytest.importorskip("numpy", reason="backend parity tests need the numeric stack")
pytest.importorskip("scipy", reason="backend parity tests need the numeric stack")

from repro.codes import benchmark_suite
from repro.errors import SolverError
from repro.ilp import (
    BackendCapabilities,
    BackendRegistry,
    IntegerProgram,
    LinExpr,
    Solution,
    SolveStatus,
    default_registry,
    solve,
    solve_with_branch_and_bound,
    solve_with_scipy,
)
from repro.ilp.registry import BACKEND_ENV, backend_request_token
from repro.saturation import greedy_saturation, intlp_saturation


def build_knapsack(n: int = 26, seed: int = 3) -> IntegerProgram:
    """A 0/1 model hard enough that HiGHS cannot presolve it away."""

    import random

    rng = random.Random(seed)
    m = IntegerProgram("knapsack")
    xs, weights, profits = [], [], []
    for i in range(n):
        xs.append(m.add_binary(f"x{i}"))
        weights.append(1 + rng.randrange(40))
        profits.append(1 + rng.randrange(40))
    m.add_le(LinExpr.sum(w * x for w, x in zip(weights, xs)), sum(weights) / 3)
    m.maximize(LinExpr.sum(p * x for p, x in zip(profits, xs)))
    return m


class TestRegistry:
    def test_builtin_backends_registered(self):
        registry = default_registry()
        assert registry.names() == ["scipy", "branch-bound"]
        assert "highs" in registry and "branch_bound" in registry
        assert registry.get("highs").name == "scipy"

    def test_unknown_backend(self):
        with pytest.raises(SolverError, match="unknown intLP backend"):
            default_registry().get("cplex")
        with pytest.raises(SolverError):
            solve(build_knapsack(6), backend="cplex")

    def test_auto_picks_scipy_and_records_backend(self):
        sol = solve(build_knapsack(10))
        assert sol.is_optimal
        assert sol.backend == "scipy"
        assert sol.stats()["backend"] == "scipy"

    def test_explicit_backend_recorded(self):
        sol = solve(build_knapsack(8), backend="branch-bound")
        assert sol.is_optimal and sol.backend == "branch-bound"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "branch-bound")
        sol = solve(build_knapsack(8))
        assert sol.backend == "branch-bound"
        assert backend_request_token() == "auto->branch-bound"
        monkeypatch.delenv(BACKEND_ENV)
        assert backend_request_token() == "auto"
        assert backend_request_token("scipy") == "scipy"

    def test_auto_respects_size_ceiling(self):
        registry = BackendRegistry()
        registry.register_backend(
            "tiny",
            BackendCapabilities(max_integer_variables=3),
            solve_with_branch_and_bound,
        )
        registry.register_backend("big", BackendCapabilities(), solve_with_scipy)
        assert registry.choose(build_knapsack(2)).name == "tiny"
        assert registry.choose(build_knapsack(10)).name == "big"
        assert registry.choose_by_size(3).name == "tiny"
        assert registry.choose_by_size(4).name == "big"

    def test_registration_guards(self):
        registry = BackendRegistry()
        registry.register_backend("a", BackendCapabilities(), solve_with_scipy,
                                  aliases=("alias-a",))
        with pytest.raises(SolverError):
            registry.register_backend("a", BackendCapabilities(), solve_with_scipy)
        with pytest.raises(SolverError):
            registry.register_backend("auto", BackendCapabilities(), solve_with_scipy)
        # Neither a name nor an alias may silently repoint an existing alias.
        with pytest.raises(SolverError):
            registry.register_backend("alias-a", BackendCapabilities(), solve_with_scipy)
        with pytest.raises(SolverError):
            registry.register_backend(
                "b", BackendCapabilities(), solve_with_scipy, aliases=("alias-a",)
            )
        assert "b" not in registry  # the failed registration left no trace
        registry.register_backend(
            "a", BackendCapabilities(), solve_with_branch_and_bound,
            replace_existing=True,
        )
        assert registry.get("a").fn is solve_with_branch_and_bound

    def test_capability_enforcement(self):
        registry = BackendRegistry()

        def fake(program, **kwargs):  # pragma: no cover - never reached
            return Solution(SolveStatus.OPTIMAL)

        registry.register_backend(
            "limited",
            BackendCapabilities(time_limit=False, mip_rel_gap=False),
            fake,
        )
        with pytest.raises(SolverError, match="time-limit"):
            registry.solve(build_knapsack(4), backend="limited", time_limit=1.0)
        with pytest.raises(SolverError, match="MIP-gap"):
            registry.solve(build_knapsack(4), backend="limited", mip_rel_gap=0.1)

    def test_no_backend_fits(self):
        registry = BackendRegistry()
        registry.register_backend(
            "tiny", BackendCapabilities(max_integer_variables=1), solve_with_scipy
        )
        with pytest.raises(SolverError, match="no registered backend"):
            registry.choose(build_knapsack(5))


class TestHonestStatuses:
    def test_scipy_time_limit_is_time_limit(self):
        sol = solve_with_scipy(build_knapsack(30), time_limit=1e-6)
        assert sol.status is SolveStatus.TIME_LIMIT
        assert "time limit" in sol.termination.lower()

    def test_scipy_reports_achieved_gap(self):
        sol = solve_with_scipy(build_knapsack(12))
        assert sol.is_optimal
        assert sol.mip_gap is not None and sol.mip_gap <= 1e-6

    def test_branch_bound_node_limit_is_iteration_limit(self):
        sol = solve_with_branch_and_bound(build_knapsack(30), max_nodes=2)
        assert sol.status is SolveStatus.ITERATION_LIMIT
        assert "node limit" in sol.termination
        if sol.values:
            assert sol.is_feasible  # iteration-limit incumbents stay usable

    def test_branch_bound_time_limit_is_time_limit(self):
        sol = solve_with_branch_and_bound(build_knapsack(34, seed=9), time_limit=0.0)
        assert sol.status is SolveStatus.TIME_LIMIT
        assert "time limit" in sol.termination

    def test_branch_bound_honours_mip_rel_gap(self):
        exact = solve_with_branch_and_bound(build_knapsack(18))
        loose = solve_with_branch_and_bound(build_knapsack(18), mip_rel_gap=0.5)
        assert exact.is_optimal and loose.is_optimal
        assert loose.mip_gap is not None and loose.mip_gap <= 0.5 + 1e-9
        assert exact.mip_gap is not None and exact.mip_gap <= 1e-6
        # A 50% gap tolerance can never yield a *better* incumbent.
        assert loose.objective <= exact.objective + 1e-9
        assert "mip_rel_gap" in loose.termination
        assert loose.nodes_explored <= exact.nodes_explored


class TestBackendParity:
    def test_identical_optima_on_small_kernel_suite(self):
        """Both registered backends prove the same RS on the kernel suite."""

        suite = [e for e in benchmark_suite(max_size=12)]
        assert suite, "suite fixture unexpectedly empty"
        checked = 0
        for entry in suite:
            for rtype in entry.ddg.register_types():
                via_scipy = intlp_saturation(entry.ddg, rtype, backend="scipy")
                via_bb = intlp_saturation(
                    entry.ddg, rtype, backend="branch-bound", time_limit=120.0
                )
                assert via_scipy.rs == via_bb.rs, (
                    f"{entry.name}/{rtype.name}: scipy proved {via_scipy.rs}, "
                    f"branch-bound proved {via_bb.rs}"
                )
                assert via_scipy.details["backend"] == "scipy"
                assert via_bb.details["backend"] == "branch-bound"
                # Both are exact: neither may fall below the heuristic bound.
                assert via_scipy.rs >= greedy_saturation(entry.ddg, rtype).rs
                checked += 1
        assert checked >= 5
