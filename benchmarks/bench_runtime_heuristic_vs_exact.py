"""Reproduces the Section-5 runtime observation: optimal methods are expensive.

The paper: "Since all the problems of RS computation and reduction are
NP-hard, reaching the optimal solutions were very time consuming (from many
seconds to many days)" -- while the heuristics run in negligible time.
These pytest-benchmark timings measure both sides on a mid-size kernel.
The exact side times the intLP itself (``intlp_saturation``):
``exact_saturation`` proves this kernel's RS by bounds, without a solve.
"""

from __future__ import annotations

import pytest

from repro.codes import suite_by_name
from repro.core.types import FLOAT
from repro.reduction import reduce_saturation_exact, reduce_saturation_heuristic
from repro.saturation import greedy_saturation, intlp_saturation

KERNEL = "livermore-k7"


@pytest.fixture(scope="module")
def kernel():
    return suite_by_name(KERNEL).ddg


def test_greedy_saturation_runtime(benchmark, kernel):
    result = benchmark(lambda: greedy_saturation(kernel, FLOAT))
    assert result.rs >= 1


def test_exact_saturation_runtime(benchmark, kernel):
    result = benchmark.pedantic(
        lambda: intlp_saturation(kernel, FLOAT), rounds=2, iterations=1
    )
    assert result.optimal


def test_heuristic_reduction_runtime(benchmark, kernel, machine):
    result = benchmark(
        lambda: reduce_saturation_heuristic(kernel, FLOAT, 4, machine=machine)
    )
    assert result.success


def test_exact_reduction_runtime(benchmark, kernel, machine):
    result = benchmark.pedantic(
        lambda: reduce_saturation_exact(kernel, FLOAT, 4, machine=machine),
        rounds=1,
        iterations=1,
    )
    assert result.optimal


def test_runtime_gap_summary(kernel, machine):
    """Non-timed sanity check printing the heuristic/exact runtime ratio."""

    import time

    t0 = time.perf_counter()
    greedy_saturation(kernel, FLOAT)
    heuristic_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    intlp_saturation(kernel, FLOAT)
    exact_time = time.perf_counter() - t0
    print(f"\n{KERNEL}: heuristic {heuristic_time * 1e3:.1f} ms vs exact {exact_time * 1e3:.1f} ms "
          f"({exact_time / max(heuristic_time, 1e-9):.0f}x slower)")
    assert exact_time >= heuristic_time * 0.5  # the exact method is never dramatically faster
