"""Tests for the batch execution engine and the engine-backed experiments.

The contract under test: whatever the policy and however workers interleave,
the results come back in input order and every experiment report is
byte-identical to its serial counterpart.
"""

from __future__ import annotations

import time

import pytest

from repro.codes import benchmark_suite
from repro.core import superscalar
from repro.errors import ConfigurationError
from repro.experiments import (
    BatchEngine,
    run_batch,
    run_ilp_size_study,
    run_pipeline_experiment,
)

# Module-level workers so the process policy can pickle them.


def _square(x: int) -> int:
    return x * x


def _slow_inverse(item):
    """Finishes in reverse submission order to stress result reordering."""

    index, total = item
    time.sleep(0.005 * (total - index))
    return index


def _explode(x: int) -> int:
    if x == 3:
        raise ValueError("boom on 3")
    return x


class TestBatchEngine:
    def test_spec_parsing(self):
        assert BatchEngine.coerce(None).policy == "serial"
        assert BatchEngine.coerce("thread").policy == "thread"
        engine = BatchEngine.coerce("process:4")
        assert engine.policy == "process" and engine.workers == 4
        ready = BatchEngine("thread", 2)
        assert BatchEngine.coerce(ready) is ready

    def test_invalid_specs_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            BatchEngine("fibers")
        with pytest.raises(ValueError):
            BatchEngine("thread", 0)
        # Unknown policies, removed ones included, fail by the variable's name.
        for spec in ("fleet", "fleet:3", "fibers", "thread:0", "thread:x"):
            with pytest.raises(ValueError):
                BatchEngine.from_spec(spec)
            monkeypatch.setenv("REPRO_ENGINE", spec)
            with pytest.raises(ConfigurationError, match="REPRO_ENGINE"):
                BatchEngine.from_environment()

    @pytest.mark.parametrize("policy", ["serial", "thread"])
    def test_results_in_input_order(self, policy):
        items = [(i, 8) for i in range(8)]
        engine = BatchEngine(policy, workers=8)
        assert engine.map(_slow_inverse, items) == list(range(8))

    def test_process_policy_round_trip(self):
        assert run_batch(_square, [3, 1, 2], engine="process:2") == [9, 1, 4]

    def test_worker_exception_propagates(self):
        for policy in ("serial", "thread"):
            with pytest.raises(ValueError, match="boom on 3"):
                BatchEngine(policy).map(_explode, [1, 2, 3, 4])

    def test_resolved_workers_bounded_by_items(self):
        assert BatchEngine("thread", 16).resolved_workers(3) == 3
        assert BatchEngine("thread", 2).resolved_workers(10) == 2


class TestEngineBackedExperiments:
    @pytest.fixture(scope="class")
    def machine(self):
        return superscalar(int_registers=6, float_registers=6)

    def test_pipeline_reports_byte_identical(self, machine):
        suite = benchmark_suite(max_size=16)
        serial = run_pipeline_experiment(
            suite=suite, machine=machine, registers=6, compare_baseline=False
        )
        threaded = run_pipeline_experiment(
            suite=suite,
            machine=machine,
            registers=6,
            compare_baseline=False,
            engine="thread",
        )
        assert serial.to_table() == threaded.to_table()
        assert [o.name for o in serial.outcomes] == [o.name for o in threaded.outcomes]

    @pytest.mark.needs_ilp_solver
    def test_ilp_size_reports_byte_identical(self):
        serial = run_ilp_size_study(sizes=(10, 14, 18))
        threaded = run_ilp_size_study(sizes=(10, 14, 18), engine=BatchEngine("thread", 3))
        assert serial.to_table() == threaded.to_table()
