"""Fault-tolerance tests: supervised engine chaos matrix + store races.

The contract under test is the chaos invariant: however workers crash,
hang, return garbage, or take the whole process pool down with them, a
supervised ``BatchEngine.map`` completes with results (and reports)
byte-identical to a serial fault-free run, and every item accounts for
itself through an :class:`ItemOutcome`.  The second half pins the
concurrency-hardened :class:`ResultStore`: concurrent writer processes
hammering one shard never produce a torn read.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time

import pytest

from repro.analysis.store import ResultStore
from repro.codes import benchmark_suite
from repro.core import superscalar
from repro.errors import ReproError, SolverError, TransientError
from repro.experiments import (
    BatchEngine,
    ItemTimeout,
    SupervisorConfig,
    run_pipeline_experiment,
)
from repro.testing import (
    CorruptPayload,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    active_plan,
    is_corrupt_payload,
)

# Module-level workers so the process policy can pickle them.


def _square(x: int) -> int:
    return x * x


def _sleepy_square(packed):
    x, delay = packed
    time.sleep(delay)
    return x * x


_FAST_CONFIG = SupervisorConfig(
    timeout=0.25, max_attempts=4, backoff_base=0.01, backoff_cap=0.05
)


# --------------------------------------------------------------------------- #
# Fault plan parsing and determinism
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse("crash:0.1,hang:0.05,corrupt@7,kill@3,seed:42,hangdur:1.5")
        assert plan.crash_rate == 0.1 and plan.hang_rate == 0.05
        assert plan.corrupt_at == frozenset({7}) and plan.kill_at == frozenset({3})
        assert plan.seed == 42 and plan.hang_seconds == 1.5
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("explode:0.5")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash:1.5")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash:0.9,hang:0.9")

    def test_decisions_are_deterministic_and_capped(self):
        plan = FaultPlan.parse("crash:0.3,hang:0.2,seed:11,maxattempts:2")
        injector = FaultInjector(plan)
        decisions = [injector.decide(i, 1) for i in range(200)]
        assert decisions == [injector.decide(i, 1) for i in range(200)]
        assert {"crash", "hang"} <= set(d for d in decisions if d)
        # Beyond max_faulty_attempts every rate-based decision is clean,
        # which is what turns "the chaos run completes" into a guarantee.
        assert all(injector.decide(i, 3) is None for i in range(200))

    def test_planted_faults_fire_on_first_attempt_only(self):
        injector = FaultInjector(FaultPlan.parse("crash@5"))
        assert injector.decide(5, 1) == "crash"
        assert injector.decide(5, 2) is None
        assert injector.decide(4, 1) is None

    def test_active_plan_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert active_plan() is None
        monkeypatch.setenv("REPRO_FAULTS", "crash@1")
        assert active_plan() == FaultPlan.parse("crash@1")
        monkeypatch.setenv("REPRO_FAULTS", "seed:9")  # no faults => inactive
        assert active_plan() is None

    def test_corrupt_payload_marker(self):
        marker = CorruptPayload(index=3, attempt=1)
        assert is_corrupt_payload(marker) and not is_corrupt_payload({"index": 3})


# --------------------------------------------------------------------------- #
# Error classification
# --------------------------------------------------------------------------- #
class TestRetryablePredicate:
    def test_library_errors_fail_fast_by_default(self):
        assert not ReproError("x").retryable()
        assert not SolverError("solver died").retryable()

    def test_transient_errors_are_retryable(self):
        assert TransientError("worker lost").retryable()
        assert ItemTimeout("timed out").retryable()


# --------------------------------------------------------------------------- #
# The chaos matrix: crash / hang / corrupt under every policy
# --------------------------------------------------------------------------- #
class TestChaosMatrix:
    @pytest.mark.parametrize("policy", ["serial", "thread", "process"])
    def test_results_identical_under_planted_faults(self, policy, monkeypatch):
        items = list(range(8))
        reference = [x * x for x in items]
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "crash@1,corrupt@2,hang@3,crash:0.2,seed:13,hangdur:0.6",
        )
        engine = BatchEngine(policy, workers=2, supervisor=_FAST_CONFIG)
        results, outcomes = engine.map_with_outcomes(_square, items)
        assert results == reference
        assert [o.index for o in outcomes] == items
        assert all(o.status == "ok" for o in outcomes)
        faulted = [o for o in outcomes if o.faulted]
        assert len(faulted) >= 3  # the planted trio at least
        kinds = {event.kind for o in faulted for event in o.faults}
        assert "error" in kinds or "corrupt" in kinds
        # Retries are visible in the attempt counts, not in the results.
        assert any(o.attempts > 1 for o in faulted)

    def test_rate_faults_are_reproducible_across_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:0.3,corrupt:0.2,seed:7")
        engine = BatchEngine("thread", workers=3, supervisor=_FAST_CONFIG)
        first_results, first = engine.map_with_outcomes(_square, list(range(12)))
        second_results, second = engine.map_with_outcomes(_square, list(range(12)))
        assert first_results == second_results == [x * x for x in range(12)]
        # The fault *schedule* is a pure function of (seed, index, attempt):
        # both runs record identical per-item fault kind sequences.
        key = lambda outs: [[e.kind for e in o.faults] for o in outs]
        assert key(first) == key(second)

    def test_timeout_recovers_hung_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang@2,hangdur:1.0,seed:3")
        engine = BatchEngine("thread", workers=2, supervisor=_FAST_CONFIG)
        t0 = time.monotonic()
        results, outcomes = engine.map_with_outcomes(_square, list(range(5)))
        assert results == [x * x for x in range(5)]
        hung = outcomes[2]
        assert hung.status == "ok" and hung.attempts == 2
        assert [e.kind for e in hung.faults] == ["timeout"]
        assert time.monotonic() - t0 < 5.0

    def test_timeout_reaps_hung_process_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang@2,hangdur:10.0,seed:3")
        config = SupervisorConfig(
            timeout=1.0, max_attempts=4, backoff_base=0.01, backoff_cap=0.05
        )
        engine = BatchEngine("process", workers=2, supervisor=config)
        before = set(multiprocessing.active_children())
        t0 = time.monotonic()
        results, outcomes = engine.map_with_outcomes(_square, list(range(5)))
        assert results == [x * x for x in range(5)]
        hung = outcomes[2]
        assert hung.status == "ok" and hung.attempts == 2
        assert [e.kind for e in hung.faults] == ["timeout"]
        # The hung worker is terminated and joined with its pool: it does
        # not sleep out its hang after the batch has returned.
        assert set(multiprocessing.active_children()) <= before
        assert time.monotonic() - t0 < 8.0

    def test_broken_process_pool_recovers(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill@1,seed:3")
        engine = BatchEngine("process", workers=2, supervisor=_FAST_CONFIG)
        results, outcomes = engine.map_with_outcomes(_square, list(range(6)))
        assert results == [x * x for x in range(6)]
        kinds = {e.kind for o in outcomes for e in o.faults}
        assert "pool-broken" in kinds

    def test_repeated_pool_deaths_degrade_down_the_ladder(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill@0,kill@1,kill@2,kill@3,seed:3")
        config = SupervisorConfig(
            timeout=5.0, max_attempts=5, backoff_base=0.01, pool_failure_limit=1
        )
        engine = BatchEngine("process", workers=2, supervisor=config)
        results, outcomes = engine.map_with_outcomes(_square, list(range(5)))
        assert results == [x * x for x in range(5)]
        # The pool died more often than the failure limit allows, so at
        # least part of the batch finished on a degraded policy.
        assert {o.policy for o in outcomes} & {"thread", "serial"}

    def test_speculative_straggler_dispatch_keeps_results_exact(self):
        config = SupervisorConfig(timeout=None, max_attempts=2, speculate=True,
                                  backoff_base=0.01)
        engine = BatchEngine("thread", workers=4, supervisor=config)
        items = [(x, 0.3 if x == 5 else 0.0) for x in range(6)]
        results, outcomes = engine.map_with_outcomes(_sleepy_square, items)
        assert results == [x * x for x, _ in items]
        assert all(o.status == "ok" for o in outcomes)


# --------------------------------------------------------------------------- #
# Failure semantics
# --------------------------------------------------------------------------- #
_CALLS: list = []


def _fail_solver(x):
    _CALLS.append(x)
    if x == 2:
        raise SolverError("deterministically infeasible")
    return x


def _fail_value(x):
    _CALLS.append(x)
    raise ValueError("broken forever")


class TestFailureSemantics:
    @pytest.mark.parametrize("policy", ["serial", "thread"])
    def test_non_retryable_errors_skip_the_retry_budget(self, policy):
        _CALLS.clear()
        engine = BatchEngine(policy, workers=2, supervisor=_FAST_CONFIG)
        with pytest.raises(SolverError):
            engine.map(_fail_solver, [1, 2, 3])
        assert _CALLS.count(2) == 1

    def test_retryable_errors_burn_the_budget_then_surface(self):
        _CALLS.clear()
        engine = BatchEngine(
            "thread", workers=2,
            supervisor=SupervisorConfig(max_attempts=3, backoff_base=0.001),
        )
        with pytest.raises(ValueError, match="broken forever"):
            engine.map(_fail_value, [9])
        assert _CALLS == [9, 9, 9]

    def test_exhausted_timeouts_raise_item_timeout(self):
        config = SupervisorConfig(timeout=0.05, max_attempts=2, backoff_base=0.001)
        engine = BatchEngine("thread", workers=2, supervisor=config)
        with pytest.raises(ItemTimeout):
            engine.map(_sleepy_square, [(1, 0.6), (2, 0.6)])

    def test_plain_dispatch_cancels_pending_futures_on_failure(self):
        executed = []

        def fail_first(x):
            if x == 0:
                raise ValueError("boom on 0")
            time.sleep(0.1)
            executed.append(x)
            return x

        engine = BatchEngine("thread", workers=1)
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="boom on 0"):
            engine.map(fail_first, [0, 1, 2, 3, 4, 5])
        elapsed = time.monotonic() - t0
        # One worker: item 0 fails instantly; the worker may have already
        # dequeued item 1 before the engine reacts, but everything still
        # queued must be cancelled rather than run to completion.
        assert len(executed) <= 1
        assert elapsed < 0.4


# --------------------------------------------------------------------------- #
# Report-level chaos invariant (the acceptance criterion)
# --------------------------------------------------------------------------- #
class TestChaosReports:
    def test_process_chaos_report_byte_identical_to_serial_reference(
        self, monkeypatch
    ):
        suite = benchmark_suite(max_size=10)
        machine = superscalar(int_registers=6, float_registers=6)
        kwargs = dict(suite=suite, machine=machine, registers=6,
                      compare_baseline=False)

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        reference = run_pipeline_experiment(**kwargs)
        n_items = len(reference.outcomes)
        assert n_items >= 3

        monkeypatch.setenv(
            "REPRO_FAULTS",
            "crash@0,corrupt@1,hang@2,crash:0.1,seed:29,hangdur:0.6",
        )
        chaos_engine = BatchEngine("process", workers=2, supervisor=_FAST_CONFIG)
        chaos = run_pipeline_experiment(engine=chaos_engine, **kwargs)

        assert chaos.to_table() == reference.to_table()
        assert len(chaos.item_outcomes) == n_items
        assert all(o.status == "ok" for o in chaos.item_outcomes)
        faulted = sum(1 for o in chaos.item_outcomes if o.faulted)
        assert faulted >= max(1, n_items // 10)  # >=10% of items disturbed

    def test_unsupervised_reports_carry_trivial_outcomes(self):
        suite = benchmark_suite(max_size=8)
        machine = superscalar(int_registers=6, float_registers=6)
        report = run_pipeline_experiment(
            suite=suite, machine=machine, registers=6, compare_baseline=False
        )
        assert len(report.item_outcomes) == len(report.outcomes)
        assert all(not o.faulted and o.status == "ok" for o in report.item_outcomes)


# --------------------------------------------------------------------------- #
# Store concurrency and quarantine
# --------------------------------------------------------------------------- #
#: Two writers hammer the same few keys (hence the same shards) with
#: internally-checkable payloads of different sizes.
_RACE_KEYS = [("racehash", "race", {"slot": s}) for s in range(2)]


def _race_payload(writer: int, iteration: int) -> dict:
    return {
        "writer": writer,
        "iteration": iteration,
        "blob": b"x" * (512 + 64 * (iteration % 7)),
        "check": writer * 1_000_000 + iteration,
    }


def _race_writer(root: str, writer: int, iterations: int) -> None:
    store = ResultStore(root)
    for i in range(iterations):
        for ghash, query, params in _RACE_KEYS:
            store.put(ghash, query, params, _race_payload(writer, i))


def _payload_is_complete(value: dict) -> bool:
    return (
        isinstance(value, dict)
        and value["check"] == value["writer"] * 1_000_000 + value["iteration"]
        and value["blob"] == b"x" * (512 + 64 * (value["iteration"] % 7))
    )


class TestStoreConcurrency:
    def test_faulted_supervised_batch_writes_each_key_once(self, tmp_path, monkeypatch):
        items = list(range(6))
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        reference = BatchEngine("serial").map(_square, items)
        store = ResultStore(tmp_path)
        store_kwargs = dict(store=store, query="square",
                            key_fn=lambda x: (f"item-{x}", {"power": 2}))
        monkeypatch.setenv("REPRO_FAULTS", "crash@1,corrupt@2")
        # No deadline: only the two planted faults disturb the batch.
        config = SupervisorConfig(max_attempts=3, backoff_base=0.01, backoff_cap=0.05)
        engine = BatchEngine("process", workers=2, supervisor=config)
        results, outcomes = engine.map_with_outcomes(_square, items, **store_kwargs)
        assert results == reference
        assert {o.index for o in outcomes if o.faulted} == {1, 2}
        # Retried items are written once, after their result is in.
        assert store.stats.puts == store.entry_count() == len(items)
        rerun, rerun_outcomes = engine.map_with_outcomes(_square, items, **store_kwargs)
        assert rerun == reference
        assert all(o.status == "stored" for o in rerun_outcomes)
        assert store.stats.puts == store.entry_count() == len(items)

    def test_two_writer_processes_never_produce_a_torn_read(self, tmp_path):
        iterations = 60
        writers = [
            multiprocessing.Process(
                target=_race_writer, args=(str(tmp_path), w, iterations)
            )
            for w in (1, 2)
        ]
        for proc in writers:
            proc.start()
        reader = ResultStore(tmp_path)
        reads = misses = 0
        try:
            while any(proc.is_alive() for proc in writers):
                for ghash, query, params in _RACE_KEYS:
                    value = reader.get(ghash, query, params, default=None)
                    reads += 1
                    if value is None:
                        misses += 1
                    else:
                        assert _payload_is_complete(value), value
        finally:
            for proc in writers:
                proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in writers)
        assert reads > 0
        # Every read was a miss or a fully-written value: nothing was torn,
        # nothing was quarantined.
        assert reader.stats.corrupt == 0 and reader.stats.errors == 0
        for ghash, query, params in _RACE_KEYS:
            assert _payload_is_complete(reader.get(ghash, query, params))
        assert reader.quarantined_count() == 0

    def test_corrupt_entry_is_quarantined_not_deleted(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put("h", "q", None, {"fine": True})
        path.write_bytes(b"this is not a pickle")
        assert store.get("h", "q", None, default="miss") == "miss"
        assert store.stats.corrupt == 1 and store.stats.errors == 1
        assert not path.exists()
        assert store.quarantined_count() == 1
        assert (store.quarantine_dir / path.name).read_bytes() == b"this is not a pickle"
        # Quarantined entries are out of the live namespace entirely.
        assert store.entry_count() == 0

    def test_wrong_shape_payload_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put("h", "q", None, "value")
        path.write_bytes(pickle.dumps(["not", "the", "payload", "dict"]))
        assert store.get("h", "q", None) is None
        assert store.stats.corrupt == 1
        assert store.quarantined_count() == 1

    def test_clear_spares_the_quarantine(self, tmp_path):
        store = ResultStore(tmp_path)
        keep = store.put("h1", "q", None, 1)
        bad = store.put("h2", "q", None, 2)
        bad.write_bytes(b"garbage")
        store.get("h2", "q", None)  # quarantines
        assert store.clear() == 1  # only the live entry
        assert store.entry_count() == 0
        assert store.quarantined_count() == 1
        assert not keep.exists()

    def test_shard_lock_files_are_invisible_to_entry_count(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put("h", "q", None, "v")
        assert (path.parent / ".lock").exists()
        assert store.entry_count() == 1


def _lambda_result(x):
    return lambda: x  # deliberately unpicklable return value


# --------------------------------------------------------------------------- #
# Pickling failures and environment validation
# --------------------------------------------------------------------------- #
class TestPicklingFailFast:
    def test_unpicklable_result_is_not_retried(self):
        engine = BatchEngine("process", workers=2, supervisor=_FAST_CONFIG)
        t0 = time.monotonic()
        with pytest.raises((pickle.PickleError, AttributeError, TypeError)):
            engine.map_with_outcomes(_lambda_result, list(range(3)))
        # Deterministic failure: one attempt, no retry/backoff burn.
        assert time.monotonic() - t0 < 5.0

    def test_pickle_errors_classified_non_retryable(self):
        from repro.experiments.supervisor import Supervisor

        assert not Supervisor._is_retryable(pickle.PicklingError("no"))
        assert not Supervisor._is_retryable(
            AttributeError("Can't pickle local object ...")
        )
        # Only the serialization flavour fails fast; a plain AttributeError
        # keeps the generic worker-exception (retryable) classification.
        assert Supervisor._is_retryable(AttributeError("plain attribute miss"))


class TestEnvironmentValidation:
    @pytest.mark.parametrize(
        "variable, value",
        [
            ("REPRO_TIMEOUT", "-5"),
            ("REPRO_TIMEOUT", "abc"),
            ("REPRO_RETRIES", "0"),
            ("REPRO_RETRIES", "abc"),
            ("REPRO_RETRIES", "2.5"),
        ],
    )
    def test_malformed_supervision_env_names_the_variable(
        self, monkeypatch, variable, value
    ):
        from repro.errors import ConfigurationError

        monkeypatch.setenv(variable, value)
        with pytest.raises(ConfigurationError, match=variable):
            SupervisorConfig.from_environment()

    def test_zero_timeout_means_no_deadline(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "0")
        config = SupervisorConfig.from_environment()
        assert config is not None and config.timeout is None

    def test_malformed_fault_spec_names_the_variable(self, monkeypatch):
        from repro.errors import ConfigurationError

        # ``drop`` and ``leasekill`` are not fault kinds: no dispatcher
        # applies them, so a plan naming them must not pass for a chaos run.
        for spec in ("crash:not-a-rate", "drop@0", "leasekill@1"):
            monkeypatch.setenv("REPRO_FAULTS", spec)
            with pytest.raises(ConfigurationError, match="REPRO_FAULTS"):
                active_plan()
