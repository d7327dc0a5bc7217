"""The batch engine's dispatch contract, policy by policy.

Serial, thread and process dispatch, each plain or supervised, must keep
one contract: results in input order, one :class:`ItemOutcome` per item
(re-indexed to the input position when the store answers the rest), an
empty batch is a no-op, ``plan`` rewrites items before the store is
consulted, store hits never reach a worker and each miss is written once,
and a permanent failure propagates like a plain loop.  The second half
pins the supervisor's configuration surface and the fault plan's
worker-side schedule, which chaos runs published by seed rely on.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.analysis.store import ResultStore
from repro.errors import SolverError
from repro.experiments import BatchEngine, SupervisorConfig, outcomes_as_dicts
from repro.testing import FaultInjector, FaultPlan

# Module-level workers so the process policy can pickle them.


def _square(x: int) -> int:
    return x * x


def _slow_inverse(item):
    """Finishes in reverse submission order to stress result reordering."""

    index, total = item
    time.sleep(0.005 * (total - index))
    return index


def _never_called(x):
    raise AssertionError(f"item {x} was dispatched although it is stored")


def _solver_error_on_three(x: int) -> int:
    if x == 3:
        raise SolverError(f"no solution for {x}")
    return x


def _key(x: int):
    return f"item-{x}", {"power": 2}


_SUPERVISION_ENV = ("REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_SPECULATE", "REPRO_FAULTS")

#: Every dispatch path that survives: three policies, plain or supervised.
_PATHS = [
    pytest.param(policy, supervised, id=f"{policy}-{'supervised' if supervised else 'plain'}")
    for policy in ("serial", "thread", "process")
    for supervised in (False, True)
]


@pytest.fixture(autouse=True)
def _no_ambient_supervision(monkeypatch):
    """A plain engine must stay plain: no supervision or faults from the env."""

    for variable in _SUPERVISION_ENV:
        monkeypatch.delenv(variable, raising=False)


def _engine(policy: str, supervised: bool) -> BatchEngine:
    config = (
        SupervisorConfig(max_attempts=2, backoff_base=0.01, backoff_cap=0.05)
        if supervised
        else None
    )
    return BatchEngine(policy, workers=2, supervisor=config)


def _store_kwargs(store: ResultStore) -> dict:
    return dict(store=store, query="square", key_fn=_key)


# --------------------------------------------------------------------------- #
# One contract across every path
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("policy, supervised", _PATHS)
class TestDispatchPaths:
    def test_results_and_outcomes_in_input_order(self, policy, supervised):
        items = [(i, 8) for i in range(8)]
        engine = _engine(policy, supervised)
        results, outcomes = engine.map_with_outcomes(_slow_inverse, items)
        assert results == list(range(8))
        assert [o.index for o in outcomes] == list(range(8))
        assert all(o.status == "ok" and o.attempts == 1 for o in outcomes)
        assert all(o.policy == policy and not o.faulted for o in outcomes)

    def test_empty_batch_is_a_no_op(self, policy, supervised, tmp_path):
        engine = _engine(policy, supervised)
        assert engine.map_with_outcomes(_never_called, []) == ([], [])
        store = ResultStore(tmp_path)
        assert engine.map(_never_called, [], **_store_kwargs(store)) == []
        assert store.entry_count() == 0

    def test_cold_run_writes_each_miss_once_and_warm_run_dispatches_nothing(
        self, policy, supervised, tmp_path
    ):
        items = list(range(6))
        store = ResultStore(tmp_path)
        engine = _engine(policy, supervised)
        results, outcomes = engine.map_with_outcomes(_square, items, **_store_kwargs(store))
        assert results == [x * x for x in items]
        assert [(o.index, o.status) for o in outcomes] == [(i, "ok") for i in items]
        assert store.stats.puts == store.entry_count() == len(items)
        # A task that raises if called proves no stored item reaches a worker.
        warm, warm_outcomes = engine.map_with_outcomes(
            _never_called, items, **_store_kwargs(store)
        )
        assert warm == results
        assert [(o.index, o.status, o.attempts) for o in warm_outcomes] == [
            (i, "stored", 0) for i in items
        ]
        assert store.stats.puts == len(items)

    def test_partial_store_hits_dispatch_only_the_misses(
        self, policy, supervised, tmp_path
    ):
        items = list(range(6))
        store = ResultStore(tmp_path)
        # Sentinel values: a recomputed hit would come back as a square.
        for x in (1, 4):
            ghash, params = _key(x)
            store.put(ghash, "square", params, f"stored-{x}")
        engine = _engine(policy, supervised)
        results, outcomes = engine.map_with_outcomes(_square, items, **_store_kwargs(store))
        assert results == [0, "stored-1", 4, 9, "stored-4", 25]
        # Miss outcomes are re-indexed from the miss list to input positions.
        assert [o.index for o in outcomes] == items
        assert [o.status for o in outcomes] == ["ok", "stored", "ok", "ok", "stored", "ok"]
        assert store.stats.puts == store.entry_count() == len(items)

    def test_plan_rewrites_items_before_the_store_and_the_workers(
        self, policy, supervised, tmp_path
    ):
        store = ResultStore(tmp_path)
        engine = _engine(policy, supervised)
        results = engine.map(
            _square, [1, 2, 3], plan=lambda x: x + 10, **_store_kwargs(store)
        )
        assert results == [121, 144, 169]
        # The store is keyed by the planned item, not the raw one.
        ghash, params = _key(11)
        assert store.get(ghash, "square", params) == 121
        ghash, params = _key(1)
        assert store.get(ghash, "square", params, default=None) is None


@pytest.mark.parametrize("supervised", [False, True], ids=["plain", "supervised"])
def test_permanent_failure_propagates_from_process_workers(supervised):
    engine = _engine("process", supervised)
    with pytest.raises(SolverError, match="no solution for 3"):
        engine.map(_solver_error_on_three, [1, 2, 3, 4])


# --------------------------------------------------------------------------- #
# Supervisor configuration
# --------------------------------------------------------------------------- #
class TestSupervisorConfig:
    def test_invalid_literals_rejected(self):
        with pytest.raises(ValueError):
            SupervisorConfig(max_attempts=0)
        with pytest.raises(ValueError):
            SupervisorConfig(timeout=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(timeout=-1.0)

    def test_backoff_is_deterministic_exponential_and_capped(self):
        config = SupervisorConfig(backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.5)
        delays = [config.backoff(attempt) for attempt in range(1, 6)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])
        assert delays == [config.backoff(attempt) for attempt in range(1, 6)]

    def test_unset_environment_means_unsupervised(self):
        assert SupervisorConfig.from_environment() is None

    @pytest.mark.parametrize(
        "raw, speculate",
        [("0", False), ("no", False), ("off", False), ("false", False), ("1", True)],
    )
    def test_speculation_switch_reads_the_environment(self, monkeypatch, raw, speculate):
        monkeypatch.setenv("REPRO_SPECULATE", raw)
        config = SupervisorConfig.from_environment()
        assert config is not None and config.speculate is speculate
        # Setting only the switch supervises with the default budget.
        assert config.timeout == 30.0 and config.max_attempts == 3

    def test_outcomes_as_dicts_are_json_ready(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@1,corrupt@2,seed:3")
        config = SupervisorConfig(max_attempts=3, backoff_base=0.01, backoff_cap=0.05)
        engine = BatchEngine("thread", workers=2, supervisor=config)
        results, outcomes = engine.map_with_outcomes(_square, list(range(4)))
        assert results == [0, 1, 4, 9]
        dicts = json.loads(json.dumps(outcomes_as_dicts(outcomes)))
        assert [d["index"] for d in dicts] == [0, 1, 2, 3]
        assert [[f["kind"] for f in d["faults"]] for d in dicts] == [
            [], ["error"], ["corrupt"], []
        ]
        assert [d["attempts"] for d in dicts] == [1, 2, 2, 1]
        assert dicts[1]["faults"][0]["attempt"] == 1
        assert "InjectedCrash" in dicts[1]["faults"][0]["detail"]


# --------------------------------------------------------------------------- #
# Fault plan surface
# --------------------------------------------------------------------------- #
class TestFaultPlanSurface:
    @pytest.mark.parametrize(
        "clause",
        ["drop@0", "delay@1", "dup@2", "partition@3", "leasekill@4",
         "drop:0.1", "delay:0.1", "dup:0.1", "delaydur:0.5"],
    )
    def test_network_clauses_are_rejected(self, clause):
        # No dispatcher applies message faults: a plan naming one is a
        # mistake, not a chaos run that silently perturbs nothing.
        with pytest.raises(ValueError, match="unknown fault"):
            FaultPlan.parse(f"crash@0,{clause}")

    @pytest.mark.parametrize(
        "spec, schedule",
        [
            (
                "crash@0,corrupt@1,hang@2,crash:0.1,hang:0.05,seed:20",
                ["cxhhc......c........", "............c....h..", "." * 20],
            ),
            (
                "crash:0.3,corrupt:0.2,seed:7",
                ["..ccccc.xcc.c.xx..c.", "..cx.c.....x...cc.xc", "." * 20],
            ),
            (
                "crash:0.3,hang:0.2,corrupt:0.1,kill:0.1,seed:11",
                ["cc.xcx..ckc.h.hcx.cc", "..kkh...xcc.kcch..cc", "." * 20],
            ),
        ],
        ids=["chaos-smoke", "crash-corrupt", "all-kinds"],
    )
    def test_worker_fault_schedule_is_pinned(self, spec, schedule):
        # The schedule is a pure function of (seed, index, attempt); a
        # change to the hashed token would silently re-plan every chaos
        # run recorded by its seed.  Attempt 3 is past ``maxattempts``.
        letters = {None: ".", "crash": "c", "hang": "h", "corrupt": "x", "kill": "k"}
        injector = FaultInjector(FaultPlan.parse(spec))
        observed = [
            "".join(letters[injector.decide(index, attempt)] for index in range(20))
            for attempt in (1, 2, 3)
        ]
        assert observed == schedule
