"""Supervised batch execution: timeouts, retries, pool recovery, outcomes.

:class:`~repro.experiments.engine.BatchEngine` alone implements the happy
path: every worker answers, no worker hangs, the pool never dies.  The
paper's exact intLP sweeps are multi-day computations, and at that scale
the unhappy paths are the common case.  This module wraps the engine's
dispatch with a supervisor implementing:

* **per-item wall-clock timeouts** -- an attempt that exceeds
  ``timeout`` seconds is abandoned and re-dispatched (the abandoned
  worker's late answer is still accepted if it lands first);
* **bounded retry with deterministic exponential backoff** --
  ``min(cap, base * factor**(attempt-1))`` seconds between attempts, a
  pure function of the attempt number (no jitter: reproducibility beats
  thundering-herd avoidance at this scale);
* **non-retryable failure classification** -- a
  :class:`~repro.errors.ReproError` whose :meth:`retryable` predicate is
  false (an infeasible intLP, a malformed graph) fails fast instead of
  burning retry budget on a deterministic failure;
* **crashed-pool recovery** -- a :class:`BrokenProcessPool` re-dispatches
  the surviving in-flight work to a fresh pool (budget-neutral for the
  innocent victims), degrading ``process -> thread -> serial`` after
  ``pool_failure_limit`` pool deaths;
* **straggler re-dispatch** -- once nothing is left to submit and workers
  idle, the oldest in-flight item is speculatively duplicated; the first
  answer wins (processed in deterministic input order when several land
  together);
* **structured item outcomes** -- every item yields an
  :class:`ItemOutcome` (attempts, policy, timings, fault history) that the
  experiment reports surface without changing their report bytes.

The supervisor changes *when and where* work runs, never *what* it
computes, so a supervised chaos run produces byte-identical reports to a
serial fault-free one (``tests/test_engine_faults.py`` pins that down).
"""

from __future__ import annotations

import heapq
import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ReproError, TransientError
from ..testing.faults import FaultInjector, active_plan, is_corrupt_payload

__all__ = [
    "SupervisorConfig",
    "FaultEvent",
    "ItemOutcome",
    "ItemTimeout",
    "Supervisor",
    "outcomes_as_dicts",
]

#: Policy degradation ladder after repeated pool failures.
_DEGRADE = {"process": "thread", "thread": "serial", "serial": "serial"}

#: Seconds a terminated pool worker gets to exit before it is killed.
_REAP_SECONDS = 5.0


def _env_number(name, raw, convert, *, default, minimum):
    """Parse one numeric environment value, diagnosing the variable by name.

    An unset/empty value yields *default*; anything unparsable or below
    *minimum* raises a :class:`~repro.errors.ConfigurationError` naming the
    variable, so a typo surfaces at configuration time instead of as a bare
    ``ValueError`` somewhere inside the dispatch loop.
    """

    if not raw:
        return default
    try:
        value = convert(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"{name}={raw!r} is not a valid {convert.__name__}"
        ) from exc
    if value < minimum:
        raise ConfigurationError(f"{name}={raw!r} must be >= {minimum}")
    return value


class ItemTimeout(TransientError):
    """Every attempt at one batch item exceeded the supervisor timeout."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/timeout/backoff policy for supervised batch execution.

    ``timeout=None`` disables the per-item deadline (retries and pool
    recovery still apply).  Timeouts are enforced for the ``thread`` and
    ``process`` policies; a serial attempt runs inline and cannot be
    preempted (its failure and retry handling is identical otherwise).
    """

    timeout: Optional[float] = None
    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    speculate: bool = True
    pool_failure_limit: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("the supervisor needs at least one attempt")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")

    def backoff(self, attempt: int) -> float:
        """Deterministic delay before re-dispatching after attempt *attempt*."""

        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )

    @classmethod
    def from_environment(cls) -> Optional["SupervisorConfig"]:
        """The config implied by the environment, or ``None`` for "unsupervised".

        ``REPRO_TIMEOUT`` (seconds), ``REPRO_RETRIES`` (max attempts) and
        ``REPRO_SPECULATE`` (0/1) switch supervision on explicitly; an
        active ``REPRO_FAULTS`` plan switches it on implicitly (with a 30s
        default timeout), so a chaos run needs no further knobs and the
        fault-free fast path stays exactly the pre-supervisor dispatch.

        Malformed values raise one :class:`~repro.errors.ConfigurationError`
        naming the variable (``REPRO_TIMEOUT=-5`` is a mistake, not a
        request; ``REPRO_TIMEOUT=0`` explicitly means "no deadline").
        """

        timeout_env = os.environ.get("REPRO_TIMEOUT", "").strip()
        retries_env = os.environ.get("REPRO_RETRIES", "").strip()
        speculate_env = os.environ.get("REPRO_SPECULATE", "").strip()
        if not (timeout_env or retries_env or speculate_env) and active_plan() is None:
            return None
        timeout: Optional[float] = _env_number(
            "REPRO_TIMEOUT", timeout_env, float, default=30.0, minimum=0.0
        )
        if timeout == 0:  # REPRO_TIMEOUT=0 means "no deadline"
            timeout = None
        return cls(
            timeout=timeout,
            max_attempts=_env_number(
                "REPRO_RETRIES", retries_env, int, default=3, minimum=1
            ),
            speculate=speculate_env not in ("0", "no", "off", "false"),
        )


@dataclass
class FaultEvent:
    """One non-final attempt (or the final failure) of one batch item."""

    attempt: int
    kind: str  # "error" | "timeout" | "corrupt" | "pool-broken" | "non-retryable"
    detail: str = ""
    policy: str = "serial"
    elapsed: float = 0.0
    backoff: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "attempt": self.attempt,
            "kind": self.kind,
            "detail": self.detail,
            "policy": self.policy,
            "elapsed": self.elapsed,
            "backoff": self.backoff,
        }


@dataclass
class ItemOutcome:
    """How one batch item reached its result (or failed to).

    ``status`` is ``"ok"`` (computed), ``"stored"`` (answered by the
    result store before dispatch) or ``"failed"``; ``faults`` records every
    unsuccessful attempt in order.  Outcomes ride on the experiment
    reports *next to* the tables -- they never enter the report bytes, so
    a chaos run's tables stay comparable to the reference run's.
    """

    index: int
    status: str = "ok"
    attempts: int = 1
    policy: str = "serial"
    speculative: bool = False
    wall_time: float = 0.0
    faults: List[FaultEvent] = field(default_factory=list)

    @property
    def faulted(self) -> bool:
        return bool(self.faults)

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "status": self.status,
            "attempts": self.attempts,
            "policy": self.policy,
            "speculative": self.speculative,
            "wall_time": self.wall_time,
            "faults": [event.as_dict() for event in self.faults],
        }


def outcomes_as_dicts(outcomes: Sequence[ItemOutcome]) -> List[Dict[str, object]]:
    """JSON-ready form of a run's outcomes (the CI fault-history artifact)."""

    return [outcome.as_dict() for outcome in outcomes]


class _AttemptTask:
    """Picklable worker-side wrapper applying the ambient fault plan.

    Process workers inherit ``REPRO_FAULTS`` through the environment and
    rebuild the injector locally; the parent pid distinguishes "really in a
    worker process" (where a planned ``kill`` may ``os._exit``) from
    thread/serial execution (where it must degrade to a crash).
    """

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.parent_pid = os.getpid()

    def __call__(self, packed: Tuple[int, int, object]):
        index, attempt, item = packed
        plan = active_plan()
        if plan is not None:
            injector = FaultInjector(plan)
            marker = injector.perturb(
                index, attempt, in_worker_process=os.getpid() != self.parent_pid
            )
            if marker is not None:
                return marker
        return self.fn(item)


class _Flight:
    """One in-flight attempt: which item, which attempt, and its deadline."""

    __slots__ = ("index", "attempt", "deadline", "timed_out", "speculative")

    def __init__(self, index: int, attempt: int, deadline: Optional[float],
                 speculative: bool) -> None:
        self.index = index
        self.attempt = attempt
        self.deadline = deadline
        self.timed_out = False
        self.speculative = speculative


class _ItemState:
    __slots__ = ("index", "item", "attempts_started", "resolved", "started_at",
                 "speculated_attempt")

    def __init__(self, index: int, item: object) -> None:
        self.index = index
        self.item = item
        self.attempts_started = 0
        self.resolved = False
        self.started_at: Optional[float] = None
        self.speculated_attempt = 0


class Supervisor:
    """Drives one supervised batch over a worker pool.

    One instance per :meth:`BatchEngine.map` call; not reusable.  Results
    come back in input order, exactly like the unsupervised dispatch.
    """

    def __init__(self, policy: str, workers: int, config: SupervisorConfig) -> None:
        self.policy = policy
        self.workers = max(1, workers)
        self.config = config
        self.pool_failures = 0

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def run(self, fn: Callable, items: Sequence[object]) -> Tuple[List[object], List[ItemOutcome]]:
        task = _AttemptTask(fn)
        outcomes = [ItemOutcome(index=i, policy=self.policy) for i in range(len(items))]
        if not items:
            return [], outcomes
        if self.policy == "serial" or len(items) == 1:
            results = [
                self._run_item_inline(task, i, item, outcomes[i], start_attempt=0)
                for i, item in enumerate(items)
            ]
            return results, outcomes
        results = self._run_parallel(task, list(items), outcomes)
        return results, outcomes

    # ------------------------------------------------------------------ #
    # Failure classification
    # ------------------------------------------------------------------ #
    @staticmethod
    def _is_retryable(exc: BaseException) -> bool:
        if isinstance(exc, ReproError):
            return exc.retryable()
        if isinstance(exc, pickle.PickleError):
            # An unpicklable payload or result is a deterministic property
            # of the item, not of the worker that tried to ship it --
            # retrying burns the whole budget reaching the same exception.
            return False
        if isinstance(exc, (AttributeError, TypeError)) and "pickle" in str(exc).lower():
            # CPython reports some serialization failures as AttributeError
            # ("Can't pickle local object ...") or TypeError ("cannot pickle
            # '...' object") rather than PicklingError; same determinism.
            return False
        return isinstance(exc, Exception)  # KeyboardInterrupt/SystemExit propagate

    # ------------------------------------------------------------------ #
    # Serial / inline execution (also the terminal degradation rung)
    # ------------------------------------------------------------------ #
    def _run_item_inline(self, task: _AttemptTask, index: int, item: object,
                         outcome: ItemOutcome, start_attempt: int) -> object:
        config = self.config
        attempt = start_attempt
        started = time.monotonic()
        while True:
            attempt += 1
            t0 = time.monotonic()
            try:
                value = task((index, attempt, item))
            except Exception as exc:
                elapsed = time.monotonic() - t0
                self._record_failure(outcome, attempt, exc, elapsed, policy="serial")
                time.sleep(config.backoff(attempt))
                continue
            elapsed = time.monotonic() - t0
            if is_corrupt_payload(value):
                self._record_corrupt(outcome, attempt, elapsed, policy="serial")
                time.sleep(config.backoff(attempt))
                continue
            outcome.status = "ok"
            outcome.attempts = attempt
            outcome.policy = "serial"
            outcome.wall_time = time.monotonic() - started
            return value

    def _record_failure(self, outcome: ItemOutcome, attempt: int, exc: BaseException,
                        elapsed: float, policy: str) -> None:
        """Record a failed attempt; raises when the failure is permanent."""

        detail = f"{type(exc).__name__}: {exc}"
        if not self._is_retryable(exc):
            outcome.faults.append(FaultEvent(attempt, "non-retryable", detail,
                                             policy, elapsed))
            outcome.status = "failed"
            outcome.attempts = attempt
            raise exc
        if attempt >= self.config.max_attempts:
            outcome.faults.append(FaultEvent(attempt, "error", detail, policy, elapsed))
            outcome.status = "failed"
            outcome.attempts = attempt
            raise exc
        outcome.faults.append(
            FaultEvent(attempt, "error", detail, policy, elapsed,
                       backoff=self.config.backoff(attempt))
        )

    def _record_corrupt(self, outcome: ItemOutcome, attempt: int, elapsed: float,
                        policy: str) -> None:
        if attempt >= self.config.max_attempts:
            outcome.faults.append(FaultEvent(attempt, "corrupt",
                                             "corrupt worker payload", policy, elapsed))
            outcome.status = "failed"
            outcome.attempts = attempt
            raise TransientError(
                f"item {outcome.index}: corrupt worker payload persisted across "
                f"{attempt} attempts"
            )
        outcome.faults.append(
            FaultEvent(attempt, "corrupt", "corrupt worker payload", policy, elapsed,
                       backoff=self.config.backoff(attempt))
        )

    # ------------------------------------------------------------------ #
    # Pool management
    # ------------------------------------------------------------------ #
    def _new_pool(self):
        pool_cls = ThreadPoolExecutor if self.policy == "thread" else ProcessPoolExecutor
        return pool_cls(max_workers=self.workers)

    @staticmethod
    def _teardown_pool(pool) -> None:
        """Abandon *pool*: cancel queued work, terminate and reap processes.

        A hung or poisoned worker must not keep burning CPU after the batch
        is decided -- process workers are terminated outright (their results
        are no longer wanted) and joined, so none of them outlives the batch
        or attaches a shared-memory graph after the engine has unlinked it;
        one that ignores the terminate is killed after ``_REAP_SECONDS``.
        Thread workers finish their current task and exit (threads cannot be
        killed; injected hangs are finite).
        """

        if pool is None:
            return
        # ``shutdown`` drops the executor's process table: read it first.
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.terminate()
        for process in processes:
            process.join(_REAP_SECONDS)
            if process.is_alive():
                process.kill()
                process.join()

    # ------------------------------------------------------------------ #
    # Parallel supervised loop
    # ------------------------------------------------------------------ #
    def _run_parallel(self, task: _AttemptTask, items: List[object],
                      outcomes: List[ItemOutcome]) -> List[object]:
        config = self.config
        n = len(items)
        results: List[object] = [None] * n
        states = [_ItemState(i, item) for i, item in enumerate(items)]
        ready = deque(range(n))                 # item indices awaiting (re)submission
        retries: List[Tuple[float, int]] = []   # heap of (eligible_time, index)
        flight: Dict[object, _Flight] = {}      # future -> flight record
        unresolved = n
        pool = self._new_pool()
        failure: Optional[Tuple[int, BaseException]] = None

        def live_flights(index: int) -> int:
            return sum(
                1 for fl in flight.values()
                if fl.index == index and not fl.timed_out
            )

        def submit(index: int, *, speculative: bool = False) -> bool:
            """Dispatch one attempt; returns False when the pool just died."""

            nonlocal pool
            state = states[index]
            attempt = state.attempts_started if speculative else state.attempts_started + 1
            now = time.monotonic()
            if state.started_at is None:
                state.started_at = now
            deadline = None if config.timeout is None else now + config.timeout
            try:
                future = pool.submit(task, (index, attempt, state.item))
            except (BrokenProcessPool, RuntimeError):
                return False
            flight[future] = _Flight(index, attempt, deadline, speculative)
            if speculative:
                state.speculated_attempt = attempt
            else:
                state.attempts_started = attempt
            return True

        def resolve(fl: _Flight, value: object, now: float) -> None:
            nonlocal unresolved
            state = states[fl.index]
            state.resolved = True
            unresolved -= 1
            results[fl.index] = value
            outcome = outcomes[fl.index]
            outcome.status = "ok"
            outcome.attempts = fl.attempt
            outcome.policy = self.policy
            outcome.speculative = fl.speculative
            outcome.wall_time = now - (state.started_at or now)

        def schedule_retry(index: int, failed_attempt: int, now: float) -> None:
            heapq.heappush(retries, (now + config.backoff(failed_attempt), index))

        def fail(index: int, exc: BaseException) -> None:
            nonlocal failure
            if failure is None or index < failure[0]:
                failure = (index, exc)

        def pool_died(now: float) -> None:
            """A BrokenProcessPool: re-dispatch survivors to a fresh pool."""

            nonlocal pool
            self.pool_failures += 1
            # Victims: every unresolved item not already queued for a retry
            # or (re)submission -- that covers futures still in the flight
            # table *and* the ones just popped with BrokenProcessPool.
            scheduled = set(ready) | {index for _, index in retries}
            victims = [state.index for state in states
                       if not state.resolved and state.index not in scheduled
                       and state.attempts_started > 0]
            for index in victims:
                state = states[index]
                outcomes[index].faults.append(
                    FaultEvent(state.attempts_started, "pool-broken",
                               "process pool died; re-dispatching", self.policy)
                )
                # Budget-neutral for the victims: the culprit cannot be told
                # apart from the innocents, so nobody's attempt count grows;
                # termination is guaranteed by the degradation ladder below.
                state.attempts_started -= 1
                state.speculated_attempt = 0
                ready.append(index)
            flight.clear()
            self._teardown_pool(pool)
            if self.pool_failures > config.pool_failure_limit:
                degraded = _DEGRADE[self.policy]
                if degraded != self.policy:
                    self.policy = degraded
                    self.pool_failures = 0
            pool = None if self.policy == "serial" else self._new_pool()

        try:
            while unresolved and failure is None:
                now = time.monotonic()

                # Degraded all the way down: finish the survivors inline.
                if self.policy == "serial":
                    for state in states:
                        if not state.resolved:
                            value = self._run_item_inline(
                                task, state.index, state.item, outcomes[state.index],
                                start_attempt=state.attempts_started,
                            )
                            resolve(_Flight(state.index,
                                            outcomes[state.index].attempts, None, False),
                                    value, time.monotonic())
                    break

                # Promote due retries, then submit while capacity lasts.
                while retries and retries[0][0] <= now:
                    _, index = heapq.heappop(retries)
                    if not states[index].resolved:
                        ready.append(index)
                while ready and len(flight) < self.workers:
                    index = ready.popleft()
                    if states[index].resolved:
                        continue
                    if not submit(index):
                        ready.appendleft(index)
                        pool_died(now)
                        break
                if self.policy == "serial":
                    continue

                # Every slot is held by a timed-out straggler while work
                # waits: abandon the pool and start fresh (the stragglers'
                # items already have retries scheduled).
                if (ready or retries) and len(flight) >= self.workers and all(
                    fl.timed_out for fl in flight.values()
                ):
                    for future in list(flight):
                        del flight[future]
                    self._teardown_pool(pool)
                    pool = self._new_pool()
                    continue

                # Straggler speculation: pool otherwise idle, duplicate the
                # oldest still-hopeful attempt once.
                if (config.speculate and not ready and not retries
                        and 0 < len(flight) < self.workers):
                    candidates = sorted(
                        (fl.index for fl in flight.values()
                         if not fl.timed_out and not fl.speculative
                         and not states[fl.index].resolved
                         and states[fl.index].speculated_attempt
                         < states[fl.index].attempts_started),
                    )
                    if candidates and not submit(candidates[0], speculative=True):
                        pool_died(now)
                        continue

                if not flight:
                    if retries:
                        time.sleep(max(0.0, retries[0][0] - time.monotonic()))
                        continue
                    if ready:
                        continue
                    break  # nothing in flight, nothing to do

                # Wait for the next completion, retry eligibility or deadline.
                horizon: Optional[float] = None
                deadlines = [fl.deadline for fl in flight.values()
                             if fl.deadline is not None and not fl.timed_out]
                if deadlines:
                    horizon = min(deadlines)
                if retries:
                    horizon = retries[0][0] if horizon is None else min(horizon, retries[0][0])
                wait_timeout = None if horizon is None else max(0.0, horizon - time.monotonic())
                done, _ = wait(set(flight), timeout=wait_timeout,
                               return_when=FIRST_COMPLETED)
                now = time.monotonic()

                # Completions in deterministic input order (attempt breaks ties).
                broken = False
                for future in sorted(done, key=lambda f: (flight[f].index, flight[f].attempt)):
                    fl = flight.pop(future)
                    state = states[fl.index]
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except Exception as exc:
                        if state.resolved or fl.timed_out:
                            continue  # a duplicate already answered / already retried
                        if live_flights(fl.index) > 0:
                            continue  # the twin attempt is still hopeful
                        try:
                            self._record_failure(outcomes[fl.index], fl.attempt, exc,
                                                 0.0, policy=self.policy)
                        except BaseException as permanent:
                            fail(fl.index, permanent)
                        else:
                            schedule_retry(fl.index, fl.attempt, now)
                        continue
                    if state.resolved:
                        continue
                    if is_corrupt_payload(value):
                        if fl.timed_out or live_flights(fl.index) > 0:
                            continue
                        try:
                            self._record_corrupt(outcomes[fl.index], fl.attempt, 0.0,
                                                 policy=self.policy)
                        except BaseException as permanent:
                            fail(fl.index, permanent)
                        else:
                            schedule_retry(fl.index, fl.attempt, now)
                        continue
                    resolve(fl, value, now)
                if broken:
                    pool_died(now)
                    continue

                # Deadline sweep: an attempt past its deadline is abandoned
                # (but its late answer would still be accepted above); when
                # the last hopeful attempt for an item times out, the item
                # retries -- or fails once its budget is spent.
                for fl in flight.values():
                    if fl.timed_out or fl.deadline is None or now < fl.deadline:
                        continue
                    fl.timed_out = True
                    state = states[fl.index]
                    if state.resolved or live_flights(fl.index) > 0:
                        continue
                    outcome = outcomes[fl.index]
                    attempt = state.attempts_started
                    if attempt >= config.max_attempts:
                        outcome.faults.append(
                            FaultEvent(attempt, "timeout",
                                       f"exceeded {config.timeout}s", self.policy,
                                       elapsed=config.timeout or 0.0)
                        )
                        outcome.status = "failed"
                        outcome.attempts = attempt
                        fail(fl.index, ItemTimeout(
                            f"item {fl.index} timed out on every one of "
                            f"{attempt} attempts ({config.timeout}s each)"
                        ))
                    else:
                        outcome.faults.append(
                            FaultEvent(attempt, "timeout",
                                       f"exceeded {config.timeout}s", self.policy,
                                       elapsed=config.timeout or 0.0,
                                       backoff=config.backoff(attempt))
                        )
                        schedule_retry(fl.index, attempt, now)
        finally:
            self._teardown_pool(pool)

        if failure is not None:
            raise failure[1]
        return results
