"""Deterministic batch execution for suite-scale experiment runs.

Every experiment of the harness has the same shape: a list of independent
(DAG, register type, ...) instances, one expensive analysis per instance, a
report aggregating the results.  Related work on parallel CSP solving
(Menouer & Le Cun's deterministic partitioning in Bobpp) shows that
partitioning such independent combinatorial instances across workers is the
standard route to throughput -- and that determinism must be designed in,
not hoped for.

:class:`BatchEngine` provides exactly that contract:

* instances are dispatched over :mod:`concurrent.futures` workers
  (``thread`` or ``process`` policy) or run inline (``serial`` policy);
* results always come back **in input order**, whatever order the workers
  finished in, so a report produced by a parallel run is byte-identical to
  the serial one (``tests/test_experiments_engine.py`` pins that down);
* the first worker exception propagates to the caller unchanged, like a
  plain ``for`` loop.

The ``process`` policy requires the task function and its payload to be
picklable -- every experiment worker in this package is a module-level
function over dataclass payloads for that reason.  Thread workers share the
:mod:`repro.analysis.context` caches; process workers each build their own.

Two optional hooks extend the contract without changing it:

* ``plan`` rewrites every item deterministically in the dispatching process
  before any worker sees it -- this is how experiments assign per-instance
  solver backends (a declared, ordered property of the instance, following
  Bobpp's reproducible-partitioning discipline, instead of a choice made
  inside a racing worker);
* ``store``/``query``/``key_fn`` consult the cross-run
  :class:`~repro.analysis.store.ResultStore` *before* dispatching: items
  whose result is already stored never reach a worker, misses are computed
  as usual (same policy, same ordering) and written back.  Results still
  come back in input order, so a warm report is byte-identical to a cold
  one.

Fault tolerance lives one layer up, in
:mod:`repro.experiments.supervisor`: attaching a
:class:`~repro.experiments.supervisor.SupervisorConfig` (or setting
``REPRO_TIMEOUT``/``REPRO_RETRIES``/``REPRO_FAULTS``) routes dispatch
through the supervised path -- per-item timeouts, bounded retry with
deterministic backoff, broken-pool recovery with a
``process -> thread -> serial`` degradation ladder, and straggler
re-dispatch -- while :meth:`BatchEngine.map_with_outcomes` surfaces a
structured :class:`~repro.experiments.supervisor.ItemOutcome` per item.
Without any of that configured, dispatch is exactly the plain pool above.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union

from ..analysis import shm
from ..analysis.store import ResultStore
from ..errors import ConfigurationError
from .supervisor import ItemOutcome, Supervisor, SupervisorConfig

__all__ = ["BatchEngine", "run_batch", "POLICIES"]

T = TypeVar("T")
R = TypeVar("R")

#: Recognised execution policies, in increasing order of isolation.
POLICIES = ("serial", "thread", "process")

#: Internal miss marker for store lookups (results may legitimately be falsy).
_MISS = object()


@dataclass(frozen=True)
class BatchEngine:
    """An execution policy for mapping a task over independent instances.

    Parameters
    ----------
    policy:
        ``"serial"`` (run inline, the default), ``"thread"`` or
        ``"process"`` (:mod:`concurrent.futures` pools).
    workers:
        Worker count for the parallel policies; defaults to the CPU count.
    supervisor:
        Optional :class:`~repro.experiments.supervisor.SupervisorConfig`
        enabling fault-tolerant dispatch (per-item timeouts, retries with
        deterministic backoff, pool recovery).  ``None`` (the default)
        dispatches unsupervised -- unless the environment asks otherwise
        (``REPRO_TIMEOUT``/``REPRO_RETRIES``, or an active ``REPRO_FAULTS``
        plan), so chaos CI runs need no code changes.
    """

    policy: str = "serial"
    workers: Optional[int] = None
    supervisor: Optional[SupervisorConfig] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown engine policy {self.policy!r}; expected one of {POLICIES}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError("the engine needs at least one worker")

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def coerce(cls, value: Union[None, str, "BatchEngine"]) -> "BatchEngine":
        """Accept ``None`` (serial), a spec string, or a ready engine."""

        if value is None:
            return cls()
        if isinstance(value, BatchEngine):
            return value
        return cls.from_spec(value)

    @classmethod
    def from_spec(cls, spec: str) -> "BatchEngine":
        """Parse ``"serial"``, ``"thread"``, ``"process"``, or ``"thread:4"``."""

        policy, _, count = spec.strip().partition(":")
        workers = int(count) if count else None
        return cls(policy=policy or "serial", workers=workers)

    @classmethod
    def from_environment(cls, default: str = "serial") -> "BatchEngine":
        """Engine described by ``REPRO_ENGINE`` (e.g. ``process:8``), if set.

        An unknown policy or a malformed worker count raises one
        :class:`~repro.errors.ConfigurationError` naming the variable.
        """

        spec = os.environ.get("REPRO_ENGINE", default)
        try:
            return cls.from_spec(spec)
        except ValueError as exc:
            raise ConfigurationError(f"REPRO_ENGINE={spec!r} is invalid: {exc}") from exc

    def resolved_workers(self, n_items: int) -> int:
        workers = self.workers if self.workers is not None else (os.cpu_count() or 1)
        return max(1, min(workers, n_items))

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def map(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        plan: Optional[Callable[[T], T]] = None,
        store: Optional[ResultStore] = None,
        query: str = "",
        key_fn: Optional[Callable[[T], Tuple[str, object]]] = None,
    ) -> List[R]:
        """Apply *fn* to every item, returning results in input order.

        ``Executor.map`` already yields results in submission order, which
        is what makes parallel reports reproduce the serial ones exactly;
        the engine only adds the policy dispatch and the single-item
        fast path.

        ``plan`` (optional) deterministically rewrites each item before
        dispatch -- e.g. resolving a ``backend="auto"`` field to a concrete
        solver backend in the dispatching process.  With ``store`` +
        ``query`` + ``key_fn`` (mapping an item to its ``(graph_hash,
        params)`` store key) the cross-run result store is consulted first:
        stored items are never dispatched, computed ones are written back.
        """

        results, _ = self.map_with_outcomes(
            fn, items, plan=plan, store=store, query=query, key_fn=key_fn
        )
        return results

    def map_with_outcomes(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        plan: Optional[Callable[[T], T]] = None,
        store: Optional[ResultStore] = None,
        query: str = "",
        key_fn: Optional[Callable[[T], Tuple[str, object]]] = None,
    ) -> Tuple[List[R], List[ItemOutcome]]:
        """Like :meth:`map`, also returning one :class:`ItemOutcome` per item.

        Outcomes record how each result was obtained (attempts, policy,
        fault history, or ``"stored"`` for store hits).  They describe this
        run's *execution*, never its *values*: they are not written to the
        store and must stay out of report bytes.
        """

        work: List[T] = list(items)
        if plan is not None:
            work = [plan(item) for item in work]
        supervisor = self.supervisor
        if supervisor is None:
            supervisor = SupervisorConfig.from_environment()
        if store is not None and key_fn is not None:
            keys = [key_fn(item) for item in work]
            results: List[object] = [
                store.get(ghash, query, params, default=_MISS)
                for ghash, params in keys
            ]
            outcomes = [
                ItemOutcome(index=i, status="stored", attempts=0, policy=self.policy)
                for i in range(len(work))
            ]
            miss = [i for i, r in enumerate(results) if r is _MISS]
            computed, miss_outcomes = self._dispatch(
                fn, [work[i] for i in miss], supervisor
            )
            for i, value, outcome in zip(miss, computed, miss_outcomes):
                ghash, params = keys[i]
                store.put(ghash, query, params, value)
                results[i] = value
                outcome.index = i
                outcomes[i] = outcome
            return results, outcomes  # type: ignore[return-value]
        return self._dispatch(fn, work, supervisor)

    def _dispatch(
        self,
        fn: Callable[[T], R],
        work: Sequence[T],
        supervisor: Optional[SupervisorConfig] = None,
    ) -> Tuple[List[R], List[ItemOutcome]]:
        exporter = None
        if self.policy == "process" and len(work) > 1 and shm.enabled():
            # The process policy pickles every task item; export each
            # distinct graph into shared memory once so the per-item
            # payload shrinks to a segment name.  Segments live until
            # every worker result has been collected.
            exporter = shm.GraphExporter()
            work = [shm.pack_item(exporter, item) for item in work]
        try:
            if supervisor is not None:
                runner = Supervisor(
                    self.policy, self.resolved_workers(len(work)), supervisor
                )
                return runner.run(fn, work)  # type: ignore[return-value]
            outcomes = [
                ItemOutcome(index=i, policy=self.policy) for i in range(len(work))
            ]
            if self.policy == "serial" or len(work) <= 1:
                return [fn(item) for item in work], outcomes
            pool_cls = (
                ThreadPoolExecutor if self.policy == "thread" else ProcessPoolExecutor
            )
            with pool_cls(max_workers=self.resolved_workers(len(work))) as pool:
                futures = [pool.submit(fn, item) for item in work]
                try:
                    return [future.result() for future in futures], outcomes
                except BaseException:
                    # Don't let a failed batch keep burning CPU behind the
                    # caller's back: drop everything not yet running, then
                    # let the ``with`` block reap the in-flight remainder.
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
        finally:
            if exporter is not None:
                exporter.close()


def run_batch(
    fn: Callable[[T], R],
    items: Iterable[T],
    engine: Union[None, str, BatchEngine] = None,
    **map_kwargs,
) -> List[R]:
    """One-shot convenience wrapper: ``BatchEngine.coerce(engine).map(fn, items)``."""

    return BatchEngine.coerce(engine).map(fn, items, **map_kwargs)
