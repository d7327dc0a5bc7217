"""Deterministic fault injection for batch workers.

Fault tolerance that is only exercised by real outages is fault tolerance
that does not work; Boucheneb & Imine's model-checking of optimistic
replication (PAPERS.md) makes the case that fault scenarios must be
*enumerated* and tested.  This module plants worker failures on a plan that
is a pure function of ``(seed, item index, attempt)``, so a chaos run is as
reproducible as a clean one:

* ``crash`` -- the worker raises :class:`InjectedCrash`;
* ``hang``  -- the worker sleeps ``hang_seconds`` before answering (long
  enough to trip a supervisor timeout when one is configured);
* ``corrupt`` -- the worker returns a :class:`CorruptPayload` marker
  instead of its result (a stand-in for a truncated or garbled IPC
  payload, which the supervisor must detect and retry);
* ``kill`` -- the worker process exits hard (``os._exit``), breaking a
  :class:`~concurrent.futures.ProcessPoolExecutor`; under the thread and
  serial policies (where ``os._exit`` would take the test runner down with
  it) this degenerates to a ``crash``.

The plan travels through the ``REPRO_FAULTS`` environment variable so that
process-pool workers -- which inherit the dispatcher's environment --
reconstruct the very same plan.  Syntax: comma-separated clauses,

.. code-block:: text

    REPRO_FAULTS="crash:0.1,hang:0.05,corrupt@7,kill@3,seed:42,hangdur:1.5"

where ``kind:rate`` injects *kind* with the given probability per (item,
attempt) -- decided by a seeded hash, not a shared RNG, so decisions are
independent of execution order -- and ``kind@index`` plants *kind* at one
item index (first attempt only).  ``seed:N`` seeds the hash (default 0),
``hangdur:S`` sets the hang duration in seconds (default 30), and
``maxattempts:K`` stops rate-based faults firing beyond attempt ``K``
(default 2), so a supervisor with a larger retry budget always completes.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import FrozenSet, Optional

from ..errors import ConfigurationError

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "FaultInjector",
    "InjectedCrash",
    "CorruptPayload",
    "active_plan",
    "is_corrupt_payload",
]

#: Environment variable carrying the plan into (process) workers.
FAULTS_ENV = "REPRO_FAULTS"

#: Worker-side fault kinds, in the order rate thresholds are stacked.
_KINDS = ("crash", "hang", "corrupt", "kill")


class InjectedCrash(RuntimeError):
    """A planned worker crash (not a :class:`~repro.errors.ReproError`:

    from the supervisor's point of view it is indistinguishable from a
    genuine worker blow-up, and therefore retryable)."""


@dataclass(frozen=True)
class CorruptPayload:
    """Marker the injector returns in place of a worker's real result."""

    index: int
    attempt: int
    note: str = "injected corrupt payload"


def is_corrupt_payload(value: object) -> bool:
    """Whether *value* is an injected stand-in for a garbled worker answer."""

    return isinstance(value, CorruptPayload)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of worker faults.

    Rates decide per ``(index, attempt)`` through a seeded hash; planted
    indices fire on the first attempt only.  ``max_faulty_attempts`` caps
    rate-based faults so retries beyond it always run clean -- that is what
    makes the chaos invariant ("every run completes with byte-identical
    reports") a guarantee instead of a likelihood.
    """

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    corrupt_rate: float = 0.0
    kill_rate: float = 0.0
    crash_at: FrozenSet[int] = frozenset()
    hang_at: FrozenSet[int] = frozenset()
    corrupt_at: FrozenSet[int] = frozenset()
    kill_at: FrozenSet[int] = frozenset()
    seed: int = 0
    hang_seconds: float = 30.0
    max_faulty_attempts: int = 2

    # ------------------------------------------------------------------ #
    # Parsing / serialization (the REPRO_FAULTS syntax)
    # ------------------------------------------------------------------ #
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS`` specification string."""

        rates = {kind: 0.0 for kind in _KINDS}
        at = {kind: set() for kind in _KINDS}
        seed, hang_seconds, max_faulty = 0, 30.0, 2
        for raw in spec.split(","):
            clause = raw.strip()
            if not clause:
                continue
            if "@" in clause:
                kind, _, index = clause.partition("@")
                kind = kind.strip()
                if kind not in at:
                    raise ValueError(f"unknown fault kind {kind!r} in {clause!r}")
                at[kind].add(int(index))
                continue
            key, _, value = clause.partition(":")
            key = key.strip()
            if not value:
                raise ValueError(f"malformed fault clause {clause!r}")
            if key in rates:
                rate = float(value)
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(f"fault rate out of [0,1] in {clause!r}")
                rates[key] = rate
            elif key == "seed":
                seed = int(value)
            elif key == "hangdur":
                hang_seconds = float(value)
            elif key == "maxattempts":
                max_faulty = int(value)
            else:
                raise ValueError(f"unknown fault clause {clause!r}")
        if sum(rates.values()) > 1.0:
            raise ValueError("fault rates must sum to at most 1.0")
        return cls(
            crash_rate=rates["crash"],
            hang_rate=rates["hang"],
            corrupt_rate=rates["corrupt"],
            kill_rate=rates["kill"],
            crash_at=frozenset(at["crash"]),
            hang_at=frozenset(at["hang"]),
            corrupt_at=frozenset(at["corrupt"]),
            kill_at=frozenset(at["kill"]),
            seed=seed,
            hang_seconds=hang_seconds,
            max_faulty_attempts=max_faulty,
        )

    def to_spec(self) -> str:
        """The inverse of :meth:`parse` (round-trips through the env var)."""

        clauses = []
        for kind in _KINDS:
            rate = getattr(self, f"{kind}_rate")
            if rate:
                clauses.append(f"{kind}:{rate!r}")
        for kind in _KINDS:
            for index in sorted(getattr(self, f"{kind}_at")):
                clauses.append(f"{kind}@{index}")
        clauses.append(f"seed:{self.seed}")
        clauses.append(f"hangdur:{self.hang_seconds!r}")
        clauses.append(f"maxattempts:{self.max_faulty_attempts}")
        return ",".join(clauses)

    @property
    def active(self) -> bool:
        return bool(
            any(getattr(self, f"{kind}_rate") for kind in _KINDS)
            or any(getattr(self, f"{kind}_at") for kind in _KINDS)
        )


def _unit_interval(seed: int, index: int, attempt: int) -> float:
    """A uniform draw in [0, 1) that is a pure function of its arguments."""

    token = f"faults|{seed}|{index}|{attempt}"
    digest = hashlib.sha256(token.encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultInjector:
    """Applies a :class:`FaultPlan` inside a worker.

    Stateless apart from the plan, so every worker process building its own
    injector from the inherited environment reaches identical decisions.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    # ------------------------------------------------------------------ #
    # Decision
    # ------------------------------------------------------------------ #
    def decide(self, index: int, attempt: int) -> Optional[str]:
        """The fault kind planned for this (item, attempt), or ``None``."""

        plan = self.plan
        if attempt == 1:
            for kind in _KINDS:
                if index in getattr(plan, f"{kind}_at"):
                    return kind
        if attempt > plan.max_faulty_attempts:
            return None
        draw = _unit_interval(plan.seed, index, attempt)
        threshold = 0.0
        for kind in _KINDS:
            threshold += getattr(plan, f"{kind}_rate")
            if draw < threshold:
                return kind
        return None

    # ------------------------------------------------------------------ #
    # Worker-side application
    # ------------------------------------------------------------------ #
    def perturb(self, index: int, attempt: int, *, in_worker_process: bool = False):
        """Apply the planned fault; returns a :class:`CorruptPayload` marker
        when the plan says "corrupt", ``None`` when the worker should run
        normally (possibly after a planned hang)."""

        kind = self.decide(index, attempt)
        if kind is None:
            return None
        if kind == "kill":
            if in_worker_process:
                os._exit(13)  # hard exit: breaks the process pool, as planned
            kind = "crash"  # thread/serial: a hard exit would kill the runner
        if kind == "crash":
            raise InjectedCrash(f"planned crash (item {index}, attempt {attempt})")
        if kind == "hang":
            time.sleep(self.plan.hang_seconds)
            return None
        return CorruptPayload(index=index, attempt=attempt)


def active_plan(environ=None) -> Optional[FaultPlan]:
    """The plan described by ``REPRO_FAULTS``, or ``None`` when unset/empty.

    Looked up on every call (no caching): tests toggle the variable around
    individual runs, and workers call this once per attempt at most.  A
    malformed specification raises one
    :class:`~repro.errors.ConfigurationError` naming the variable, not a
    bare ``ValueError`` from deep inside the clause parser.
    """

    spec = (environ or os.environ).get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    try:
        plan = FaultPlan.parse(spec)
    except ValueError as exc:
        raise ConfigurationError(f"{FAULTS_ENV}={spec!r} is invalid: {exc}") from exc
    return plan if plan.active else None
