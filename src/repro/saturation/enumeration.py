"""Brute-force register-saturation oracles for small DDGs.

These exponential reference implementations exist to cross-validate the
Greedy-k heuristic and the intLP formulation on small graphs:

* :func:`saturation_by_schedule_enumeration` -- maximise the register need
  over *every* valid schedule within a horizon (the literal definition
  ``RS_t(G) = max_{sigma in Sigma(G)} RN_sigma^t(G)``);
* :func:`saturation_by_killing_enumeration` -- maximise the antichain of
  ``DV_k`` over every valid killing function (the characterisation the
  Greedy-k heuristic approximates).
"""

from __future__ import annotations

import time
from typing import Optional

from ..analysis.context import context_for
from ..core.graph import DDG
from ..core.lifetime import register_need, value_lifetimes, max_simultaneously_alive
from ..core.schedule import enumerate_schedules
from ..core.types import RegisterType, canonical_type
from .dvk import characterised, saturating_antichain
from .pkill import enumerate_killing_functions, killed_graph
from .result import SaturationResult

__all__ = [
    "saturation_by_schedule_enumeration",
    "saturation_by_killing_enumeration",
]


def saturation_by_schedule_enumeration(
    ddg: DDG,
    rtype: RegisterType | str,
    horizon: Optional[int] = None,
    limit: Optional[int] = None,
) -> SaturationResult:
    """Exact register saturation of a *small* DDG by schedule enumeration.

    ``horizon`` bounds the issue times (critical path + 2 by default, enough
    slack to expose every overlap pattern on the graphs this is used for);
    ``limit`` optionally caps the number of schedules inspected, in which
    case the result is only a lower bound and ``optimal`` is False.
    """

    start = time.perf_counter()
    rtype = canonical_type(rtype)
    g = context_for(ddg).bottom().ddg
    best = 0
    witness = None
    witness_values = ()
    truncated = False
    count = 0
    for schedule in enumerate_schedules(g, horizon=horizon, limit=limit):
        count += 1
        intervals = value_lifetimes(g, schedule, rtype)
        need, alive = max_simultaneously_alive(intervals)
        if need > best:
            best = need
            witness = schedule
            witness_values = tuple(sorted(iv.value for iv in alive))
    if limit is not None and count >= limit:
        truncated = True
    return SaturationResult(
        rtype=rtype,
        rs=best,
        saturating_values=witness_values,
        method="schedule-enum",
        witness_schedule=witness,
        optimal=not truncated,
        wall_time=time.perf_counter() - start,
        details={"schedules_enumerated": count, "truncated": truncated},
    )


def saturation_by_killing_enumeration(
    ddg: DDG,
    rtype: RegisterType | str,
    limit: Optional[int] = None,
) -> SaturationResult:
    """Register saturation of a *small* DDG by killing-function enumeration.

    Every valid killing function is evaluated through its disjoint-value DAG;
    the maximum antichain size over all of them is the register saturation
    (the characterisation underlying the Greedy-k heuristic) on graphs where
    :func:`~repro.saturation.dvk.characterised` holds -- the same predicate
    that lets :func:`~repro.saturation.exact_ilp.exact_saturation` skip the
    intLP.  Elsewhere the result is only a lower bound: ``optimal`` is False
    and ``details["characterised"]`` is False.
    """

    start = time.perf_counter()
    rtype = canonical_type(rtype)
    bottom = context_for(ddg).bottom()
    g = bottom.ddg
    best = 0
    best_values = ()
    best_kf = None
    count = 0
    truncated = False
    for kf in enumerate_killing_functions(g, rtype, only_valid=True, limit=limit):
        count += 1
        killed = killed_graph(g, kf)
        antichain, _ = saturating_antichain(g, kf, killed)
        if len(antichain) > best:
            best = len(antichain)
            best_values = tuple(sorted(antichain))
            best_kf = kf
    if limit is not None and count >= limit:
        truncated = True
    exact = characterised(g, rtype, bottom)
    return SaturationResult(
        rtype=rtype,
        rs=best,
        saturating_values=best_values,
        method="killing-enum",
        killing_function=dict(best_kf.items()) if best_kf is not None else None,
        optimal=not truncated and exact,
        wall_time=time.perf_counter() - start,
        details={
            "killing_functions_enumerated": count,
            "truncated": truncated,
            "characterised": exact,
        },
    )
