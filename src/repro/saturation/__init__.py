"""Register saturation: computing the maximal register need over all schedules.

This package implements the paper's central concept.  Public entry points:

* :func:`compute_saturation` -- dispatch between the Greedy-k heuristic and
  the exact intLP of Section 3;
* :func:`greedy_saturation` -- the nearly-optimal heuristic evaluated in
  Section 5;
* :func:`exact_saturation` -- the exact value: proven without a solve when
  Greedy-k meets :func:`saturation_upper_bound` or a branch and bound over
  killing functions settles it, by the Section-3 intLP otherwise;
* :func:`intlp_saturation` -- the exact intLP alone (O(n^2) variables,
  O(m + n^2) constraints);
* the building blocks: potential killers, killing functions, killed graphs,
  disjoint-value DAGs, bounds, and the brute-force oracles used by the
  tests.
"""

from __future__ import annotations

from typing import Optional

from ..core.graph import DDG
from ..core.types import RegisterType, canonical_type
from .bounds import (
    SaturationBounds,
    ordered_after,
    saturation_bounds,
    saturation_upper_bound,
    trivially_within_budget,
)
from .dvk import DisjointValueDAG, disjoint_value_dag, saturating_antichain
from .enumeration import (
    saturation_by_killing_enumeration,
    saturation_by_schedule_enumeration,
)
from .exact_ilp import (
    RSModelInfo,
    build_rs_program,
    exact_saturation,
    intlp_saturation,
    never_simultaneously_alive,
)
from .greedy import greedy_killing_function, greedy_saturation
from .incremental import IncrementalAnalysis, IncrementalSaturation
from .pkill import (
    KillingFunction,
    canonical_killing_function,
    enumerate_killing_functions,
    killed_graph,
    killing_function_from_schedule,
    potential_killers,
    potential_killers_map,
)
from .result import SaturationResult

__all__ = [
    "SaturationResult",
    "SaturationBounds",
    "saturation_bounds",
    "saturation_upper_bound",
    "ordered_after",
    "trivially_within_budget",
    "DisjointValueDAG",
    "disjoint_value_dag",
    "saturating_antichain",
    "KillingFunction",
    "potential_killers",
    "potential_killers_map",
    "killed_graph",
    "killing_function_from_schedule",
    "canonical_killing_function",
    "enumerate_killing_functions",
    "greedy_saturation",
    "greedy_killing_function",
    "IncrementalAnalysis",
    "IncrementalSaturation",
    "exact_saturation",
    "intlp_saturation",
    "build_rs_program",
    "RSModelInfo",
    "never_simultaneously_alive",
    "saturation_by_schedule_enumeration",
    "saturation_by_killing_enumeration",
    "compute_saturation",
]


def compute_saturation(
    ddg: DDG,
    rtype: RegisterType | str,
    method: str = "greedy",
    time_limit: Optional[float] = None,
) -> SaturationResult:
    """Compute (or approximate) the register saturation of *rtype*.

    ``method`` is one of ``"greedy"`` (the Greedy-k heuristic, default),
    ``"exact"`` (:func:`exact_saturation`: the bounds, then a search over
    killing functions, then the Section-3 intLP),
    ``"schedule-enum"`` or ``"killing-enum"`` (brute-force oracles for
    small graphs).
    """

    rtype = canonical_type(rtype)
    if method == "greedy":
        return greedy_saturation(ddg, rtype)
    if method == "exact":
        return exact_saturation(ddg, rtype, time_limit=time_limit)
    if method == "schedule-enum":
        return saturation_by_schedule_enumeration(ddg, rtype)
    if method == "killing-enum":
        return saturation_by_killing_enumeration(ddg, rtype)
    raise ValueError(
        f"unknown saturation method {method!r}; expected greedy/exact/schedule-enum/killing-enum"
    )
