"""Lower and upper bounds on the register saturation.

**Upper bound.**  Call a value ``u`` *ordered before* ``v`` (``u < v``) when
every consumer of ``u`` reaches ``v``'s definition with enough latency that
``v`` is written no earlier than ``u`` dies, in every schedule
(:func:`ordered_after`; the intLP uses the same test to prune its pairs).
Values alive at one instant are pairwise unordered, so when ``<`` is a
strict partial order its width -- the size of a maximum antichain -- bounds
the register saturation from above.  The order is transitively closed
whenever every flow arc is at least ``delta_w(src) - delta_r(dst)`` long;
when some shorter arc breaks transitivity the bound falls back to the
paper's trivial ``|V_{R,t}|``.

**Lower bound.**  The register need of any concrete schedule (ASAP, or the
fully sequential one) is a lower bound of the saturation.  A
lifetime-stretching list schedule adds nothing: under unlimited resources
every list-scheduling priority yields the ASAP schedule.

The bounds bracket the exact value and give the test-suite its sandwich
invariants.  When Greedy-k's RS* meets the upper bound,
:func:`~repro.saturation.exact_ilp.exact_saturation` answers without
searching or solving; its search's root bound is never above this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Set

from ..analysis.antichain import maximum_antichain
from ..analysis.context import AnalysisContext, context_for
from ..analysis.graphalgo import NEG_INF
from ..core.graph import DDG
from ..core.lifetime import register_need
from ..core.schedule import asap_schedule, sequential_schedule
from ..core.types import RegisterType, Value, canonical_type

__all__ = [
    "SaturationBounds",
    "ordered_after",
    "ordered_after_sets",
    "saturation_bounds",
    "saturation_upper_bound",
    "trivially_within_budget",
]


@dataclass(frozen=True)
class SaturationBounds:
    """A sandwich ``lower <= RS_t(G) <= upper``."""

    rtype: RegisterType
    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:  # pragma: no cover - defensive
            raise ValueError("lower bound exceeds upper bound")

    @property
    def is_tight(self) -> bool:
        return self.lower == self.upper


def ordered_after(
    ddg: DDG,
    first: Value,
    second: Value,
    lp: Mapping[str, Mapping[str, float]],
) -> bool:
    """True when *second* is always defined after *first*'s killing date.

    The longest-path test of the paper's Section 3: every consumer ``c`` of
    *first* reaches the definition of *second* with
    ``lp(c, second) >= delta_r(c) - delta_w(second)``, so in every schedule
    ``second`` is written no earlier than ``c`` reads ``first``.  *lp* is
    the longest-path matrix of *ddg*.
    """

    consumers = ddg.consumers(first.node, first.rtype)
    if not consumers:
        return False
    target_write = ddg.operation(second.node).delta_w
    for reader in consumers:
        need = ddg.operation(reader).delta_r - target_write
        dist = lp[reader][second.node]
        if dist == NEG_INF or dist < need:
            return False
    return True


def ordered_after_sets(
    ddg: DDG,
    values: Sequence[Value],
    readers_of: Mapping[Value, Sequence[str]],
    lp_from: Callable[[str], Mapping[str, float]],
) -> Dict[Value, Set[Value]]:
    """``u -> {v : v is written no earlier than each reader of u reads u}``.

    The set form of :func:`ordered_after` over *values*: ``readers_of[u]``
    are the reads that may end ``u`` (its consumers for the upper bound,
    its killer or potential killers for a disjoint-value order) and
    ``lp_from(reader)`` the longest paths from a reader.  Each reader's
    test runs once against every value and ``u``'s set is the
    intersection over its readers; a value without readers orders nothing.
    """

    op = ddg.operation
    write = {v: op(v.node).delta_w for v in values}
    reached: Dict[str, Set[Value]] = {}
    later: Dict[Value, Set[Value]] = {}
    for u in values:
        sets = []
        for reader in readers_of[u]:
            ordered = reached.get(reader)
            if ordered is None:
                row, read = lp_from(reader), op(reader).delta_r
                ordered = reached[reader] = {
                    v for v in values if row[v.node] >= read - write[v]
                }
            sets.append(ordered)
        later[u] = set.intersection(*sets) - {u} if sets else set()
    return later


def saturation_upper_bound(
    ddg: DDG,
    rtype: RegisterType | str,
    ctx: Optional[AnalysisContext] = None,
) -> int:
    """The width of the must-die-before order on the values of *rtype*.

    Sound for every DDG: when the order (computed on the bottom-normalised
    graph) is not transitively closed the width is no bound, and
    ``|V_{R,t}|`` is returned instead.
    """

    rtype = canonical_type(rtype)
    ctx = ctx if ctx is not None else context_for(ddg)
    bottom_ctx = ctx.bottom()
    g = bottom_ctx.ddg
    values = sorted(g.values(rtype))
    if not values:
        return 0
    consumers = {u: g.consumers(u.node, rtype) for u in values}
    later = ordered_after_sets(g, values, consumers, bottom_ctx.longest_paths_from)
    if any(not later[v] <= later[u] for u in values for v in later[u]):
        return len(values)
    return len(maximum_antichain(values, [(u, v) for u in values for v in later[u]]))


def saturation_bounds(
    ddg: DDG,
    rtype: RegisterType | str,
    ctx: Optional[AnalysisContext] = None,
) -> SaturationBounds:
    """Compute cheap lower/upper bounds of the register saturation of *rtype*."""

    rtype = canonical_type(rtype)
    ctx = ctx if ctx is not None else context_for(ddg)
    bottom_ctx = ctx.bottom()
    g = bottom_ctx.ddg
    upper = saturation_upper_bound(ddg, rtype, ctx)
    if upper == 0:
        return SaturationBounds(rtype, 0, 0)

    lower = max(
        register_need(g, asap_schedule(g), rtype),
        register_need(g, sequential_schedule(g), rtype),
    )
    return SaturationBounds(rtype, lower, upper)


def trivially_within_budget(ddg: DDG, rtype: RegisterType | str, registers: int) -> bool:
    """The paper's early exit: when ``|V_{R,t}| <= R_t`` no schedule can overflow."""

    rtype = canonical_type(rtype)
    return len(ddg.values(rtype)) <= registers
