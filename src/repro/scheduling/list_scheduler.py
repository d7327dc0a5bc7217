"""Resource-constrained list scheduling (the scheduler of Figure 1).

After the register-saturation pass has (possibly) extended the DDG, the
paper's flow hands the graph to an instruction scheduler that no longer has
to worry about registers.  This module provides that scheduler:

* :func:`list_schedule` -- classic critical-path list scheduling under
  functional-unit and issue-width constraints;
* :func:`register_pressure_aware_schedule` -- the *combined* scheduler used
  as a baseline in the examples: it refuses to start new lifetimes when the
  number of live values has reached the register budget, and therefore
  serialises code by itself (the behaviour the RS approach renders
  unnecessary).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.context import AnalysisContext, context_for
from ..core.graph import DDG
from ..core.lifetime import register_need
from ..core.machine import ProcessorModel, superscalar
from ..core.schedule import Schedule
from ..core.types import RegisterType, canonical_type
from ..errors import ScheduleError
from .resources import ReservationTable

__all__ = [
    "list_schedule",
    "register_pressure_aware_schedule",
]


def list_schedule(
    ddg: DDG,
    machine: Optional[ProcessorModel] = None,
    priority: Optional[Dict[str, float]] = None,
    ctx: Optional[AnalysisContext] = None,
) -> Schedule:
    """Critical-path list scheduling under resource constraints.

    Ready operations (all predecessors issued and their latencies elapsed)
    are issued greedily, highest priority first; the default priority is the
    longest latency path to the sinks (critical-path scheduling).  Negative
    latency serial arcs (possible on reduced VLIW graphs) are honoured as
    ordinary precedence constraints.  An :class:`AnalysisContext` may be
    passed to reuse the priorities/topological order the earlier pipeline
    stages already computed.
    """

    machine = machine or superscalar()
    ctx = ctx if ctx is not None else context_for(ddg)
    if priority is None:
        priority = ctx.longest_path_to_sinks()

    order = ctx.topological_order()
    table = ReservationTable(machine)
    times: Dict[str, int] = {}
    pending = set(order)

    # Repeatedly pick the ready operation with the highest priority and give
    # it the earliest cycle compatible with both dependences and resources.
    while pending:
        ready = [
            v
            for v in pending
            if all(e.src in times for e in ddg.in_edges(v))
        ]
        if not ready:
            raise ScheduleError(
                f"list scheduler deadlocked on {ddg.name!r} (cyclic graph?)"
            )
        ready.sort(key=lambda v: (-priority.get(v, 0.0), v))
        node = ready[0]
        op = ddg.operation(node)
        earliest = 0
        for e in ddg.in_edges(node):
            earliest = max(earliest, times[e.src] + e.latency)
        earliest = max(earliest, 0)
        cycle = table.earliest_slot(op, earliest)
        table.issue(op, cycle)
        times[node] = cycle
        pending.discard(node)
    return Schedule(times, ddg.name).check(ddg)


def register_pressure_aware_schedule(
    ddg: DDG,
    rtype: RegisterType | str,
    registers: int,
    machine: Optional[ProcessorModel] = None,
) -> Schedule:
    """A combined scheduler that throttles new lifetimes above the register budget.

    This is the kind of "selfish" register-sensitive scheduler the paper's
    introduction discusses: whenever issuing an operation that defines a new
    value of *rtype* would exceed *registers* simultaneously-alive values,
    the operation is delayed in favour of operations that free registers
    (value killers).  The resulting schedule is correct but typically longer
    -- the examples use it to illustrate why decoupling with RS is
    preferable.  Note that the throttle is a heuristic: when only producers
    are ready it must issue one anyway, so the bound can still be exceeded
    on graphs whose saturation cannot be reduced.
    """

    rtype = canonical_type(rtype)
    machine = machine or superscalar()
    ctx = context_for(ddg)
    priority = ctx.longest_path_to_sinks()
    order = ctx.topological_order()
    table = ReservationTable(machine)
    times: Dict[str, int] = {}
    pending = set(order)

    def live_values_at(candidate_times: Dict[str, int]) -> int:
        if not candidate_times:
            return 0
        partial = Schedule(candidate_times, ddg.name)
        # Count only values whose producer is scheduled; consumers not yet
        # scheduled keep the value conservatively alive until the horizon.
        live = 0
        horizon = max(candidate_times.values()) + 1
        for value in ddg.values(rtype):
            if value.node not in candidate_times:
                continue
            birth = candidate_times[value.node]
            consumers = ddg.consumers(value.node, rtype)
            if consumers and all(c in candidate_times for c in consumers):
                death = max(candidate_times[c] for c in consumers)
            else:
                death = horizon
            if birth <= horizon <= death or birth < horizon:
                live += 1 if death >= horizon else 0
        return live

    while pending:
        ready = [
            v for v in pending if all(e.src in times for e in ddg.in_edges(v))
        ]
        if not ready:
            raise ScheduleError(f"scheduler deadlocked on {ddg.name!r}")
        producers = [v for v in ready if ddg.operation(v).defines(rtype)]
        killers = [v for v in ready if v not in producers]
        live_now = live_values_at(times)
        pool = ready
        if producers and live_now >= registers and killers:
            pool = killers
        pool.sort(key=lambda v: (-priority.get(v, 0.0), v))
        node = pool[0]
        op = ddg.operation(node)
        earliest = 0
        for e in ddg.in_edges(node):
            earliest = max(earliest, times[e.src] + e.latency)
        cycle = table.earliest_slot(op, max(earliest, 0))
        table.issue(op, cycle)
        times[node] = cycle
        pending.discard(node)
    return Schedule(times, ddg.name).check(ddg)
