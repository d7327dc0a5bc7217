"""Optimal register-saturation reduction by integer programming (paper Section 4).

The proof of Theorem 4.2 ("ReduceRS is NP-hard") is constructive and gives
the optimal method implemented here, in two steps:

1. **Register-constrained scheduling (SRC).**  Reuse the interference core
   of the Section-3 model (scheduling variables, killing dates, interference
   binaries) and replace the independent-set block by register-assignment
   binaries ``x^i_{u^t}`` (value ``u^t`` lives in register ``i``): every
   value sits in exactly one register and interfering values may not share
   one.  The objective minimises the total schedule time ``sigma_⊥``.  This
   is exactly the paper's intLP; it is also exposed on its own as
   :func:`solve_src` because the SRC problem (find a schedule that fits in
   ``R_t`` registers within a deadline) is useful in its own right.

2. **Lifetime serialization.**  From the optimal schedule ``sigma``, add the
   Theorem-4.2 serial arcs for every ordered pair of values whose lifetimes
   are disjoint under ``sigma`` (``LT(u) < LT(v)``).  The resulting extended
   graph has, for *every* schedule, the same lifetime precedences as
   ``sigma`` had, hence a register saturation of exactly ``RN_sigma <= R_t``
   while its critical path never exceeds ``sigma``'s makespan.

Deviations from the paper, both documented in DESIGN.md:

* the paper suggests decrementing ``R_t`` and re-solving when the intLP is
  infeasible; with this interference model feasibility is monotone in the
  number of registers, so an infeasible budget simply means spilling is
  unavoidable and :class:`~repro.errors.SpillRequiredError` is raised;
* for VLIW/EPIC offsets the paper adds O(n^3) constraints to forbid the
  non-positive circuits that the added arcs could create; this
  implementation instead skips, at arc-insertion time, any arc that would
  close a circuit (the skipped arcs are reported in ``details``) and
  verifies the final saturation.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.context import context_for
from ..analysis.graphalgo import critical_path_length
from ..analysis.store import active_store
from ..core.graph import DDG, Edge
from ..core.lifetime import register_need, value_lifetimes
from ..core.machine import ProcessorModel
from ..core.schedule import Schedule
from ..core.types import BOTTOM, RegisterType, Value, canonical_type
from ..errors import CyclicGraphError, SolverError, SpillRequiredError
from ..ilp import IntegerProgram, LinExpr, Solution, SolveStatus, solve
from ..ilp.registry import backend_request_token
from ..saturation.exact_ilp import RSModelInfo, build_interference_core
from ..saturation.greedy import greedy_saturation
from ..saturation.incremental import IncrementalAnalysis
from .result import ReductionResult
from .serialization import (
    SerializationMode,
    apply_serialization,
    prune_redundant_serial_arcs,
    serialization_edges,
    would_remain_acyclic,
)

__all__ = [
    "build_reduction_program",
    "solve_src",
    "serialize_from_schedule",
    "reduce_saturation_exact",
]


def build_reduction_program(
    ddg: DDG,
    rtype: RegisterType | str,
    registers: int,
    horizon: Optional[int] = None,
    deadline: Optional[int] = None,
    prune: bool = True,
) -> Tuple[IntegerProgram, RSModelInfo]:
    """Build the Section-4 intLP: schedule within *registers* registers, minimise time.

    ``deadline`` optionally bounds the total schedule time (the ``P`` of the
    SRC problem); without it only the worst-case horizon ``T`` applies.
    """

    rtype = canonical_type(rtype)
    if registers < 1:
        raise ValueError("the register budget must be at least 1")
    program, info = build_interference_core(
        ddg,
        rtype,
        horizon=horizon,
        prune_redundant_arcs=prune,
        prune_noninterfering_pairs=prune,
        name="reduce",
    )
    g = info.ddg  # bottom-normalised copy

    # Register assignment binaries x^i_u : value u is stored in register i.
    assign: Dict[Tuple[Value, int], LinExpr] = {}
    for value in info.values:
        row = []
        for i in range(registers):
            var = program.add_binary(f"reg[{value.node},{i}]")
            assign[(value, i)] = var
            row.append(var)
        program.add_eq(LinExpr.sum(row), 1.0, label=f"one_reg[{value.node}]")

    # Interfering values cannot share a register:  s_{u,v} = 1  =>
    # x^i_u + x^i_v <= 1 for every register i.
    for (u, v), s_name in info.interference_names.items():
        s = LinExpr.term(s_name)
        for i in range(registers):
            program.add_le(
                assign[(u, i)] + assign[(v, i)] + s,
                2.0,
                label=f"conflict[{u.node},{v.node},{i}]",
            )

    sigma_bottom = LinExpr.term(info.sigma(BOTTOM))
    if deadline is not None:
        program.add_le(sigma_bottom, float(deadline), label="deadline")
    program.minimize(sigma_bottom)
    return program, info


def solve_src(
    ddg: DDG,
    rtype: RegisterType | str,
    registers: int,
    deadline: Optional[int] = None,
    horizon: Optional[int] = None,
    backend: str = "auto",
    time_limit: Optional[float] = None,
) -> Tuple[Optional[Schedule], Solution, RSModelInfo]:
    """Solve the SRC problem: a schedule needing at most *registers* registers.

    ``backend`` is a registered solver backend or ``"auto"`` (registry
    policy).  Returns ``(schedule, raw solution, model info)``; the schedule
    is ``None`` when the instance is infeasible (no schedule fits the budget
    within the deadline/horizon).
    """

    program, info = build_reduction_program(
        ddg, rtype, registers, horizon=horizon, deadline=deadline
    )
    solution = solve(program, backend=backend, time_limit=time_limit)
    if solution.status is SolveStatus.INFEASIBLE:
        return None, solution, info
    if solution.status is not SolveStatus.OPTIMAL:
        raise SolverError(
            f"SRC intLP for {ddg.name!r} not solved to optimality "
            f"(status={solution.status.value}, backend={solution.backend})"
        )
    return info.schedule_from(solution), solution, info


def serialize_from_schedule(
    ddg: DDG,
    schedule: Schedule,
    rtype: RegisterType | str,
    mode: str = SerializationMode.OFFSETS,
    prune_redundant: bool = False,
) -> Tuple[DDG, List[Edge], List[Tuple[Value, Value]]]:
    """Add the Theorem-4.2 arcs that freeze the lifetime precedences of *schedule*.

    For every ordered pair of values with ``LT(u) < LT(v)`` under *schedule*
    (the death of ``u`` happens no later than the birth of ``v``), serial
    arcs from the readers of ``u`` towards ``v`` are inserted.  Arcs that
    would close a circuit are skipped and the corresponding pairs returned,
    so the caller can verify/report; with arcs derived from an actual
    schedule this only happens in exotic offset configurations.

    With *prune_redundant* (off by default for this low-level primitive, on
    in the reduction passes) the serial arcs of *ddg* that are already
    implied by its transitive closure are dropped first; pruning preserves
    the set of valid schedules, so the witness stays a witness.

    Returns ``(extended graph, added arcs, skipped pairs)``.
    """

    rtype = canonical_type(rtype)
    g = ddg.with_bottom() if not ddg.has_bottom else ddg.copy()
    intervals = {iv.value: iv for iv in value_lifetimes(g, schedule, rtype)}
    values = sorted(intervals, key=lambda v: (intervals[v].birth, v.node))

    extended = g.copy(name=f"{ddg.name}+serialized")
    if prune_redundant:
        extended, _ = prune_redundant_serial_arcs(extended)
        extended.name = f"{ddg.name}+serialized"
    # One in-place working graph with warm reachability instead of a copy
    # plus a full-graph cycle walk per applied pair (this O(|values|^2) loop
    # dominated the minimization baseline).
    analysis = IncrementalAnalysis(extended)
    added: List[Edge] = []
    skipped: List[Tuple[Value, Value]] = []
    for u in values:
        for v in values:
            if u == v:
                continue
            # LT(u) < LT(v): u dies no later than v is born.
            if intervals[u].death <= intervals[v].birth:
                edges = serialization_edges(extended, u, v, mode=mode, skip_existing=True)
                if not edges:
                    continue
                if not analysis.remains_acyclic_with_edges(edges):
                    skipped.append((u, v))
                    continue
                analysis.push(edges)
                added.extend(edges)
    if not extended.is_acyclic():
        raise CyclicGraphError(f"serializing {ddg.name!r} must keep the DDG acyclic")
    return extended, added, skipped


def reduce_saturation_exact(
    ddg: DDG,
    rtype: RegisterType | str,
    registers: int,
    machine: Optional[ProcessorModel] = None,
    mode: Optional[str] = None,
    deadline: Optional[int] = None,
    backend: str = "auto",
    time_limit: Optional[float] = None,
    verify: bool = False,
    prune_redundant: bool = True,
) -> ReductionResult:
    """Optimal register-saturation reduction (Section 4 of the paper).

    Finds a schedule with register need at most *registers* and minimal total
    time, then freezes its lifetime precedences with serial arcs.  The
    resulting extended graph has register saturation ``RN_sigma <= registers``
    and the smallest critical-path increase achievable for this budget.
    ``backend`` routes the SRC intLP through the solver registry; the chosen
    backend and its solve statistics land in ``details``.  With the ambient
    result store active, a previously computed reduction for the same graph
    content and parameters is returned without re-solving.

    Raises :class:`~repro.errors.SpillRequiredError` when no schedule fits
    the budget (spilling unavoidable).  With ``verify=True`` the saturation
    of the extended graph is recomputed exactly (a second intLP) and reported
    in ``details['verified_rs']``.
    """

    start = time.perf_counter()
    rtype = canonical_type(rtype)
    if mode is None:
        # The offsets rule keeps the witness schedule valid on the extended
        # graph, so the measured ILP loss never exceeds the optimal makespan.
        mode = SerializationMode.OFFSETS

    store = active_store()
    if store is not None:
        # A raising solve (spill required, no proof within the limit)
        # stores nothing.
        return store.memo(
            context_for(ddg).graph_hash(),
            "reduction.exact",
            {
                "rtype": rtype.name,
                "registers": registers,
                "mode": mode,
                "deadline": deadline,
                "backend": backend_request_token(backend),
                "time_limit": time_limit,
                "verify": verify,
                "prune_redundant": prune_redundant,
            },
            lambda: _reduce_saturation_exact_uncached(
                ddg, rtype, registers, mode, deadline, backend, time_limit,
                verify, prune_redundant, start,
            ),
        )
    return _reduce_saturation_exact_uncached(
        ddg, rtype, registers, mode, deadline, backend, time_limit,
        verify, prune_redundant, start,
    )


def _reduce_saturation_exact_uncached(
    ddg: DDG,
    rtype: RegisterType,
    registers: int,
    mode: str,
    deadline: Optional[int],
    backend: str,
    time_limit: Optional[float],
    verify: bool,
    prune_redundant: bool,
    start: float,
) -> ReductionResult:
    # Critical paths are measured on bottom-normalised graphs (completion
    # time), the same convention as the heuristic so ILP losses compare.
    original_cp = context_for(ddg).bottom().critical_path_length()
    baseline = greedy_saturation(ddg, rtype)

    schedule, solution, info = solve_src(
        ddg,
        rtype,
        registers,
        deadline=deadline,
        backend=backend,
        time_limit=time_limit,
    )
    if schedule is None:
        raise SpillRequiredError(
            f"no schedule of {ddg.name!r} fits in {registers} {rtype.name} registers"
            + (f" within deadline {deadline}" if deadline is not None else "")
            + "; spilling is unavoidable"
        )

    achieved_need = register_need(info.ddg, schedule, rtype)
    extended, added, skipped = serialize_from_schedule(
        info.ddg, schedule, rtype, mode=mode, prune_redundant=prune_redundant
    )
    cp_after = critical_path_length(extended)

    details: Dict[str, object] = {
        "model": {"variables": solution.values and len(solution.values) or 0},
        "solver": solution.solver,
        "solver_time": solution.wall_time,
        "backend": solution.backend,
        "solve": solution.stats(),
        "schedule_makespan": schedule.makespan,
        "witness_register_need": achieved_need,
        "skipped_cyclic_pairs": [(str(u), str(v)) for u, v in skipped],
        "serialization_mode": mode,
    }
    if verify:
        from ..saturation.exact_ilp import exact_saturation

        verified = exact_saturation(extended.without_bottom(), rtype, time_limit=time_limit)
        details["verified_rs"] = verified.rs

    success = achieved_need <= registers and not skipped
    return ReductionResult(
        rtype=rtype,
        target=registers,
        success=success,
        original_rs=baseline.rs,
        achieved_rs=achieved_need,
        extended_ddg=extended,
        added_edges=tuple(added),
        critical_path_before=original_cp,
        critical_path_after=cp_after,
        method="intlp",
        optimal=True,
        wall_time=time.perf_counter() - start,
        details=details,
    )
