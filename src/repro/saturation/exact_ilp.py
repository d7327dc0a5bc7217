"""Exact register saturation by integer linear programming (paper Section 3).

The formulation follows the paper variable-for-variable:

* **Scheduling variables** -- one bounded integer ``sigma_u`` per operation,
  constrained by every precedence arc (``sigma_v - sigma_u >= delta(e)``)
  and by the worst total schedule time ``T = sum_e delta(e)``; O(n)
  variables, O(m) constraints.
* **Killing dates** -- one bounded integer ``k_{u^t}`` per value, equal to
  the maximum of ``sigma_v + delta_r(v)`` over its consumers; the ``max`` is
  linearized with one selector binary per consumer (O(n^2) variables and
  constraints in total).
* **Interference binaries** -- ``s^t_{u,v}`` for every unordered pair of
  values, with ``s = 1  <=>  the two lifetime intervals interfere``, i.e.
  the conjunction ``k_u >= sigma_v + delta_w(v) + 1  and  k_v >= sigma_u +
  delta_w(u) + 1`` linearized with the helpers of :mod:`repro.ilp.logical`;
  O(n^2) binaries and constraints.
* **Independent-set variables** -- ``x_{u^t}`` binary, with the constraint
  ``s_{u,v} = 0  =>  x_u + x_v <= 1`` written directly as
  ``x_u + x_v - s_{u,v} <= 1``, and one row per value ``x_u = 1  =>
  k_u >= sigma_u + delta_w(u) + 1`` (an empty lifetime holds no register);
  the register saturation is the maximum of ``sum_u x_u`` (a maximum
  clique of the interference graph, i.e. a maximum independent set of its
  complement).

Overall the model has O(n^2) integer variables and O(m + n^2) constraints --
the size claim checked by ``benchmarks/bench_ilp_size.py``.

The scheduling + killing-date + interference part of the model (the
*interference core*) is shared with the optimal reduction intLP of
Section 4 (:mod:`repro.reduction.exact_ilp`), which replaces the
independent-set block by register-assignment variables.

The two optimisations suggested at the end of Section 3 are implemented and
enabled by default:

* serial arcs whose scheduling constraint is implied by a longer parallel
  path are skipped;
* pairs of values that can never be simultaneously alive (one is always
  defined after the other's killing date, detected with longest paths) get
  their ``s`` variable fixed to zero, which removes the associated
  equivalence machinery.

:func:`exact_saturation` puts two proofs in front of the solve: Greedy-k
meeting the order-width upper bound of :mod:`repro.saturation.bounds`, and
a branch and bound over killing functions whose node bound is the width of
a partially killed graph's disjoint-value order.  Either proof comes with a
witness schedule needing exactly the proven RS; only what they cannot
settle builds the intLP.  :func:`intlp_saturation` always solves.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..analysis.context import context_for
from ..analysis.store import active_store
from ..core.graph import DDG
from ..core.lifetime import max_simultaneously_alive, register_need, value_lifetimes
from ..core.schedule import Schedule
from ..core.types import BOTTOM, RegisterType, Value, canonical_type
from ..errors import SolverError
from ..ilp import (
    IntegerProgram,
    LinExpr,
    Solution,
    SolveStatus,
    add_equivalence_conjunction,
    add_implication_ge,
    add_max_equality,
    solve,
)
from ..ilp.registry import backend_request_token
from .bounds import ordered_after, saturation_upper_bound
from .greedy import greedy_saturation
from .dvk import characterised, disjoint_value_dag
from .pkill import KillingFunction, killed_graph, killing_arc_slots, potential_killers_map
from .result import SaturationResult

__all__ = [
    "RSModelInfo",
    "build_interference_core",
    "build_rs_program",
    "exact_saturation",
    "intlp_saturation",
    "never_simultaneously_alive",
]


class RSModelInfo:
    """Bookkeeping attached to a register-pressure intLP.

    Keeps the variable-name conventions in one place so both the saturation
    model (Section 3) and the reduction model (Section 4) can translate
    solver output back into schedules, lifetimes and alive sets.
    """

    def __init__(self, ddg: DDG, rtype: RegisterType, horizon: int) -> None:
        self.ddg = ddg
        self.rtype = rtype
        self.horizon = horizon
        self.values: List[Value] = sorted(ddg.values(rtype))
        self.sigma_names: Dict[str, str] = {
            node: f"sigma[{node}]" for node in ddg.nodes()
        }
        self.kill_names: Dict[Value, str] = {
            v: f"kill[{v.node}]" for v in self.values
        }
        #: pairs (u, v) -> name of the interference binary s_{u,v}
        self.interference_names: Dict[Tuple[Value, Value], str] = {}
        #: pairs statically proven to never interfere (s fixed to 0)
        self.fixed_noninterfering: Set[Tuple[Value, Value]] = set()
        #: value -> name of the independent-set binary (Section 3 model only)
        self.independent_names: Dict[Value, str] = {
            v: f"alive[{v.node}]" for v in self.values
        }

    def sigma(self, node: str) -> str:
        return self.sigma_names[node]

    def kill(self, value: Value) -> str:
        return self.kill_names[value]

    def value_pairs(self):
        """All unordered value pairs in a deterministic order."""

        for i, u in enumerate(self.values):
            for v in self.values[i + 1:]:
                yield u, v

    def schedule_from(self, solution: Solution) -> Schedule:
        times = {
            node: solution.int_value(name) for node, name in self.sigma_names.items()
        }
        return Schedule(times, self.ddg.name)

    def alive_values_from(self, solution: Solution) -> List[Value]:
        return [
            v
            for v, name in self.independent_names.items()
            if solution.int_value(name) == 1
        ]


def never_simultaneously_alive(
    ddg: DDG,
    a: Value,
    b: Value,
    lp: Mapping[str, Mapping[str, float]],
) -> bool:
    """Static test that two values can never have interfering lifetimes.

    This is the second optimisation of Section 3: the pair is ordered for
    every schedule when all consumers of one value are separated from the
    definition of the other by a long enough path::

        forall v' in Cons(v): lp(v', u) >= delta_r(v') - delta_w(u)
        or
        forall u' in Cons(u): lp(u', v) >= delta_r(u') - delta_w(v)

    Each side is :func:`~repro.saturation.bounds.ordered_after`, the order
    whose width is the register-saturation upper bound.
    """

    return ordered_after(ddg, a, b, lp) or ordered_after(ddg, b, a, lp)


def build_interference_core(
    ddg: DDG,
    rtype: RegisterType | str,
    horizon: Optional[int] = None,
    prune_redundant_arcs: bool = True,
    prune_noninterfering_pairs: bool = True,
    name: str = "rs-core",
) -> Tuple[IntegerProgram, RSModelInfo]:
    """Build the scheduling + killing-date + interference part of the intLP.

    The returned program contains, for the bottom-normalised copy of *ddg*:

    * one integer ``sigma`` variable per operation with ASAP/ALAP bounds and
      one precedence constraint per (non-redundant) arc;
    * one integer killing-date variable per value of *rtype*, tied to the
      consumers' read dates through the linearized ``max`` operator;
    * one binary interference variable per pair of values not statically
      proven non-interfering, tied to the lifetime intervals through the
      linearized equivalence.

    No objective is set; callers add either the independent-set block
    (register saturation) or the register-assignment block (reduction).
    """

    rtype = canonical_type(rtype)
    bottom_ctx = context_for(ddg).bottom()
    g = bottom_ctx.ddg
    if horizon is None:
        horizon = bottom_ctx.worst_case_total_time()
    info = RSModelInfo(g, rtype, horizon)
    program = IntegerProgram(f"{name}[{g.name}:{rtype.name}]")

    lp = bottom_ctx.longest_path_matrix()
    asap = bottom_ctx.asap_times()
    to_sinks = bottom_ctx.longest_path_to_sinks()

    # ------------------------------------------------------------------ #
    # Scheduling variables and precedence constraints
    # ------------------------------------------------------------------ #
    sigma: Dict[str, LinExpr] = {}
    for node in g.nodes():
        lower = asap[node]
        upper = horizon - to_sinks[node]
        sigma[node] = program.add_integer(info.sigma(node), lower, max(lower, upper))

    for edge in g.edges():
        if prune_redundant_arcs and not edge.is_flow:
            # Skip serial arcs implied by a longer parallel path (the matrix
            # entry already accounts for the best path, so a strict excess
            # means another path subsumes this arc's constraint).
            if lp[edge.src][edge.dst] > edge.latency:
                continue
        program.add_ge(
            sigma[edge.dst] - sigma[edge.src],
            edge.latency,
            label=f"prec[{edge.src}->{edge.dst}]",
        )

    # ------------------------------------------------------------------ #
    # Killing dates (one per value) -- the max operator of the paper
    # ------------------------------------------------------------------ #
    kill: Dict[Value, LinExpr] = {}
    for value in info.values:
        consumers = g.consumers(value.node, rtype)
        producer = g.operation(value.node)
        birth = sigma[value.node] + producer.delta_w
        if not consumers:
            # Exit values are consumed by the bottom node after normalisation;
            # a value that still has no consumer dies at its birth date.
            var = program.add_integer(info.kill(value), 0, horizon)
            program.add_eq(var - birth, 0.0, label=f"kill_birth[{value.node}]")
            kill[value] = var
            continue
        lo = min(asap[c] + g.operation(c).delta_r for c in consumers)
        hi = max(
            horizon - to_sinks[c] + g.operation(c).delta_r for c in consumers
        )
        var = program.add_integer(info.kill(value), lo, max(lo, hi))
        terms = [sigma[c] + g.operation(c).delta_r for c in consumers]
        add_max_equality(program, var, terms, prefix=f"kmax[{value.node}]")
        kill[value] = var

    # ------------------------------------------------------------------ #
    # Interference binaries
    # ------------------------------------------------------------------ #
    for u, v in info.value_pairs():
        if prune_noninterfering_pairs and never_simultaneously_alive(g, u, v, lp):
            info.fixed_noninterfering.add((u, v))
            continue
        s_name = f"interfere[{u.node},{v.node}]"
        s = program.add_binary(s_name)
        info.interference_names[(u, v)] = s_name
        birth_u = sigma[u.node] + g.operation(u.node).delta_w
        birth_v = sigma[v.node] + g.operation(v.node).delta_w
        # s = 1  <=>  k_u > birth_v  and  k_v > birth_u
        add_equivalence_conjunction(
            program,
            s,
            [
                (kill[u] - birth_v, 1.0),
                (kill[v] - birth_u, 1.0),
            ],
            prefix=f"eqv[{u.node},{v.node}]",
        )
    return program, info


def build_rs_program(
    ddg: DDG,
    rtype: RegisterType | str,
    horizon: Optional[int] = None,
    prune_redundant_arcs: bool = True,
    prune_noninterfering_pairs: bool = True,
) -> Tuple[IntegerProgram, RSModelInfo]:
    """Build the Section-3 intLP maximising the register need of type *rtype*.

    The DDG is normalised with the bottom node internally.  Returns the model
    together with the :class:`RSModelInfo` naming helper.
    """

    program, info = build_interference_core(
        ddg,
        rtype,
        horizon=horizon,
        prune_redundant_arcs=prune_redundant_arcs,
        prune_noninterfering_pairs=prune_noninterfering_pairs,
        name="rs",
    )

    alive: Dict[Value, LinExpr] = {}
    for value in info.values:
        alive[value] = program.add_binary(info.independent_names[value])
        # Only a non-empty lifetime holds a register: alive => kill > birth.
        birth = LinExpr.term(info.sigma(value.node)) + info.ddg.operation(value.node).delta_w
        add_implication_ge(
            program,
            alive[value],
            LinExpr.term(info.kill(value)) - birth,
            1.0,
            label=f"nonempty[{value.node}]",
        )

    for u, v in info.value_pairs():
        if (u, v) in info.fixed_noninterfering:
            # s_{u,v} is the constant 0: the pair can never be in the clique.
            program.add_le(alive[u] + alive[v], 1.0, label=f"is[{u.node},{v.node}]")
        else:
            s = LinExpr.term(info.interference_names[(u, v)])
            # s_{u,v} = 0  =>  x_u + x_v <= 1
            program.add_le(
                alive[u] + alive[v] - s, 1.0, label=f"is[{u.node},{v.node}]"
            )

    program.maximize(LinExpr.sum(alive.values()))
    return program, info


def exact_saturation(
    ddg: DDG,
    rtype: RegisterType | str,
    horizon: Optional[int] = None,
    backend: str = "auto",
    time_limit: Optional[float] = None,
    prune: bool = True,
) -> SaturationResult:
    """Compute the exact register saturation ``RS_t(G)``, solving only if needed.

    Three steps, each tried only when the previous one cannot settle RS:

    1. **Bounds.**  When Greedy-k's RS* equals
       :func:`~repro.saturation.bounds.saturation_upper_bound`, RS* is RS
       (``method="bounds"``, Greedy-k proven optimal).
    2. **Search.**  RS is the largest antichain of ``DV_k`` over the valid
       killing functions ``k`` (on graphs where that characterisation
       holds, see :func:`~repro.saturation.dvk.characterised`).  A
       depth-first branch and bound over killing functions
       (:func:`_search_killing_functions`) starts from Greedy-k's function
       and prunes every partial assignment whose order-width bound cannot
       beat it.  When the root is pruned at once
       the answer still reads ``method="bounds"``; a search that branches
       reads ``method="search"`` with ``details["search_nodes"]``.
    3. **intLP.**  Otherwise -- the characterisation does not hold, the
       search passes ``_SEARCH_NODE_BUDGET`` nodes, or the winner's
       witness fails -- the Section-3 intLP is solved by
       :func:`intlp_saturation` with the remaining parameters.

    The winner of steps 1 and 2 comes with a witness schedule keeping its
    antichain alive together (:func:`_witness_schedule`), whose register
    need must be exactly RS; with an explicit *horizon* the witness must
    also issue ``⊥`` by that cycle.

    When the ambient result store is active (see
    :func:`repro.analysis.store.active_store`) a previously proven result
    for the same graph content and parameters is returned without
    recomputation.

    Raises :class:`~repro.errors.SolverError` when the solver cannot prove
    optimality within the time limit (the experiments treat those instances
    separately, as the paper does for its multi-day CPLEX runs).
    """

    start = time.perf_counter()
    rtype = canonical_type(rtype)
    if not ddg.values(rtype):
        return SaturationResult(rtype, 0, method="intlp", optimal=True,
                                wall_time=time.perf_counter() - start)

    def compute() -> SaturationResult:
        proven = _saturation_without_solve(ddg, rtype, start, horizon)
        if proven is not None:
            return proven
        return intlp_saturation(
            ddg, rtype, horizon=horizon, backend=backend,
            time_limit=time_limit, prune=prune,
        )

    store = active_store()
    if store is None:
        return compute()
    # A raising solve (no proof within the limit) stores nothing.  The .v3
    # query keeps results stored before the search existed apart.
    return store.memo(
        context_for(ddg).graph_hash(),
        "saturation.exact.v3",
        {
            "rtype": rtype.name,
            "horizon": horizon,
            "prune": prune,
            "backend": backend_request_token(backend),
            "time_limit": time_limit,
        },
        compute,
    )


#: Nodes the branch and bound over killing functions may evaluate before
#: the intLP takes over.  The largest search seen on the test and
#: benchmark populations evaluates 549 (about 0.4 s on a 2-vCPU machine).
_SEARCH_NODE_BUDGET = 2000


def _saturation_without_solve(
    ddg: DDG, rtype: RegisterType, start: float, horizon: Optional[int]
) -> Optional[SaturationResult]:
    """RS proven by the bounds or by the search, or None (see :func:`exact_saturation`)."""

    ctx = context_for(ddg)
    bottom_ctx = ctx.bottom()
    g = bottom_ctx.ddg
    upper = saturation_upper_bound(ddg, rtype, ctx)
    greedy = greedy_saturation(ddg, rtype, ctx=ctx)
    details: Dict[str, object] = {"upper_bound": upper}
    method = "bounds"
    if greedy.killing_function is not None and greedy.rs == upper:
        rs, killing, antichain = greedy.rs, greedy.killing_function, greedy.saturating_values
    elif not characterised(g, rtype, bottom_ctx):
        return None
    else:
        found = _search_killing_functions(g, rtype, greedy)
        if found is None:
            return None
        rs, killing, antichain, root, nodes = found
        details["root_bound"] = root
        if nodes > 1:
            method = "search"
            details["search_nodes"] = nodes
    schedule = _witness_schedule(g, rtype, killing, antichain)
    if schedule is None or (horizon is not None and schedule[BOTTOM] > horizon):
        return None
    need, alive = max_simultaneously_alive(value_lifetimes(g, schedule, rtype))
    if need != rs:
        return None
    details["witness_register_need"] = need
    return SaturationResult(
        rtype=rtype,
        rs=need,
        saturating_values=tuple(sorted(iv.value for iv in alive)),
        method=method,
        killing_function=killing,
        witness_schedule=schedule,
        optimal=True,
        wall_time=time.perf_counter() - start,
        details=details,
    )


def _search_killing_functions(
    g: DDG, rtype: RegisterType, greedy: SaturationResult
) -> Optional[Tuple[int, Dict[Value, str], Tuple[Value, ...], int, int]]:
    """Depth-first branch and bound for the largest antichain of ``DV_k``.

    A node fixes the killers of a prefix of the values that have two or
    more potential killers (values and killers in sorted order, so the
    search is deterministic); values with one potential killer are fixed
    at the root.  Its bound is the width of the disjoint-value order of
    its partially killed graph (:func:`~repro.saturation.dvk.disjoint_value_dag`
    of the partial function).  Every valid completion ``k`` only adds
    killing arcs, so longest paths only grow and every arc of that order
    is an arc of ``DV_k``: the bound is at least ``MA(DV_k)``, and at a
    leaf it is ``MA(DV_k)``.  A node is pruned when its graph is cyclic
    (so is every completion's) or its bound is at most the incumbent,
    which starts as Greedy-k's RS* and killing function.  The root adds
    no killing arc and tests each value against its potential killers, a
    subset of the consumers that
    :func:`~repro.saturation.bounds.saturation_upper_bound` tests, so its
    order contains that bound's order and it is never wider.

    Returns ``(rs, killing function, antichain, root bound, nodes
    evaluated)``, or None when the node budget runs out or no valid
    killing function turns up.
    """

    pk = potential_killers_map(g, rtype)
    branch = [(v, sorted(pk[v])) for v in sorted(pk) if len(pk[v]) > 1]
    best_rs, best = -1, None
    if greedy.killing_function is not None:
        best_rs = greedy.rs
        best = (greedy.killing_function, greedy.saturating_values)
    root: Optional[int] = None
    nodes = 0
    stack = [(0, {v: ks[0] for v, ks in pk.items() if len(ks) == 1})]
    while stack:
        depth, mapping = stack.pop()
        nodes += 1
        if nodes > _SEARCH_NODE_BUDGET:
            return None
        antichain = _node_antichain(g, rtype, mapping, pk)
        if antichain is None:
            continue
        if root is None:
            root = len(antichain)
        if len(antichain) <= best_rs:
            continue
        if depth == len(branch):
            best_rs, best = len(antichain), (mapping, tuple(sorted(antichain)))
            if best_rs == root:
                break  # no node is wider than the root
            continue
        value, killers = branch[depth]
        for killer in reversed(killers):
            stack.append((depth + 1, {**mapping, value: killer}))
    if best is None or root is None:
        return None
    return best_rs, dict(best[0]), best[1], root, nodes


def _node_antichain(
    g: DDG,
    rtype: RegisterType,
    mapping: Mapping[Value, str],
    pk: Mapping[Value, List[str]],
) -> Optional[List[Value]]:
    """A maximum antichain of the disjoint-value order of the graph killed
    by the partial function *mapping*, or None when that graph is cyclic.

    Its size is the search node's bound (see :func:`_search_killing_functions`).
    """

    kf = KillingFunction(rtype, mapping)
    killed = killed_graph(g, kf, pk=pk)
    killed_ctx = context_for(killed)
    if not killed_ctx.is_acyclic():
        return None
    return disjoint_value_dag(g, kf, killed, killed_ctx, pk=pk).maximum_antichain()


def _witness_schedule(
    g: DDG,
    rtype: RegisterType,
    killing: Mapping[Value, str],
    antichain: Sequence[Value],
) -> Optional[Schedule]:
    """A schedule of the bottom-normalised *g* keeping *antichain* alive together.

    The constraints are the arcs of the killed graph of *killing* plus,
    for every ordered pair ``(u, v)`` of *antichain* (``u == v``
    included), ``def(u) -> k(v)`` of latency ``delta_w(u) - delta_r(k(v))
    + 1``: ``v`` dies after ``u`` is born, so every lifetime is non-empty
    and the lifetimes pairwise overlap and share an instant.  The overlap
    arcs may close cycles, of zero or negative weight on offset inputs, so
    the earliest schedule is found by longest-path relaxation; a positive
    cycle means no such schedule (None).
    """

    op = g.operation
    pk = potential_killers_map(g, rtype)
    arcs = [
        (e.src, e.dst, e.latency)
        for node in context_for(g).topological_order()
        for e in g.out_edges(node)
    ]
    for other, killer in killing_arc_slots(KillingFunction(rtype, killing), pk):
        arcs.append((other, killer, op(other).delta_r - op(killer).delta_r))
    for u in antichain:
        for v in antichain:
            killer = killing[v]
            # k(v) = def(u) needs no arc: with v and u unordered in DV_k,
            # delta_r(k(v)) > delta_w(u) already.
            if killer != u.node:
                arcs.append((u.node, killer, op(u.node).delta_w - op(killer).delta_r + 1))
    times = dict.fromkeys(g.nodes(), 0)
    # Without a positive cycle every longest path has fewer arcs than
    # there are nodes, so the relaxation settles within that many rounds.
    for _ in range(len(times)):
        changed = False
        for src, dst, latency in arcs:
            if times[src] + latency > times[dst]:
                times[dst] = times[src] + latency
                changed = True
        if not changed:
            return Schedule(times, g.name)
    return None


def intlp_saturation(
    ddg: DDG,
    rtype: RegisterType | str,
    horizon: Optional[int] = None,
    backend: str = "auto",
    time_limit: Optional[float] = None,
    prune: bool = True,
) -> SaturationResult:
    """Compute ``RS_t(G)`` by solving the Section-3 intLP, always.

    ``backend`` names a registered solver backend or ``"auto"`` (the
    registry's deterministic policy, overridable via ``REPRO_ILP_BACKEND``);
    the chosen backend and its solve statistics are recorded in
    ``details``.  The solver's witness schedule is recounted: a register
    need other than the proven objective raises
    :class:`~repro.errors.SolverError`, as does a solve that cannot prove
    optimality within the time limit.
    """

    start = time.perf_counter()
    rtype = canonical_type(rtype)
    program, info = build_rs_program(
        ddg,
        rtype,
        horizon=horizon,
        prune_redundant_arcs=prune,
        prune_noninterfering_pairs=prune,
    )
    solution = solve(
        program, backend=backend, time_limit=time_limit, require_feasible=True
    )
    if solution.status is not SolveStatus.OPTIMAL:
        raise SolverError(
            f"register saturation intLP not solved to optimality "
            f"(status={solution.status.value}, backend={solution.backend}) "
            f"for {ddg.name!r}"
        )
    schedule = info.schedule_from(solution)
    alive = info.alive_values_from(solution)
    rs = int(round(solution.objective or 0))
    # The witness schedule must exhibit exactly the proven need.
    witness_need = register_need(info.ddg, schedule, rtype)
    if witness_need != rs:
        raise SolverError(
            f"register saturation intLP for {ddg.name!r} claims {rs} registers "
            f"but its witness schedule needs {witness_need} "
            f"(backend={solution.backend})"
        )
    return SaturationResult(
        rtype=rtype,
        rs=rs,
        saturating_values=tuple(sorted(alive)),
        method="intlp",
        witness_schedule=schedule,
        optimal=True,
        wall_time=time.perf_counter() - start,
        details={
            "model": program.statistics(),
            "solver": solution.solver,
            "solver_time": solution.wall_time,
            "backend": solution.backend,
            "solve": solution.stats(),
            "witness_register_need": witness_need,
            "horizon": info.horizon,
        },
    )
