"""Section-5 experiment #2: optimality of the RS-reduction heuristic.

For every DAG whose saturation exceeds a register budget, run both the
value-serialization heuristic and the optimal intLP reduction, then classify
the outcome in the paper's six categories (paper percentages in brackets):

====  =========================  ==========================================
 id    condition                  paper's share of instances
====  =========================  ==========================================
 i.a   RS = RS*  and ILP = ILP*   72.22 %  (optimal RS, optimal ILP loss)
 i.b   RS = RS*  and ILP < ILP*   18.5  %  (optimal RS, sub-optimal ILP loss)
 i.c   RS = RS*  and ILP > ILP*   impossible
 ii.a  RS > RS*  and ILP = ILP*    4.63 %
 ii.b  RS > RS*  and ILP < ILP*   <1    %
 ii.c  RS > RS*  and ILP > ILP*    3.7  %  (extra registers buy back ILP)
 iii   RS < RS*                   impossible (the heuristic is admissible)
====  =========================  ==========================================

Here ``RS`` / ``RS*`` denote the *reduced* saturation achieved by the
optimal method and the heuristic respectively, and ``ILP`` / ``ILP*`` the
corresponding critical-path increases.  Note the orientation of the paper's
inequalities: the heuristic reduces *at least as much* as needed, so a
"sub-optimal RS reduction" means the heuristic ended with a *lower*
saturation than the optimal method needed to reach (``RS > RS*``), wasting
schedule freedom -- which is also why that case can come with a *better*
(super-optimal) ILP loss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.context import context_for
from ..analysis.store import active_store
from ..codes.suite import SuiteEntry, benchmark_suite
from ..ilp.registry import backend_request_token
from ..core.machine import ProcessorModel, superscalar
from ..errors import SolverError, SpillRequiredError
from ..reduction import reduce_saturation_exact, reduce_saturation_multi_budget
from ..saturation import greedy_saturation
from .engine import BatchEngine
from .reporting import format_breakdown, format_table
from .supervisor import ItemOutcome

__all__ = [
    "PAPER_BREAKDOWN",
    "ReductionComparison",
    "ReductionOptimalityReport",
    "run_reduction_optimality",
]

#: The paper's reported percentages, used as the reference column in reports.
PAPER_BREAKDOWN: Dict[str, float] = {
    "RS=RS* ILP=ILP*": 72.22,
    "RS=RS* ILP<ILP*": 18.5,
    "RS>RS* ILP=ILP*": 4.63,
    "RS>RS* ILP<ILP*": 0.93,
    "RS>RS* ILP>ILP*": 3.7,
}

_IMPOSSIBLE = ("RS=RS* ILP>ILP*", "RS<RS*")


@dataclass(frozen=True)
class ReductionComparison:
    """Heuristic vs optimal reduction on one (DAG, type, budget) instance."""

    name: str
    rtype: str
    nodes: int
    budget: int
    original_rs: int
    rs_exact: int          # reduced saturation achieved by the optimal method
    rs_heuristic: int      # reduced saturation achieved by the heuristic
    ilp_exact: int         # critical path increase of the optimal method
    ilp_heuristic: int     # critical path increase of the heuristic
    arcs_exact: int
    arcs_heuristic: int
    time_exact: float
    time_heuristic: float
    heuristic_success: bool

    @property
    def category(self) -> str:
        if self.rs_exact < self.rs_heuristic:
            return "RS<RS*"
        if self.rs_exact == self.rs_heuristic:
            if self.ilp_exact == self.ilp_heuristic:
                return "RS=RS* ILP=ILP*"
            if self.ilp_exact < self.ilp_heuristic:
                return "RS=RS* ILP<ILP*"
            return "RS=RS* ILP>ILP*"
        if self.ilp_exact == self.ilp_heuristic:
            return "RS>RS* ILP=ILP*"
        if self.ilp_exact < self.ilp_heuristic:
            return "RS>RS* ILP<ILP*"
        return "RS>RS* ILP>ILP*"


@dataclass(frozen=True)
class ReductionOptimalityReport:
    """Aggregated results of the reduction-optimality experiment."""

    comparisons: List[ReductionComparison] = field(default_factory=list)
    spill_instances: int = 0
    #: Summed warm-engine counters (dv_patches, pair_verdicts_reused,
    #: components_reused, ...) of every heuristic budget ladder, so the
    #: long-running sweeps report how much of their work the incremental
    #: candidate engine answered warm.  Deterministic (counter sums only,
    #: no timings), so stored cold/warm reports stay byte-identical.
    engine_counters: Dict[str, int] = field(default_factory=dict)
    #: Supervised-execution records, one per dispatched DAG task; excluded
    #: from every table so chaos/retry runs keep byte-identical reports.
    item_outcomes: List[ItemOutcome] = field(default_factory=list)

    @property
    def instances(self) -> int:
        return len(self.comparisons)

    def category_counts(self) -> Dict[str, int]:
        counts = {key: 0 for key in PAPER_BREAKDOWN}
        for impossible in _IMPOSSIBLE:
            counts[impossible] = 0
        for c in self.comparisons:
            counts[c.category] = counts.get(c.category, 0) + 1
        return counts

    def category_percentages(self) -> Dict[str, float]:
        counts = self.category_counts()
        total = sum(counts.values())
        if total == 0:
            return {k: 0.0 for k in counts}
        return {k: 100.0 * v / total for k, v in counts.items()}

    @property
    def impossible_cases_observed(self) -> int:
        counts = self.category_counts()
        return sum(counts.get(key, 0) for key in _IMPOSSIBLE)

    @property
    def dominant_category(self) -> str:
        counts = self.category_counts()
        return max(counts, key=lambda k: counts[k]) if counts else ""

    def to_table(self) -> str:
        rows = [
            (
                c.name,
                c.rtype,
                c.budget,
                c.original_rs,
                c.rs_exact,
                c.rs_heuristic,
                c.ilp_exact,
                c.ilp_heuristic,
                c.category,
            )
            for c in self.comparisons
        ]
        return format_table(
            ["benchmark", "type", "R", "RS0", "RS", "RS*", "ILP", "ILP*", "category"],
            rows,
            title="RS reduction: optimal (RS, ILP) vs heuristic (RS*, ILP*)",
        )

    def breakdown_report(self) -> str:
        return format_breakdown(
            self.category_percentages(),
            self.category_counts(),
            title="Optimality categories (paper Section 5)",
            paper_reference=PAPER_BREAKDOWN,
        )

    def engine_summary(self) -> str:
        """One line of warm-engine counters (empty when nothing was summed)."""

        if not self.engine_counters:
            return ""
        return "heuristic engine: " + ", ".join(
            f"{key}={value}" for key, value in sorted(self.engine_counters.items())
        )


def _budgets_for(rs: int, budgets: Optional[Sequence[int]]) -> List[int]:
    """Register budgets to exercise for a DAG whose saturation is *rs*."""

    if budgets is not None:
        return [b for b in budgets if 1 <= b < rs]
    picks = {rs - 1, max(2, (2 * rs) // 3), max(2, rs // 2)}
    return sorted(b for b in picks if 1 <= b < rs)


def _reduction_instance(
    task: Tuple[SuiteEntry, Optional[Sequence[int]], ProcessorModel, Optional[float]]
) -> Tuple[List[ReductionComparison], int, Dict[str, int]]:
    """Batch worker for one DAG: all its register types and budgets, plus spills.

    Module-level so the process policy can pickle it.  One task covers the
    whole DAG because its instances share one analysis context, and the
    cold-cache timing protocol below must not race with another worker
    invalidating that context.  The spill count rides along; the caller
    sums in input order.
    """

    entry, budgets, machine, time_limit = task
    comparisons: List[ReductionComparison] = []
    spills = 0
    engine_counters: Dict[str, int] = {}
    for rtype in entry.ddg.register_types():
        base = greedy_saturation(entry.ddg, rtype)
        budget_list = _budgets_for(base.rs, budgets)
        if not budget_list:
            continue
        # Warm start across budgets: the serializations applied for budget R
        # are a prefix of those applied for any R' < R, so one session
        # serves the whole budget ladder (descending) instead of rebuilding
        # per budget.  Per-budget results are byte-identical to standalone
        # runs, and each result's wall_time is the cumulative cost down to
        # its budget (what a standalone run would have paid), keeping the
        # reported exact-vs-heuristic timings row-comparable.  The ladder is
        # built lazily on the first exact success so instances where the
        # optimal method only spills or times out never pay for it.
        heuristic_results = None
        for budget in budget_list:
            # The exact method starts from a cold cache so its timing keeps
            # the seed semantics (it pays for its own analyses).
            context_for(entry.ddg).invalidate()
            t0 = time.perf_counter()
            try:
                exact = reduce_saturation_exact(
                    entry.ddg, rtype, budget, machine=machine, time_limit=time_limit
                )
            except SpillRequiredError:
                spills += 1
                continue
            except SolverError:
                # The optimal intLP timed out on this instance; the paper
                # faced the same multi-day runs and simply reports on the
                # instances it could prove optimal.
                continue
            t_exact = time.perf_counter() - t0
            if heuristic_results is None:
                context_for(entry.ddg).invalidate()
                heuristic_results = reduce_saturation_multi_budget(
                    entry.ddg, rtype, budget_list, machine=machine
                )
                # The ladder's engine stats are cumulative per session, so
                # the smallest budget's snapshot is the whole ladder's total
                # (counters only: deterministic, unlike the stage timers).
                final = heuristic_results[min(heuristic_results)]
                for key, value in final.details.get("engine_stats", {}).items():
                    if isinstance(value, int):
                        engine_counters[key] = engine_counters.get(key, 0) + value
            heuristic = heuristic_results[budget]
            t_heur = heuristic.wall_time
            comparisons.append(
                ReductionComparison(
                    name=entry.name,
                    rtype=rtype.name,
                    nodes=entry.ddg.n,
                    budget=budget,
                    original_rs=base.rs,
                    rs_exact=exact.achieved_rs,
                    rs_heuristic=heuristic.achieved_rs,
                    ilp_exact=exact.ilp_loss,
                    ilp_heuristic=heuristic.ilp_loss,
                    arcs_exact=exact.arcs_added,
                    arcs_heuristic=heuristic.arcs_added,
                    time_exact=t_exact,
                    time_heuristic=t_heur,
                    heuristic_success=heuristic.success,
                )
            )
    return comparisons, spills, engine_counters


def run_reduction_optimality(
    suite: Optional[Sequence[SuiteEntry]] = None,
    machine: Optional[ProcessorModel] = None,
    budgets: Optional[Sequence[int]] = None,
    max_nodes: int = 22,
    time_limit: Optional[float] = 120.0,
    engine: Union[None, str, BatchEngine] = None,
) -> ReductionOptimalityReport:
    """Run the reduction-optimality experiment.

    For every (DAG, register type) whose Greedy-k saturation exceeds the
    candidate budgets, both reduction methods run and the outcome is
    classified.  Instances where even the optimal method must spill are
    counted separately (both methods agree there is nothing to compare).
    *engine* fans the instances out over batch workers with deterministic
    ordering.
    """

    if suite is None:
        suite = benchmark_suite(max_size=max_nodes)
    machine = machine or superscalar()
    tasks = [
        (entry, budgets, machine, time_limit)
        for entry in suite
        if entry.size <= max_nodes
    ]
    results, item_outcomes = BatchEngine.coerce(engine).map_with_outcomes(
        _reduction_instance,
        tasks,
        store=active_store(),
        # .v4: the engine-counter sum gained killing_full_passes; the
        # bumped query keeps stored payloads of the old shape from being
        # served as current.
        query="experiment.reduction_optimality.v4",
        key_fn=lambda task: (
            context_for(task[0].ddg).graph_hash(),
            {
                "name": task[0].name,
                "budgets": None if task[1] is None else tuple(task[1]),
                "machine": repr(task[2]),
                "time_limit": task[3],
                # The workers solve with backend="auto"; fold the env
                # override in so a forced backend never reads results
                # another backend produced.
                "backend": backend_request_token("auto"),
            },
        ),
    )
    comparisons: List[ReductionComparison] = []
    spills = 0
    counters: Dict[str, int] = {}
    for instance_comparisons, instance_spills, instance_counters in results:
        comparisons.extend(instance_comparisons)
        spills += instance_spills
        for key, value in instance_counters.items():
            counters[key] = counters.get(key, 0) + value
    return ReductionOptimalityReport(
        comparisons,
        spill_instances=spills,
        engine_counters=counters,
        item_outcomes=item_outcomes,
    )
