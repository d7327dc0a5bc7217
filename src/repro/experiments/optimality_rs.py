"""Section-5 experiment #1: optimality of the register-saturation heuristic.

For every DAG of the experiment population and every register type it
defines, compute the Greedy-k approximation ``RS*`` and the exact value
``RS`` (:func:`~repro.saturation.exact_saturation`: proven by bounds when
Greedy-k meets the upper bound, by a branch and bound over killing
functions when it does not, by the Section-3 intLP when neither settles
it), and report the error distribution.  The paper's finding: "the maximal
empirical error is one register (in very few cases)"; ``RS* > RS`` is
impossible because the heuristic exhibits a valid witness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.context import context_for
from ..analysis.store import active_store
from ..codes.suite import SuiteEntry, benchmark_suite
from ..ilp import default_registry
from ..saturation import exact_saturation, greedy_saturation
from .engine import BatchEngine
from .reporting import format_table
from .supervisor import ItemOutcome

__all__ = ["RSComparison", "RSOptimalityReport", "run_rs_optimality"]

#: ``exact_saturation`` methods that prove RS without building the intLP.
_SOLVE_FREE_METHODS = ("bounds", "search")


@dataclass(frozen=True)
class RSComparison:
    """Heuristic vs exact saturation on one (DAG, register type) instance."""

    name: str
    category: str
    rtype: str
    nodes: int
    edges: int
    rs_exact: int
    rs_heuristic: int
    time_exact: float
    time_heuristic: float
    #: The intLP backend that proved ``rs_exact``, or the method that
    #: proved it without a solve (``"bounds"`` or ``"search"``).
    backend: str = ""

    @property
    def error(self) -> int:
        """``RS - RS*`` (non-negative when the heuristic is admissible)."""

        return self.rs_exact - self.rs_heuristic

    @property
    def heuristic_is_optimal(self) -> bool:
        return self.error == 0


@dataclass(frozen=True)
class RSOptimalityReport:
    """Aggregated results of the RS-optimality experiment."""

    comparisons: List[RSComparison] = field(default_factory=list)
    #: Supervised-execution records, one per dispatched task (a task bundles
    #: one DAG's register types).  Not part of any table -- report bytes
    #: stay identical whether or not faults or retries occurred.
    item_outcomes: List[ItemOutcome] = field(default_factory=list)

    @property
    def instances(self) -> int:
        return len(self.comparisons)

    @property
    def max_error(self) -> int:
        return max((c.error for c in self.comparisons), default=0)

    @property
    def min_error(self) -> int:
        return min((c.error for c in self.comparisons), default=0)

    @property
    def optimal_count(self) -> int:
        return sum(1 for c in self.comparisons if c.heuristic_is_optimal)

    @property
    def bounds_count(self) -> int:
        """Instances whose ``RS`` the bounds proved without a solve."""

        return sum(1 for c in self.comparisons if c.backend == "bounds")

    @property
    def solve_free_count(self) -> int:
        """Instances whose ``RS`` was proven without a solve, by any method."""

        return sum(1 for c in self.comparisons if c.backend in _SOLVE_FREE_METHODS)

    @property
    def optimal_percentage(self) -> float:
        if not self.comparisons:
            return 100.0
        return 100.0 * self.optimal_count / len(self.comparisons)

    def error_histogram(self) -> Dict[int, int]:
        hist: Dict[int, int] = {}
        for c in self.comparisons:
            hist[c.error] = hist.get(c.error, 0) + 1
        return dict(sorted(hist.items()))

    def mean_speedup(self) -> float:
        """Geometric-mean ratio of exact to heuristic wall time."""

        import math

        ratios = [
            c.time_exact / c.time_heuristic
            for c in self.comparisons
            if c.time_heuristic > 0 and c.time_exact > 0
        ]
        if not ratios:
            return float("nan")
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    def to_table(self) -> str:
        rows = [
            (
                c.name,
                c.rtype,
                c.nodes,
                c.rs_exact,
                c.rs_heuristic,
                c.error,
                f"{c.time_exact:.3f}",
                f"{c.time_heuristic:.4f}",
                c.backend,
            )
            for c in self.comparisons
        ]
        return format_table(
            ["benchmark", "type", "n", "RS", "RS*", "error", "t_exact(s)",
             "t_heur(s)", "backend"],
            rows,
            title="Register saturation: heuristic (RS*) vs optimal (RS)",
        )

    def summary_lines(self) -> List[str]:
        hist = self.error_histogram()
        return [
            f"instances analysed           : {self.instances}",
            f"heuristic exactly optimal    : {self.optimal_count} ({self.optimal_percentage:.2f}%)",
            f"proven optimal by bounds     : {self.bounds_count} of {self.instances}",
            f"proven without a solve       : {self.solve_free_count} of {self.instances}",
            f"maximal empirical error      : {self.max_error} register(s)",
            f"error histogram (error=count): {hist}",
            f"geo-mean exact/heuristic time: {self.mean_speedup():.1f}x",
        ]


def _rs_instance(
    task: Tuple[SuiteEntry, Optional[float], str]
) -> List[RSComparison]:
    """Module-level batch worker (picklable for the process policy).

    One task covers *all* register types of one DAG: the instances share the
    DAG's analysis context, and the cold-cache timing protocol below is only
    meaningful when no other worker invalidates that context concurrently.
    The solver backend arrives pre-resolved by the dispatcher's plan hook --
    a worker never makes that choice.
    """

    entry, time_limit, backend = task
    comparisons: List[RSComparison] = []
    for rtype in entry.ddg.register_types():
        # Cold caches per timed section: each method pays for its own
        # analyses, as in the seed, so the timing comparison stays
        # meaningful.
        context_for(entry.ddg).invalidate()
        t0 = time.perf_counter()
        heuristic = greedy_saturation(entry.ddg, rtype)
        t_heur = time.perf_counter() - t0
        context_for(entry.ddg).invalidate()
        t0 = time.perf_counter()
        exact = exact_saturation(entry.ddg, rtype, backend=backend, time_limit=time_limit)
        t_exact = time.perf_counter() - t0
        if exact.method in _SOLVE_FREE_METHODS:
            proof = exact.method
        else:
            proof = str(exact.details.get("backend", backend)) or backend
        comparisons.append(
            RSComparison(
                name=entry.name,
                category=entry.category,
                rtype=rtype.name,
                nodes=entry.ddg.n,
                edges=entry.ddg.m,
                rs_exact=exact.rs,
                rs_heuristic=heuristic.rs,
                time_exact=t_exact,
                time_heuristic=t_heur,
                backend=proof,
            )
        )
    return comparisons


def _plan_rs_task(
    task: Tuple[SuiteEntry, Optional[float], str]
) -> Tuple[SuiteEntry, Optional[float], str]:
    """Resolve ``backend="auto"`` per instance, in the dispatching process.

    The Section-3 model has O(n^2) integer variables, so the registry's
    size policy is consulted with that estimate; the resolved name becomes
    a declared property of the task (deterministic whatever the engine
    policy or worker timing).
    """

    entry, time_limit, backend = task
    if backend == "auto":
        backend = default_registry().choose_by_size(entry.ddg.n ** 2).name
    return (entry, time_limit, backend)


def run_rs_optimality(
    suite: Optional[Sequence[SuiteEntry]] = None,
    max_nodes: int = 26,
    time_limit: Optional[float] = 120.0,
    engine: Union[None, str, BatchEngine] = None,
    backend: str = "auto",
) -> RSOptimalityReport:
    """Run the RS-optimality experiment over *suite* (the default population).

    ``max_nodes`` keeps the intLP instances tractable; the paper likewise
    notes that reaching optimality "was very time consuming (from many
    seconds to many days)" and restricts itself to loop bodies.  *engine*
    fans the instances out over batch workers with deterministic ordering;
    ``backend`` routes the exact solves ("auto" = per-instance registry
    choice, resolved before dispatch and recorded per comparison).  With
    the ambient result store active, instances solved by a previous run are
    answered from disk without dispatching a worker.
    """

    if suite is None:
        suite = benchmark_suite(max_size=max_nodes)
    tasks = [(entry, time_limit, backend) for entry in suite if entry.size <= max_nodes]
    per_entry, item_outcomes = BatchEngine.coerce(engine).map_with_outcomes(
        _rs_instance,
        tasks,
        plan=_plan_rs_task,
        store=active_store(),
        # .v3: the backend column reads "search" for instances the branch
        # and bound settles; rows stored before that are kept apart.
        query="experiment.rs_optimality.v3",
        key_fn=lambda task: (
            context_for(task[0].ddg).graph_hash(),
            {"name": task[0].name, "time_limit": task[1], "backend": task[2]},
        ),
    )
    return RSOptimalityReport(
        [c for chunk in per_entry for c in chunk], item_outcomes=item_outcomes
    )
