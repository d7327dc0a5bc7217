"""The four workloads: inputs, the timed call, output checks and metrics.

Every workload visits a list of items once per round.  ``evaluate`` times
one call into the program's entry point; everything else (graph copies,
checks, bookkeeping) happens outside the timed region.  Untraced rounds
feed the end-to-end metrics; traced rounds (``--trace 1`` runs alternate
them with untraced ones) feed the per-layer metrics.  The tracer's
``enabled`` flag says which kind the current round is.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import math
import multiprocessing
import pickle
import shutil
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import repro.experiments.pipeline as pipeline
from repro.analysis import shm
from repro.analysis.store import ResultStore, store_active
from repro.codes import benchmark_suite, kernel_suite, scale_suite
from repro.codes.suite import SuiteEntry
from repro.core import superscalar
from repro.errors import SolverError
from repro.experiments import BatchEngine
from repro.experiments.pipeline import PipelineReport, run_pipeline, run_pipeline_experiment
from repro.saturation import (
    exact_saturation,
    greedy_saturation,
    potential_killers_map,
    saturation_by_killing_enumeration,
)

from . import checks
from .harness import (
    REF_NOMINAL_S, DriftProbe, Tracer, WorkerProbe, median, patched, ratio, ref_loop, tail,
    user_seconds,
)

#: Rounds every run makes at least, whatever ``--seconds`` says: medians of
#: one sample would carry the machine's full drift.
MIN_ROUNDS = 2
KERNEL_REGISTERS = 4
SUPERBLOCK_REGISTERS = 8
SUPERBLOCK_SIZES = (120, 160)
EXACT_MAX_OPS = 23
EXACT_TIME_LIMIT = 120.0
#: Instances the fig1 exact-RS check covers (an exact solve each, untimed).
EXACT_CHECK_MAX_OPS = 24
#: Killing-function enumeration runs only below this many candidate functions.
ENUMERATION_MAX_FUNCTIONS = 4096
SWEEP_WORKERS = 2
WARM_SWEEPS_PER_ROUND = 20
#: Drift-loop samples taken just before each warm sweep, for its correction.
WARM_REF_SAMPLES = 10
#: ``run_pipeline_experiment``'s size filter, set above every suite graph.
ALL_SIZES = 10 ** 6

#: ``repro.experiments.pipeline`` attribute -> layer name of its span.
PIPELINE_LAYERS = (
    ("greedy_saturation", "saturation.greedy"),
    ("reduce_saturation_heuristic", "reduction"),
    ("list_schedule", "scheduling"),
    ("linear_scan_allocate", "allocation"),
)
STAGES = (
    "pair_scan", "candidate_sync", "analysis_push", "dv_patch", "dv_rebuild",
    "dv_antichain", "keep_alive_build", "keep_alive_repair", "greedy_decompose",
)
STORE_QUERIES = ("saturation.greedy", "reduction.heuristic.v2", "experiment.pipeline")


def build_entries(workload: str, suite_seed: int, smoke: bool = False) -> List[SuiteEntry]:
    """The generated DDGs of *workload*; *smoke* keeps one or two small ones."""

    if workload == "fig1-superblocks":
        sizes = (40,) if smoke else SUPERBLOCK_SIZES
        return scale_suite(sizes=(), seed=suite_seed + 100, superblock_sizes=sizes)
    if workload == "rs-exact":
        entries = benchmark_suite(seed=suite_seed, max_size=EXACT_MAX_OPS)
        return entries[:1] if smoke else entries
    entries = benchmark_suite(seed=suite_seed)
    if smoke:
        keep = 2 if workload == "sweep-store" else 1
        entries = [e for e in entries if e.name in ("linpack-daxpy-u4", "livermore-k5")][:keep]
    return entries


def warm_up(workload: str, work_dir: Path) -> None:
    """One small call into every layer: imports, scipy's first solve, lazy
    caches and, for sweep-store, the first worker pool and store."""

    figure2 = kernel_suite()[0]
    machine = superscalar(int_registers=2, float_registers=2)
    for rtype in figure2.ddg.register_types():
        run_pipeline(_fresh(figure2), rtype, machine, compare_baseline=False)
        exact_saturation(figure2.ddg.copy(), rtype)
    if workload == "sweep-store":
        store_dir = work_dir / "store-warm-up"
        with store_active(ResultStore(store_dir)):
            run_pipeline_experiment(
                suite=kernel_suite()[:2], machine=machine,
                engine=BatchEngine("process", workers=SWEEP_WORKERS), compare_baseline=False,
            )
        shutil.rmtree(store_dir, ignore_errors=True)


def _fresh(entry: SuiteEntry) -> SuiteEntry:
    """The entry on a fresh graph copy, so no analysis memo carries over."""

    return SuiteEntry(entry.name, entry.category, entry.ddg.copy(), entry.description)


def _counted(fn, counter):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        with counter.get_lock():
            counter.value += 1
        return fn(*args, **kwargs)

    return counted


class Workload:
    """Bookkeeping common to every workload."""

    name = ""
    workers = 0
    #: Drift-loop samples just before and just after a timed call that, with
    #: those taken during it, correct the call's time.
    drift_margin = 50

    def __init__(self, tracer: Tracer, corrupt: bool) -> None:
        self.tracer = tracer
        self.corrupt = corrupt
        self.items: List[object] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.errors: List[str] = []
        #: mode -> item -> ``(seconds, lo, hi)`` samples; ``lo`` and ``hi``
        #: are the number of drift-loop samples taken before and after the call.
        self.times: Dict[str, Dict[int, List[Tuple[float, int, int]]]] = {
            "untraced": defaultdict(list), "traced": defaultdict(list),
        }
        #: Drift-loop samples in time order: taken by the round loop between
        #: items and by the probe inside timed calls.
        self.drift: List[float] = []
        self.probe = DriftProbe(self.drift)
        tracer.clock = self.probe.clock
        self._counts: Dict[int, object] = {}

    def worker_growth_mb(self) -> float:
        """The largest RSS growth of one worker process, for peak RSS."""

        return 0.0

    @property
    def mode(self) -> str:
        return "traced" if self.tracer.enabled else "untraced"

    @contextmanager
    def timed(self, samples: list) -> Iterator[None]:
        """Time the body on the probe's clock, the probe armed; append the
        sample to *samples* only when the body returns."""

        lo = len(self.drift)
        with self.probe.armed():
            start = self.probe.clock()
            yield
            seconds = self.probe.clock() - start
        samples.append((seconds, lo, len(self.drift)))

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(message)

    def guard(self, item: int, counts: object) -> None:
        """Counters must repeat exactly across rounds, traced or not."""

        first = self._counts.setdefault(item, counts)
        if counts != first:
            self.errors.append(f"{self.name}: counters of item {item} differ between rounds")

    def post_checks(self) -> None:
        """Checks too slow for the round loop; run once after it."""

    def corrected(self, seconds: float, lo: int, hi: int) -> float:
        """*seconds* at the drift loop's nominal speed, judged by the loop
        samples taken during the call and just before and after it."""

        window = self.drift[max(0, lo - self.drift_margin): hi + self.drift_margin]
        return seconds * REF_NOMINAL_S / median(window) if window else seconds

    def corrected_all(self, samples: List[Tuple[float, int, int]], raw: bool = False) -> List[float]:
        return [t if raw else self.corrected(t, lo, hi) for t, lo, hi in samples]

    def series(self, mode: str, raw: bool = False) -> Dict[int, List[float]]:
        return {i: self.corrected_all(samples, raw) for i, samples in self.times[mode].items()}

    def pass_time(self, mode: str, raw: bool = False) -> float:
        """One pass: the sum over items of each item's median time."""

        return sum(median(ts) for ts in self.series(mode, raw).values())

    def _instance_metrics(self, raw: bool = False) -> Tuple[Dict[str, float], Dict[str, str]]:
        series = self.series("untraced", raw)
        samples = [t for ts in series.values() for t in ts]
        n = len(samples)
        # Every round gives each instance one sample, so the pooled samples
        # weigh instances equally whatever the round count, and a fixed
        # percentile of them reads the same instance mix in every run.
        found = tail(samples, MIN_ROUNDS * len(series))
        if found is None:
            slowest = max(median(ts) for ts in series.values())
            value, note = slowest, f"slowest instance median; n={n}, no fixed percentile with 10 beyond"
        else:
            value, pct = found
            note = f"p{pct:.1f}; n={n}, at least 10 beyond"
        return (
            {"instance_p50_s": median(samples), "instance_tail_s": value},
            {"instance_p50_s": f"n={n}", "instance_tail_s": note},
        )

    def label(self, i: int) -> str:
        entry, rtype = self.items[i]
        return f"{entry.name}/{rtype.name}"

    def rows(self) -> Dict[str, List[float]]:
        """Per-instance untraced samples, one row per program input."""

        return {self.label(i): ts for i, ts in sorted(self.series("untraced", raw=True).items())}

    def end_to_end(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, str]]:
        """``(metrics, extras, notes)`` from the untraced rounds."""

        metrics, notes = self._instance_metrics()
        metrics["pass_s"] = self.pass_time("untraced")
        notes["pass_s"] = "sum of per-instance medians"
        raw, _ = self._instance_metrics(raw=True)
        raw["pass_s"] = self.pass_time("untraced", raw=True)
        return metrics, {}, _with_raw(notes, raw)


class Fig1(Workload):
    """``run_pipeline`` on (DAG, type) instances: Greedy-k, reduction,
    scheduling, allocation."""

    def __init__(self, name: str, entries: Sequence[SuiteEntry], registers: int,
                 exact_check_max_ops: int, tracer: Tracer, corrupt: bool = False) -> None:
        super().__init__(tracer, corrupt)
        self.name = name
        self.registers = registers
        self.machine = superscalar(int_registers=registers, float_registers=registers)
        self.exact_check_max_ops = exact_check_max_ops
        self.items = [(e, t) for e in entries for t in e.ddg.register_types()]
        self.outcomes: Dict[int, object] = {}
        self.layer_self: Dict[int, List[Dict[str, float]]] = defaultdict(list)
        self.stage_times: Dict[int, List[Dict[str, float]]] = defaultdict(list)
        self.layer_calls: Dict[int, Counter] = {}
        self._pending_exact: List[Tuple[str, object, object]] = []
        self._calls: list = []
        self._shims = {attr: tracer.wrap(layer, getattr(pipeline, attr), self._calls)
                       for attr, layer in PIPELINE_LAYERS}

    def evaluate(self, i: int, rnd: int) -> None:
        entry, rtype = self.items[i]
        fresh = _fresh(entry)
        self._calls.clear()
        trace_id = f"r{rnd}:{entry.name}/{rtype.name}"
        self.tracer.trace_id = trace_id
        self.attempted += 1
        try:
            with patched(pipeline, self._shims), self.timed(self.times[self.mode][i]), \
                    self.tracer.span("fig1.instance"):
                outcome = run_pipeline(fresh, rtype, self.machine, compare_baseline=False)
        except Exception as exc:  # a crash is a failed instance, not a skipped one
            self.fail(f"{entry.name}/{rtype.name}: raised {exc!r}")
            return
        calls = {layer: (args, result) for layer, args, _, result in self._calls}
        reduction = calls.get("reduction", (None, None))[1]
        self.guard(i, _reduction_counts(reduction))
        signature = dataclasses.replace(outcome, wall_time=0.0)
        if i not in self.outcomes:
            self.outcomes[i] = signature
            self._check(entry, rtype, outcome, calls)
        elif signature != self.outcomes[i]:
            self.fail(f"{entry.name}/{rtype.name}: output differs from its first round")
        if self.tracer.enabled:
            self.layer_self[i].append(self.tracer.self_times(trace_id))
            self.layer_calls.setdefault(i, Counter(
                s.name for s in self.tracer.spans if s.trace_id == trace_id
            ))
            if reduction is not None:
                self.stage_times[i].append(dict(reduction.details["engine_stats"]["stage_timings"]))

    def _check(self, entry, rtype, outcome, calls) -> None:
        problems: List[str] = []
        reduction = calls.get("reduction", (None, None))[1]
        if outcome.reduction_needed != (reduction is not None):
            problems.append("reduction ran iff it was needed")
        reduced = reduction.extended_ddg if reduction is not None else entry.ddg
        if reduction is not None:
            problems += checks.check_reduction(entry.ddg, reduced)
        graph = reduced.with_bottom()
        times = calls["scheduling"][1].times
        if self.corrupt:
            times = checks.break_schedule(graph, times)
        problems += checks.precedence_violations(graph, times)
        problems += checks.check_allocation(
            graph, times, rtype, calls["allocation"][1], self.registers
        )
        if problems:
            self.fail(f"{entry.name}/{rtype.name}: " + "; ".join(problems[:3]))
        elif reduction is not None and reduction.success and entry.size <= self.exact_check_max_ops:
            self._pending_exact.append((f"{entry.name}/{rtype.name}", reduced, rtype))

    def post_checks(self) -> None:
        """Whenever the reduction ran and reports success, the exact RS is within R."""

        for label, reduced, rtype in self._pending_exact:
            rs = exact_saturation(reduced.copy(), rtype).rs
            if rs > self.registers:
                self.fail(f"{label}: reported success but exact RS {rs} > R={self.registers}")
        self._pending_exact.clear()

    def _quality(self) -> Dict[str, int]:
        """Run time of the generated code, and how often it still spills."""

        return {
            "schedule_cycles": sum(o.schedule_length for o in self.outcomes.values()),
            "spill_instances": sum(1 for o in self.outcomes.values() if not o.spill_free),
        }

    def end_to_end(self):
        metrics, extras, notes = super().end_to_end()
        extras.update(self._quality())
        return metrics, extras, notes

    def layers(self) -> Dict[str, float]:
        n_items = range(len(self.items))
        root = self.pass_time("traced", raw=True)

        def per_pass(series: Dict[int, List[Dict[str, float]]], key: str) -> float:
            return sum(median([d.get(key, 0.0) for d in series[i]]) for i in n_items if series[i])

        out: Dict[str, float] = {}
        for _, layer in PIPELINE_LAYERS:
            self_s = per_pass(self.layer_self, layer)
            out[f"{layer}.calls"] = sum(c[layer] for c in self.layer_calls.values())
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = ratio(self_s, root)
        staged = 0.0
        for stage in STAGES:
            out[f"reduction.stage.{stage}_s"] = per_pass(self.stage_times, stage)
            staged += out[f"reduction.stage.{stage}_s"]
        counts = Counter()
        for i in n_items:
            counts.update(self._counts.get(i) or {})
        reduction_s = out["reduction.self_s"]
        out["reduction.iterations"] = counts["iterations"]
        out["reduction.s_per_iteration"] = ratio(reduction_s, counts["iterations"])
        out["reduction.unattributed_s"] = reduction_s - staged
        out["reduction.unattributed_share"] = ratio(reduction_s - staged, reduction_s)
        for name in ("pushes", "evaluated_candidates", "pair_verdicts_reused", "dv_rebuilds",
                     "dv_patches", "dv_reuses", "components_reused", "schedule_repairs",
                     "row_block_patches", "mirror_bulk_seeds", "vector_kernel_calls"):
            out[f"reduction.{name}"] = counts[name]
        reused, fresh = counts["pair_verdicts_reused"], counts["evaluated_candidates"]
        out["reduction.verdict_reuse_ratio"] = ratio(reused, reused + fresh)
        warm = counts["dv_reuses"] + counts["dv_patches"]
        out["reduction.dv_warm_ratio"] = ratio(warm, warm + counts["dv_rebuilds"])
        hits = counts["killing_set_hits"]
        out["reduction.killing_set_hit_ratio"] = ratio(hits, hits + counts["killing_set_misses"])
        quality = self._quality()
        out["scheduling.cycles"] = quality["schedule_cycles"]
        out["allocation.spill_instances"] = quality["spill_instances"]
        return out


def _reduction_counts(reduction) -> Dict[str, int]:
    """The reduction's exact counters (engine stats and iterations)."""

    if reduction is None:
        return {}
    stats = reduction.details.get("engine_stats", {})
    counts = {k: v for k, v in stats.items() if type(v) is int}
    counts["iterations"] = reduction.details["iterations"]
    return counts


class RsExact(Workload):
    """``exact_saturation`` (the Section-3 intLP) on small (DAG, type) instances."""

    name = "rs-exact"

    def __init__(self, entries: Sequence[SuiteEntry], tracer: Tracer, corrupt: bool = False) -> None:
        super().__init__(tracer, corrupt)
        self.items = [(e, t) for e in entries for t in e.ddg.register_types()]
        self.verdicts: Dict[int, Tuple] = {}
        self.layer_self: Dict[int, List[float]] = defaultdict(list)
        self.solver_times: Dict[int, List[float]] = defaultdict(list)
        self._solve = tracer.wrap("saturation.exact", exact_saturation)

    def evaluate(self, i: int, rnd: int) -> None:
        entry, rtype = self.items[i]
        ddg = entry.ddg.copy()
        trace_id = f"r{rnd}:{entry.name}/{rtype.name}"
        self.tracer.trace_id = trace_id
        self.attempted += 1
        try:
            with self.timed(self.times[self.mode][i]), self.tracer.span("exact.instance"):
                try:
                    result = self._solve(ddg, rtype, time_limit=EXACT_TIME_LIMIT)
                except SolverError:
                    result = None  # no proof within the limit: undecided, counted by ilp.limit_hits
        except Exception as exc:
            self.fail(f"{entry.name}/{rtype.name}: raised {exc!r}")
            return
        model = result.details.get("model", {}) if result is not None else {}
        verdict = None if result is None else (
            result.rs, result.optimal, model.get("variables", 0), model.get("constraints", 0)
        )
        self.guard(i, verdict)
        if i not in self.verdicts:
            self.verdicts[i] = verdict
            if result is not None:
                self._check(entry, rtype, result)
        if self.tracer.enabled:
            self.layer_self[i].append(self.tracer.self_times(trace_id).get("saturation.exact", 0.0))
            if result is not None:
                self.solver_times[i].append(result.details.get("solver_time", 0.0))

    def _check(self, entry, rtype, result) -> None:
        graph = entry.ddg.with_bottom()
        times = result.witness_schedule.times if result.witness_schedule else None
        if self.corrupt and times is not None:
            times = checks.break_schedule(graph, times)
        problems = checks.check_witness(graph, rtype, result.rs, times)
        greedy = greedy_saturation(entry.ddg.copy(), rtype).rs
        if result.rs < greedy:
            problems.append(f"exact RS {result.rs} below Greedy-k's {greedy}")
        killers = potential_killers_map(graph, rtype)
        if math.prod(len(k) for k in killers.values()) <= ENUMERATION_MAX_FUNCTIONS:
            oracle = saturation_by_killing_enumeration(entry.ddg.copy(), rtype)
            if oracle.optimal and oracle.rs != result.rs:
                problems.append(f"exact RS {result.rs} != killing enumeration's {oracle.rs}")
        if problems:
            self.fail(f"{entry.name}/{rtype.name}: " + "; ".join(problems[:3]))

    def end_to_end(self):
        metrics, extras, notes = super().end_to_end()
        extras["decided_share"] = self._decided_share()
        return metrics, extras, notes

    def _decided_share(self) -> float:
        decided = sum(1 for v in self.verdicts.values() if v is not None and v[1])
        return ratio(decided, len(self.items))

    def layers(self) -> Dict[str, float]:
        self_s = sum(median(v) for v in self.layer_self.values())
        solve_s = sum(median(v) for v in self.solver_times.values())
        verdicts = [v for v in self.verdicts.values() if v is not None]
        return {
            "saturation.exact.calls": len(self.layer_self),
            "saturation.exact.self_s": self_s,
            "saturation.exact.model_s": self_s - solve_s,
            "saturation.exact.decided_share": self._decided_share(),
            "ilp.solve_s": solve_s,
            "ilp.variables": sum(v[2] for v in verdicts),
            "ilp.constraints": sum(v[3] for v in verdicts),
            "ilp.optimal": sum(1 for v in verdicts if v[1]),
            "ilp.limit_hits": sum(1 for v in self.verdicts.values() if v is None),
        }


class SweepStore(Workload):
    """``run_pipeline_experiment`` over the kernel population with two process
    workers and a fresh ``ResultStore``: one cold sweep, then warm sweeps.

    The cold sweep is timed in user-mode CPU seconds of this process and of
    both workers; the warm sweeps, answered from the store in this process,
    are its timed instances (the w-th warm sweep of every round is instance
    w), in drift-corrected seconds like the other workloads' calls.
    """

    name = "sweep-store"
    workers = SWEEP_WORKERS
    #: A cold sweep is corrected by the workers' own samples alone: this
    #: process's gap samples, taken with both workers idle, say little about
    #: the workers' speed (README, "Drift correction").  A warm sweep is
    #: corrected by the samples taken just before it and during it.
    drift_margin = 0

    def __init__(self, entries: Sequence[SuiteEntry], work_dir: Path,
                 tracer: Tracer, corrupt: bool = False) -> None:
        super().__init__(tracer, corrupt)
        self.entries = list(entries)
        self.items = ["sweep"]
        self.tasks = [(e, t) for e in self.entries for t in e.ddg.register_types()]
        self.work_dir = work_dir
        self.machine = superscalar(int_registers=KERNEL_REGISTERS, float_registers=KERNEL_REGISTERS)
        #: mode -> ``(user CPU seconds, lo, hi)`` of each cold sweep, and its wall seconds.
        self.cold: Dict[str, List[Tuple[float, int, int]]] = {"untraced": [], "traced": []}
        self.cold_wall: Dict[str, List[float]] = {"untraced": [], "traced": []}
        self.tables: Counter = Counter()
        self.layer: Dict[str, List[float]] = defaultdict(list)
        self.worker_probe = WorkerProbe()

    def label(self, k: int) -> str:
        return f"warm sweep {k}"

    def _sweep(self, suite: List[SuiteEntry]):
        return run_pipeline_experiment(
            suite=suite, machine=self.machine, max_nodes=ALL_SIZES,
            engine=BatchEngine("process", workers=self.workers), compare_baseline=False,
        )

    def _record(self, report) -> None:
        table = report.to_table() + ("!" if self.corrupt else "")
        self.tables[table] += len(report.outcomes)
        self.attempted += len(report.outcomes)

    def evaluate(self, i: int, rnd: int) -> None:
        store_dir = self.work_dir / f"store-{rnd}"
        try:
            self._round(rnd, store_dir)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def _round(self, rnd: int, store_dir: Path) -> None:
        mode, traced = self.mode, self.tracer.enabled
        store = ResultStore(store_dir)
        attaches = multiprocessing.Value("l", 0)
        with ExitStack() as stack:
            stack.enter_context(store_active(store))
            probed = self.worker_probe.wrap(pipeline.run_pipeline)
            stack.enter_context(patched(pipeline, {"run_pipeline": probed}))
            if traced:
                wrapped = self.tracer.wrap("engine.map", BatchEngine.map_with_outcomes)
                stack.enter_context(patched(BatchEngine, {"map_with_outcomes": wrapped}))
                stack.enter_context(patched(shm, {"_attach_graph": _counted(shm._attach_graph, attaches)}))
            self.tracer.trace_id = f"r{rnd}:cold"
            shm_before = dict(shm.counters)
            suite = [_fresh(e) for e in self.entries]
            self.worker_probe.take()
            user, wall = user_seconds(), time.perf_counter()
            try:
                with self.tracer.span("sweep.cold"):
                    report = self._sweep(suite)
            except Exception as exc:
                self.fail(f"cold sweep {rnd}: raised {exc!r}", count=len(self.tasks))
                return
            user, wall = user_seconds() - user, time.perf_counter() - wall
            lo = len(self.drift)
            self.drift += self.worker_probe.take()
            self.cold[mode].append((user, lo, len(self.drift)))
            self.cold_wall[mode].append(wall)
            self._record(report)
            cold_stats = dataclasses.replace(store.stats)
            dispatched = [o for o in report.item_outcomes if o.status != "stored"]
            warm_hits = set()
            for w in range(WARM_SWEEPS_PER_ROUND):
                hits_before = store.stats.hits
                self.tracer.trace_id = f"r{rnd}:warm{w}"
                suite = [_fresh(e) for e in self.entries]
                gc.collect()
                lo = len(self.drift)
                self.drift += [ref_loop() for _ in range(WARM_REF_SAMPLES)]
                samples = self.times[mode][w]
                try:
                    with self.timed(samples):
                        warm = self._sweep(suite)
                except Exception as exc:
                    self.fail(f"warm sweep {rnd}.{w}: raised {exc!r}", count=len(self.tasks))
                    continue
                seconds, _, hi = samples[-1]
                samples[-1] = (seconds, lo, hi)
                self._record(warm)
                warm_hits.add(store.stats.hits - hits_before)
        puts = self._entries_by_query(store_dir)
        self.guard(0, (cold_stats.misses, cold_stats.puts, tuple(sorted(puts.items())),
                       tuple(sorted(warm_hits)), store.stats.errors))
        if traced:
            busy = sum(o.wall_time for o in report.outcomes)
            map_s = self.tracer.self_times(f"r{rnd}:cold").get("engine.map", 0.0)
            values = {
                "engine.map_s": map_s,
                "engine.items": len(dispatched),
                "engine.worker_busy_s": busy,
                "engine.wait_s": self.workers * map_s - busy,
                "engine.attempts": sum(o.attempts for o in dispatched),
                "shm.exports": shm.counters["exports"] - shm_before["exports"],
                "shm.fallbacks": shm.counters["fallbacks"] - shm_before["fallbacks"],
                "shm.attaches": attaches.value,
                "store.misses": cold_stats.misses,
                "store.hits": min(warm_hits, default=0),
                "store.hit_ratio": ratio(min(warm_hits, default=0), len(report.outcomes)),
                "store.errors": store.stats.errors,
                "store.puts": sum(puts.values()),
            }
            for query in STORE_QUERIES:
                values[f"store.puts.{query}"] = puts.get(query, 0)
            values["store.puts.other"] = sum(v for q, v in puts.items() if q not in STORE_QUERIES)
            for name, value in values.items():
                self.layer[name].append(value)

    @staticmethod
    def _entries_by_query(store_dir: Path) -> Counter:
        """Entries written by every process, read back from disk by query."""

        found: Counter = Counter()
        for path in store_dir.glob("v*/[0-9a-f][0-9a-f]/*.pkl"):
            with open(path, "rb") as fh:
                found[pickle.load(fh)["query"]] += 1
        return found

    def post_checks(self) -> None:
        """Cold and warm tables equal the serial flow's, checked independently."""

        reference = Fig1("reference", self.entries, KERNEL_REGISTERS, 0, Tracer())
        for i in range(len(reference.items)):
            reference.evaluate(i, 0)
        self.attempted += reference.attempted
        self.failed += reference.failed
        self.failures += reference.failures
        expected = PipelineReport(
            [reference.outcomes[i] for i in range(len(reference.items))]
        ).to_table()
        for table, items in self.tables.items():
            if table != expected:
                self.fail(f"{items} swept rows differ from the serial reference table", count=items)

    def rows(self) -> Dict[str, List[float]]:
        rows = super().rows()
        rows["cold sweep"] = [t for t, _, _ in self.cold["untraced"]]
        rows["cold sweep wall"] = self.cold_wall["untraced"]
        return rows

    def end_to_end(self):
        metrics, notes = self._instance_metrics()
        metrics["pass_s"] = self.pass_time("untraced")
        notes["pass_s"] = (f"median of {len(self.cold['untraced'])} cold sweeps, user CPU seconds of this "
                           f"process and its workers (median wall {median(self.cold_wall['untraced']):.6g} s)")
        notes["instance_p50_s"] += " (warm sweeps)"
        raw, _ = self._instance_metrics(raw=True)
        raw["pass_s"] = self.pass_time("untraced", raw=True)
        return metrics, {}, _with_raw(notes, raw)

    def pass_time(self, mode: str, raw: bool = False) -> float:
        return median(self.corrected_all(self.cold[mode], raw))

    def worker_growth_mb(self) -> float:
        return self.worker_probe.growth.value

    def layers(self) -> Dict[str, float]:
        out = {name: median(values) for name, values in self.layer.items()}
        out["store.warm_sweep_s"] = median([t for ts in self.series("untraced", raw=True).values() for t in ts])
        return out


def _with_raw(notes: Dict[str, str], raw: Dict[str, float]) -> Dict[str, str]:
    for name, value in raw.items():
        notes[name] += f"; drift-corrected from {value:.6g} s raw"
    return notes
