"""The two child phases of a run: one fresh-interpreter set-up, and the
measuring process that drives the rounds and derives the metrics."""

from __future__ import annotations

import gc
import math
import random
import time
from pathlib import Path
from typing import Dict

from repro.analysis import flatbuf

from .harness import Tracer, fingerprint, median, own_peak_rss_mb, ref_loop
from .workloads import (
    EXACT_CHECK_MAX_OPS,
    KERNEL_REGISTERS,
    MIN_ROUNDS,
    SUPERBLOCK_REGISTERS,
    Fig1,
    RsExact,
    SweepStore,
    Workload,
    build_entries,
    warm_up,
)

#: Drift-loop samples per round, spread over the gaps between items, so the
#: run's loop median is steady even with two items per round.
REF_SAMPLES_PER_ROUND = 100
#: Repeated input builds behind ``codes.generate_s``.
GENERATE_REPEATS = 5


def work_dir(root: Path, workload: str, seed: int, trace: bool) -> Path:
    return root / ".perfbench" / f"work-{workload}-{seed}-{int(trace)}"


def setup_phase(root: Path, workload: str, seed: int, suite_seed: int, smoke: bool) -> None:
    """Build the inputs and finish the warm-up (the caller times the process)."""

    build_entries(workload, suite_seed, smoke)
    warm_up(workload, work_dir(root, workload, seed, False))


def make_workload(name: str, entries, work_dir: Path, tracer, corrupt: bool) -> Workload:
    if name == "fig1-kernels":
        return Fig1(name, entries, KERNEL_REGISTERS, EXACT_CHECK_MAX_OPS, tracer, corrupt)
    if name == "fig1-superblocks":
        return Fig1(name, entries, SUPERBLOCK_REGISTERS, 0, tracer, corrupt)
    if name == "rs-exact":
        return RsExact(entries, tracer, corrupt)
    return SweepStore(entries, work_dir, tracer, corrupt)


def drive(workload: Workload, seconds: float, seed: int, traced_run: bool) -> int:
    """Round-robin rounds until *seconds* have passed, with drift-loop samples
    between items; traced runs alternate untraced and traced rounds.
    Returns the number of rounds."""

    rng = random.Random(seed)
    per_gap = math.ceil(REF_SAMPLES_PER_ROUND / len(workload.items))
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        workload.tracer.enabled = traced_run and rounds % 2 == 1
        order = list(range(len(workload.items)))
        rng.shuffle(order)
        for i in order:
            gc.collect()
            workload.drift += [ref_loop() for _ in range(per_gap)]
            workload.evaluate(i, rounds)
        rounds += 1
    workload.tracer.enabled = False
    return rounds


def measure_phase(root: Path, workload_name: str, seed: int, suite_seed: int, seconds: float,
                  trace: bool, smoke: bool, corrupt: bool) -> Dict[str, object]:
    work = work_dir(root, workload_name, seed, trace)
    entries = build_entries(workload_name, suite_seed, smoke)
    warm_up(workload_name, work)
    tracer = Tracer()
    workload = make_workload(workload_name, entries, work, tracer, corrupt)
    gc.collect()
    gc.freeze()
    rounds = drive(workload, seconds, seed, trace)
    # A forked worker shares its parent's pages, so it adds only its growth.
    rss = own_peak_rss_mb() + workload.workers * workload.worker_growth_mb()
    workload.post_checks()
    result: Dict[str, object] = {
        "workload": workload_name,
        "seed": seed,
        "suite_seed": suite_seed,
        "trace": int(trace),
        "rounds": rounds,
        "items": len(workload.items),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failures": workload.failures[:20],
        "errors": workload.errors[:20],
        "ref_loop_s": median(workload.drift),
        "fingerprint": fingerprint(root, work.parent, flatbuf.backend()),
    }
    if not trace:
        metrics, extras, notes = workload.end_to_end()
        metrics["peak_rss_mb"] = rss
        extras["failed_share"] = workload.failed / max(workload.attempted, 1)
        result.update(metrics=metrics, extras=extras, notes=notes, rows=workload.rows(),
                      drift=workload.drift)
        return result
    layers = workload.layers()
    builds = []
    for _ in range(GENERATE_REPEATS):
        start = time.perf_counter()
        build_entries(workload_name, suite_seed, smoke)
        builds.append(time.perf_counter() - start)
    layers["codes.generate_s"] = median(builds)
    layers["env.ref_loop_s"] = result["ref_loop_s"]
    untraced = workload.pass_time("untraced")
    layers["env.tracing_overhead_share"] = workload.pass_time("traced") / untraced - 1.0 if untraced else 0.0
    spans = root / ".perfbench" / "spans" / f"{workload_name}-seed{seed}.jsonl"
    tracer.write(spans)
    result.update(metrics=layers, spans=str(spans.relative_to(root)))
    return result
