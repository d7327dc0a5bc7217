"""One benchmark for the Figure-1 flow, the exact RS and store-backed dispatch.

    python3 perfbench/run.py --workload fig1-kernels --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

A run times its own set-up in several fresh interpreters, then measures in
one child process and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
metrics.  The exit code is 0 when every output check passed, 1 when one
failed, and 2 or 3 when the benchmark could not run or measure.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402  (the set-up clock starts before any import)
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.harness import REF_NOMINAL_S, DriftProbe, forbidden_knobs, median, ref_loop  # noqa: E402

WORKLOADS = ("fig1-kernels", "fig1-superblocks", "rs-exact", "sweep-store")
#: ``benchmark_suite``'s default seed; ``scale_suite`` takes it plus 100 (2104).
DEFAULT_SUITE_SEED = 2004
SETUP_REPEATS = 3
#: Drift-loop samples each set-up interpreter times after its clock stops,
#: beside those the probe takes during the set-up.
SETUP_REF_SAMPLES = 50
#: A whole run must end within 180 s; children get what is left of this.
RUN_BUDGET_S = 170.0

#: Layer -> (end-to-end metric it should move, on which workload).  A
#: per-layer metric belongs to the longest layer name prefixing it.
LAYER_MOVES = {
    "codes": ("setup_s", "every workload"),
    "saturation.greedy": ("instance_p50_s, pass_s", "fig1-kernels; a 2% share on fig1-superblocks"),
    "reduction": ("pass_s; instance_p50_s", "fig1-superblocks; fig1-kernels"),
    "reduction.stage": ("pass_s; instance_tail_s", "fig1-superblocks; fig1-kernels"),
    "scheduling": ("pass_s", "fig1-kernels"),
    "allocation": ("pass_s", "fig1-kernels"),
    "saturation.exact": ("instance_p50_s, instance_tail_s, pass_s", "rs-exact"),
    "ilp": ("instance_p50_s, instance_tail_s, pass_s", "rs-exact"),
    "engine": ("pass_s", "sweep-store"),
    "shm": ("pass_s", "sweep-store"),
    "store": ("pass_s (writes); instance_p50_s, instance_tail_s (reads)", "sweep-store"),
    "env": ("none: drift and tracing cost", "every workload"),
}
#: End-to-end figures that exist on some workloads only, so they are
#: reported beside the JSON metrics: name -> (unit, better).
EXTRAS = {
    "failed_share": ("ratio", "lower"),
    "schedule_cycles": ("cycles", "lower"),
    "spill_instances": ("count", "lower"),
    "decided_share": ("ratio", "higher"),
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to an output check failing)."""


def layer_of(metric: str) -> Optional[str]:
    matches = [p for p in LAYER_MOVES if metric == p or metric.startswith(p + ".")]
    return max(matches, key=len) if matches else None


def load_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child(args: List[str], deadline: float) -> Dict[str, object]:
    """Run this script in a fresh interpreter; its last stdout line is JSON."""

    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {' '.join(args[:2])} ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(args[:2])} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def collect(spec, workload: str, seed: int, suite_seed: int, seconds: float, trace: int,
            smoke: bool = False, corrupt: bool = False) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Set-up timings plus one measuring child: ``(result line, full record)``."""

    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed), "--suite-seed", str(suite_seed)]
    common += ["--smoke"] if smoke else []
    setups = []
    if not trace:
        for _ in range(1 if smoke else SETUP_REPEATS):
            setups.append(child(["--phase", "setup", *common], deadline))
    record = child(
        ["--phase", "measure", *common, "--seconds", str(seconds), "--trace", str(trace)]
        + (["--corrupt"] if corrupt else []),
        deadline,
    )
    if record["errors"]:
        raise BenchError("; ".join(record["errors"]))
    measured = dict(record["metrics"])
    if not trace:
        # Set-up is in-process work too: drift-corrected by the loop each
        # set-up interpreter times during its set-up and right after it.
        measured["setup_s"] = median([s["setup_s"] * REF_NOMINAL_S / s["ref_loop_s"] for s in setups])
        record["setup_samples"] = setups
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(measured) - names)
    missing = sorted(names - set(measured)) if not trace else []
    if unknown or missing:
        raise BenchError(f"metrics not in BENCHMARK.json: {unknown}; not measured: {missing}")
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    line = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    return line, record


def report(spec, line, record) -> str:
    trace = record["trace"]
    rows = [
        f"perfbench {record['workload']}: seed {record['seed']}, suite seed {record['suite_seed']}, "
        f"{record['rounds']} rounds over {record['items']} items, "
        + ("traced (spans in " + record["spans"] + ")" if trace else "untraced")
    ]
    notes = record.get("notes", {})
    if not trace:
        raw = median([s["setup_s"] for s in record["setup_samples"]])
        notes["setup_s"] = (f"median of {len(record['setup_samples'])} fresh-interpreter set-ups; "
                            f"drift-corrected from {raw:.6g} s raw")
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = line["metrics"][m["name"]]["value"]
        if trace:
            moves, on = LAYER_MOVES[layer_of(m["name"])]
            note = f"should move {moves} on {on}"
        else:
            note = notes.get(m["name"], "")
        rows.append(f"  {m['name']:<38} {value:<14.6g} {m['unit']:<7} {note}")
    for name, value in record.get("extras", {}).items():
        unit, better = EXTRAS[name]
        note = f"{record['failed']} of {record['attempted']} attempted" if name == "failed_share" else ""
        rows.append(f"  {name:<38} {value:<14.6g} {unit:<7} {better} is better {note}")
    for failure in record["failures"]:
        rows.append(f"  FAILED {failure}")
    fp = record["fingerprint"]
    rows.append(
        "  env: commit {commit} src {src} python {python} numpy {numpy} scipy {scipy} nproc {nproc} "
        "backend {vector_backend} store_fs {store_fs} REPRO_* {repro_env} ref_loop_s {ref:.6g}".format(
            src=fp["source_sha256"][:12], ref=record["ref_loop_s"], **fp
        )
    )
    return "\n".join(rows)


def smoke(spec) -> int:
    """Self-test: one small instance per workload, every metric named, and a
    deliberately broken output counted as failed."""

    problems = []
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not m.get("name") or not m.get("unit") or m.get("better") not in ("higher", "lower"):
                problems.append(f"{group} metric without name, unit or direction: {m}")
            if group == "per_layer" and layer_of(m["name"]) is None:
                problems.append(f"per-layer metric {m['name']} belongs to no layer")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                line, record = collect(spec, workload, 0, DEFAULT_SUITE_SEED, 0, trace, smoke=True)
            except BenchError as exc:
                problems.append(f"{workload} trace {trace}: {exc}")
                continue
            if not line["correct"]:
                problems.append(f"{workload} trace {trace}: {record['failures']}")
            print(f"smoke {workload} trace {trace}: {line['attempted']} attempted, {line['failed']} failed")
        try:
            line, _ = collect(spec, workload, 0, DEFAULT_SUITE_SEED, 0, 0, smoke=True, corrupt=True)
            if line["failed"] < 1 or line["correct"]:
                problems.append(f"{workload}: a broken output was not counted as failed")
            print(f"smoke {workload} broken output: {line['failed']} of {line['attempted']} failed")
        except BenchError as exc:
            problems.append(f"{workload} broken output: {exc}")
    for problem in problems:
        print(f"smoke FAILED: {problem}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the instances; the same seed gives the same inputs")
    parser.add_argument("--suite-seed", type=int, default=DEFAULT_SUITE_SEED,
                        help="seed of the generated DDGs (benchmark_suite; scale_suite gets +100)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test on tiny inputs")
    parser.add_argument("--phase", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.phase == "setup":
        drift: List[float] = []
        probe = DriftProbe(drift)
        with probe.armed():
            from perfbench.measure import setup_phase

            setup_phase(ROOT, args.workload, args.seed, args.suite_seed, args.smoke)
            setup_s = probe.clock() - _START
        drift += [ref_loop() for _ in range(SETUP_REF_SAMPLES)]
        print(json.dumps({"setup_s": setup_s, "ref_loop_s": median(drift)}))
        return 0
    if args.phase == "measure":
        from perfbench.measure import measure_phase

        print(json.dumps(measure_phase(
            ROOT, args.workload, args.seed, args.suite_seed, args.seconds,
            bool(args.trace), args.smoke, args.corrupt,
        )))
        return 0
    knobs = forbidden_knobs()
    if knobs:
        print(f"perfbench: refusing to run with {', '.join(knobs)} set; each changes the program",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        print("perfbench: --workload is required", file=sys.stderr)
        return 2
    try:
        line, record = collect(spec, args.workload, args.seed, args.suite_seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    record["result"] = line
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    print(report(spec, line, record))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
