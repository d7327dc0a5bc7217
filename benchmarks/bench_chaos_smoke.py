"""Benchmark: chaos smoke -- the experiment suite under injected faults.

The supervised batch layer promises that worker failures are an execution
detail: crash a fraction of the workers, make others hang, and the
experiment reports must come out **byte-identical** to a serial fault-free
run, with every disturbance accounted for in the per-item
:class:`~repro.experiments.ItemOutcome` records.

This benchmark runs the experiment smoke suite twice:

* a **reference** pass -- serial engine, all fault/supervision environment
  stripped (CI exports ``REPRO_FAULTS`` job-wide, so the reference must
  actively shed it);
* a **chaos** pass -- process-policy engine, ``REPRO_FAULTS`` active
  (default ``crash:0.1,hang:0.05,...``: >=10% of worker attempts die or
  stall), per-item timeout from ``REPRO_TIMEOUT`` (default 30s).

Both passes run with the result store off, whatever the environment says:
an ambient store filled by the reference pass would answer the chaos
pass's items, and its fault plan would never run.

It asserts the chaos pass completes, matches the reference byte for byte,
reports one outcome per dispatched item, and actually observed faults
(otherwise the run proved nothing).  The full fault history is written to
``REPRO_FAULT_HISTORY_JSON`` (default ``chaos-fault-history.json``) so CI
can upload it as an artifact.  ``REPRO_BENCH_SMOKE=1`` shrinks the suite
for CI runners.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

from repro.analysis import store_active
from repro.codes import benchmark_suite
from repro.core import superscalar
from repro.experiments import (
    BatchEngine,
    outcomes_as_dicts,
    run_ilp_size_study,
    run_pipeline_experiment,
    run_rs_optimality,
    section,
)
from repro.testing import FaultPlan

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Everything that can switch the engine into supervised mode from the
#: environment; the reference pass runs with all of it stripped.
_SUPERVISION_ENV = ("REPRO_FAULTS", "REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_SPECULATE")

#: Everything that can switch the result store on from the environment
#: (workers read it too); both passes run with all of it stripped.
_STORE_ENV = ("REPRO_STORE", "REPRO_STORE_DIR")

#: Used when the job does not export REPRO_FAULTS itself.  The seed makes
#: the rate-based schedule reproducible run over run; the planted faults
#: at indices 0-2 guarantee the run observes faults even when the rate
#: draws come up clean on a small smoke suite; hangs are kept well under
#: the item timeout so they delay rather than kill attempts.
_DEFAULT_FAULTS = "crash@0,corrupt@1,hang@2,crash:0.1,hang:0.05,seed:20,hangdur:1.0"


@contextmanager
def _environment(**overrides):
    """Temporarily set/remove (value None) environment variables."""

    saved = {key: os.environ.get(key) for key in overrides}
    try:
        for key, value in overrides.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _run_smoke_suite(engine):
    """One pass of the experiment smoke suite.

    Returns the joined timing-free report tables (the byte-identity
    subject), the structural projection of the RS-optimality comparisons
    (that report's table prints wall times, which differ even between two
    fault-free serial runs -- everything else must match exactly), and the
    concatenated per-item outcome records from all three drivers.
    """

    max_nodes = 10 if _SMOKE else 14
    suite = benchmark_suite(max_size=max_nodes)
    machine = superscalar(int_registers=4, float_registers=4)
    pipeline = run_pipeline_experiment(
        suite=suite, machine=machine, registers=4, engine=engine
    )
    optimality = run_rs_optimality(suite=suite, max_nodes=max_nodes, engine=engine)
    sizes = run_ilp_size_study(sizes=(10, 14) if _SMOKE else (10, 15, 20), engine=engine)
    reports = "\n".join([pipeline.to_table(), sizes.to_table()])
    rs_rows = [
        (c.name, c.rtype, c.nodes, c.edges, c.rs_exact, c.rs_heuristic, c.backend)
        for c in optimality.comparisons
    ]
    outcomes = (
        list(pipeline.item_outcomes)
        + list(optimality.item_outcomes)
        + list(sizes.item_outcomes)
    )
    return reports, rs_rows, outcomes


def test_chaos_run_is_byte_identical_to_serial_reference():
    spec = os.environ.get("REPRO_FAULTS", _DEFAULT_FAULTS)
    plan = FaultPlan.parse(spec)
    assert plan.active, f"REPRO_FAULTS={spec!r} plans no faults at all"
    history_file = os.environ.get("REPRO_FAULT_HISTORY_JSON", "chaos-fault-history.json")

    no_store = {key: None for key in _STORE_ENV}
    cleared = {key: None for key in _SUPERVISION_ENV + _STORE_ENV}
    with store_active(None), _environment(**cleared):
        t0 = time.perf_counter()
        reference, reference_rs, reference_outcomes = _run_smoke_suite(
            BatchEngine("serial")
        )
        reference_time = time.perf_counter() - t0

    timeout = os.environ.get("REPRO_TIMEOUT", "30")
    with store_active(None), _environment(REPRO_FAULTS=spec, REPRO_TIMEOUT=timeout, **no_store):
        t0 = time.perf_counter()
        chaos, chaos_rs, chaos_outcomes = _run_smoke_suite(
            BatchEngine("process", workers=2)
        )
        chaos_time = time.perf_counter() - t0

    items = len(chaos_outcomes)
    faulted = [o for o in chaos_outcomes if o.faulted]
    fault_events = sum(len(o.faults) for o in faulted)
    retried = sum(1 for o in chaos_outcomes if o.attempts > 1)

    print(section("Chaos smoke: experiment suite under injected faults"))
    print(f"fault plan         : {spec}")
    print(f"item timeout       : {timeout}s")
    print(f"reference (serial) : {reference_time:.3f}s over {len(reference_outcomes)} items")
    print(f"chaos (process)    : {chaos_time:.3f}s over {items} items")
    print(f"faulted items      : {len(faulted)} ({fault_events} fault events, "
          f"{retried} items retried)")

    payload = {
        "fault_spec": spec,
        "timeout_seconds": float(timeout),
        "items": items,
        "faulted_items": len(faulted),
        "fault_events": fault_events,
        "reference_seconds": reference_time,
        "chaos_seconds": chaos_time,
        "outcomes": outcomes_as_dicts(chaos_outcomes),
    }
    with open(history_file, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"fault history      : {history_file}")

    assert chaos == reference, (
        "chaos-run reports must be byte-identical to the serial fault-free run"
    )
    assert chaos_rs == reference_rs, (
        "chaos-run RS-optimality results must match the serial fault-free run"
    )
    assert items == len(reference_outcomes), (
        "every dispatched item must report an ItemOutcome"
    )
    assert all(o.status == "ok" for o in chaos_outcomes)
    assert len(faulted) >= 3, (
        "the chaos run observed almost no faults; the plan proved nothing"
    )
