"""Benchmark: the persistent cross-run result store, cold vs warm.

The paper's Section-5 protocol re-solves the same instances suite run after
suite run (and so did this harness' CI): every pipeline invocation, exact
intLP and Greedy-k run was recomputed from scratch even though nothing
about the instance had changed.  The :mod:`repro.analysis.store` layer
keys every result by the graph's canonical content hash, so a second run
of the same experiment suite is answered from disk.

This benchmark runs the experiment smoke suite **twice** against one store
and checks the whole contract:

* the warm run's reports are **byte-identical** to the cold run's (the
  store must be a pure cache, invisible in every table);
* the warm run's store hit-rate is **> 90%** (experiment-level entries are
  answered before any worker dispatch);
* the warm run is at least ``REPRO_STORE_SPEEDUP_MIN`` times faster than
  the cold one (default 5.0 -- the warm path is store reads only, measured
  ~40-90x locally);
* the store statistics are dumped to ``REPRO_STORE_STATS_FILE`` (default
  ``store-stats.json`` in the working directory) so CI can upload them as
  an artifact.  Its ``entries_by_query`` holds the entries the cold run
  wrote, per query, read back from disk, so the split between Greedy-k,
  reduction and experiment entries is visible from run to run.

The store location honours the ambient configuration (``REPRO_STORE_DIR``);
without one a temporary directory is used and removed afterwards, so the
benchmark is hermetic by default.  ``REPRO_BENCH_SMOKE=1`` shrinks the
suite for CI runners.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
import time
from collections import Counter
from contextlib import contextmanager

from repro.analysis import active_store, store_active
from repro.analysis.store import STORE_SCHEMA_VERSION
from repro.codes import benchmark_suite
from repro.core import superscalar
from repro.experiments import (
    run_ilp_size_study,
    run_pipeline_experiment,
    run_rs_optimality,
    section,
)

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


@contextmanager
def _benchmark_store():
    """The ambient store when configured, else a fresh temporary one."""

    ambient = active_store()
    if ambient is not None:
        yield ambient
        return
    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as tmp:
        with store_active(tmp) as store:
            yield store


def _entries_by_query(store) -> Counter:
    """The store's current-schema entries by query, read back from disk.

    Entries written by worker processes count too, which the dispatching
    process's own ``store.stats`` does not see.
    """

    found: Counter = Counter()
    for path in store.root.glob(f"v{STORE_SCHEMA_VERSION}/[0-9a-f][0-9a-f]/*.pkl"):
        with open(path, "rb") as fh:
            found[pickle.load(fh)["query"]] += 1
    return found


def _run_smoke_suite(engine):
    """One pass of the experiment smoke suite; returns its printed reports.

    Three drivers with different result shapes (pipeline outcomes, RS
    comparisons, model-size points) all funnel through the same
    engine-level store consultation, so the hit-rate measures the whole
    experiment layer, not one lucky driver.
    """

    max_nodes = 10 if _SMOKE else 16
    suite = benchmark_suite(max_size=max_nodes)
    machine = superscalar(int_registers=4, float_registers=4)
    pipeline = run_pipeline_experiment(
        suite=suite, machine=machine, registers=4, engine=engine
    )
    optimality = run_rs_optimality(suite=suite, max_nodes=max_nodes, engine=engine)
    sizes = run_ilp_size_study(sizes=(10, 14) if _SMOKE else (10, 15, 20), engine=engine)
    return "\n".join(
        [pipeline.to_table(), optimality.to_table(), sizes.to_table()]
    )


def test_warm_store_run_is_faster_and_byte_identical(engine):
    default_min = 5.0
    minimum = float(os.environ.get("REPRO_STORE_SPEEDUP_MIN", default_min))
    stats_file = os.environ.get("REPRO_STORE_STATS_FILE", "store-stats.json")

    with _benchmark_store() as store:
        entries_before = _entries_by_query(store)
        t0 = time.perf_counter()
        cold_reports = _run_smoke_suite(engine)
        cold_time = time.perf_counter() - t0

        cold_stats = store.stats.as_dict()
        cold_entries = dict(sorted((_entries_by_query(store) - entries_before).items()))
        warm_mark_hits, warm_mark_lookups = store.stats.hits, store.stats.lookups

        t0 = time.perf_counter()
        warm_reports = _run_smoke_suite(engine)
        warm_time = time.perf_counter() - t0

        warm_hits = store.stats.hits - warm_mark_hits
        warm_lookups = store.stats.lookups - warm_mark_lookups
        hit_rate = warm_hits / warm_lookups if warm_lookups else 0.0
        speedup = cold_time / warm_time if warm_time > 0 else float("inf")

        print(section("Persistent result store: cold vs warm suite run"))
        print(f"store root         : {store.root}")
        print(f"entries on disk    : {store.entry_count()}")
        print(f"cold run           : {cold_time:.3f}s ({cold_stats['puts']} puts)")
        for query, count in cold_entries.items():
            print(f"  cold entries     : {count:4d} {query}")
        print(f"warm run           : {warm_time:.3f}s "
              f"({warm_hits}/{warm_lookups} lookups hit, {hit_rate:.1%})")
        print(f"speedup            : {speedup:.1f}x (floor {minimum:.1f}x)")

        payload = {
            "cold_seconds": cold_time,
            "warm_seconds": warm_time,
            "speedup": speedup,
            "warm_hits": warm_hits,
            "warm_lookups": warm_lookups,
            "warm_hit_rate": hit_rate,
            "entries": store.entry_count(),
            "entries_by_query": cold_entries,
            "totals": store.stats.as_dict(),
        }
        with open(stats_file, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"stats artifact     : {stats_file}")

        assert warm_reports == cold_reports, (
            "warm-store reports must be byte-identical to the cold run"
        )
        assert warm_lookups > 0 and hit_rate > 0.90, (
            f"warm store hit-rate {hit_rate:.1%} <= 90% "
            f"({warm_hits}/{warm_lookups})"
        )
        assert speedup >= minimum, (
            f"warm store run speedup {speedup:.2f}x below the {minimum:.1f}x floor"
        )


def test_store_survives_process_boundaries(tmp_path, engine):
    """A second *store object* over the same directory serves the results.

    This is the cross-run half of the claim: the warm run above shares a
    Python process with the cold one, here the store object (standing in
    for a fresh CI process) is rebuilt from the directory alone.
    """

    suite = benchmark_suite(max_size=10)
    machine = superscalar(int_registers=4, float_registers=4)
    with store_active(tmp_path):
        cold = run_pipeline_experiment(suite=suite, machine=machine,
                                       registers=4, engine=engine)
    with store_active(tmp_path) as second:
        warm = run_pipeline_experiment(suite=suite, machine=machine,
                                       registers=4, engine=engine)
        assert second.stats.hits == len(warm.outcomes)
        assert second.stats.misses == 0
    assert warm.to_table() == cold.to_table()
