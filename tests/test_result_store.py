"""Tests for the canonical graph hash and the persistent result store."""

import dataclasses
import os
import pickle
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import (
    ResultStore,
    active_store,
    canonical_graph_hash,
    context_for,
    reset_active_store,
    set_active_store,
    store_active,
)
from repro.analysis.context import caching_disabled
from repro.analysis.store import STORE_SCHEMA_VERSION, default_store_dir
from repro.codes.generator import layered_random_ddg
from repro.core.graph import DDG
from repro.core.operation import Operation
from repro.core.types import FLOAT, INT
from repro.experiments import BatchEngine, run_pipeline_experiment
from repro.reduction import reduce_saturation_heuristic, reduce_saturation_multi_budget
from repro.saturation import greedy_saturation


def random_ddg(seed: int) -> DDG:
    return layered_random_ddg(
        nodes=14, layers=4, edge_probability=0.35, seed=seed, rtype=INT,
        name=f"hash-prop-{seed}",
    )


def rebuild_shuffled(ddg: DDG, seed: int) -> DDG:
    """Rebuild the same graph content with a different insertion order."""

    rng = random.Random(seed)
    ops = [ddg.operation(n) for n in ddg.nodes()]
    edges = list(ddg.edges())
    rng.shuffle(ops)
    rng.shuffle(edges)
    g = DDG(f"{ddg.name}-rebuilt-{seed}")
    for op in ops:
        g.add_operation(op)
    for edge in edges:
        g.add_edge(edge)
    return g


def _suite_entry(name: str):
    from repro.codes import benchmark_suite

    return next(e for e in benchmark_suite() if e.name == name)


def _entries_on_disk(root) -> Counter:
    """``(graph hash, query)`` of every entry under *root*, read back from disk."""

    found: Counter = Counter()
    for path in Path(root).glob("v*/[0-9a-f][0-9a-f]/*.pkl"):
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        found[payload["graph_hash"], payload["query"]] += 1
    return found


def _reduction_record(result):
    """Every field of a ReductionResult but its wall time and stage timers.

    The extended graph enters as its arc list, and the engine counters as
    the rest of ``engine_stats``.
    """

    record = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if f.name == "wall_time":
            continue
        if f.name == "extended_ddg":
            value = list(value.edges())
        elif f.name == "details":
            value = dict(value)
            stats = dict(value.pop("engine_stats", {}))
            stats.pop("stage_timings", None)
            value["engine_stats"] = stats
        record[f.name] = value
    return record


class TestCanonicalGraphHash:
    def test_invariant_under_insertion_order_and_name(self):
        for seed in range(8):
            g = random_ddg(seed)
            h = canonical_graph_hash(g)
            assert canonical_graph_hash(g.copy("renamed")) == h
            for shuffle_seed in (1, 2, 3):
                assert canonical_graph_hash(rebuild_shuffled(g, shuffle_seed)) == h

    def test_distinct_graphs_distinct_hashes(self):
        hashes = {canonical_graph_hash(random_ddg(seed)) for seed in range(8)}
        assert len(hashes) == 8

    def test_semantic_mutations_change_the_hash(self):
        g = random_ddg(0)
        base = canonical_graph_hash(g)

        # Extra serial arc.
        g1 = g.copy()
        nodes = sorted(g1.nodes())
        order = {n: i for i, n in enumerate(g1.topological_order())}
        src = min(nodes, key=lambda n: order[n])
        dst = max(nodes, key=lambda n: order[n])
        g1.add_serial_edge(src, dst, latency=0)
        assert canonical_graph_hash(g1) != base

        # Edge latency.
        g2 = g.copy()
        edge = sorted(g2.edges(), key=str)[0]
        g2.remove_edge(edge)
        g2.add_edge(edge.with_latency(edge.latency + 7))
        assert canonical_graph_hash(g2) != base

        # Operation latency.
        g3 = g.copy()
        op = g3.operation(sorted(g3.nodes())[0])
        g3.replace_operation(
            Operation(op.name, defs=op.defs, latency=op.latency + 1,
                      delta_r=op.delta_r, delta_w=op.delta_w,
                      opcode=op.opcode, fu_class=op.fu_class)
        )
        assert canonical_graph_hash(g3) != base

        # Register type of a defined value.
        g4 = g.copy()
        producer = next(op for op in g4.operations() if op.defs)
        g4.replace_operation(
            Operation(producer.name, defs=frozenset({FLOAT}),
                      latency=producer.latency, delta_r=producer.delta_r,
                      delta_w=producer.delta_w, opcode=producer.opcode,
                      fu_class=producer.fu_class)
        )
        assert canonical_graph_hash(g4) != base

        # Read offset.
        g5 = g.copy()
        op5 = g5.operation(sorted(g5.nodes())[1])
        g5.replace_operation(op5.with_offsets(op5.delta_r + 1, op5.delta_w))
        assert canonical_graph_hash(g5) != base

    def test_context_graph_hash_tracks_mutation(self):
        g = random_ddg(1)
        ctx = context_for(g)
        before = ctx.graph_hash()
        assert before == canonical_graph_hash(g)
        order = g.topological_order()
        g.add_serial_edge(order[0], order[-1], latency=0)
        after = ctx.graph_hash()
        assert after == canonical_graph_hash(g) and after != before


class TestResultStore:
    def test_round_trip_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("h", "q", {"a": 1}) is None
        store.put("h", "q", {"a": 1}, {"answer": 42})
        assert store.get("h", "q", {"a": 1}) == {"answer": 42}
        assert store.get("h", "q", {"a": 2}) is None
        assert store.stats.hits == 1 and store.stats.misses == 2
        assert store.stats.puts == 1
        assert 0.0 < store.stats.hit_rate < 1.0
        assert store.entry_count() == 1

    def test_params_key_is_insertion_order_independent(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("h", "q", {"a": 1, "b": 2}, "x")
        assert store.get("h", "q", {"b": 2, "a": 1}) == "x"
        # ...but not value independent.
        assert store.get("h", "q", {"a": 2, "b": 1}) is None

    def test_corrupt_entry_reads_as_miss_and_is_dropped(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put("h", "q", None, "value")
        path.write_bytes(b"definitely not a pickle")
        assert store.get("h", "q", None, default="fallback") == "fallback"
        assert store.stats.errors == 1
        assert not path.exists()

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put("h", "q", None, "value")
        payload = {"schema": STORE_SCHEMA_VERSION + 1, "graph_hash": "h",
                   "query": "q", "value": "value"}
        path.write_bytes(pickle.dumps(payload))
        assert store.get("h", "q", None) is None
        assert store.stats.errors == 1

    def test_memo_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        calls = []
        assert store.memo("h", "q", None, lambda: calls.append(1) or "v") == "v"
        assert store.memo("h", "q", None, lambda: calls.append(1) or "w") == "v"
        assert len(calls) == 1
        assert store.clear() == 1
        assert store.entry_count() == 0

    def test_schema_directory_isolates_versions(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put("h", "q", None, "v")
        assert f"v{STORE_SCHEMA_VERSION}" in str(path)


class TestAmbientStore:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.delenv("REPRO_STORE", raising=False)
        reset_active_store()
        assert active_store() is None

    def test_env_dir_activates(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        reset_active_store()
        store = active_store()
        assert store is not None and store.root == tmp_path
        assert default_store_dir() == tmp_path

    def test_env_flag_uses_default_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.setenv("REPRO_STORE", "1")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        reset_active_store()
        store = active_store()
        assert store is not None
        assert store.root == tmp_path / "repro-touati04"

    def test_explicit_override_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env"))
        try:
            set_active_store(None)
            assert active_store() is None
            mine = ResultStore(tmp_path / "mine")
            set_active_store(mine)
            assert active_store() is mine
        finally:
            reset_active_store()

    def test_store_active_context(self, tmp_path):
        assert active_store() is None
        with store_active(tmp_path) as store:
            assert active_store() is store
            assert store.root == tmp_path
        assert active_store() is None


class TestPersistentMemoTier:
    def test_memo_persists_across_equal_content_graphs(self, tmp_path):
        g1 = random_ddg(2)
        g2 = rebuild_shuffled(g1, 7)
        with store_active(tmp_path) as store:
            r1 = greedy_saturation(g1, INT)
            hits_before = store.stats.hits
            r2 = greedy_saturation(g2, INT)
            assert store.stats.hits > hits_before
        assert r2.rs == r1.rs
        assert r2.saturating_values == r1.saturating_values
        assert r2.killing_function == r1.killing_function

    def test_memo_inert_without_store(self):
        g = random_ddg(3)
        ctx = context_for(g)
        calls = []
        assert active_store() is None
        v = ctx.memo("k", lambda: calls.append(1) or 5, persist=("q", None))
        assert v == 5 and calls == [1]

    def test_caching_disabled_skips_the_store(self, tmp_path):
        g = random_ddg(4)
        with store_active(tmp_path) as store:
            with caching_disabled():
                greedy_saturation(g, INT)
            assert store.stats.puts == 0 and store.stats.lookups == 0

    def test_falsy_values_are_cached(self, tmp_path):
        g = random_ddg(5)
        ctx = context_for(g)
        with store_active(tmp_path) as store:
            assert ctx.memo("z", lambda: 0, persist=("q0", None)) == 0
            ctx.invalidate()
            calls = []
            assert ctx.memo("z", lambda: calls.append(1) or 1, persist=("q0", None)) == 0
            assert not calls and store.stats.hits == 1

    # The RS* loop's per-iteration saturations stay out of the store: a
    # reduction persists its input's Greedy-k and its own report, nothing
    # of the working graphs it walks through.
    @pytest.mark.parametrize("engine", ["incremental", "from-scratch"])
    def test_reduction_writes_two_entries_whatever_its_iterations(self, tmp_path, engine):
        ddg = _suite_entry("dsp-fir6").ddg
        ghash = canonical_graph_hash(ddg)
        results = {}
        for registers in (2, 3, 5):
            root = tmp_path / f"r{registers}"
            with store_active(root) as store:
                results[registers] = reduce_saturation_heuristic(
                    ddg.copy(), FLOAT, registers, engine=engine
                )
            assert _entries_on_disk(root) == {
                (ghash, "saturation.greedy"): 1,
                (ghash, "reduction.heuristic.v4"): 1,
            }
            assert store.stats.puts == 2
        iterations = {r.details["iterations"] for r in results.values()}
        assert len(iterations) == 3 and max(iterations) >= 20

        with store_active(tmp_path / "r3") as store:
            again = reduce_saturation_heuristic(rebuild_shuffled(ddg, 5), FLOAT, 3, engine=engine)
        assert store.stats.puts == 0 and store.stats.hits == 1
        assert again.added_edges == results[3].added_edges

    def test_pipeline_writes_the_same_two_entries(self, tmp_path):
        from repro.core import superscalar
        from repro.experiments import run_pipeline

        entry = _suite_entry("dsp-fir6")
        machine = superscalar(int_registers=3, float_registers=3)
        ghash = canonical_graph_hash(entry.ddg)
        with store_active(tmp_path) as store:
            cold = run_pipeline(entry, FLOAT, machine)
            assert cold.reduction_needed and store.stats.puts == 2
            assert _entries_on_disk(tmp_path) == {
                (ghash, "saturation.greedy"): 1,
                (ghash, "reduction.heuristic.v4"): 1,
            }
            rebuilt = dataclasses.replace(entry, ddg=rebuild_shuffled(entry.ddg, 9))
            warm = run_pipeline(rebuilt, FLOAT, machine)
            assert store.stats.puts == 2  # the rebuilt graph wrote nothing
        assert dataclasses.replace(warm, wall_time=0) == dataclasses.replace(cold, wall_time=0)

    def test_reduction_results_do_not_depend_on_what_the_store_holds(self, tmp_path):
        """A store holding a larger-budget run of the same graph changes nothing.

        Every field of a store-backed reduction equals the store-less run's,
        wall time and stage timers aside, including the extended graph's
        arcs and the engine counters, which record how the warm engine got
        there; the same holds per budget of a ladder.
        """

        graphs = [
            (_suite_entry("linpack-daxpy-u4").ddg, FLOAT),
            (_suite_entry("dsp-fir6").ddg, FLOAT),
            (layered_random_ddg(16, 4, seed=13), INT),
            (layered_random_ddg(16, 4, seed=7), INT),
        ]
        for i, (ddg, rtype) in enumerate(graphs):
            for first, second in ((5, 3), (4, 2)):
                alone = reduce_saturation_heuristic(ddg.copy(), rtype, second)
                ladder = reduce_saturation_multi_budget(ddg.copy(), rtype, (first, second))
                with store_active(tmp_path / f"{i}-{first}-{second}"):
                    reduce_saturation_heuristic(ddg.copy(), rtype, first)
                    stored = reduce_saturation_heuristic(ddg.copy(), rtype, second)
                    stored_ladder = reduce_saturation_multi_budget(
                        ddg.copy(), rtype, (first, second)
                    )
                assert _reduction_record(stored) == _reduction_record(alone)
                for budget in (first, second):
                    assert _reduction_record(stored_ladder[budget]) == _reduction_record(
                        ladder[budget]
                    )


class TestEngineStoreIntegration:
    def test_map_skips_dispatch_on_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        calls = []

        def fn(x):
            calls.append(x)
            return x * x

        engine = BatchEngine()
        key = lambda x: (f"g{x}", {"x": x})
        first = engine.map(fn, [1, 2, 3], store=store, query="sq", key_fn=key)
        assert first == [1, 4, 9] and calls == [1, 2, 3]
        second = engine.map(fn, [3, 2, 1, 4], store=store, query="sq", key_fn=key)
        assert second == [9, 4, 1, 16]
        assert calls == [1, 2, 3, 4]  # only the miss was dispatched

    def test_map_plan_rewrites_before_dispatch(self):
        engine = BatchEngine()
        out = engine.map(lambda t: t, [("a", "auto"), ("b", "forced")],
                         plan=lambda t: (t[0], "scipy") if t[1] == "auto" else t)
        assert out == [("a", "scipy"), ("b", "forced")]

    @pytest.mark.needs_ilp_solver
    def test_backend_override_is_part_of_the_experiment_key(self, monkeypatch, tmp_path):
        """A forced REPRO_ILP_BACKEND must never read another backend's cache."""

        from repro.experiments import run_ilp_size_study

        with store_active(tmp_path):
            monkeypatch.delenv("REPRO_ILP_BACKEND", raising=False)
            auto = run_ilp_size_study(sizes=(10,))
            assert [p.backend for p in auto.points] == ["scipy"]
            monkeypatch.setenv("REPRO_ILP_BACKEND", "branch-bound")
            forced = run_ilp_size_study(sizes=(10,))
            assert [p.backend for p in forced.points] == ["branch-bound"]

    def test_pipeline_experiment_warm_run_is_byte_identical(self, tmp_path):
        from repro.codes import benchmark_suite
        from repro.core import superscalar

        suite = benchmark_suite(max_size=12)
        machine = superscalar(int_registers=4, float_registers=4)
        with store_active(tmp_path) as store:
            cold = run_pipeline_experiment(suite=suite, machine=machine, registers=4)
            warm_hits_before = store.stats.hits
            warm = run_pipeline_experiment(suite=suite, machine=machine, registers=4)
            warm_hits = store.stats.hits - warm_hits_before
        assert warm.to_table() == cold.to_table()
        assert warm_hits == len(warm.outcomes)  # every instance from the store


class TestStoreRobustness:
    """PR-8 satellites: bounded locking, orphan sweep, idempotent puts."""

    def test_lock_timeout_quarantines_and_recovers(self, tmp_path):
        import fcntl

        store = ResultStore(tmp_path, lock_timeout=0.2)
        path = store.path_for("h", "q", None)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = path.parent / ".lock"
        # Hold the shard lock on a *separate* open file description, as a
        # stuck foreign process would.
        holder = open(lock_path, "w")
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
        try:
            t0 = time.monotonic()
            store.put("h", "q", None, "value")
            elapsed = time.monotonic() - t0
        finally:
            holder.close()
        # The put neither blocked forever nor failed: the stale lock file
        # was quarantined and the write went through.
        assert store.get("h", "q", None) == "value"
        assert store.stats.lock_timeouts >= 1
        assert elapsed < 5.0
        assert list(store.quarantine_dir.glob("*.lock.stale"))

    def test_blocking_lock_when_timeout_disabled(self, tmp_path):
        store = ResultStore(tmp_path, lock_timeout=None)
        store.put("h", "q", None, "value")
        assert store.stats.lock_timeouts == 0

    def test_orphaned_tmp_files_swept_on_open(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("h", "q", None, "value")
        shard = store.path_for("h", "q", None).parent
        stale = shard / ".tmp-dead-writer.pkl"
        stale.write_bytes(b"half a pickle")
        os.utime(stale, (time.time() - 3600, time.time() - 3600))
        fresh = shard / ".tmp-live-writer.pkl"
        fresh.write_bytes(b"mid-fsync")
        reopened = ResultStore(tmp_path)
        assert not stale.exists()  # orphan: swept
        assert fresh.exists()  # younger than the grace period: spared
        assert reopened.stats.stale_tmp_removed == 1
        assert reopened.get("h", "q", None) == "value"
