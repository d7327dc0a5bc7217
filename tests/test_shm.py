"""Tests for zero-copy shared-memory graph dispatch (``repro.analysis.shm``).

Covers the encoding round trip (an attached graph is indistinguishable from
a ``DDG.copy``), the two-process attach path with leak detection (after the
exporter closes, the segment name must be gone from the system), the pickle
fallback ladder, and the batch-engine integration counters.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory

import pytest

from repro.analysis import shm
from repro.codes import kernel_suite, scale_suite
from repro.core import DDGBuilder
from repro.core.graph import DDG
from repro.errors import ConfigurationError


@pytest.fixture(autouse=True)
def _reset_counters():
    shm.reset_counters()
    yield
    shm.reset_counters()


def _graph_signature(g):
    return (
        g.name,
        sorted((o.name, o.latency, o.delta_r, o.delta_w, o.opcode, o.fu_class,
                tuple(sorted(t.name for t in o.defs))) for o in g.operations()),
        sorted((e.src, e.dst, e.latency, e.kind.value,
                None if e.rtype is None else e.rtype.name) for e in g.edges()),
    )


def _sample_ddg():
    b = DDGBuilder("shm-sample")
    b.value("addr", "int", latency=1)
    b.value("x", "float", latency=4, fu_class="mem")
    b.value("y", "float", latency=4, fu_class="mem")
    b.value("prod", "float", latency=4, fu_class="fpu")
    b.op("st", latency=1, fu_class="mem")
    b.flow("addr", "x")
    b.flow("addr", "y")
    b.flow("x", "prod")
    b.flow("y", "prod")
    b.flow("prod", "st")
    return b.build()


class TestRoundTrip:
    def test_attached_graph_matches_copy(self):
        g = _sample_ddg()
        with shm.GraphExporter() as exporter:
            proxy = exporter.pack(g)
            rebuilt = pickle.loads(pickle.dumps(proxy))
        assert _graph_signature(rebuilt) == _graph_signature(g.copy())
        assert shm.counters["exports"] == 1
        assert shm.counters["attaches"] == 1
        assert shm.counters["fallbacks"] == 0

    def test_kernel_suite_round_trips(self):
        with shm.GraphExporter() as exporter:
            for entry in kernel_suite()[:6]:
                proxy = exporter.pack(entry.ddg)
                rebuilt = pickle.loads(pickle.dumps(proxy))
                assert _graph_signature(rebuilt) == _graph_signature(entry.ddg)

    def test_proxy_reads_like_the_original(self):
        g = _sample_ddg()
        with shm.GraphExporter() as exporter:
            proxy = exporter.pack(g)
            assert proxy.name == g.name
            assert sorted(o.name for o in proxy.operations()) == sorted(
                o.name for o in g.operations()
            )

    def test_proxy_pickle_is_much_smaller(self):
        entry = max(kernel_suite(), key=lambda e: e.ddg.n)
        with shm.GraphExporter() as exporter:
            proxy = exporter.pack(entry.ddg)
            assert len(pickle.dumps(proxy)) * 5 < len(pickle.dumps(entry.ddg))
        # A batch of scale items with several budgets per graph, like the
        # experiment drivers send: each graph is exported once and the batch
        # moves at least 10x fewer pickled bytes.
        tier = scale_suite(sizes=(40, 48), superblock_sizes=())
        items = [
            (e.name, e.ddg, e.ddg.register_types()[0], budget)
            for e in tier
            for budget in (4, 6, 8)
        ]
        plain = sum(len(pickle.dumps(item)) for item in items)
        with shm.GraphExporter() as exporter:
            packed = sum(len(pickle.dumps(exporter.pack(item))) for item in items)
            assert exporter.exported == len(tier)
        assert plain >= 10 * packed

    def test_same_graph_exported_once(self):
        g = _sample_ddg()
        with shm.GraphExporter() as exporter:
            items = [exporter.pack(("run", g, i)) for i in range(10)]
            assert exporter.exported == 1
            assert all(item[1] is items[0][1] for item in items)


class TestPackWalker:
    def test_packs_nested_containers(self):
        g = _sample_ddg()
        with shm.GraphExporter() as exporter:
            packed = exporter.pack({"jobs": [(g, {"budget": 4})], "tag": "x"})
            assert isinstance(packed["jobs"][0][0], shm._SharedDDG)
            assert packed["jobs"][0][1] == {"budget": 4}
            assert packed["tag"] == "x"

    def test_packs_dataclass_fields(self):
        @dataclass(frozen=True)
        class Job:
            name: str
            ddg: DDG

        g = _sample_ddg()
        with shm.GraphExporter() as exporter:
            packed = exporter.pack(Job(name="j", ddg=g))
            assert isinstance(packed.ddg, shm._SharedDDG)
            assert packed.name == "j"

    def test_graphless_items_pass_through_unchanged(self):
        with shm.GraphExporter() as exporter:
            item = ("plain", 3, [1.5])
            assert exporter.pack(item) is item
            assert exporter.exported == 0

    def test_closed_exporter_falls_back(self):
        g = _sample_ddg()
        exporter = shm.GraphExporter()
        exporter.close()
        assert exporter.pack(g) is g
        assert shm.counters["fallbacks"] == 1

    def test_pack_failure_falls_back_to_original_item(self, monkeypatch):
        g = _sample_ddg()
        with shm.GraphExporter() as exporter:
            monkeypatch.setattr(
                shm, "_encode_graph", lambda ddg: (_ for _ in ()).throw(OSError())
            )
            assert exporter.pack(g) is g
        assert shm.counters["fallbacks"] == 1
        assert shm.counters["exports"] == 0


class TestLifecycle:
    def test_close_unlinks_every_segment(self):
        g = _sample_ddg()
        exporter = shm.GraphExporter()
        proxy = exporter.pack(g)
        name = proxy.__dict__["_shm_segment"]
        seg = shared_memory.SharedMemory(name=name)
        seg.close()
        exporter.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_is_idempotent(self):
        exporter = shm.GraphExporter()
        exporter.pack(_sample_ddg())
        exporter.close()
        exporter.close()

    def test_two_process_attach_leaves_no_leaked_segment(self):
        g = _sample_ddg()
        ctx = get_context("spawn")
        with shm.GraphExporter() as exporter:
            proxy = exporter.pack(g)
            name = proxy.__dict__["_shm_segment"]
            with ctx.Pool(1) as pool:
                sig = pool.apply(_worker_signature, (proxy,))
            assert sig == _graph_signature(g.copy())
            # The worker attached, rebuilt, detached -- and its exit (plus
            # its resource tracker) must not have unlinked the segment out
            # from under the exporter.
            seg = shared_memory.SharedMemory(name=name)
            seg.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def _worker_signature(g):
    return _graph_signature(g)


class TestEnvToggle:
    def test_bad_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "always")
        with pytest.raises(ConfigurationError, match="REPRO_SHM"):
            shm.enabled()

    def test_off_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "off")
        assert not shm.enabled()

    def test_auto_enables_when_available(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "auto")
        assert shm.enabled() == (shm.shared_memory is not None)


class TestEngineIntegration:
    def test_process_dispatch_attaches_per_item(self):
        from repro.experiments import BatchEngine

        g = _sample_ddg()
        engine = BatchEngine(policy="process", workers=2)
        results = engine.map(_worker_signature, [g] * 4)
        assert all(sig == _graph_signature(g.copy()) for sig in results)
        assert shm.counters["exports"] == 1

    def test_shm_off_uses_plain_pickle(self, monkeypatch):
        from repro.experiments import BatchEngine

        monkeypatch.setenv("REPRO_SHM", "off")
        g = _sample_ddg()
        engine = BatchEngine(policy="process", workers=2)
        results = engine.map(_worker_signature, [g] * 3)
        assert all(sig == _graph_signature(g.copy()) for sig in results)
        assert shm.counters["exports"] == 0

    def test_reduction_engine_stats_ignore_shm_attaches(self):
        """A reduction's counters describe that run, not the process history."""

        from repro.reduction import reduce_saturation_heuristic

        entry = {e.name: e for e in kernel_suite()}["linpack-daxpy-u4"]
        rtype = entry.ddg.register_types()[0]

        def counters():
            result = reduce_saturation_heuristic(
                entry.ddg.copy(), rtype, 4, engine="incremental"
            )
            stats = result.details["engine_stats"]
            return {k: v for k, v in stats.items() if type(v) is int}

        first = counters()
        with shm.GraphExporter() as exporter:
            pickle.loads(pickle.dumps(exporter.pack(_sample_ddg())))
        assert shm.counters["attaches"] == 1
        assert counters() == first
