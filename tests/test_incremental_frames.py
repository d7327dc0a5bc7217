"""Per-row copy-on-write undo frames against the definitions they maintain.

``IncrementalAnalysis.push`` patches every warm longest-path row
copy-on-write, keeps the flat adjacency and the shared topological order
alive in place, and records which row entries grew; ``pop`` restores the
previous epoch by reference.  These tests drive random push / pop / seed /
evict interleavings and check, after every step, each piece of warm state
against a direct evaluation on the current graph: longest paths as the
fixpoint of ``dist[v] = max(dist[u] + w)`` over all arcs, reachability by
explicit DFS.  The same contract is then checked one level up, through
``ReductionSession.reset_to_depth``, and on the statistics a reduction run
reports.  The saturation state on top (``IncrementalSaturation``) is
checked the same way: after every push and pop its three candidate killing
functions equal the from-scratch ones on a copy of the mirror, and every
killer-descendant set and potential-killer row whose content did not change
is still the same object.  A candidate patch rewrites killed-mirror arcs
outside push/pop; its flat adjacency and topological order are checked
after every patch of a driven reduction loop.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import flatbuf, graphalgo
from repro.analysis.context import context_for
from repro.codes.generator import layered_random_ddg, random_superblock
from repro.codes.suite import kernel_suite
from repro.core.graph import DDG, Edge
from repro.core.machine import retarget, vliw
from repro.core.schedule import asap_schedule
from repro.core.types import BOTTOM, INT, DependenceKind
from repro.reduction import ReductionSession, reduce_saturation_heuristic
from repro.reduction.heuristic import _HeuristicLoop, _SessionDriver
from repro.reduction.serialization import SerializationMode
from repro.saturation import greedy_saturation
from repro.saturation.greedy import greedy_killing_function
from repro.saturation.incremental import (
    IncrementalAnalysis,
    IncrementalSaturation,
    _CandidateDVState,
)
from repro.saturation.pkill import canonical_killing_function, killing_function_from_schedule

NEG_INF = flatbuf.NEG_INF

#: Every op reads and writes at offset 1: the longest-path DV engine's input.
_OFFSET_1 = vliw(read_offset=1)


def _longest_paths_by_fixpoint(ddg: DDG, src: str):
    """Longest-path distances from *src*, relaxed over every arc to a fixpoint.

    No topological order is involved: the loop sweeps all arcs until no
    distance grows, which on a DAG terminates at the exact longest paths.
    """

    dist = {name: NEG_INF for name in ddg.nodes()}
    dist[src] = 0
    grew = True
    while grew:
        grew = False
        for e in ddg.edges():
            d = dist[e.src]
            if d != NEG_INF and d + e.latency > dist[e.dst]:
                dist[e.dst] = d + e.latency
                grew = True
    return dist


def _definition_row(analysis: IncrementalAnalysis, src_id: int):
    names = analysis.interner.names()
    dist = _longest_paths_by_fixpoint(analysis.ddg, names[src_id])
    return [dist[name] for name in names]


def _reachable_by_dfs(ddg: DDG, src: str):
    seen = {src}
    stack = [src]
    while stack:
        for w in ddg.successors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _serial_arc_pool(ddg: DDG, rng: random.Random, count: int = 24):
    """Random serial arcs along one topological order (acyclic in any mix).

    Latencies include 0 and -1 (VLIW offset serializations), and some pairs
    repeat with another latency, so pushes also hit the dominated-duplicate
    no-op and the re-weighted-duplicate branches.
    """

    topo = context_for(ddg).topological_order()
    pos = {name: i for i, name in enumerate(topo)}
    pool = []
    for _ in range(count):
        a, b = rng.sample(topo, 2)
        if pos[a] > pos[b]:
            a, b = b, a
        pool.append(Edge(a, b, rng.randint(-1, 3), DependenceKind.SERIAL, None))
        if rng.random() < 0.25:
            pool.append(Edge(a, b, rng.randint(-1, 4), DependenceKind.SERIAL, None))
    return pool


def _edge_set(ddg: DDG):
    return sorted((e.src, e.dst, e.latency, e.kind.value) for e in ddg.edges())


def _warm_rows(analysis: IncrementalAnalysis):
    return {sid: list(row) for sid, row in analysis._lp_rows.items()}


class TestRandomInterleavings:
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_match_definition_after_every_step(self, seed):
        rng = random.Random(400 + seed)
        ddg = layered_random_ddg(nodes=16 + seed, layers=4, seed=seed)
        pristine = _edge_set(ddg)
        analysis = IncrementalAnalysis(ddg.copy())
        pool = _serial_arc_pool(ddg, rng)
        all_ids = list(range(analysis.interner.size))
        for sid in rng.sample(all_ids, 3):
            analysis.row(sid)

        pushes = 0
        for step in range(40):
            label = f"seed {seed} step {step}"
            op = rng.random()
            if op < 0.25 and analysis.depth:
                analysis.pop()
            elif op < 0.35:
                for sid in rng.sample(all_ids, rng.randint(1, 4)):
                    analysis.row(sid)
            elif op < 0.40 and analysis._lp_rows:
                analysis.evict_row_id(rng.choice(sorted(analysis._lp_rows)))
            else:
                before = _warm_rows(analysis)
                edges = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 2))]
                frame = analysis.push(edges)
                pushes += 1
                after = _warm_rows(analysis)
                # The change log names exactly the entries that grew, and
                # only rows warm at push time are patched.
                assert set(after) == set(before), label
                for sid, old in before.items():
                    grew = {y for y, (a, b) in enumerate(zip(old, after[sid])) if a != b}
                    assert set(frame.lp_changes.get(sid, ())) == grew, label
                    assert all(a >= b for a, b in zip(after[sid], old)), label

            g = analysis.ddg
            for sid, row in analysis._lp_rows.items():
                assert row == _definition_row(analysis, sid), f"{label} row {sid}"
            desc = analysis.descendants_incl()
            for node in g.nodes():
                assert desc[node] == _reachable_by_dfs(g, node), f"{label} {node}"
            # The warm ASAP times, published on the graph's context.
            asap = context_for(g).asap_times()
            assert asap == graphalgo.asap_times(g.copy()), label
            if pushes:
                assert asap is analysis.asap_times(), label
        assert pushes >= 10

        while analysis.depth:
            analysis.pop()
        assert _edge_set(analysis.ddg) == pristine
        for sid, row in analysis._lp_rows.items():
            assert row == _definition_row(analysis, sid), sid

    @pytest.mark.parametrize("seed", range(6))
    def test_saturation_state_matches_fresh_after_every_step(self, seed):
        rng = random.Random(900 + seed)
        ddg = layered_random_ddg(nodes=16 + seed, layers=4, seed=seed)
        sat = IncrementalSaturation(ddg.copy(), INT)
        pool = _serial_arc_pool(ddg, rng)
        sat.candidate_functions()
        pushes = pops = 0
        for step in range(40):
            label = f"seed {seed} step {step}"
            pk_before, kdv_before = sat._pk, sat._kdv
            if rng.random() < 0.3 and sat._frames:
                sat.pop()
                pops += 1
            else:
                sat.push([pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 2))])
                pushes += 1
            # The working graph is the mirror without ⊥'s incoming arcs.
            assert _edge_set(sat.working_ddg) == [
                e for e in _edge_set(sat.mirror_ddg) if e[1] != BOTTOM
            ], label
            # What a step did not change keeps its object.
            for killer, values in sat._kdv.items():
                if values == kdv_before[killer]:
                    assert values is kdv_before[killer], f"{label} {killer}"
            for value, row in sat._pk.items():
                if row == pk_before[value]:
                    assert row is pk_before[value], f"{label} {value}"

            m = sat.mirror_ddg.copy()
            value_nodes = {v.node for v in m.values(INT)}
            op_id = sat.mirror.op_id
            for killers in sat._pk.values():
                for killer in killers:
                    below = (_reachable_by_dfs(m, killer) - {killer}) & value_nodes
                    assert sat._kdv[killer] == sum(1 << op_id(n) for n in below), label
            fresh = [
                ("greedy-k", greedy_killing_function(m, INT)),
                ("canonical", canonical_killing_function(m, INT)),
                ("asap-induced", killing_function_from_schedule(m, asap_schedule(m), INT)),
            ]
            assert [(name, list(kf.items())) for name, kf in sat.candidate_functions()] == [
                (name, list(kf.items())) for name, kf in fresh
            ], label
        assert pushes >= 10 and pops >= 5
        assert sat.choices.hits > 0 and sat.choices.misses > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_flat_adjacency_and_topo_order_stay_exact(self, seed):
        rng = random.Random(700 + seed)
        ddg = layered_random_ddg(nodes=18 + seed, layers=4, seed=seed)
        analysis = IncrementalAnalysis(ddg.copy())
        iid = analysis.op_id
        pool = _serial_arc_pool(ddg, rng)
        analysis.row(0)  # builds the adjacency and the shared order

        for step in range(30):
            label = f"seed {seed} step {step}"
            if rng.random() < 0.3 and analysis.depth:
                analysis.pop()
            else:
                analysis.push([pool[rng.randrange(len(pool))]])
            g = analysis.ddg
            # push/pop patched the adjacency in place: no rebuild was due.
            assert analysis._adj_version == g.version, label
            rebuilt = [[] for _ in range(analysis.interner.size)]
            for e in g.edges():
                rebuilt[iid(e.src)].append((iid(e.dst), e.latency))
            assert [sorted(p) for p in analysis._adj_pairs()] == [
                sorted(p) for p in rebuilt
            ], label
            order = analysis._topo_order_ids()
            assert sorted(order) == list(range(analysis.interner.size)), label
            pos = {nid: i for i, nid in enumerate(order)}
            for e in g.edges():
                assert pos[iid(e.src)] < pos[iid(e.dst)], f"{label}: {e}"


class TestCandidatePatchSurgery:
    """A patch keeps the killed mirror's adjacency and order in place, exactly.

    Only the longest-path engine keeps a killed mirror, so the graphs are
    retargeted to a VLIW whose ops read and write at offset 1: that selects
    the engine and leaves the reduction's path as with zero offsets.
    """

    @staticmethod
    def _check(analysis: IncrementalAnalysis, seen) -> None:
        g = analysis.ddg
        iid = analysis.op_id
        n = analysis.interner.size
        assert analysis._adj_version == g.version
        rebuilt = [[] for _ in range(n)]
        for e in g.edges():
            rebuilt[iid(e.src)].append((iid(e.dst), e.latency))
        assert [sorted(p) for p in analysis._adj] == [sorted(p) for p in rebuilt]
        if analysis._topo_version == g.version:
            seen["fresh_orders"] += 1
            order = analysis._topo_ids
            assert sorted(order) == list(range(n))
            pos = {nid: i for i, nid in enumerate(order)}
            for e in g.edges():
                assert pos[iid(e.src)] < pos[iid(e.dst)], e

    @pytest.mark.parametrize(
        "ddg, budget",
        [
            (retarget(random_superblock(operations=60, seed=3), _OFFSET_1), 6),
            (retarget(layered_random_ddg(nodes=20, layers=4, seed=7), _OFFSET_1), 3),
            (retarget(layered_random_ddg(nodes=24, layers=5, seed=11), _OFFSET_1), 3),
        ],
        ids=["sb60-s3", "layered20-s7", "layered24-s11"],
    )
    def test_adjacency_and_order_after_every_patch(self, monkeypatch, ddg, budget):
        seen = {"patches": 0, "fresh_orders": 0, "adj_rebuilds": 0}
        inside = []
        adj_pairs = IncrementalAnalysis._adj_pairs
        patch = _CandidateDVState.patch

        def counting_adj_pairs(analysis):
            # A built adjacency gone stale would be rebuilt from the graph.
            if inside and analysis._adj_version not in (-1, analysis.ddg.version):
                seen["adj_rebuilds"] += 1
            return adj_pairs(analysis)

        def checked_patch(state, bottom_ddg, kf, pk):
            inside.append(state)
            try:
                patched = patch(state, bottom_ddg, kf, pk)
            finally:
                inside.pop()
            if patched and not state.cyclic:
                seen["patches"] += 1
                self._check(state.analysis, seen)
            return patched

        monkeypatch.setattr(IncrementalAnalysis, "_adj_pairs", counting_adj_pairs)
        monkeypatch.setattr(_CandidateDVState, "patch", checked_patch)
        driver = _SessionDriver(ddg.copy(), INT, SerializationMode.OFFSETS, True)
        _HeuristicLoop(driver, 500).run_to(driver.saturation(), budget)
        assert seen["patches"] > 0 and seen["fresh_orders"] > 0
        # The slot surgery maintained the adjacency instead of dropping it.
        assert seen["adj_rebuilds"] == 0


def _random_dag_ddg(rng: random.Random, n: int) -> DDG:
    """A random DAG whose insertion order is not topological.

    Arcs follow a hidden permutation; a pair may carry both a flow and a
    serial arc with different latencies (serial latencies may be negative),
    so the longest path must take the larger parallel arc.
    """

    ddg = DDG(f"random-dag-n{n}")
    for i in range(n):
        ddg.add_operation(f"v{i}", defs=frozenset({INT}), latency=rng.randint(1, 4))
    perm = list(range(n))
    rng.shuffle(perm)
    p = min(0.5, 4.0 / n)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                src, dst = f"v{perm[a]}", f"v{perm[b]}"
                ddg.add_flow_edge(src, dst, INT, latency=rng.randint(0, 5))
                if rng.random() < 0.2:
                    ddg.add_serial_edge(src, dst, latency=rng.randint(-2, 6))
    return ddg


class TestRowSeeding:
    @pytest.mark.parametrize("n", [7, 40, 64, 150])
    def test_row_matches_longest_path_definition(self, n):
        rng = random.Random(9000 + n)
        analysis = IncrementalAnalysis(_random_dag_ddg(rng, n))
        for k in (1, 2, 3, 8):
            sources = rng.sample(range(n), min(k, n))
            for sid in sources:
                assert analysis.row(sid) == _definition_row(analysis, sid), (
                    f"n={n} k={k} src={sid}"
                )
        # Warm rows are served from the cache, not recomputed.
        sid = sources[0]
        assert analysis.row(sid) is analysis.row(sid)


def _push_one(session, sat):
    for u in sat.saturating_values:
        for v in sat.saturating_values:
            if u == v:
                continue
            edges = session.legal_serialization(u, v)
            if edges:
                session.push(edges)
                return True
    return False


class TestSessionResetTraces:
    @pytest.mark.parametrize("seed", range(4))
    def test_reset_to_depth_restores_recorded_and_fresh_state(self, seed):
        ddg = layered_random_ddg(nodes=15 + seed, layers=4, seed=30 + seed)
        session = ReductionSession(ddg.copy(), INT)
        trace = [session.analysis_fingerprint()]
        for _ in range(3):
            if not _push_one(session, session.saturation()):
                break
            fingerprint = session.analysis_fingerprint()
            # The warm state equals a cold session over the same graph.
            cold = ReductionSession(session.ddg.copy(), INT, prune_redundant=False)
            assert fingerprint == cold.analysis_fingerprint(), session.depth
            trace.append(fingerprint)
        assert session.depth >= 1, "population must admit a serialization"

        session.reset_to_depth(session.depth - 1)
        assert session.analysis_fingerprint() == trace[session.depth]
        session.reset_to_depth(0)
        assert session.analysis_fingerprint() == trace[0]


_STATS_KERNELS = ["linpack-daxpy-u4", "whetstone-m6", "dsp-fft-bfly2"]


class TestEngineStats:
    @pytest.mark.parametrize("name", _STATS_KERNELS)
    def test_component_reuse_surfaces_without_kernel_counters(self, name):
        entry = {e.name: e for e in kernel_suite()}[name]
        ddg, rtype = entry.ddg, entry.ddg.register_types()[0]
        budget = greedy_saturation(ddg.copy(), rtype).rs - 2
        result = reduce_saturation_heuristic(ddg.copy(), rtype, budget, engine="incremental")
        stats = result.details["engine_stats"]
        assert stats["components_reused"] > 0
        assert stats["killing_set_hits"] > 0
        assert stats["killing_set_misses"] > 0
        assert {"greedy_decompose", "killing_functions"} <= set(stats["stage_timings"])
        removed = {
            "vector_backend",
            "vector_kernel_calls",
            "row_block_patches",
            "mirror_bulk_seeds",
            "shm_attaches",
            "shm_fallbacks",
        }
        assert removed.isdisjoint(stats)
