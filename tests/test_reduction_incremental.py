"""Property tests pinning the incremental reduction engine to the from-scratch loop.

The :class:`~repro.reduction.session.ReductionSession` exists purely for
speed: it mutates one working DDG in place and patches analyses in the
dirty region instead of recomputing them.  Nothing it reports may differ
from the historic copy-per-iteration loop.  These tests enforce that over
random DAG populations and the paper kernels, plus the undo contract: a
popped serialization must restore the *exact* prior analysis state.
"""

from __future__ import annotations

import pytest

from repro.analysis import graphalgo
from repro.analysis.context import context_for
from repro.codes.generator import (
    layered_random_ddg,
    random_expression_forest,
    random_loop_body,
    random_superblock,
)
from repro.codes.kernels import figure2_dag
from repro.codes.suite import kernel_suite
from repro.core.graph import Edge
from repro.core.machine import retarget, vliw
from repro.core.types import INT, DependenceKind, Value
from repro.errors import CyclicGraphError
from repro.reduction import (
    ReductionSession,
    reduce_saturation_heuristic,
    reduce_saturation_multi_budget,
)
from repro.saturation import greedy_saturation
from repro.saturation.incremental import (
    IncrementalAnalysis,
    IncrementalSaturation,
    _CandidateDVState,
    _ReachDVState,
)


def _normalize(result):
    """Everything a ReductionResult reports except wall time and engine tags."""

    details = {
        k: v for k, v in result.details.items() if k not in ("engine", "engine_stats")
    }
    return (
        result.rtype,
        result.target,
        result.success,
        result.original_rs,
        result.achieved_rs,
        result.added_edges,
        result.critical_path_before,
        result.critical_path_after,
        result.method,
        result.optimal,
        details,
        result.extended_ddg.name,
        sorted(
            (e.src, e.dst, e.latency, e.kind.value, e.rtype)
            for e in result.extended_ddg.edges()
        ),
    )


def _edge_keys(graph):
    return sorted((e.src, e.dst, e.latency, e.kind.value, e.rtype) for e in graph.edges())


def _both_engines(ddg, rtype, budget, **kwargs):
    scratch = reduce_saturation_heuristic(
        ddg.copy(), rtype, budget, engine="from-scratch", **kwargs
    )
    incremental = reduce_saturation_heuristic(
        ddg.copy(), rtype, budget, engine="incremental", **kwargs
    )
    return scratch, incremental


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_layered_random_dags(self, seed):
        ddg = layered_random_ddg(
            nodes=14 + seed, layers=3 + seed % 3,
            edge_probability=0.3 + 0.02 * seed, seed=seed,
        )
        for budget in (2, 4):
            scratch, incremental = _both_engines(ddg, INT, budget)
            assert _normalize(scratch) == _normalize(incremental)

    @pytest.mark.parametrize("seed", range(6))
    def test_loop_bodies_all_register_types(self, seed):
        ddg = random_loop_body(operations=15 + seed, ilp_degree=2 + seed % 3, seed=seed)
        for rtype in ddg.register_types():
            scratch, incremental = _both_engines(ddg, rtype, 3)
            assert _normalize(scratch) == _normalize(incremental)

    @pytest.mark.parametrize("seed", range(4))
    def test_expression_forests(self, seed):
        ddg = random_expression_forest(trees=2 + seed % 3, depth=2 + seed % 2, seed=seed)
        rtype = ddg.register_types()[0]
        scratch, incremental = _both_engines(ddg, rtype, 2)
        assert _normalize(scratch) == _normalize(incremental)

    def test_superblock_tier(self):
        ddg = random_superblock(operations=60, seed=3)
        scratch, incremental = _both_engines(ddg, INT, 6)
        assert _normalize(scratch) == _normalize(incremental)
        assert incremental.details["engine"] == "incremental"
        assert scratch.details["engine"] == "from-scratch"

    def test_all_kernels(self):
        for entry in kernel_suite():
            for rtype in entry.ddg.register_types():
                scratch, incremental = _both_engines(entry.ddg, rtype, 3)
                assert _normalize(scratch) == _normalize(incremental), entry.name

    def test_sequential_mode(self):
        ddg = figure2_dag()
        scratch, incremental = _both_engines(ddg, INT, 3, mode="sequential")
        assert _normalize(scratch) == _normalize(incremental)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            reduce_saturation_heuristic(figure2_dag(), INT, 3, engine="magic")


class TestMultiBudgetWarmStart:
    """One warm session across a descending budget ladder == standalone runs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_per_budget_results_identical_to_standalone(self, seed):
        ddg = layered_random_ddg(nodes=16 + seed, layers=4, seed=seed)
        budgets = (2, 3, 5)
        for engine in ("incremental", "from-scratch"):
            multi = reduce_saturation_multi_budget(
                ddg.copy(), INT, budgets, engine=engine
            )
            assert sorted(multi) == sorted(budgets)
            for budget in budgets:
                solo = reduce_saturation_heuristic(
                    ddg.copy(), INT, budget, engine=engine
                )
                assert _normalize(multi[budget]) == _normalize(solo), (engine, budget)

    def test_superblock_budget_ladder(self):
        ddg = random_superblock(operations=60, seed=3)
        multi = reduce_saturation_multi_budget(ddg.copy(), INT, (4, 6, 8))
        for budget in (4, 6, 8):
            solo = reduce_saturation_heuristic(ddg.copy(), INT, budget)
            assert _normalize(multi[budget]) == _normalize(solo), budget
        # The smaller the budget, the longer its serialization prefix.
        assert len(multi[8].added_edges) <= len(multi[6].added_edges)
        assert len(multi[6].added_edges) <= len(multi[4].added_edges)
        # ... and the larger budget's arcs are literally a prefix.
        assert multi[4].added_edges[: len(multi[8].added_edges)] == multi[8].added_edges

    def test_trivial_and_empty_budgets(self):
        ddg = figure2_dag()
        rs = greedy_saturation(ddg, INT).rs
        multi = reduce_saturation_multi_budget(ddg, INT, (rs + 2,))
        assert multi[rs + 2].success
        assert multi[rs + 2].added_edges == ()
        assert reduce_saturation_multi_budget(ddg, INT, ()) == {}
        with pytest.raises(ValueError):
            reduce_saturation_multi_budget(ddg, INT, (0, 3))


class TestResetToDepth:
    def test_reset_rewinds_to_exact_prefix_state(self):
        ddg = layered_random_ddg(nodes=18, layers=4, seed=4)
        session = ReductionSession(ddg, INT)
        fingerprints = [session.analysis_fingerprint()]
        for _ in range(3):
            sat = session.saturation()
            if not _push_one(session, sat):
                break
            fingerprints.append(session.analysis_fingerprint())
        assert session.depth >= 2, "population must admit two serializations"
        session.reset_to_depth(1)
        assert session.depth == 1
        assert session.analysis_fingerprint() == fingerprints[1]
        session.reset_to_depth(0)
        assert session.depth == 0
        assert session.analysis_fingerprint() == fingerprints[0]

    def _reset_drops_states_retargeted_mid_stack(self, ddg, engine):
        """States patched/rebuilt mid-stack are dropped on rewind, then rebuilt.

        A push whose serialization changes killing functions makes the next
        saturation re-target candidate DV states *above* depth 0 (patch or
        rebuild, either way the pushed arcs are baked into the new
        baseline).  ``reset_to_depth`` must discard exactly those states,
        restore the value-level analysis state bit-for-bit, and the
        following saturation must equal a cold run on the restored graph.
        """

        session = ReductionSession(ddg, INT, prune_redundant=False)
        fingerprint0 = session.analysis_fingerprint()
        sat = session.saturation()
        pushes = 0
        while pushes < 3:
            if not _push_one(session, sat):
                break
            pushes += 1
            sat = session.saturation()  # may re-target states mid-stack
        if pushes < 2:
            pytest.skip("population admits too few serializations")
        saturation = session._saturation
        for label, state in saturation._candidate_states.items():
            assert type(state) is engine, label
        mid_stack = {
            label
            for label, state in saturation._candidate_states.items()
            if len(state._frames) < session.depth
        }
        session.reset_to_depth(0)
        assert session.depth == 0
        # Re-targeted states cannot replay frames below their new baseline;
        # they must be gone before the next saturation recreates them.
        for label in mid_stack:
            assert label not in saturation._candidate_states, label
        assert session.analysis_fingerprint() == fingerprint0
        sat_back = session.saturation()
        cold = greedy_saturation(session.ddg.copy(), INT)
        assert sat_back.rs == cold.rs
        assert sat_back.saturating_values == cold.saturating_values
        assert sat_back.killing_function == cold.killing_function

    @pytest.mark.parametrize("seed", range(8))
    def test_reset_with_states_retargeted_mid_stack(self, seed):
        # Offset 1 everywhere selects the longest-path engine and keeps the
        # reduction's path as with zero offsets.
        ddg = retarget(layered_random_ddg(nodes=18 + seed, layers=4, seed=70 + seed),
                       vliw(read_offset=1))
        self._reset_drops_states_retargeted_mid_stack(ddg, _CandidateDVState)

    @pytest.mark.parametrize("seed", range(8))
    def test_reset_with_reach_states_retargeted_mid_stack(self, seed):
        ddg = layered_random_ddg(nodes=18 + seed, layers=4, seed=70 + seed)
        self._reset_drops_states_retargeted_mid_stack(ddg, _ReachDVState)

    def test_reset_to_current_depth_is_noop(self):
        session = ReductionSession(figure2_dag(), INT)
        session.reset_to_depth(0)
        assert session.depth == 0

    def test_reset_beyond_depth_raises(self):
        session = ReductionSession(figure2_dag(), INT)
        with pytest.raises(IndexError):
            session.reset_to_depth(1)
        with pytest.raises(IndexError):
            session.reset_to_depth(-1)


class TestCandidateStatePersistence:
    """Candidate DV states survive pop via their undo frames (no rebuild storm)."""

    def test_pop_reuses_states_when_killing_functions_survive(self):
        """A push leaving every killing function intact must not cost rebuilds.

        A dominated duplicate of an existing arc is a no-op push: the graph,
        the potential killers and every candidate killing function are
        unchanged, so both the post-push and the post-pop saturation must
        run entirely on reused (frame-replayed) DV states.  A push that
        *does* change killing functions rebuilds states mid-stack, and those
        are correctly discarded on pop instead (see
        ``test_push_pop_push_matches_cold_runs``).
        """

        from repro.core.graph import Edge
        from repro.core.types import DependenceKind

        ddg = layered_random_ddg(nodes=20, layers=4, seed=6)
        session = ReductionSession(ddg, INT)
        sat = session.saturation()
        existing = next(e for e in session.ddg.edges() if e.latency >= 0)
        noop = Edge(existing.src, existing.dst, 0, DependenceKind.SERIAL, None)
        session.push([noop])
        session.saturation()
        rebuilds_before_pop = session.saturation_stats["dv_rebuilds"]
        assert session.saturation_stats["dv_reuses"] > 0
        session.pop()
        sat_after = session.saturation()
        assert sat_after.rs == sat.rs
        assert tuple(sat_after.saturating_values) == tuple(sat.saturating_values)
        stats = session.saturation_stats
        assert stats["dv_rebuilds"] == rebuilds_before_pop

    @pytest.mark.parametrize("seed", range(4))
    def test_push_pop_push_matches_cold_runs(self, seed):
        ddg = layered_random_ddg(nodes=17 + seed, layers=4, seed=30 + seed)
        session = ReductionSession(ddg, INT, prune_redundant=False)
        for _ in range(2):
            sat = session.saturation()
            cold = greedy_saturation(session.ddg.copy(), INT)
            assert sat.rs == cold.rs
            assert sat.saturating_values == cold.saturating_values
            if not _push_one(session, sat):
                break
            session.pop()
            # Warm state after the undo must equal a cold run on the graph...
            sat_back = session.saturation()
            cold_back = greedy_saturation(session.ddg.copy(), INT)
            assert sat_back.rs == cold_back.rs
            assert sat_back.saturating_values == cold_back.saturating_values
            assert sat_back.killing_function == cold_back.killing_function
            # ... and pushing again continues from the replayed frames.
            if not _push_one(session, sat_back):
                break


class TestSessionSaturation:
    """The session's warm Greedy-k must equal a cold run on an equal graph."""

    @pytest.mark.parametrize("seed", range(6))
    def test_saturation_matches_after_pushes(self, seed):
        ddg = layered_random_ddg(nodes=16 + seed, layers=4, seed=seed)
        session = ReductionSession(ddg, INT, prune_redundant=False)
        for _ in range(3):
            sat = session.saturation()
            cold = greedy_saturation(session.ddg.copy(), INT)
            assert sat.rs == cold.rs
            assert sat.saturating_values == cold.saturating_values
            assert sat.killing_function == cold.killing_function
            pushed = _push_one(session, sat)
            if not pushed:
                break

    def test_proto_edge_cache_survives_pushes(self):
        ddg = layered_random_ddg(nodes=18, layers=4, seed=2)
        session = ReductionSession(ddg, INT)
        sat = session.saturation()
        values = list(sat.saturating_values)
        if len(values) >= 2:
            u, v = values[0], values[1]
            first = session.legal_serialization(u, v)
            if first:
                session.push(first)
                # The static skeleton is cached; the filter re-applies.
                again = session.legal_serialization(u, v)
                assert again == []


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


class TestUndoSafety:
    @pytest.mark.parametrize("seed", range(5))
    def test_pop_restores_exact_analysis_state(self, seed):
        ddg = layered_random_ddg(nodes=15 + seed, layers=4, seed=seed)
        session = ReductionSession(ddg, INT)
        fingerprints = [session.analysis_fingerprint()]
        pushes = 0
        for _ in range(3):
            sat = session.saturation()
            if not _push_one(session, sat):
                break
            pushes += 1
            fingerprints.append(session.analysis_fingerprint())
            assert session.critical_path() == graphalgo.critical_path_length(session.ddg)
        assert pushes >= 1, "population must admit at least one serialization"
        for expected in reversed(fingerprints[:-1]):
            session.pop()
            assert session.analysis_fingerprint() == expected
            assert session.critical_path() == graphalgo.critical_path_length(session.ddg)

    def test_pop_restores_version_and_graph(self):
        ddg = figure2_dag()
        session = ReductionSession(ddg, INT)
        edges_before = sorted(
            (e.src, e.dst, e.latency, e.kind.value) for e in session.ddg.edges()
        )
        sat = session.saturation()
        assert _push_one(session, sat)
        session.pop()
        edges_after = sorted(
            (e.src, e.dst, e.latency, e.kind.value) for e in session.ddg.edges()
        )
        assert edges_before == edges_after

    def test_back_arc_push_raises_before_mutation(self):
        session = ReductionSession(figure2_dag(), INT)
        assert _push_one(session, session.saturation())
        g = session.ddg
        edges = sorted((e.src, e.dst, e.latency, e.kind.value) for e in g.edges())
        version = g.version
        src, dst = edges[0][:2]
        with pytest.raises(CyclicGraphError):
            session.push([Edge(dst, src, 1, DependenceKind.SERIAL, None)])
        assert session.depth == 1
        assert g.version == version
        assert sorted((e.src, e.dst, e.latency, e.kind.value) for e in g.edges()) == edges

    def test_saturation_push_raises_on_a_cycle_before_mutation(self):
        """A cycle-closing push used to relax ASAP times around the cycle
        forever; it now raises before the graphs or the frames change."""

        ddg = layered_random_ddg(nodes=16, layers=4, seed=0)
        sat = IncrementalSaturation(ddg.copy(), INT)
        before = sat.saturation()
        g, mirror = sat.working_ddg, sat.mirror_ddg
        assert "n1" in context_for(g).descendants_map(include_self=False)["n0"]
        edges, mirror_edges = _edge_keys(g), _edge_keys(mirror)
        versions = (g.version, mirror.version)
        with pytest.raises(CyclicGraphError):
            sat.push([Edge("n1", "n0", 0, DependenceKind.SERIAL, None)])
        assert (g.version, mirror.version) == versions
        assert (_edge_keys(g), _edge_keys(mirror)) == (edges, mirror_edges)
        assert not sat._frames
        # A legal push and its pop still round-trip afterwards.
        topo = context_for(ddg).topological_order()
        sat.push([Edge(topo[0], topo[-1], 1, DependenceKind.SERIAL, None)])
        assert _edge_keys(g) != edges
        sat.saturation()
        sat.pop()
        assert (_edge_keys(g), _edge_keys(mirror)) == (edges, mirror_edges)
        after = sat.saturation()
        assert (after.rs, after.saturating_values, after.killing_function) == (
            before.rs, before.saturating_values, before.killing_function
        )

    def test_pop_on_empty_session_raises(self):
        session = ReductionSession(figure2_dag(), INT)
        with pytest.raises(IndexError):
            session.pop()

    def test_latency_upgrade_is_undone(self):
        """Replacing a weaker duplicate serial arc must be reversible."""

        ddg = figure2_dag()
        session = ReductionSession(ddg, INT, prune_redundant=False)
        g = session.ddg
        nodes = g.nodes()
        src, dst = nodes[0], None
        desc = context_for(g).descendants_map(include_self=False)
        for cand in nodes[1:]:
            if cand in desc[src]:
                dst = cand
                break
        assert dst is not None
        g.add_serial_edge(src, dst, latency=0)
        before = session.analysis_fingerprint()
        from repro.core.graph import Edge
        from repro.core.types import DependenceKind

        session.push([Edge(src, dst, 5, DependenceKind.SERIAL, None)])
        assert g.best_latency_between(src, dst) >= 5
        session.pop()
        assert session.analysis_fingerprint() == before


class TestIncrementalAnalysisExactness:
    """The patched analyses must equal from-scratch recomputation."""

    @pytest.mark.parametrize("seed", range(6))
    def test_descendants_and_lp_rows_after_pushes(self, seed):
        from repro.analysis import graphalgo
        from repro.core.graph import Edge
        from repro.core.types import DependenceKind

        ddg = layered_random_ddg(nodes=14 + seed, layers=4, seed=seed)
        analysis = IncrementalAnalysis(ddg)
        # Warm a few rows before mutating.
        nodes = ddg.nodes()
        for node in nodes[:5]:
            analysis.lp_row(node)
        desc = context_for(ddg).descendants_map(include_self=False)
        candidates = [
            (u, v)
            for u in nodes
            for v in nodes
            if u != v and u not in desc[v] and v not in desc[u]
        ]
        pushed = 0
        for u, v in candidates[:3]:
            edge = Edge(u, v, 1 + pushed, DependenceKind.SERIAL, None)
            if not analysis.remains_acyclic_with_edges([edge]):
                continue
            analysis.push([edge])
            pushed += 1
            fresh_desc = graphalgo.descendants_map(ddg, include_self=True)
            assert analysis.descendants_incl() == fresh_desc
            for node in nodes[:5]:
                assert analysis.lp_row(node) == graphalgo.longest_paths_from(ddg, node)
        assert pushed >= 1

    def test_pop_after_evict_and_reseed_restores_rows(self):
        ddg = layered_random_ddg(nodes=14, layers=3, seed=7)
        analysis = IncrementalAnalysis(ddg)
        nodes = ddg.nodes()
        before = {node: analysis.lp_row(node) for node in nodes[:4]}
        desc = context_for(ddg).descendants_map(include_self=False)
        u, v = next(
            (u, v)
            for u in nodes
            for v in nodes
            if u != v and u not in desc[v] and v not in desc[u]
        )
        analysis.push([Edge(u, v, 3, DependenceKind.SERIAL, None)])
        for node in before:
            analysis.evict_row_id(analysis.op_id(node))
            analysis.lp_row(node)  # re-seeded inside the pushed epoch
        assert any(analysis.lp_row(node) != row for node, row in before.items())
        analysis.pop()
        for node, row in before.items():
            assert analysis.lp_row(node) == row == graphalgo.longest_paths_from(ddg, node)

    def test_injected_context_analyses_match(self):
        ddg = layered_random_ddg(nodes=16, layers=4, seed=9)
        session = ReductionSession(ddg, INT)
        sat = session.saturation()
        assert _push_one(session, sat)
        from repro.analysis import graphalgo

        g = session.ddg
        ctx = context_for(g)
        assert ctx.descendants_map(include_self=True) == graphalgo.descendants_map(
            g, include_self=True
        )
        assert ctx.descendants_map(include_self=False) == graphalgo.descendants_map(
            g, include_self=False
        )
        mirror = session._saturation.mirror_ddg
        for graph in (g, mirror):
            assert context_for(graph).asap_times() == graphalgo.asap_times(graph.copy())

    def test_asap_computed_once_per_tracked_analysis(self, monkeypatch):
        """Warm iterations read ASAP off the analyses, never a fresh sort."""

        session = ReductionSession(random_superblock(operations=60, seed=3), INT)
        mirror = session._saturation.mirror_ddg
        computed = []
        real = graphalgo.asap_times

        def counted(ddg):
            computed.append(ddg)
            return real(ddg)

        monkeypatch.setattr(graphalgo, "asap_times", counted)
        sat = session.saturation()
        for _ in range(10):
            best = session.scan(sat.saturating_values, session.critical_path())
            assert best is not None
            session.apply_payload(best[1])
            sat = session.saturation()
        # At most one sort, of the bottom mirror: the session reads the
        # working graph's ASAP times off the mirror's warm analysis.
        assert all(g is mirror for g in computed)
        assert len(computed) <= 1
