"""Property tests for the incremental Greedy-k candidate engine (PR 5).

Two warm paths replaced from-scratch recomputation inside the reduction
loop's candidate machinery, and each must be byte-identical to the cold
path it replaced:

* ``_CandidateDVState.patch`` re-targets a warm killed-graph mirror onto a
  changed killing function by rewriting only the killing-arc slots that
  moved, then replays the deferred pushes -- the patched killed graph, DV
  rows and extracted antichain must equal a full :meth:`rebuild`'s;
* the session's pair-verdict worklist re-uses ``consider`` verdicts for
  pairs untouched by the applied serialization -- every (possibly cached)
  verdict must equal a cold session's on the same graph.

The pair scan stops at the first pair that no later pair can beat, and
must return the winner of a full per-pair scan.

Greedy-k itself evaluates each distinct candidate killing function once:
a repeated one cannot change the result, which must equal a reference loop
that evaluates every candidate.  A lifetime-stretching list schedule is no
candidate of its own, because under unlimited resources every priority
yields the ASAP schedule.

The tests drive the real heuristic loop (via ``_SessionDriver`` /
``_HeuristicLoop``) so the exercised kf deltas are the ones production
takes, and they assert the warm paths actually fired (a silently dead patch
path would pass any equality check).
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.analysis.context import context_for
from repro.codes.generator import layered_random_ddg, random_superblock
from repro.core.machine import retarget, vliw
from repro.core.schedule import asap_schedule, list_schedule_priority
from repro.core.types import INT
from repro.reduction import ReductionSession, reduce_saturation_heuristic
from repro.reduction.heuristic import _HeuristicLoop, _SessionDriver
from repro.reduction.serialization import SerializationMode
from repro.saturation.dvk import saturating_antichain
from repro.saturation.greedy import greedy_killing_function, greedy_saturation
from repro.saturation.incremental import _CandidateDVState
from repro.saturation.pkill import (
    KillingFunction,
    canonical_killing_function,
    killed_graph,
    killing_function_from_schedule,
)


def _edge_key(graph):
    return sorted(
        (e.src, e.dst, e.latency, e.kind.value, None if e.rtype is None else e.rtype.name)
        for e in graph.edges()
    )


def _drive_loop(ddg, rtype, budget, on_iteration=None, max_iterations=500):
    driver = _SessionDriver(ddg.copy(), rtype, SerializationMode.OFFSETS, True)
    loop = _HeuristicLoop(driver, max_iterations)
    loop.on_iteration = on_iteration
    initial = driver.saturation()
    if on_iteration is not None:
        on_iteration(initial)
    loop.run_to(initial, budget)
    return driver


class TestCandidatePatchEqualsRebuild:
    """A patched DV state must be indistinguishable from a rebuilt one."""

    def _check_states(self, session):
        saturation = session._saturation
        pk = saturation._pk
        for label, state in saturation._candidate_states.items():
            if not state.valid or state.kf_mapping is None:
                continue
            # A state skipped as a repeated candidate still queues the
            # session's pushes; mirror them before comparing.
            state.ensure_synced()
            kf = KillingFunction(session.rtype, state.kf_mapping)
            if state.cyclic:
                # The cached invalidity verdict must agree with a cold build.
                killed = killed_graph(saturation.mirror_ddg, kf, pk=pk)
                assert not context_for(killed).is_acyclic(), label
                continue
            reference = _CandidateDVState(
                saturation._values, saturation._node_index, saturation._delta_w
            )
            reference.rebuild(saturation.mirror_ddg, kf, pk)
            assert not reference.cyclic, label
            assert _edge_key(state.analysis.ddg) == _edge_key(reference.analysis.ddg), (
                f"patched killed graph diverges from rebuild on {label!r}"
            )
            assert state.dv_rows() == reference.dv_rows(), (
                f"patched DV rows diverge from rebuild on {label!r}"
            )
            assert state.antichain() == reference.antichain() == (
                state.antichain_from_scratch()
            ), f"patched antichain diverges on {label!r}"

    @pytest.mark.parametrize("seed", range(5))
    def test_patched_states_equal_rebuilt_states(self, seed):
        ddg = layered_random_ddg(nodes=18 + seed, layers=4, seed=40 + seed)
        checked = {"iters": 0}

        def probe(_sat):
            checked["iters"] += 1

        driver = _drive_loop(ddg, INT, 2, on_iteration=probe)
        self._check_states(driver.session)
        assert checked["iters"] >= 1

    def test_superblock_patches_fire_and_match(self):
        ddg = random_superblock(operations=60, seed=3)
        driver = _drive_loop(ddg, INT, 6)
        session = driver.session
        self._check_states(session)
        stats = session.saturation_stats
        # The warm paths must actually have been taken on a reduction-heavy
        # instance -- equality over a dead patch path proves nothing.
        assert stats["dv_patches"] > 0
        assert stats["dv_reuses"] > 0
        assert session.stats["pair_verdicts_reused"] > 0
        # A changed killing function is re-targeted before the deferred
        # pushes are replayed, so only the two cold candidates are built
        # from scratch.  Replaying first made the old function cyclic, and
        # forced a rebuild, 9 more times on this run.
        assert stats["dv_rebuilds"] == 2

    def test_patch_after_explicit_push_matches_rebuild(self):
        """Patching across session pushes (synced killed mirrors) stays exact."""

        ddg = layered_random_ddg(nodes=20, layers=4, seed=7)
        session = ReductionSession(ddg, INT)
        sat = session.saturation()
        pushed = False
        for u in sat.saturating_values:
            for v in sat.saturating_values:
                if u != v:
                    edges = session.legal_serialization(u, v)
                    if edges:
                        session.push(edges)
                        pushed = True
                        break
            if pushed:
                break
        assert pushed
        session.saturation()
        self._check_states(session)


class TestPairVerdictWorklist:
    """Cached `consider` verdicts must equal a cold session's verdicts."""

    @pytest.mark.parametrize("seed", range(4))
    def test_verdicts_match_cold_session(self, seed):
        ddg = layered_random_ddg(nodes=17 + seed, layers=4, seed=50 + seed)
        driver = _SessionDriver(ddg.copy(), INT, SerializationMode.OFFSETS, True)
        session = driver.session
        loop = _HeuristicLoop(driver, 500)
        current = driver.saturation()

        def compare_all_pairs(sat):
            cold = ReductionSession(session.ddg.copy(), INT, prune_redundant=False)
            base_cp = session.critical_path()
            assert cold.critical_path() == base_cp
            values = list(sat.saturating_values)
            for u in values:
                for v in values:
                    if u == v:
                        continue
                    warm = session.consider(u, v, base_cp)
                    fresh = cold.consider(u, v, base_cp)
                    if warm is session.IMPLIED or fresh is cold.IMPLIED:
                        assert warm is session.IMPLIED and fresh is cold.IMPLIED, (u, v)
                    else:
                        assert warm == fresh, (u, v)

        compare_all_pairs(current)
        for _ in range(4):
            before = loop.iterations
            current = loop.run_to(current, max(1, current.rs - 1))
            if loop.iterations == before or loop.stuck:
                break
            compare_all_pairs(current)
        assert session.stats["pair_verdicts_reused"] > 0

    def test_verdict_cache_restored_by_pop(self):
        ddg = layered_random_ddg(nodes=18, layers=4, seed=12)
        session = ReductionSession(ddg, INT)
        sat = session.saturation()
        base_cp = session.critical_path()
        values = list(sat.saturating_values)
        applied = None
        for u in values:
            for v in values:
                if u == v:
                    continue
                verdict = session.consider(u, v, base_cp)
                if verdict is not session.IMPLIED and verdict is not None:
                    applied = verdict
                    break
            if applied is not None:
                break
        if applied is None:
            pytest.skip("graph admits no applicable serialization")
        snapshot = dict(session._pair_verdicts)
        session.apply_payload(applied[2])
        session.pop()
        assert session._pair_verdicts == snapshot


#: A VLIW whose unit classes read at different offsets, so killers tied on
#: ASAP time can differ in read date.
_CLASSED_VLIW = dataclasses.replace(vliw(), read_offsets={"alu": 0, "fpu": 2, "mem": 1})


def _classed_retarget(ddg, seed):
    rng = random.Random(seed)
    g = ddg.copy()
    for op in list(g.operations()):
        g.replace_operation(dataclasses.replace(op, fu_class=rng.choice(("alu", "fpu", "mem"))))
    return retarget(g, _CLASSED_VLIW)


def _full_scan(session, saturating, base_cp):
    """Reference scan: score every ordered pair, keep the first minimum.

    Returns ``(best, winner_index, implied_flags)``: the winner as
    ``((cp_increase, arc_count), payload)`` (None when no pair applies),
    its position in the pair order, and one IMPLIED flag per pair.
    """

    best, winner, implied = None, None, []
    pairs = [(u, v) for u in saturating for v in saturating if u != v]
    for index, (u, v) in enumerate(pairs):
        verdict = session.consider(u, v, base_cp)
        implied.append(verdict is session.IMPLIED)
        if verdict is session.IMPLIED or verdict is None:
            continue
        cp_increase, arc_count, payload = verdict
        if best is None or (cp_increase, arc_count) < best[0]:
            best, winner = ((cp_increase, arc_count), payload), index
    return best, winner, implied


class TestScanFloor:
    """`scan` stops at the first pair scoring the floor, and loses nothing."""

    def test_scan_returns_the_full_scans_winner(self):
        seen = {"early": 0, "above_floor": 0}

        def checked(session):
            def scan(saturating, base_cp):
                got = session.scan(saturating, base_cp)
                best, winner, implied = _full_scan(session, saturating, base_cp)
                assert got[0] == best
                stop = len(implied) - 1
                if best is not None and best[0] == (0, 1):
                    stop = winner
                    seen["early"] += winner < len(implied) - 1
                elif best is not None:
                    seen["above_floor"] += 1
                # Only the pairs visited before the stop are counted.
                assert got[1] == sum(implied[: stop + 1])
                return got

            return scan

        for seed in range(8):
            base = layered_random_ddg(nodes=16, layers=4, seed=seed)
            # The VLIW retarget serializes with negative-latency arcs.
            for ddg in (base, _classed_retarget(base, seed)):
                driver = _SessionDriver(ddg.copy(), INT, SerializationMode.OFFSETS, True)
                driver.scan = checked(driver.session)
                _HeuristicLoop(driver, 500).run_to(driver.saturation(), 3)
        # Both the early stop and the full walk are exercised.
        assert seen["early"] > 0 and seen["above_floor"] > 0


def _antichain(g, kf):
    killed = killed_graph(g, kf)
    return saturating_antichain(g, kf, killed)[0] if killed.is_acyclic() else None


class TestDistinctCandidates:
    """Greedy-k evaluates each distinct killing function once, losing nothing."""

    def _check(self, ddg, seen, warm=None):
        """Cold Greedy-k, with and without an evaluator hook, and the session's
        *warm* result against a reference loop over every candidate."""

        ddg = ddg.copy()
        g = context_for(ddg).bottom().ddg
        calls = []

        def evaluator(label, kf):
            calls.append((label, kf.mapping))
            return _antichain(g, kf)

        results = [greedy_saturation(ddg, INT, candidate_evaluator=evaluator)]
        results += [greedy_saturation(ddg.copy(), INT)] + ([] if warm is None else [warm])
        candidates = [
            ("greedy-k", greedy_killing_function(g, INT)),
            ("canonical", canonical_killing_function(g, INT)),
            ("asap-induced", killing_function_from_schedule(g, asap_schedule(g), INT)),
        ]
        mappings = [kf.mapping for _label, kf in candidates]
        assert calls == [
            (label, kf.mapping)
            for i, (label, kf) in enumerate(candidates)
            if kf.mapping not in mappings[:i]
        ]
        seen["asap_differs"] += mappings[1] != mappings[2]
        evaluated = [(label, _antichain(g, kf), kf) for label, kf in candidates]
        valid = [c for c in evaluated if c[1] is not None]
        invalid = len(valid) < len(evaluated)
        seen["cyclic"] += invalid
        for result in results:
            if not valid:
                assert result.method == "greedy-k/fallback-asap"
                continue
            label, antichain, kf = max(valid, key=lambda c: len(c[1]))  # the first largest
            assert (result.rs, result.saturating_values, result.killing_function) == (
                len(antichain), tuple(sorted(antichain)), dict(kf.items())
            )
            details = result.details
            assert details["winning_candidate"] == label
            assert details["invalid_candidates_skipped"] == invalid
            assert details["candidates_evaluated"] == len(candidates)

    def test_each_distinct_candidate_once(self):
        seen = {"asap_differs": 0, "cyclic": 0}
        for seed in range(8):
            base = layered_random_ddg(nodes=16, layers=4, seed=seed)
            for ddg in (base, _classed_retarget(base, seed)):
                self._check(ddg, seen)
                driver = _SessionDriver(ddg.copy(), INT, SerializationMode.OFFSETS, True)
                loop = _HeuristicLoop(driver, 500)
                loop.on_iteration = lambda warm: self._check(driver.session.ddg, seen, warm)
                loop.run_to(driver.saturation(), 3)
        # The population reaches both cases the skip has to get right.
        assert seen["asap_differs"] > 0 and seen["cyclic"] > 0


class TestListScheduleIsAsap:
    """Unlimited-resource list scheduling is ASAP whatever the priority."""

    @pytest.mark.parametrize("seed", range(6))
    def test_every_priority_gives_asap(self, seed):
        base = layered_random_ddg(nodes=16 + seed, layers=4, seed=60 + seed)
        on_vliw = _classed_retarget(base, seed)
        # Serializing on the VLIW adds arcs of latency delta_r - delta_w < 0.
        reduced = reduce_saturation_heuristic(on_vliw, INT, 2).extended_ddg
        assert any(e.latency < 0 for e in reduced.edges())
        for g in (base.with_bottom(), on_vliw.with_bottom(), reduced.with_bottom()):
            ctx = context_for(g)
            asap, horizon = ctx.asap_times(), ctx.critical_path_length() + 1

            def keep_alive(node):
                # Producers early, consumers late: a priority meant to
                # stretch lifetimes.  It cannot, so Greedy-k needs no
                # candidate for it.
                consumes = any(e.is_flow and e.rtype == INT for e in g.in_edges(node))
                return (g.operation(node).defines(INT) - consumes) * horizon - asap[node]

            rng = random.Random(seed)
            noise = {node: rng.random() for node in g.nodes()}
            for priority in (keep_alive, lambda node: -keep_alive(node), noise.__getitem__):
                assert list_schedule_priority(g, priority) == asap_schedule(g)


class TestCounterSurfacing:
    """The new engine counters ride in the reduction report details."""

    def test_counters_in_details(self):
        ddg = random_superblock(operations=60, seed=3)
        result = reduce_saturation_heuristic(ddg, INT, 6, engine="incremental")
        stats = result.details["engine_stats"]
        for counter in (
            "dv_rebuilds",
            "dv_reuses",
            "dv_patches",
            "pair_verdicts_reused",
        ):
            assert counter in stats, counter
        timings = stats["stage_timings"]
        for stage in ("pair_scan", "dv_patch", "dv_rebuild"):
            assert stage in timings and timings[stage] >= 0.0
