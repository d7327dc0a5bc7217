"""Property tests for the incremental Greedy-k candidate engine.

Two warm paths replaced from-scratch recomputation inside the reduction
loop's candidate machinery, and each must be byte-identical to the cold
path it replaced:

* a candidate DV state's ``patch`` re-targets it onto a changed killing
  function -- the patched DV rows, cyclic verdict and extracted antichain
  must equal a full ``rebuild``'s.  The longest-path engine
  (``_CandidateDVState``) rewrites only the killing-arc slots of its
  killed-graph mirror that moved, then replays the deferred pushes, and
  its patched killed graph must equal a rebuild's too; it is checked on
  an offset-1 VLIW retarget, its input.  The reachability engine
  (``_ReachDVState``) answers zero-offset inputs, and each of those tests
  has a zero-offset twin on it;
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

The reachability engine is also checked against the longest-path engine
and the cold ``saturating_antichain`` after every step of random push /
pop / killing-function interleavings, and the engine each input selects
is pinned per candidate label.  Its DV rows go into the antichain engine
as closure rows, unclosed, so the same steps check that they are their
own transitive closure.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.analysis.antichain import closure_from_rows
from repro.analysis.context import context_for
from repro.codes import kernel_suite, scale_suite
from repro.codes.generator import layered_random_ddg, random_superblock
from repro.core.graph import Edge
from repro.core.machine import retarget, vliw
from repro.core.schedule import asap_schedule, list_schedule_priority
from repro.core.types import BOTTOM, INT, DependenceKind, Value
from repro.reduction import ReductionSession, reduce_saturation_heuristic
from repro.reduction.heuristic import _HeuristicLoop, _SessionDriver
from repro.reduction.session import scan_floor
from repro.reduction.serialization import SerializationMode
from repro.saturation.dvk import saturating_antichain
from repro.saturation.greedy import (
    _working_saturation,
    greedy_killing_function,
    greedy_saturation,
)
from repro.saturation.incremental import (
    IncrementalSaturation,
    _CandidateDVState,
    _ReachDVState,
)
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


def _on_lp_engine(ddg):
    """*ddg* on a VLIW whose ops all read and write at offset 1.

    Every DV threshold and serialization latency is then 0, as with zero
    offsets, so the reduction takes the same path; the offsets select the
    longest-path engine.
    """

    return retarget(ddg, vliw(read_offset=1))


def _fresh_state(saturation, engine):
    """A cold DV state of *engine* over the session's bottom mirror."""

    if engine is _ReachDVState:
        return _ReachDVState(saturation._values, saturation.mirror)
    return _CandidateDVState(saturation._values, saturation._delta_w)


class TestCandidatePatchEqualsRebuild:
    """A patched DV state must be indistinguishable from a rebuilt one."""

    def _check_states(self, session, engine):
        saturation = session._saturation
        pk = saturation._pk
        for label, state in saturation._candidate_states.items():
            assert type(state) is engine, label
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
            reference = _fresh_state(saturation, engine)
            reference.rebuild(saturation.mirror_ddg, kf, pk)
            assert not reference.cyclic, label
            if engine is _CandidateDVState:
                assert _edge_key(state.analysis.ddg) == _edge_key(reference.analysis.ddg), (
                    f"patched killed graph diverges from rebuild on {label!r}"
                )
            assert state.dv_rows() == reference.dv_rows(), (
                f"patched DV rows diverge from rebuild on {label!r}"
            )
            assert state.antichain() == reference.antichain() == (
                state.antichain_from_scratch()
            ), f"patched antichain diverges on {label!r}"

    def _patched_equal_rebuilt(self, ddg, engine):
        checked = {"iters": 0}

        def probe(_sat):
            checked["iters"] += 1

        driver = _drive_loop(ddg, INT, 2, on_iteration=probe)
        self._check_states(driver.session, engine)
        assert checked["iters"] >= 1

    @pytest.mark.parametrize("seed", range(5))
    def test_patched_states_equal_rebuilt_states(self, seed):
        ddg = layered_random_ddg(nodes=18 + seed, layers=4, seed=40 + seed)
        self._patched_equal_rebuilt(_on_lp_engine(ddg), _CandidateDVState)

    @pytest.mark.parametrize("seed", range(5))
    def test_patched_reach_states_equal_rebuilt_states(self, seed):
        ddg = layered_random_ddg(nodes=18 + seed, layers=4, seed=40 + seed)
        self._patched_equal_rebuilt(ddg, _ReachDVState)

    def _superblock_patches(self, ddg, engine):
        driver = _drive_loop(ddg, INT, 6)
        session = driver.session
        self._check_states(session, engine)
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

    def test_superblock_patches_fire_and_match(self):
        ddg = random_superblock(operations=60, seed=3)
        self._superblock_patches(_on_lp_engine(ddg), _CandidateDVState)

    def test_superblock_reach_patches_fire_and_match(self):
        self._superblock_patches(random_superblock(operations=60, seed=3), _ReachDVState)

    def _patch_after_explicit_push(self, ddg, engine):
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
        self._check_states(session, engine)

    def test_patch_after_explicit_push_matches_rebuild(self):
        """Patching across session pushes (synced killed mirrors) stays exact."""

        ddg = layered_random_ddg(nodes=20, layers=4, seed=7)
        self._patch_after_explicit_push(_on_lp_engine(ddg), _CandidateDVState)

    def test_reach_patch_after_explicit_push_matches_rebuild(self):
        ddg = layered_random_ddg(nodes=20, layers=4, seed=7)
        self._patch_after_explicit_push(ddg, _ReachDVState)


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

        # A scan after a push re-derives stale candidates in place; the
        # push's pop must put back the verdicts they replaced.
        checked = 0
        for _ in range(8):
            best = session.scan(list(sat.saturating_values), session.critical_path())
            if best is None:
                break
            snapshot = dict(session._pair_verdicts)
            session.apply_payload(best[1])
            sat = session.saturation()
            rederived = session.stats["lazy_rederivations"]
            session.scan(list(sat.saturating_values), session.critical_path())
            if session.stats["lazy_rederivations"] > rederived:
                checked += 1
            session.pop()
            assert session._pair_verdicts == snapshot
            # Walk on: re-apply the same winner.
            session.apply_payload(best[1])
            sat = session.saturation()
        assert checked > 0, "no scan re-derived a stale candidate"


#: A VLIW whose unit classes read at different offsets, so killers tied on
#: ASAP time can differ in read date.
_CLASSED_VLIW = dataclasses.replace(vliw(), read_offsets={"alu": 0, "fpu": 2, "mem": 1})


def _classed_retarget(ddg, seed):
    rng = random.Random(seed)
    g = ddg.copy()
    for op in list(g.operations()):
        g.replace_operation(dataclasses.replace(op, fu_class=rng.choice(("alu", "fpu", "mem"))))
    return retarget(g, _CLASSED_VLIW)


def _reference_scan(session, saturating, base_cp, stop_at_floor=True):
    """The exact scan, side-effect free: every pair in order, evaluated
    cold with ``_consider_fresh``, keeping the first strict minimum.

    Returns ``(best, winner_index, pair_count)``: the winner as
    ``((cp_increase, arc_count), payload)`` (None when no pair applies),
    its position in the pair order, and the number of ordered pairs.  With
    *stop_at_floor* the walk ends at the first pair scoring
    :func:`scan_floor`.  The session's counters are put back.
    """

    stats = dict(session.stats)
    cp = session.critical_path()
    floor = scan_floor(cp, base_cp)
    rejections = (session._V_NONE, session._V_IMPLIED)
    pairs = [(u, v) for u in saturating for v in saturating if u != v]
    best, winner = None, None
    for index, (u, v) in enumerate(pairs):
        verdict = session._consider_fresh(u, v)
        if verdict in rejections:
            continue
        _epoch, x, arc_count, payload = verdict
        key = (int(max(cp, x)) - base_cp, arc_count)
        if best is None or key < best[0]:
            best, winner = (key, payload), index
            if stop_at_floor and key == floor:
                break
    session.stats.clear()
    session.stats.update(stats)
    return best, winner, len(pairs)


class TestScanFloor:
    """`scan` stops at the first pair scoring the floor, and loses nothing."""

    def test_scan_returns_the_full_scans_winner(self):
        seen = {"early": 0, "above_floor": 0}

        def checked(session):
            def scan(saturating, base_cp):
                best, winner, pairs = _reference_scan(
                    session, saturating, base_cp, stop_at_floor=False
                )
                got = session.scan(saturating, base_cp)
                assert got == best
                if best is not None and best[0] == (0, 1):
                    seen["early"] += winner < pairs - 1
                elif best is not None:
                    seen["above_floor"] += 1
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


class TestExactScanOracle:
    """The lazy scan's winner is the exact scan's, at every iteration.

    A cached candidate is only a lower bound once a push or pop moved the
    epoch; `scan` re-derives it when it could win.  Random
    ``reset_to_depth`` calls between iterations restore older verdicts,
    which are then stale too.
    """

    @staticmethod
    def _population():
        for seed in range(10):
            base = layered_random_ddg(nodes=16, layers=4, seed=seed)
            yield f"layered-{seed}", base, 2
            yield f"layered-{seed}-ro2", retarget(base, vliw(read_offset=2)), 2
            yield f"layered-{seed}-classed", _classed_retarget(base, seed), 2
        yield "scale-n56", scale_suite(sizes=(56,), superblock_sizes=())[0].ddg, 4

    def test_scan_equals_the_exact_reference(self):
        scans = resets = rederived = 0
        for name, ddg, registers in self._population():
            rng = random.Random(name)
            session = ReductionSession(ddg, ddg.register_types()[0])
            current = session.saturation()
            for iteration in range(80):
                if current.rs <= registers:
                    break
                saturating = list(current.saturating_values)
                base_cp = session.critical_path()
                expected, _winner, _pairs = _reference_scan(session, saturating, base_cp)
                got = session.scan(saturating, base_cp)
                assert got == expected, f"{name}: iteration {iteration}"
                scans += 1
                if got is None:
                    break
                session.apply_payload(got[1])
                if rng.random() < 0.2:
                    session.reset_to_depth(rng.randrange(session.depth))
                    resets += 1
                current = session.saturation()
            rederived += session.stats["lazy_rederivations"]
        assert scans > 500 and resets > 50 and rederived > 0


class TestImpliedPreFilter:
    def test_implied_pair_on_a_read_offset_2_target(self):
        """The IMPLIED pre-filter fires for a pair of saturating values.

        On dsp-fir6 retargeted to read at offset 2, ``i24`` reads ``u`` (the
        value of ``i19``) and defines ``v``.  As ``u``'s killer it reads
        ``u`` at cycle 2 but writes ``v`` at cycle 1, so ``v`` is not in
        ``DV_k(u)`` and both values can be saturating.  Once the loop's
        serializations make ``u``'s other reader ``i20`` reach ``i24``,
        every reader of ``u`` precedes ``i24``, and the pair is IMPLIED.
        """

        kernel = {e.name: e for e in kernel_suite()}["dsp-fir6"].ddg
        ddg = retarget(kernel, vliw(read_offset=2))
        u, v = Value("i19:add:addr_4", INT), Value("i24:add:addr_5", INT)
        driver = _SessionDriver(ddg.copy(), INT, SerializationMode.OFFSETS, True)
        session = driver.session
        verdicts = []

        def observe(sat):
            if u in sat.saturating_values and v in sat.saturating_values:
                verdicts.append(session.consider(u, v, session.critical_path()))

        loop = _HeuristicLoop(driver, 500)
        loop.on_iteration = observe
        initial = driver.saturation()
        observe(initial)
        loop.run_to(initial, 2)
        assert any(verdict is session.IMPLIED for verdict in verdicts)


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

        results = [_working_saturation(ddg, INT, context_for(ddg), candidate_evaluator=evaluator)]
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


def _arc_pool(ddg, rng, count=24):
    """Random serial arcs along one topological order of *ddg* (acyclic in
    any mix), of latency 0 or 1 like the reduction's serializations."""

    topo = context_for(ddg).topological_order()
    pos = {name: i for i, name in enumerate(topo)}
    pool = []
    for _ in range(count):
        a, b = rng.sample(topo, 2)
        if pos[a] > pos[b]:
            a, b = b, a
        pool.append(Edge(a, b, rng.randint(0, 1), DependenceKind.SERIAL, None))
    return pool


def _cycle_closing_arc(sat, mapping, pk, rng):
    """An arc ``a → t`` the mirror takes without a cycle, though ``t``
    already reaches ``a`` in the killed graph of *mapping* (None if none)."""

    mirror = sat.mirror_ddg
    killed = killed_graph(mirror, KillingFunction(INT, mapping), pk=pk)
    base = sat.mirror.descendants_incl()
    nodes = [n for n in mirror.nodes() if n != BOTTOM]
    pairs = []
    for t in nodes:
        # Reachability by DFS: deferred pushes may have made G→k cyclic.
        down, stack = {t}, [t]
        while stack:
            for w in killed.successors(stack.pop()):
                if w not in down:
                    down.add(w)
                    stack.append(w)
        pairs += [(a, t) for a in nodes if a != t and a in down and a not in base[t]]
    if not pairs:
        return None
    a, t = rng.choice(pairs)
    return Edge(a, t, 0, DependenceKind.SERIAL, None)


class TestReachEngineOracle:
    """The reachability engine against the longest-path engine and the cold path.

    Random interleavings of pushes (some closing a cycle in a candidate's
    killed graph), pops (some below a patch or rebuild), evaluations of the
    real candidates and of random killing functions, and explicit syncs.
    After every step, every candidate state that is synced must report the
    DV rows, cyclic verdict and antichain of an lp ``_CandidateDVState``
    rebuilt on the same mirror, killing function and pk, and the antichain
    of ``saturating_antichain`` on the cold killed graph.  Its DV rows must
    also be their own transitive closure and equal the antichain engine's
    closure rows: the engine takes them as closure rows and never closes
    them itself.
    """

    @staticmethod
    def _check(sat, seen, label):
        mirror = sat.mirror_ddg
        for name, state in sat._candidate_states.items():
            assert type(state) is _ReachDVState, f"{label} {name}"
            if not state.valid or state._pending:
                continue
            kf = KillingFunction(INT, state.kf_mapping)
            pk = state._pk_lists
            lp = _CandidateDVState(sat._values, sat._delta_w)
            lp.rebuild(mirror, kf, pk)
            killed = killed_graph(mirror, kf, pk=pk)
            cyclic = not context_for(killed).is_acyclic()
            assert state.cyclic == lp.cyclic == cyclic, f"{label} {name}"
            seen["checked"] += 1
            if cyclic:
                seen["cyclic"] += 1
                continue
            rows = state.dv_rows()
            assert rows == lp.dv_rows(), f"{label} {name}"
            assert rows == closure_from_rows(rows), f"{label} {name}"
            engine = state._engine
            assert [engine.closure_row(i) for i in range(len(rows))] == rows, f"{label} {name}"
            cold, _dag = saturating_antichain(mirror, kf, killed)
            assert state.antichain() == lp.antichain() == cold, f"{label} {name}"

    def _run(self, ddg, rng, steps, seen):
        """Drive *ddg* and, in lock-step, its offset-1 retarget, which the
        longest-path engine answers with the same decisions and counters."""

        sat = IncrementalSaturation(ddg.copy(), INT)
        twin = IncrementalSaturation(_on_lp_engine(ddg), INT)
        both = (sat, twin)
        pool = _arc_pool(ddg, rng)
        for s in both:
            s.saturation()
        for step in range(steps):
            label = f"{ddg.name} step {step}"
            op = rng.random()
            if op < 0.2 and sat._frames:
                before = set(sat._candidate_states)
                for s in both:
                    s.pop()
                seen["dropped"] += len(before - set(sat._candidate_states))
            elif op < 0.4:
                edges = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 2))]
                # Cycle-closing pushes leave the pool's order behind.
                if sat.mirror.remains_acyclic_with_edges(edges):
                    for s in both:
                        s.push(edges)
            elif op < 0.55:
                if not sat._candidate_states:
                    continue
                name, state = rng.choice(sorted(sat._candidate_states.items()))
                if not state.valid or state.cyclic:
                    continue
                if op < 0.5:
                    # A push closing a cycle under the state's own function:
                    # the sync must find it.
                    arc = _cycle_closing_arc(sat, state.kf_mapping, state._pk_lists, rng)
                    if arc is None:
                        continue
                    for s in both:
                        s.push([arc])
                        s._candidate_states[name].ensure_synced()
                    assert state.cyclic, f"{label}: the sync missed the cycle on {name}"
                    seen["sync_cycles"] += 1
                    continue
                # A push closing a cycle under a new function, which then
                # patches the state with the push still deferred.
                for s in both:
                    s.candidate_functions()
                mapping = {v: rng.choice(ks) for v, ks in sat._pk.items() if ks}
                arc = _cycle_closing_arc(sat, mapping, sat._pk, rng)
                if arc is None:
                    continue
                for s in both:
                    s.push([arc])
                kf = KillingFunction(INT, mapping)
                for s in both:
                    assert s.candidate_antichain(name, kf) is None, label
                seen["patch_cycles"] += 1
            elif op < 0.7:
                warm = [s.saturation() for s in both]
                assert [(r.rs, r.saturating_values, r.killing_function) for r in warm] == [
                    (warm[0].rs, warm[0].saturating_values, warm[0].killing_function)
                ] * 2, label
            elif op < 0.85:
                for s in both:
                    s.candidate_functions()
                mapping = {v: rng.choice(ks) for v, ks in sat._pk.items() if ks}
                name = rng.choice(["greedy-k", "canonical", "asap-induced", "random"])
                kf = KillingFunction(INT, mapping)
                results = [s.candidate_antichain(name, kf) for s in both]
                assert results[0] == results[1], label
            else:
                for s in both:
                    for state in s._candidate_states.values():
                        state.ensure_synced()
            assert sat.stats == twin.stats, label
            assert set(sat._candidate_states) == set(twin._candidate_states), label
            self._check(sat, seen, label)
        seen["patches"] += sat.stats["dv_patches"]
        seen["reuses"] += sat.stats["dv_reuses"]
        seen["skipped"] += sat.stats["dv_syncs_skipped"]

    #: What each population must reach: compared states, cyclic verdicts,
    #: states a pop discarded, cycles a sync or a patch found, patches,
    #: reuses, and deferred pushes skipped.
    _PATHS = (
        "checked", "cyclic", "dropped", "sync_cycles", "patch_cycles",
        "patches", "reuses", "skipped",
    )

    def _assert_coverage(self, seen):
        for key in self._PATHS:
            assert seen[key] > 0, (key, seen)

    def test_layered_interleavings(self):
        seen = dict.fromkeys(self._PATHS, 0)
        for seed in range(6):
            rng = random.Random(1300 + seed)
            self._run(layered_random_ddg(nodes=16 + seed, layers=4, seed=seed), rng, 40, seen)
        self._assert_coverage(seen)

    def test_superblock_interleavings(self):
        seen = dict.fromkeys(self._PATHS, 0)
        for seed in range(1400, 1403):
            self._run(random_superblock(operations=60, seed=3), random.Random(seed), 60, seen)
        self._assert_coverage(seen)


class TestEngineSelection:
    """The input picks the DV engine, checked per candidate label."""

    @staticmethod
    def _engines(sat):
        sat.saturation()
        engines = {label: type(state) for label, state in sat._candidate_states.items()}
        assert engines, "saturation() must leave candidate states behind"
        return engines

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_offset_inputs_get_the_reachability_engine(self, seed):
        for ddg in (
            layered_random_ddg(nodes=16 + seed, layers=4, seed=seed),
            random_superblock(operations=40, seed=seed),
        ):
            engines = self._engines(IncrementalSaturation(ddg.copy(), INT))
            for label, engine in engines.items():
                assert engine is _ReachDVState, (ddg.name, label)

    @pytest.mark.parametrize("variant", ["vliw", "vliw-read-1", "classed-vliw", "negative-arc"])
    def test_offset_or_negative_inputs_get_the_longest_path_engine(self, variant):
        for seed in range(4):
            base = layered_random_ddg(nodes=16 + seed, layers=4, seed=seed)
            if variant == "vliw":
                ddg = retarget(base, vliw())
            elif variant == "vliw-read-1":
                ddg = retarget(base, vliw(read_offset=1))
            elif variant == "classed-vliw":
                ddg = _classed_retarget(base, seed)
            else:
                ddg = base.copy()
                topo = context_for(ddg).topological_order()
                ddg.add_serial_edge(topo[0], topo[-1], latency=-1)
            engines = self._engines(IncrementalSaturation(ddg, INT))
            for label, engine in engines.items():
                assert engine is _CandidateDVState, (variant, seed, label)

    @pytest.mark.parametrize("seed", range(3))
    def test_negative_push_hands_the_session_to_the_longest_path_engine(self, seed):
        rng = random.Random(1500 + seed)
        ddg = layered_random_ddg(nodes=18 + seed, layers=4, seed=seed)
        sat = IncrementalSaturation(ddg.copy(), INT)
        assert set(self._engines(sat).values()) == {_ReachDVState}
        pool = _arc_pool(ddg, rng)
        sat.push([pool[0]])
        sat.saturation()
        a, b = pool[1].src, pool[1].dst
        sat.push([Edge(a, b, -1, DependenceKind.SERIAL, None)])
        for step in range(16):
            if step % 4 == 3 and sat._frames:
                sat.pop()  # down to, and below, the negative push
            elif step % 4 != 3:
                sat.push([pool[rng.randrange(len(pool))]])
            warm = sat.saturation()
            cold = greedy_saturation(sat.working_ddg.copy(), INT)
            assert (warm.rs, warm.saturating_values, warm.killing_function) == (
                cold.rs, cold.saturating_values, cold.killing_function
            ), step
            for label, engine in self._engines(sat).items():
                assert engine is _CandidateDVState, (step, label)
