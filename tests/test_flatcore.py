"""Tests for the flat-array hot core (op-id interner, bitmask state, lazy sync).

The flat core rewires the incremental engine's inner loops onto integer op
ids, flat longest-path rows and bitmask DV state; everything here pins the
conversion boundaries the rewrite must not move:

* the interner itself (round trip, append-only stability);
* op-id stability across ``push``/``pop``/``reset_to_depth`` -- the node set
  of a session never changes, so an id handed out once must stay valid for
  the session's whole life;
* byte-identical reduction reports between the flat incremental engine and
  the from-scratch reference on the paper kernels and a scale instance
  (the benchmark extends the population up to the 200/240-op superblocks);
* the pair-verdict cache's invariant: a rejection is final, and a cached
  candidate bounds a cold evaluation of its pair from below (exact when
  stamped with the current epoch), after every push and every
  ``reset_to_depth``;
* the lazy candidate-sync protocol (deferred pushes are dropped, not
  replayed, when the candidate is popped or rebuilt before being evaluated,
  surfaced by the ``dv_syncs_skipped`` counter).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.context import context_for
from repro.analysis.interner import OpInterner
from repro.codes import kernel_suite, scale_suite
from repro.codes.generator import layered_random_ddg
from repro.core.machine import retarget, vliw
from repro.core.types import BOTTOM
from repro.reduction import ReductionSession, reduce_saturation_heuristic

#: Reduction-heavy kernels (same selection as the benchmark population).
_KERNEL_NAMES = (
    "linpack-daxpy-u4",
    "specfp-tomcatv",
    "dsp-fir6",
)


def _kernel(name):
    return {e.name: e for e in kernel_suite()}[name]


def _scale(size):
    return scale_suite(sizes=(size,), superblock_sizes=())[0]


class TestOpInterner:
    def test_round_trip(self):
        interner = OpInterner(["a", "b", "c"])
        assert [interner.id(n) for n in ("a", "b", "c")] == [0, 1, 2]
        assert [interner.name(i) for i in range(3)] == ["a", "b", "c"]
        assert interner.names() == ["a", "b", "c"]
        assert len(interner) == 3 and interner.size == 3
        assert "b" in interner and "z" not in interner

    def test_intern_is_append_only_and_idempotent(self):
        interner = OpInterner()
        assert interner.intern("x") == 0
        assert interner.intern("y") == 1
        assert interner.intern("x") == 0  # re-intern never reassigns
        assert interner.size == 2

    def test_missing_lookups(self):
        interner = OpInterner(["a"])
        assert interner.get("missing") is None
        with pytest.raises(KeyError):
            interner.id("missing")

    def test_seeding_order_matches_input_order(self):
        names = ["n3", "n1", "n2"]
        interner = OpInterner(names)
        assert interner.names() == names


class TestOpIdStability:
    def test_ids_survive_push_pop_reset(self):
        entry = _scale(40)
        rtype = entry.ddg.register_types()[0]
        session = ReductionSession(entry.ddg, rtype)
        analysis = session._mirror
        ids_before = {name: analysis.op_id(name) for name in session.ddg.nodes()}

        saturating = list(session.saturation().saturating_values)
        pushed = 0
        for u in saturating:
            for v in saturating:
                if u == v:
                    continue
                edges = session.legal_serialization(u, v)
                if edges:
                    session.push(edges)
                    pushed += 1
                    break
            if pushed >= 2:
                break
        assert pushed >= 1, "the scale graph must admit a serialization"

        ids_mid = {name: analysis.op_id(name) for name in session.ddg.nodes()}
        assert ids_mid == ids_before

        session.reset_to_depth(0)
        ids_after = {name: analysis.op_id(name) for name in session.ddg.nodes()}
        assert ids_after == ids_before

    def test_session_reads_the_mirror_analysis(self):
        # The bottom mirror's analysis is the session's only warm one, and
        # it interns like the mirror's own context, whose interner the
        # candidate DV states use: both seed from DDG.nodes() insertion
        # order (preserved by DDG.copy()).
        entry = _kernel("dsp-fir6")
        rtype = entry.ddg.register_types()[0]
        session = ReductionSession(entry.ddg, rtype)
        mirror = session._mirror
        assert mirror is session._saturation.mirror
        assert mirror.ddg is session._saturation.mirror_ddg is not session.ddg
        assert BOTTOM in mirror.ddg and BOTTOM not in session.ddg
        interner = context_for(mirror.ddg).op_interner()
        for name in mirror.ddg.nodes():
            assert mirror.op_id(name) == interner.id(name)

    def test_lp_row_dict_view_matches_flat_row(self):
        entry = _kernel("linpack-daxpy-u4")
        rtype = entry.ddg.register_types()[0]
        session = ReductionSession(entry.ddg, rtype)
        analysis = session._mirror
        for name in list(session.ddg.nodes())[:5]:
            row = analysis.row_by_name(name)
            as_dict = analysis.lp_row(name)
            for other, dist in as_dict.items():
                assert row[analysis.op_id(other)] == dist


def _normalized_report(result):
    """ReductionResult minus wall time and the engine tag (bench's notion)."""

    details = {
        k: v
        for k, v in sorted(result.details.items())
        if k not in ("engine", "engine_stats")
    }
    graph = result.extended_ddg
    return repr(
        (
            result.rtype.name,
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
            graph.name,
            sorted(
                (e.src, e.dst, e.latency, e.kind.value,
                 None if e.rtype is None else e.rtype.name)
                for e in graph.edges()
            ),
        )
    ).encode()


class TestFlatCoreByteIdentity:
    @pytest.mark.parametrize("name", _KERNEL_NAMES)
    def test_kernel_reports_identical(self, name):
        entry = _kernel(name)
        rtype = entry.ddg.register_types()[0]
        scratch = reduce_saturation_heuristic(
            entry.ddg.copy(), rtype, 4, engine="from-scratch"
        )
        incremental = reduce_saturation_heuristic(
            entry.ddg.copy(), rtype, 4, engine="incremental"
        )
        assert _normalized_report(scratch) == _normalized_report(incremental)

    @pytest.mark.parametrize("seed", range(10))
    def test_bottom_normalised_input_reports_identical(self, seed):
        # A working graph that already has ⊥ gets a mirror that is a plain
        # copy of it; the session must still agree with the reference loop.
        ddg = layered_random_ddg(nodes=16, layers=4, seed=seed).with_bottom()
        rtype = ddg.register_types()[0]
        scratch = reduce_saturation_heuristic(
            ddg.copy(), rtype, 3, engine="from-scratch"
        )
        incremental = reduce_saturation_heuristic(
            ddg.copy(), rtype, 3, engine="incremental"
        )
        assert _normalized_report(scratch) == _normalized_report(incremental)

    def test_scale_report_identical(self):
        entry = _scale(48)
        rtype = entry.ddg.register_types()[0]
        scratch = reduce_saturation_heuristic(
            entry.ddg.copy(), rtype, 8, engine="from-scratch"
        )
        incremental = reduce_saturation_heuristic(
            entry.ddg.copy(), rtype, 8, engine="incremental"
        )
        assert _normalized_report(scratch) == _normalized_report(incremental)


def _verdict_loop_graph(name):
    """The graphs whose reduction loops the verdict-cache test drives."""

    if name == "scale-n56":
        return _scale(56).ddg
    if name == "vliw-ro1":
        return retarget(_kernel("specfp-tomcatv").ddg, vliw(read_offset=1))
    return layered_random_ddg(nodes=16, layers=4, seed=int(name.split("-")[1]))


class TestLowerBoundVerdicts:
    """The verdict cache holds final rejections and lower-bound candidates."""

    @staticmethod
    def _check_cache(session, settled):
        """Every cached verdict against a cold evaluation on the current graph.

        A rejection is exact.  A candidate's cold verdict is a rejection or
        keeps its payload and arc count with an ``x`` no smaller, and a
        candidate stamped with the current epoch is exact.  *settled* holds
        the rejections cached before the last push, none of which it may
        drop.
        """

        n = session._nvals
        values = session._values_by_index
        rejections = (session._V_NONE, session._V_IMPLIED)
        verdicts = session._pair_verdicts
        for key, verdict in settled.items():
            assert verdicts.get(key) is verdict, f"rejection {key} dropped"
        for key, verdict in list(verdicts.items()):
            if type(key) is int:
                before, after = values[key // n], values[key % n]
            else:
                before, after = key
            cold = session._consider_fresh(before, after)
            if verdict in rejections:
                assert cold is verdict, f"rejection of {before} -> {after} turned"
            elif verdict[0] == session._epoch:
                assert cold == verdict, f"current candidate {before} -> {after} stale"
            elif cold not in rejections:
                assert cold[2:] == verdict[2:], f"kept arcs of {before} -> {after} moved"
                assert cold[1] >= verdict[1], f"x of {before} -> {after} fell"

    @pytest.mark.parametrize(
        "name, registers",
        [("scale-n56", 4), ("vliw-ro1", 3)] + [(f"layered-{s}", 2) for s in range(10)],
    )
    def test_retained_verdicts_bound_a_cold_recompute(self, name, registers):
        """Property: after every push and every `reset_to_depth`, each
        cached verdict relates to a cold evaluation of its pair as
        `_store_verdict` states, and no push drops a rejection."""

        ddg = _verdict_loop_graph(name)
        rtype = ddg.register_types()[0]
        session = ReductionSession(ddg, rtype)
        rejections = (session._V_NONE, session._V_IMPLIED)
        rng = random.Random(name)

        current = session.saturation()
        for _ in range(60):
            if current.rs <= registers:
                break
            saturating = list(current.saturating_values)
            best = session.scan(saturating, session.critical_path())
            if best is None:
                break
            settled = {
                key: verdict
                for key, verdict in session._pair_verdicts.items()
                if verdict in rejections
            }
            session.apply_payload(best[1])
            self._check_cache(session, settled)
            if rng.random() < 0.25:
                session.reset_to_depth(rng.randrange(session.depth))
                self._check_cache(session, {})
            current = session.saturation()

        # layered-2 has no legal pair at all: its loop is stuck at once.
        assert session.stats["pushes"] > 0 or name == "layered-2"


class TestLazySync:
    def test_popped_pushes_skip_candidate_sync(self):
        entry = _scale(48)
        rtype = entry.ddg.register_types()[0]
        session = ReductionSession(entry.ddg, rtype)
        baseline = session.analysis_fingerprint()
        assert session._saturation._candidate_states, (
            "saturation() must leave warm candidate states behind"
        )

        saturating = list(session.saturation().saturating_values)
        pushed = False
        for u in saturating:
            for v in saturating:
                if u == v:
                    continue
                edges = session.legal_serialization(u, v)
                if edges:
                    session.push(edges)
                    pushed = True
                    break
            if pushed:
                break
        assert pushed
        session.pop()

        # The push/pop pair must never have replayed the arcs into the
        # candidate DV mirrors: the deferred sync is dropped unmaterialised.
        assert session.saturation_stats["dv_syncs_skipped"] > 0
        assert session.analysis_fingerprint() == baseline

    def test_deferred_syncs_drain_before_evaluation(self):
        entry = _scale(56)
        rtype = entry.ddg.register_types()[0]
        session = ReductionSession(entry.ddg, rtype)
        current = session.saturation()
        for _ in range(3):
            saturating = list(current.saturating_values)
            best = session.scan(saturating, session.critical_path())
            if best is None:
                break
            session.apply_payload(best[1])
            current = session.saturation()
        # After evaluation every live candidate state has an empty pending
        # queue and a killed graph consistent with the mirror.
        for state in session._saturation._candidate_states.values():
            assert not state._pending
