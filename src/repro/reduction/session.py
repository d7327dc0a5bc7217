"""The incremental reduction session: one working DDG, mutated with undo.

``reduce_saturation_heuristic`` historically rebuilt the world on every
iteration: ``ddg.copy()`` per applied serialization, a cold
:class:`~repro.analysis.context.AnalysisContext` per copy, and a from-scratch
``greedy_saturation`` -- even though consecutive iterations differ by the two
or three serial arcs of one value-serialization.  :class:`ReductionSession`
replaces that with a single working graph mutated in place:

* :meth:`push` applies serialization arcs to the bottom-normalised mirror,
  then adds the arcs the mirror applied to the working graph
  (``DDG.version`` is bumped by the mutation, so stale context caches can
  never leak), recording an undo frame;
* :meth:`pop` restores the exact prior graph and analysis state;
* between pushes, the mirror's structural analyses (reach bitsets,
  longest-path rows, ASAP times; ⊥ only receives arcs, so they answer for
  the working graph) and the saturation state (potential killers, killers'
  drag masks, the candidate killing functions) are patched incrementally
  -- only the dirty region around the new arcs' endpoints is recomputed
  (see :mod:`repro.saturation.incremental`);
* candidate serializations are scored without any graph copy, from cached
  per-pair verdicts: a rejection is final, and a cached candidate is a
  lower bound of its current score that :meth:`scan` re-derives only when
  it could win (see :meth:`_store_verdict`).  A cheap reachability
  pre-filter (the :data:`ReductionSession.IMPLIED` verdict of
  :meth:`consider`) rejects pairs whose ordering the graph already forces
  before any arc is built.

The session produces results identical to the from-scratch loop (pinned by
``tests/test_reduction_incremental.py`` and asserted with byte-compared
reports by ``benchmarks/bench_reduction_incremental.py``); it is purely a
performance device.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.context import context_for
from ..core.graph import DDG, Edge
from ..core.types import BOTTOM, DependenceKind, RegisterType, Value, canonical_type
from ..errors import ReductionError
from ..saturation.incremental import IncrementalSaturation
from ..saturation.result import SaturationResult
from .serialization import (
    SerializationMode,
    prune_redundant_serial_arcs,
    serialization_latency,
)

__all__ = ["ReductionSession", "scan_floor"]

def scan_floor(cp: int, base_cp: int) -> Tuple[int, int]:
    """The least ``(cp_increase, arc_count)`` key any candidate pair can score.

    Adding arcs never shortens a longest path, so no candidate's extended
    critical path is below the current one, *cp*; and every candidate adds
    at least one arc (a pair with nothing to add is no candidate).  A scan
    keeping the first strict minimum can therefore stop at the first pair
    that scores this key: it is the pair the full scan would return.  In
    the reduction loop *base_cp* is the current critical path, so the
    floor is ``(0, 1)``.
    """

    return (cp - base_cp, 1)


class ReductionSession:
    """Incremental engine behind the value-serialization reduction loop.

    Parameters
    ----------
    ddg:
        The original graph; it is never touched.  The session works on a
        copy named ``<name>+reduced`` exactly like the historic loop did.
    rtype:
        Register type whose saturation is being reduced.
    mode:
        Serialization-latency mode (:class:`SerializationMode`), OFFSETS by
        default.
    prune_redundant:
        Drop closure-implied serial arcs from the working copy up front
        (mirrors the historic behaviour; the dropped arcs are in
        :attr:`pruned`).
    """

    def __init__(
        self,
        ddg: DDG,
        rtype: RegisterType | str,
        mode: str = SerializationMode.OFFSETS,
        prune_redundant: bool = True,
        name: Optional[str] = None,
    ) -> None:
        self.rtype = canonical_type(rtype)
        self.mode = mode
        working = ddg.copy(name or f"{ddg.name}+reduced")
        self.pruned: List[Edge] = []
        if prune_redundant:
            working, self.pruned = prune_redundant_serial_arcs(working)
        self._saturation = IncrementalSaturation(working, self.rtype)
        # The session's only warm analysis.  Off ⊥, which no pair query
        # reads, it answers for the working graph (descendants gain ⊥).
        self._mirror = self._saturation.mirror
        # Flat pair keying: the saturation state already indexes the mirror's
        # values; an ordered pair becomes the small int `ui * n + vi`, so the
        # per-pair caches below hash machine ints instead of Value tuples on
        # the scan fast path.  Pairs outside the index (BOTTOM endpoints,
        # foreign types) fall back to the (before, after) tuple key -- the
        # two key spaces cannot collide in one dict.
        self._vindex: Dict[str, int] = self._saturation._node_index
        self._values_by_index: Tuple[Value, ...] = self._saturation._values
        self._nvals: int = len(self._values_by_index) or 1
        # value -> its readers (flow consumers).  A serial arc never adds a
        # flow consumer, so this survives every push/pop.
        self._readers: Dict[Value, Tuple[str, ...]] = {}
        # pair key -> ((reader, latency), ...): the static part of the
        # Theorem-4.2 serialization.  The latencies depend only on the
        # operations, so this survives every push/pop too.
        self._proto_edges_cache: Dict[object, Tuple[Tuple[str, int], ...]] = {}
        # pair key -> the pair's cached verdict: a final rejection, or a
        # candidate `(epoch, x, arc_count, payload)` that bounds the pair's
        # current verdict from below (`_store_verdict`).  Framed per push
        # so `pop` restores it.
        self._pair_verdicts: Dict[object, Tuple] = {}
        # Undo log per push: key -> its entry before the push (None when it
        # had none), applied by `pop` -- the cache dict is never copied.
        self._verdict_frames: List[Dict[object, Optional[Tuple]]] = []
        # Bumped by every push and pop, so a candidate stamped with the
        # current epoch was derived on the current graph.
        self._epoch = 0
        self._cp_state_version = -1
        self._to_sinks: Dict[str, float] = {}
        self._cp = 0
        self.stats: Dict[str, int] = {
            "pushes": 0,
            "pops": 0,
            "evaluated_candidates": 0,
            "pair_verdicts_reused": 0,
            "lazy_rederivations": 0,
        }
        #: Monotonic per-stage accumulator for the candidate-pair scan; the
        #: saturation-side stages live on `IncrementalSaturation.timings`.
        self.timings: Dict[str, float] = {"pair_scan": 0.0}

    # ------------------------------------------------------------------ #
    # Graph access
    # ------------------------------------------------------------------ #
    @property
    def ddg(self) -> DDG:
        """The working graph (original + pruning + pushed serializations)."""

        return self._saturation.working_ddg

    @property
    def depth(self) -> int:
        """Number of push frames currently undoable."""

        return self._mirror.depth

    def critical_path(self) -> int:
        """Critical path of the working graph, read off the warm cp state."""

        self._refresh_cp_state()
        return self._cp

    def bottom_critical_path(self) -> int:
        """Critical path of the bottom-normalised working graph."""

        return context_for(self._saturation.mirror_ddg).critical_path_length()

    # ------------------------------------------------------------------ #
    # Candidate evaluation (no copies)
    # ------------------------------------------------------------------ #
    def _pair_key(self, before: Value, after: Value) -> object:
        """The cache key of an ordered pair: a flat int where possible.

        Pairs of indexed mirror values key as ``ui * n + vi`` -- one machine
        int instead of a tuple of frozen dataclasses, which is what the scan
        fast path hashes millions of times.  Anything outside the index
        (BOTTOM endpoints, foreign register types) keeps the tuple key; int
        and tuple keys cannot collide in one dict.
        """

        vindex = self._vindex
        ui = vindex.get(before.node)
        vi = vindex.get(after.node)
        if ui is None or vi is None:
            return (before, after)
        return ui * self._nvals + vi

    def _proto_edges(
        self, before: Value, after: Value, key: object = None
    ) -> Tuple[Tuple[str, int], ...]:
        """The static (reader, latency) skeleton of the pair's serialization."""

        if key is None:
            key = self._pair_key(before, after)
        proto = self._proto_edges_cache.get(key)
        if proto is None:
            if before.rtype != after.rtype:
                raise ReductionError(
                    "cannot serialize lifetimes of different register types"
                )
            g = self.ddg
            readers = self._readers.get(before)
            if readers is None:
                readers = self._readers[before] = tuple(
                    g.consumers(before.node, before.rtype)
                )
            target = after.node
            proto = tuple(
                (reader, serialization_latency(g, reader, target, self.mode))
                for reader in readers
                if reader != target
            )
            self._proto_edges_cache[key] = proto
        return proto

    def _kept_arcs(
        self, proto: Tuple[Tuple[str, int], ...], target: str
    ) -> Optional[List[Tuple[str, int]]]:
        """The pair's arcs after the dominated-arc filter, or None on a cycle.

        Single implementation behind :meth:`legal_serialization` and
        :meth:`consider` so the two can never drift apart: an arc dominated
        by an existing equal-or-stronger arc is dropped (the
        ``skip_existing`` rule of :func:`serialization_edges`), and because
        every arc ends at *target*, a new cycle can only be a base path from
        the target back to a reader -- a bit test on the target's warm
        reach bitset.
        """

        g = self.ddg
        op_id = self._mirror.op_id
        reach_target = self._mirror.reach_bits()[op_id(target)]
        kept: List[Tuple[str, int]] = []
        for arc in proto:
            reader, latency = arc
            best = g.best_latency_between(reader, target)
            if best is not None and best >= latency:
                continue
            if reach_target >> op_id(reader) & 1:
                return None
            kept.append(arc)
        return kept

    def _refresh_cp_state(self) -> None:
        if self._cp_state_version != self.ddg.version:
            ctx = context_for(self.ddg)
            # A copy, not the context's cached dict: `_patch_cp_state`
            # updates it in place after a push.
            self._to_sinks = dict(ctx.longest_path_to_sinks())
            self._cp = ctx.critical_path_length()
            self._cp_state_version = self.ddg.version

    def _patch_cp_state(self, records) -> None:
        """Relax the warm sink-distance map over freshly added arcs.

        Adding arcs only ever lengthens longest paths, so a monotone
        worklist relaxation from the arc endpoints reproduces the full
        recompute exactly (same integer arithmetic) while touching only the
        affected region.  The mirror's :class:`IncrementalAnalysis` relaxes
        the ASAP times the same way.
        """

        g = self.ddg
        sinks = self._to_sinks
        cp = self._cp
        queue: List[str] = []
        for record in records:
            edge = record.edge
            cand = edge.latency + sinks[edge.dst]
            if cand > sinks[edge.src]:
                sinks[edge.src] = cand
                queue.append(edge.src)
        while queue:
            v = queue.pop()
            base = sinks[v]
            if base > cp:
                cp = base
            for edge in g.in_edges(v):
                cand = edge.latency + base
                if cand > sinks[edge.src]:
                    sinks[edge.src] = cand
                    queue.append(edge.src)
        self._cp = int(cp)
        self._cp_state_version = g.version

    def legal_serialization(self, before: Value, after: Value) -> Optional[List[Edge]]:
        """Same contract as :func:`repro.reduction.serialization.legal_serialization`,
        answered from the warm reachability state (no graph walk per pair).

        Every serialization arc for a pair ends at ``after``'s operation, so
        a new cycle can only be a base path from the target back to one of
        the readers -- a handful of bit tests on the warm reach bitsets
        instead of a mini-graph search.
        """

        if after.node == BOTTOM or before.node == BOTTOM:
            return None
        proto = self._proto_edges(before, after)
        if not proto:
            return []
        kept = self._kept_arcs(proto, after.node)
        if kept is None:
            return None
        return [
            Edge(reader, after.node, latency, DependenceKind.SERIAL, None)
            for reader, latency in kept
        ]

    #: `consider` outcome: the pair's ordering is already forced.
    IMPLIED = object()

    #: Cached-verdict tags (see `_pair_verdicts`).
    _V_IMPLIED = ("implied",)
    _V_NONE = ("none",)

    def consider(
        self, before: Value, after: Value, base_cp: int
    ) -> object:
        """Evaluate one ordered pair in a single pass.

        Returns :data:`IMPLIED` (pair already ordered by the closure), None
        (illegal or nothing to add), or ``(cp_increase, arc_count, payload)``
        where *payload* materialises into the arcs via :meth:`apply_payload`.
        Arcs are not constructed during the scan -- with O(|antichain|^2)
        pairs per iteration and one winner, the allocation churn dominated
        the loop.

        The answer is always exact.  A cached rejection, or a cached
        candidate stamped with the current epoch, is returned as it is
        (counted in ``pair_verdicts_reused``); a candidate stamped earlier
        is only a lower bound (see :meth:`_store_verdict`), so it is
        re-derived first (counted in ``lazy_rederivations``).  A cached
        candidate stores the pair-local quantity ``X = max(asap[target],
        asap[reader]+latency) + to_sinks[target]`` rather than the cp
        increase, so the global critical path -- which any push may move --
        is re-read fresh on every reuse; the arithmetic is bit-for-bit the
        fresh path's.

        The ``pair_scan`` stage timer is fed per *iteration* by the loop
        driver (:meth:`record_scan_time`), not here: with O(|antichain|^2)
        calls per iteration a per-call timer would tax the reuse fast path
        with more clock reads than remaining work.
        """

        key = self._pair_key(before, after)
        verdict = self._pair_verdicts.get(key)
        if verdict is None:
            verdict = self._consider_fresh(before, after, key)
            self._store_verdict(key, verdict)
        elif (
            verdict is not self._V_NONE
            and verdict is not self._V_IMPLIED
            and verdict[0] != self._epoch
        ):
            self.stats["lazy_rederivations"] += 1
            verdict = self._consider_fresh(before, after, key)
            self._store_verdict(key, verdict)
        else:
            self.stats["pair_verdicts_reused"] += 1
        if verdict is self._V_IMPLIED:
            return self.IMPLIED
        if verdict is self._V_NONE:
            return None
        _, x, arc_count, payload = verdict
        self._refresh_cp_state()
        return int(max(self._cp, x)) - base_cp, arc_count, payload

    def scan(self, saturating, base_cp: int) -> Optional[Tuple]:
        """The candidate-pair scan, inlined (the driver fast path).

        Walks the ordered pairs of *saturating* values through the verdict
        cache, with the pair keys, the critical-path refresh and the stats
        bookkeeping hoisted out of the quadratic loop, and returns
        ``((cp_increase, arc_count), payload)`` for the first pair with the
        strictly least key, or None when no pair is applicable.  The walk
        ends at the first pair scoring :func:`scan_floor`, which no later
        pair can beat.

        A cached candidate stamped before the current epoch is a lower
        bound of the pair's key (:meth:`_store_verdict`).  The scan skips it
        when that bound does not beat the best key so far, and re-derives it
        (``lazy_rederivations``) before comparing otherwise.  The winner and
        the stop are those of a scan that evaluates every pair exactly: a
        skipped pair's true key is at least its bound, hence at least the
        best key, so it could not have become the first strict minimum, and
        every pair that could is compared on its exact key.
        """

        verdicts = self._pair_verdicts
        vindex = self._vindex
        n = self._nvals
        implied = self._V_IMPLIED
        none = self._V_NONE
        fresh = self._consider_fresh
        store = self._store_verdict
        epoch = self._epoch
        reused = 0
        rederived = 0
        best_key: Optional[Tuple[int, int]] = None
        best: Optional[Tuple] = None
        self._refresh_cp_state()
        cp = self._cp
        floor = scan_floor(cp, base_cp)
        indexed = [(v, vindex.get(v.node)) for v in saturating]
        for i, (u, ui) in enumerate(indexed):
            base = ui * n if ui is not None else None
            for j, (v, vi) in enumerate(indexed):
                if j == i:
                    continue
                if base is not None and vi is not None:
                    key: object = base + vi
                else:
                    key = (u, v)
                verdict = verdicts.get(key)
                if verdict is None:
                    verdict = fresh(u, v, key)
                    store(key, verdict)
                elif verdict is none or verdict is implied or verdict[0] == epoch:
                    reused += 1
                else:
                    # A stale candidate: a lower bound of the pair's key.
                    x = verdict[1]
                    bound = (int(x if x > cp else cp) - base_cp, verdict[2])
                    if best_key is not None and bound >= best_key:
                        reused += 1
                        continue
                    rederived += 1
                    verdict = fresh(u, v, key)
                    store(key, verdict)
                if verdict is implied or verdict is none:
                    continue
                _, x, arc_count, payload = verdict
                inc = int(x if x > cp else cp) - base_cp
                if best_key is None or (inc, arc_count) < best_key:
                    best_key = (inc, arc_count)
                    best = (best_key, payload)
                    if best_key == floor:
                        break
            else:
                continue
            break  # the inner loop reached the floor
        stats = self.stats
        stats["pair_verdicts_reused"] += reused
        stats["lazy_rederivations"] += rederived
        return best

    def _store_verdict(self, key: object, verdict: Tuple) -> None:
        """Cache a verdict derived on the current graph, logged for `pop`.

        A push only adds arcs or raises latencies, so reachability, arc
        latencies, longest paths, ASAP times and sink distances only grow.
        Every cached verdict was derived on a prefix of the current push
        stack, and it relates to the pair's current verdict as follows.

        * A rejection (``_V_NONE`` or ``_V_IMPLIED``) is final.  A pair is
          rejected when an endpoint is ⊥, it has no proto reader, every
          reader already has a dominating arc to the target, an undominated
          reader is reachable from the target, or every reader reaches the
          target on a path at least as long as its arc (IMPLIED).  Each
          survives a push: in the cycle case the reader can never gain an
          arc to the target, because that arc would close a cycle.
        * A candidate ``(epoch, x, arc_count, payload)`` is a lower bound.
          Its kept arcs change in only two ways: a pushed arc into the
          target dominates one of them, and that push drops the candidate
          (:meth:`push`); or the whole pair turns into a rejection.  So a
          retained candidate either keeps its payload and arc count or is
          now rejected.  Its ``x = max(asap[T], max asap[R] + lat) +
          to_sinks[T]`` never falls, because ASAP times and sink distances
          only grow.  Its key ``(max(cp, x) - base_cp, arc_count)``, with
          the current cp, is therefore never above the pair's true key.

        A candidate stamped with the current epoch was derived on the
        current graph and is exact.  Only candidates under int keys are
        cached: the destination drop finds a target's candidates by key
        arithmetic.
        """

        if (
            type(key) is not int
            and verdict is not self._V_NONE
            and verdict is not self._V_IMPLIED
        ):
            return
        verdicts = self._pair_verdicts
        frames = self._verdict_frames
        if frames:
            frame = frames[-1]
            if key not in frame:
                frame[key] = verdicts.get(key)
        verdicts[key] = verdict

    def record_scan_time(self, seconds: float) -> None:
        """Accumulate one iteration's candidate-scan wall clock (stage timer)."""

        self.timings["pair_scan"] += seconds

    def _consider_fresh(self, before: Value, after: Value, key: object = None) -> Tuple:
        """Evaluate one pair cold; returns the cacheable verdict tuple.

        Because all of the pair's arcs end at the same target, the extended
        critical path closed-forms to
        ``max(cp, max(asap[target], asap[reader] + latency) + to_sinks[target])``
        -- no longest-path matrix, no graph copy.  A candidate is stamped
        with the current epoch.
        """

        if after.node == BOTTOM or before.node == BOTTOM:
            return self._V_NONE
        proto = self._proto_edges(before, after, key)
        if not proto:
            return self._V_NONE
        target = after.node
        mirror = self._mirror
        reach, op_id = mirror.reach_bits(), mirror.op_id
        tid = op_id(target)
        # The reachability screen + exact longest-path confirmation of
        # `serialization_implied`, inlined.
        for reader, _latency in proto:
            if not reach[op_id(reader)] >> tid & 1:
                break
        else:
            for reader, latency in proto:
                if mirror.row_by_name(reader)[tid] < latency:
                    break
            else:
                return self._V_IMPLIED

        kept = self._kept_arcs(proto, target)
        if not kept:
            # A cycle, or everything dominated by existing arcs.
            return self._V_NONE
        self.stats["evaluated_candidates"] += 1
        self._refresh_cp_state()
        asap = mirror.asap_times()
        best_target = asap[target]
        for reader, latency in kept:
            cand = asap[reader] + latency
            if cand > best_target:
                best_target = cand
        x = best_target + self._to_sinks[target]
        return (self._epoch, x, len(kept), (target, kept))

    def apply_payload(self, payload) -> List[Edge]:
        """Materialise and push the arcs of a winning :meth:`consider` payload."""

        target, kept = payload
        edges = [
            Edge(reader, target, latency, DependenceKind.SERIAL, None)
            for reader, latency in kept
        ]
        self.push(edges)
        return edges

    # ------------------------------------------------------------------ #
    # Mutation with undo
    # ------------------------------------------------------------------ #
    def push(self, edges) -> None:
        """Apply serialization arcs in place (undoable via :meth:`pop`).

        The caller is expected to pass arcs vetted by
        :meth:`legal_serialization`; arcs that would close a cycle raise
        :class:`~repro.errors.CyclicGraphError` from
        :meth:`~repro.saturation.incremental.IncrementalSaturation.push`
        before anything is mutated.

        Opens the verdict cache's undo frame and drops the cached
        candidates whose target is the destination of an applied arc (read
        off the mirror's undo frame): only such an arc can dominate one of
        a candidate's kept arcs (see :meth:`_store_verdict`).  A target's
        candidates sit under the int keys ``ui * n + vi`` of its value
        index ``vi``, at most ``n`` per arc, so no index is kept.
        """

        cp_fresh = self._cp_state_version == self.ddg.version
        records = self._saturation.push(edges).records
        self.stats["pushes"] += 1
        if cp_fresh:
            self._patch_cp_state(records)
        self._epoch += 1
        frame: Dict[object, Optional[Tuple]] = {}
        self._verdict_frames.append(frame)
        verdicts = self._pair_verdicts
        if not verdicts:
            return
        vindex = self._vindex
        n = self._nvals
        none, implied = self._V_NONE, self._V_IMPLIED
        for record in records:
            vi = vindex.get(record.edge.dst)
            if vi is None:
                continue
            for key in range(vi, n * n, n):
                verdict = verdicts.get(key)
                if verdict is None or verdict is none or verdict is implied:
                    continue
                del verdicts[key]
                frame[key] = verdict

    def pop(self) -> None:
        """Undo the most recent push, restoring the exact prior state."""

        self._saturation.pop()
        self.stats["pops"] += 1
        self._epoch += 1
        verdicts = self._pair_verdicts
        for key, verdict in self._verdict_frames.pop().items():
            if verdict is None:
                verdicts.pop(key, None)
            else:
                verdicts[key] = verdict

    def reset_to_depth(self, depth: int) -> None:
        """Pop frames until exactly *depth* pushes remain applied.

        The session for one register budget is a prefix of the session for
        any smaller budget, so a multi-budget driver can rewind to a shared
        prefix (or all the way to the pristine working graph with
        ``reset_to_depth(0)``) instead of rebuilding the session; the
        warm analyses and the candidate DV states are restored exactly,
        frame by frame.
        """

        if depth < 0 or depth > self.depth:
            raise IndexError(
                f"cannot reset to depth {depth}: {self.depth} frames are applied"
            )
        while self.depth > depth:
            self.pop()

    def saturation(self) -> SaturationResult:
        """Greedy-k of the working graph, warm-started from the last iteration."""

        return self._saturation.saturation()

    # ------------------------------------------------------------------ #
    # Introspection (used by the undo-safety tests and the benchmarks)
    # ------------------------------------------------------------------ #
    @property
    def saturation_stats(self) -> Dict[str, int]:
        """DV-DAG reuse counters of the warm saturation state."""

        return self._saturation.stats

    @property
    def stage_timings(self) -> Dict[str, float]:
        """Monotonic per-stage wall-clock totals, keyed by engine stage.

        The union of the session's scan timer and the saturation engine's
        stage timers; the benchmark's bottleneck profile reports these so
        time is attributed to the stage that spent it.
        """

        return {**self.timings, **self._saturation.timings}

    def analysis_fingerprint(self) -> Dict[str, object]:
        """A value-level snapshot of the observable analysis state.

        Used to assert that ``push`` followed by ``pop`` restores *exactly*
        the prior state: graph arcs, reachability, longest paths, potential
        killers, and the saturation outcome.
        """

        g = self.ddg
        desc = self._mirror.descendants_incl()
        sat = self.saturation()
        return {
            "edges": sorted(
                (e.src, e.dst, e.latency, e.kind.value, None if e.rtype is None else e.rtype.name)
                for e in g.edges()
            ),
            "descendants": {node: frozenset(desc[node]) for node in g.nodes()},
            "critical_path": self.critical_path(),
            "bottom_critical_path": self.bottom_critical_path(),
            "rs": sat.rs,
            "saturating_values": tuple(sat.saturating_values),
            "killing_function": None
            if sat.killing_function is None
            else tuple(sorted((str(v), k) for v, k in sat.killing_function.items())),
        }
