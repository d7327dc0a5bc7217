"""Incremental saturation state shared across reduction iterations.

The value-serialization reduction heuristic runs Greedy-k on a graph that
changes by ~2 serial arcs per iteration.  Before this module every iteration
paid for a full graph copy plus from-scratch recomputation of every
structural analysis (descendant maps, longest-path rows, potential killers,
bipartite killing components).  Adding serial arcs, however, only *grows*
reachability and longest paths, and only around the new arcs' endpoints:

* ``reach(x)`` changes only for ancestors ``x`` of a new arc's source, and
  the change is exactly the union with ``reach(dst)``;
* ``lp(x, y)`` changes only to ``max(lp(x, y), lp(x, src) + w + lp(dst, y))``
  (a DAG path uses a given arc at most once);
* ``pkill(u)`` can only shrink, and only when one of its current potential
  killers is an ancestor of a new arc's source while another consumer of
  ``u`` is newly reachable from the arc's destination.

Everything outside that dirty region provably cannot change, so the classes
below mutate one working DDG in place (with undo) and patch the affected
entries, sharing every untouched row with the previous iteration.

**Candidate DV engines.** Greedy-k's disjoint-value DAG of a candidate
killing function ``k`` has an arc ``u → v`` when
``lp(k(u), v) >= delta_r(k(u)) - delta_w(v)`` in the killed graph ``G→k``.
Each candidate label keeps that relation warm in one of two engines,
picked from the input.  When every op reads and writes at offset 0 and no
arc is negative -- any superscalar or EPIC target -- every threshold is 0
and no path is negative, so the test is reachability, and
:class:`_ReachDVState` keeps ``G→k``'s reachability bitsets over the
bottom mirror without copying a graph.  Otherwise (VLIW offsets, or a
negative arc) :class:`_CandidateDVState` keeps ``G→k`` alive as a
longest-path mirror; it is the only exact engine there, and the
reachability engine's test oracle.

**Flat-array core.** The hot state lives on integer op ids handed out by the
per-graph :class:`~repro.analysis.interner.OpInterner` (stable across graph
revisions -- only arcs change, never the node set): longest-path rows are
flat ``List[float]`` buffers indexed by op id instead of name-keyed dicts;
reachability, potential killers, drag masks and killer/DV state are
bitsets over the same id space (no str↔bit translation left on the sync
path between the DV engines and
:class:`~repro.analysis.antichain.PersistentAntichain`); undo frames hold
references to copy-on-write lists and dicts; and row patching is a
whole-row max-merge over arrays.  The conversion is internal: every
string-facing boundary (pkill, killing functions, reports) is unchanged,
and the patched pkill map and ASAP times injected into the graph's fresh
:class:`~repro.analysis.context.AnalysisContext` epoch through
:meth:`~repro.analysis.context.AnalysisContext.memo` keep the existing
Greedy-k code path (:mod:`repro.saturation.greedy`, :mod:`.pkill`,
:mod:`.dvk`) returning results identical to a from-scratch run -- the
property tests in ``tests/test_reduction_incremental.py``,
``tests/test_flatcore.py`` and ``tests/test_push_bookkeeping.py`` pin
exactly that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..analysis import flatbuf, graphalgo
from ..analysis.antichain import PersistentAntichain, antichain_indices_from_rows
from ..analysis.context import context_for
from ..analysis.interner import OpInterner
from ..core.graph import DDG, Edge
from ..core.types import DependenceKind, RegisterType, Value, canonical_type
from ..errors import CyclicGraphError
from .result import SaturationResult

if TYPE_CHECKING:  # pragma: no cover - the runtime import would be circular
    from .pkill import KillingFunction

__all__ = ["IncrementalAnalysis", "IncrementalSaturation"]

_NEG_INF = graphalgo.NEG_INF


def _bits(ids) -> int:
    """The bitset holding bit ``i`` for every op id ``i`` in *ids*."""

    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def _same_function(kf, previous):
    """*previous* when it maps like *kf*, dict order included; else *kf*."""

    if previous is None or kf is previous:
        return kf
    mapping, before = kf.mapping, previous.mapping
    if mapping == before and list(mapping) == list(before):
        return previous
    return kf


def _duplicate_of(g: DDG, edge: Edge) -> Optional[Edge]:
    """The arc of *g* that *edge* would merge with: same endpoints, kind and type."""

    for existing in g.edges_between(edge.src, edge.dst):
        if existing.kind is edge.kind and existing.rtype == edge.rtype:
            return existing
    return None


@dataclass
class _AppliedArc:
    """One arc actually applied by a push (no-ops are not recorded)."""

    edge: Edge
    #: The lower-latency duplicate this arc replaced, or None when appended.
    replaced: Optional[Edge]
    #: The ops whose reach set the arc grew, as a bitset over op ids: the
    #: ancestors of its source (itself included) that did not reach its
    #: destination yet.  0 when reachability is not tracked or did not
    #: grow (the destination was already reachable).
    ancestors: int = 0
    #: The destination's reach set ``{dst} ∪ desc(dst)`` at application
    #: time, as a bitset over op ids: what every op in ``ancestors``
    #: gained.  0 like ``ancestors``.
    addition: int = 0


@dataclass
class _AnalysisFrame:
    records: List[_AppliedArc] = field(default_factory=list)
    #: The pre-push reach list (None when untracked): each push copies the
    #: list and patches its entries, so pop restores it by reference.
    reach: Optional[List[int]] = None
    #: The pre-push row dict: each push copies the dict and patches rows
    #: copy-on-write, so pop restores this epoch by reference.
    lp_rows: Dict[int, List[float]] = field(default_factory=dict)
    #: Warm rows whose entries grew during this push: src id -> changed
    #: target ids (possibly with duplicates when several arcs moved the same
    #: entry; consumers fold them through idempotent bit ORs).  The DV-DAG
    #: dirty-region update uses it to recheck exactly the pairs whose
    #: longest path moved.
    lp_changes: Dict[int, List[int]] = field(default_factory=dict)
    #: The pre-push ASAP dict (None when ASAP is not tracked); each push
    #: relaxes a copy, so pop restores this one by reference.
    asap: Optional[Dict[str, int]] = None
    #: The nodes whose ASAP time this push raised.
    asap_moved: Set[str] = field(default_factory=set)


class IncrementalAnalysis:
    """In-place serial-arc push/undo on one DDG with exact warm analyses.

    The graph is mutated through the normal :class:`~repro.core.graph.DDG`
    API (every push/pop bumps ``DDG.version``, keeping the shared
    :class:`AnalysisContext` honest), while reachability and longest-path
    rows are patched copy-on-write, so an undo frame is just a handful of
    references.  Longest-path rows are flat op-id-indexed buffers (see the
    module docstring).

    Reachability is one int per op id, :meth:`reach_bits`: entry ``i``
    holds bit ``j`` when op ``i`` reaches op ``j``, itself included.  A
    push copies the list, and a new arc ``a → t`` that ``a`` does not
    already reach gives every entry holding bit ``a`` (the ancestors of
    ``a``) the bits of ``reach[t]``; the entries it grew and what they
    gained go into the frame's records as bitsets, so the saturation
    state screens its own dirty region with a few ANDs.  A pop restores
    the list by reference.  The bitsets are computed from the flat
    adjacency the first time they are needed and kept from then on; the
    name-keyed descendant maps are neither kept nor published to the
    graph's context (:meth:`descendants_incl` decodes them for tests and
    string-facing callers).  An analysis that tracks reachability also
    keeps the ASAP times warm from its first push on and publishes them
    as the context's ``asap_times()``.  *interner* accepts a shared
    :class:`~repro.analysis.interner.OpInterner` so sibling analyses over
    copies of the same graph (the candidate killed mirrors) agree on every
    id.  Instances are not thread-safe; they are meant to back one
    reduction session at a time.
    """

    def __init__(
        self,
        ddg: DDG,
        track_reachability: bool = True,
        interner: Optional[OpInterner] = None,
    ) -> None:
        self._g = ddg
        self._track_reachability = track_reachability
        if interner is None:
            interner = OpInterner(ddg.nodes())
        else:
            for name in ddg.nodes():
                interner.intern(name)
        self._interner = interner
        self._n = interner.size
        #: Reach bitsets over op ids (see the class docstring), or None
        #: until first needed.
        self._reach: Optional[List[int]] = None
        #: ASAP issue times, seeded by the first push (tracked analyses
        #: only) and relaxed copy-on-write by every later one.
        self._asap: Optional[Dict[str, int]] = None
        self._lp_rows: Dict[int, List[float]] = {}
        self._frames: List[_AnalysisFrame] = []
        #: Flat out-adjacency, op id -> [(dst id, latency), ...], cached per
        #: revision; the row kernel below relaxes over machine ints only.
        #: push/pop maintain it in place, so only out-of-band graph surgery
        #: (the candidate patch path) forces a full rebuild.
        self._adj: List[List[Tuple[int, int]]] = []
        self._adj_version = -1
        #: Shared topological order of the op ids (plus the position of each
        #: id in it), cached per revision.  Row computations relax over this
        #: one order instead of running a per-row DFS; push keeps it alive
        #: when the new arc already respects it (pos[src] < pos[dst]) and
        #: pop always keeps it alive (removing arcs cannot break an order).
        self._topo_ids: List[int] = []
        self._topo_pos: List[int] = []
        self._topo_version = -1

    @property
    def ddg(self) -> DDG:
        return self._g

    @property
    def interner(self) -> OpInterner:
        return self._interner

    @property
    def depth(self) -> int:
        """Number of push frames currently on the undo stack."""

        return len(self._frames)

    def op_id(self, name: str) -> int:
        """The interned op id of *name*."""

        return self._interner.id(name)

    # ------------------------------------------------------------------ #
    # Warm queries
    # ------------------------------------------------------------------ #
    def reach_bits(self) -> List[int]:
        """Reachability as bitsets over op ids (read-only, shared).

        Entry ``i`` holds bit ``j`` when op ``i`` reaches op ``j``, itself
        included.  Computed once from the flat adjacency in reverse
        topological order, then patched by every push.
        """

        reach = self._reach
        if reach is None:
            adj = self._adj_pairs()
            order = self._topo_order_ids()
            if len(order) != self._n:
                raise CyclicGraphError(f"{self._g.name!r} has a cycle")
            reach = [0] * self._n
            for v in reversed(order):
                r = 1 << v
                for w, _latency in adj[v]:
                    r |= reach[w]
                reach[v] = r
            self._reach = reach
        return reach

    def descendants_incl(self) -> Dict[str, Set[str]]:
        """The reach bitsets decoded into ``name -> names it reaches``, itself included.

        Built per call for tests and string-facing callers; no hot path
        reads it.
        """

        names = self._interner.names()
        out: Dict[str, Set[str]] = {}
        for i, bits in enumerate(self.reach_bits()):
            reached: Set[str] = set()
            while bits:
                low = bits & -bits
                reached.add(names[low.bit_length() - 1])
                bits ^= low
            out[names[i]] = reached
        return out

    def asap_times(self) -> Dict[str, int]:
        """ASAP issue times of the current graph (read-only, shared)."""

        if self._asap is not None:
            return self._asap
        return context_for(self._g).asap_times()

    def _adj_pairs(self) -> List[List[Tuple[int, int]]]:
        version = self._g.version
        if self._adj_version != version:
            iid = self._interner.id
            adj: List[List[Tuple[int, int]]] = [[] for _ in range(self._n)]
            g = self._g
            for name in g.nodes():
                out = adj[iid(name)]
                for e in g.out_edges(name):
                    out.append((iid(e.dst), e.latency))
            self._adj = adj
            self._adj_version = version
        return self._adj

    def _topo_order_ids(self) -> List[int]:
        """Topological order over op ids (Kahn on the flat adjacency)."""

        version = self._g.version
        if self._topo_version != version:
            adj = self._adj_pairs()
            n = self._n
            indeg = [0] * n
            for pairs in adj:
                for ni, _w in pairs:
                    indeg[ni] += 1
            ready = [i for i in range(n) if indeg[i] == 0]
            order: List[int] = []
            while ready:
                nid = ready.pop()
                order.append(nid)
                for ni, _w in adj[nid]:
                    indeg[ni] -= 1
                    if indeg[ni] == 0:
                        ready.append(ni)
            pos = [0] * n
            for i, nid in enumerate(order):
                pos[nid] = i
            self._topo_ids = order
            self._topo_pos = pos
            self._topo_version = version
        return self._topo_ids

    def _compute_row_flat(self, src_id: int) -> List[float]:
        """Flat longest-path row from *src_id* (graphalgo semantics, id space).

        One relaxation pass over the suffix of the shared topological order
        starting at *src_id* fills the distances; nodes the row cannot reach
        cost one float compare each.  Longest paths accumulate the same
        maxima under any topological order, so sharing one sort across all
        row computations (instead of the historic per-row DFS) cannot
        change a single distance.
        """

        adj = self._adj_pairs()
        order = self._topo_order_ids()
        dist: List[float] = [_NEG_INF] * self._n
        dist[src_id] = 0
        for nid in order[self._topo_pos[src_id]:]:
            d = dist[nid]
            if d == _NEG_INF:
                continue
            for ni, w in adj[nid]:
                nd = d + w
                if nd > dist[ni]:
                    dist[ni] = nd
        return dist

    def row(self, src_id: int) -> List[float]:
        """Exact flat longest-path row from op *src_id* (kept warm)."""

        row = self._lp_rows.get(src_id)
        if row is None:
            row = self._compute_row_flat(src_id)
            self._lp_rows[src_id] = row
        return row

    def row_by_name(self, src: str) -> List[float]:
        """Flat warm row from the operation named *src*."""

        return self.row(self._interner.id(src))

    def lp_row(self, src: str) -> Dict[str, float]:
        """Exact longest-path row from *src* as a name-keyed dict.

        Boundary API for string-facing callers and the property tests; the
        underlying flat row (:meth:`row`) is computed lazily and kept warm,
        the dict view is built per call.  Hot paths use :meth:`row` /
        :meth:`row_by_name` instead.
        """

        row = self.row(self._interner.id(src))
        return dict(zip(self._interner.names(), row))

    def _transient_row_flat(self, src_id: int) -> List[float]:
        """A flat row for one-shot use that must NOT join the warm set.

        Every cached row is patched on every subsequent push; rows needed
        only once (the continuation row of a pushed arc's destination) would
        otherwise pollute the cache and grow the per-push patch loop
        unboundedly over a long reduction run.
        """

        row = self._lp_rows.get(src_id)
        if row is not None:
            return row
        return self._compute_row_flat(src_id)

    def remains_acyclic_with_edges(self, edges) -> bool:
        self.reach_bits()
        return graphalgo.mini_graph_remains_acyclic(edges, self._reaches)

    def _reaches(self, u: str, v: str) -> bool:
        """Whether op *u* reaches op *v* (a bit test on the reach bitsets)."""

        iid = self._interner.id
        return self._reach[iid(u)] >> iid(v) & 1 == 1  # type: ignore[index]

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def evict_row_id(self, src_id: int) -> None:
        """Drop the cached flat row from op *src_id* (recomputed on demand).

        The candidate-patch path uses this for rows its validity criterion
        cannot prove unchanged.  Undo stays exact: every push replaces the
        top-level row dict copy-on-write, so an eviction never reaches an
        older epoch.
        """

        self._lp_rows.pop(src_id, None)

    def replace_arc(self, current: Optional[Edge], desired: Optional[Edge]) -> None:
        """Out-of-band surgery on one arc slot: swap *current* for *desired*.

        Either may be None; both join the same two ops.  The flat adjacency
        and the shared topological order are kept in place: removing or
        re-weighting an arc cannot break the order, and a new arc keeps it
        iff it already respects it (otherwise the next row computation
        falls back to Kahn).  Cached rows are *not* patched -- the caller
        evicts every row it cannot prove unchanged -- and the reachability
        bitsets and ASAP times, which only a push can maintain, are dropped.
        The surgery is not undoable; callers :meth:`rebase` afterwards.
        """

        g = self._g
        edge = desired if desired is not None else current
        if edge is None:
            return
        iid = self._interner.id
        src_id, dst_id = iid(edge.src), iid(edge.dst)
        adj_fresh = self._adj_version == g.version
        topo_fresh = self._topo_version == g.version and (
            current is not None
            or desired is None
            or self._topo_pos[src_id] < self._topo_pos[dst_id]
        )
        if current is not None:
            g.remove_edge(current)
        if desired is not None:
            g.add_edge(desired)
        if topo_fresh:
            self._topo_version = g.version
        if adj_fresh:
            pairs = self._adj[src_id]
            if current is None:
                pairs.append((dst_id, edge.latency))
            elif desired is None:
                pairs.remove((dst_id, current.latency))
            else:
                pairs[pairs.index((dst_id, current.latency))] = (dst_id, desired.latency)
            self._adj_version = g.version
        self._reach = None
        self._asap = None

    def is_acyclic(self) -> bool:
        """Whether the graph is acyclic: Kahn's order then covers every op.

        Free while the shared order is fresh.  On a cyclic graph the cached
        order is partial, so the owner must stop computing rows here.
        """

        return len(self._topo_order_ids()) == self._n

    def rebase(self) -> None:
        """Drop the undo stack, making the current state the new baseline.

        Called when the owner (a patched candidate DV state) invalidates its
        own frame history: the frames can never be popped again, and keeping
        them would pin every superseded copy-on-write epoch in memory.
        """

        self._frames.clear()

    def push(self, edges) -> _AnalysisFrame:
        """Apply serial arcs in place; returns the frame with dirty-region info.

        Duplicate arcs already dominated by an equal-or-larger latency are
        no-ops (exactly like :meth:`DDG.add_edge`); dominated duplicates are
        replaced and remembered so :meth:`pop` can restore them.
        """

        if self._track_reachability:
            self.reach_bits()
            if self._asap is None:
                self._asap = context_for(self._g).asap_times()
        frame = _AnalysisFrame(
            reach=self._reach,
            lp_rows=self._lp_rows,
            asap=self._asap,
        )
        # Copy-on-write epoch: the reach list and the row dict are fresh,
        # the rows they point to are shared until individually patched.
        reach = self._reach
        if reach is not None:
            reach = self._reach = list(reach)
        self._lp_rows = dict(self._lp_rows)
        iid = self._interner.id

        for edge in edges:
            duplicate = _duplicate_of(self._g, edge)
            if duplicate is not None and duplicate.latency >= edge.latency:
                continue  # no-op: the graph is untouched
            dst_id = iid(edge.dst)
            src_id = iid(edge.src)
            adj_fresh = self._adj_version == self._g.version
            # A re-weighted duplicate adds no ordering constraint; a new arc
            # keeps the shared topological order valid iff it already
            # respects it.
            topo_fresh = self._topo_version == self._g.version and (
                duplicate is not None
                or self._topo_pos[src_id] < self._topo_pos[dst_id]
            )
            self._g.add_edge(edge)
            if topo_fresh:
                self._topo_version = self._g.version
            # Maintain the flat adjacency through the mutation instead of
            # rebuilding it on the next row computation: the arc adds (or
            # re-weights) exactly one (dst, latency) pair.
            if adj_fresh:
                pairs = self._adj[src_id]
                if duplicate is None:
                    pairs.append((dst_id, edge.latency))
                else:
                    pairs[pairs.index((dst_id, duplicate.latency))] = (
                        dst_id,
                        edge.latency,
                    )
                self._adj_version = self._g.version

            # Longest-path rows: lp'(x, y) = max(lp(x, y), lp(x, src)+w+lp(dst, y)).
            # The continuation row from the arc's destination is the same
            # before and after the insertion (dst cannot reach src in a
            # DAG); it is built only once a cached row reaches src, and its
            # reachable entries are hoisted once per arc.  Each affected row
            # is one whole-row max-merge whose first improvement triggers
            # one copy-on-write row copy.
            w = edge.latency
            finite = None
            for sid, row in list(self._lp_rows.items()):
                base = row[src_id]
                if base == _NEG_INF:
                    continue
                if finite is None:
                    finite = flatbuf.finite_entries(self._transient_row_flat(dst_id))
                patched, changed = flatbuf.max_merge(row, base + w, finite)
                if patched is not None:
                    self._lp_rows[sid] = patched
                    previous = frame.lp_changes.get(sid)
                    if previous is None:
                        frame.lp_changes[sid] = changed  # type: ignore[assignment]
                    else:
                        previous.extend(changed)  # type: ignore[arg-type]

            ancestors = addition = 0
            below = 1 << dst_id
            if reach is not None and duplicate is None and not reach[src_id] & below:
                # Reachability actually grew: every op reaching src (its
                # entry holds bit src) but not yet dst gains reach[dst].
                addition = reach[dst_id]
                above = 1 << src_id
                for x, rx in enumerate(reach):
                    if rx & above and not rx & below:
                        reach[x] = rx | addition
                        ancestors |= 1 << x
            frame.records.append(
                _AppliedArc(edge, duplicate, ancestors, addition)
            )

        if self._asap is not None and frame.records:
            self._asap, frame.asap_moved = self._relaxed_asap(frame.records)
        self._frames.append(frame)
        self._inject()
        return frame

    def _relaxed_asap(
        self, records: List[_AppliedArc]
    ) -> Tuple[Dict[str, int], Set[str]]:
        """A copy of the ASAP dict relaxed forward over freshly applied arcs.

        Adding arcs only lengthens longest paths, so a monotone worklist
        relaxation from the arcs' destinations reaches the full recompute's
        times exactly (same integer arithmetic) while touching only the
        region below the arcs.  Also returns the nodes whose time moved.
        """

        g = self._g
        asap = dict(self._asap)  # type: ignore[arg-type]
        queue: List[str] = []
        for record in records:
            edge = record.edge
            cand = asap[edge.src] + edge.latency
            if cand > asap[edge.dst]:
                asap[edge.dst] = cand
                queue.append(edge.dst)
        moved = set(queue)
        while queue:
            v = queue.pop()
            base = asap[v]
            for edge in g.out_edges(v):
                cand = base + edge.latency
                if cand > asap[edge.dst]:
                    asap[edge.dst] = cand
                    queue.append(edge.dst)
                    moved.add(edge.dst)
        return asap, moved

    def pop(self) -> None:
        """Undo the most recent :meth:`push`, restoring graph and analyses."""

        if not self._frames:
            raise IndexError("no pushed serialization frame to pop")
        frame = self._frames.pop()
        iid = self._interner.id
        for record in reversed(frame.records):
            adj_fresh = self._adj_version == self._g.version
            # Removing an arc (or restoring the duplicate it replaced, which
            # has the same endpoints) never breaks a valid topological order.
            topo_fresh = self._topo_version == self._g.version
            self._g.remove_edge(record.edge)
            if record.replaced is not None:
                self._g.add_edge(record.replaced)
            if topo_fresh:
                self._topo_version = self._g.version
            if adj_fresh:
                edge = record.edge
                pairs = self._adj[iid(edge.src)]
                dst_id = iid(edge.dst)
                if record.replaced is None:
                    pairs.remove((dst_id, edge.latency))
                else:
                    pairs[pairs.index((dst_id, edge.latency))] = (
                        dst_id,
                        record.replaced.latency,
                    )
                self._adj_version = self._g.version
        self._reach = frame.reach
        self._lp_rows = frame.lp_rows
        self._asap = frame.asap
        self._inject()

    def _inject(self) -> None:
        """Seed the graph's fresh context epoch with the warm ASAP times.

        ``memo`` stores the value under the graph's *current* revision, so
        every pass querying the shared context after a push/pop sees the
        incrementally-maintained (and provably equal) times instead of
        recomputing them.  Descendant maps are not published: a cold
        context query recomputes them.
        """

        if self._asap is not None:
            asap = self._asap
            context_for(self._g).memo("asap", lambda: asap)


#: Sentinel returned by a candidate DV state's `antichain` when the DV
#: relation unexpectedly has a cycle and the generic path must decide.
_GENERIC_FALLBACK = object()


@dataclass
class _SyncFrame:
    """Undo record of one ``sync()`` on a candidate DV state.

    One frame is appended per sync call (even for early-returned no-ops) so
    the materialised frames plus the deferred pending pushes stay in
    lock-step with the owning :class:`IncrementalSaturation`'s push depth;
    :meth:`_DVState.pop_frame` replays it.
    """

    was_cyclic: bool
    engine_pushed: bool = False


@dataclass
class _CandidateFrame(_SyncFrame):
    """A sync frame of the longest-path engine, :class:`_CandidateDVState`."""

    analysis_pushed: bool = False
    #: The pre-push killer-bits dict (copy-on-write), or None when untouched.
    bits: Optional[Dict[int, int]] = None


@dataclass
class _ReachFrame(_SyncFrame):
    """A sync frame of the reachability engine, :class:`_ReachDVState`."""

    #: op id -> its reach bitset before the sync, for each entry it grew.
    reach: Dict[int, int] = field(default_factory=dict)


class _DVState:
    """What the two candidate DV engines share.

    A candidate DV state keeps the disjoint-value DAG of one Greedy-k
    candidate label's killing function warm across the owning
    :class:`IncrementalSaturation`'s pushes and pops.  The relation lives
    as one bitset per killer over the value indices of ``_values``; the
    DV condition ``lp(k(u), v) >= delta_r(k(u)) - delta_w(v)`` depends on
    ``u`` only through its killer, so values sharing a killer share the
    killer's bitset (minus their own bit).  A
    :class:`~repro.analysis.antichain.PersistentAntichain` holds its
    closure and maximum antichain: the reachability engine's rows are
    closed already and go in as closure rows, the longest-path engine's
    are closed by the antichain engine.

    Base-graph pushes are mirrored *lazily*: :meth:`defer_sync` queues the
    arcs and :meth:`ensure_synced` replays them in order only when the
    candidate is evaluated with an unchanged killing function; a changed
    one is re-targeted by ``patch``, which takes the queued pushes in too.
    A state that is instead rebuilt -- or popped before evaluation --
    never pays for them at all (counted as ``dv_syncs_skipped``).  Each
    sync opens one undo frame in ``_frames``, no-ops included, so the
    state survives the owner's pop.  ``rebuild`` and ``patch`` start a new
    baseline: a pop below them makes :meth:`pop_frame` return False, and
    the owner discards the state.

    The engines provide ``rebuild``, ``patch``, ``sync`` and ``_undo``, and
    take the same reuse/patch/rebuild decisions on the same inputs.
    """

    #: The killed graph's warm longest-path analysis (longest-path engine
    #: only; the generic fallback reads its graph).
    analysis: Optional[IncrementalAnalysis] = None

    def __init__(
        self,
        values: Tuple[Value, ...],
        stats: Optional[MutableMapping[str, int]] = None,
    ) -> None:
        self._values = values
        self._value_mask = (1 << len(values)) - 1
        self._stats = stats
        self.valid = False
        self.cyclic = False
        self.kf_mapping: Optional[Dict[Value, str]] = None
        self._pk_ref: Optional[Mapping[Value, List[str]]] = None
        self._pk_lists: Dict[Value, List[str]] = {}
        #: Killer key -> its DV bits (value ``j`` is bit ``j``; higher bits
        #: are masked off by :meth:`dv_rows`): a dict over the killers, or
        #: a list over every op id.
        self._killer_bits: Union[Dict[int, int], List[int]] = {}
        #: Value index -> its killer's key (None without a killer), and the
        #: inverse, killer key -> the value indices it kills.
        self._killer_of: List[Optional[int]] = []
        self._killer_values: Dict[int, List[int]] = {}
        self._engine: Optional[PersistentAntichain] = None
        self._frames: List[_SyncFrame] = []
        #: Deferred base-graph pushes not yet mirrored (newest last; always
        #: newer than every materialised sync frame).
        self._pending: List[List[Edge]] = []

    def _note_skipped(self, count: int) -> None:
        if count and self._stats is not None:
            self._stats["dv_syncs_skipped"] = (
                self._stats.get("dv_syncs_skipped", 0) + count
            )

    def defer_sync(self, edges: List[Edge]) -> None:
        """Queue a base-graph push to be mirrored on first evaluation."""

        self._pending.append(edges)

    def ensure_synced(self) -> None:
        """Replay the deferred pushes (in order) through ``sync``."""

        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for edges in pending:
            self.sync(edges)

    def sync(self, edges) -> None:  # pragma: no cover - every engine overrides it
        raise NotImplementedError

    def _undo(self, frame) -> None:  # pragma: no cover - every engine overrides it
        raise NotImplementedError

    def matches(self, kf, pk: Mapping[Value, List[str]]) -> bool:
        """Whether the stored state is exactly this killing function's.

        The killed graph's arcs depend on the killing function *and* on the
        potential-killers lists of its values (the arcs come from the other
        potential killers), so both must be unchanged for reuse.  Deferred
        syncs do not matter here: they carry graph arcs, not killing-choice
        state.  The warm engine hands back an unchanged function as the
        same object, so identity answers before equality is tried.
        """

        if not self.valid:
            return False
        mapping = self.kf_mapping
        if mapping is not kf.mapping and mapping != kf.mapping:
            return False
        if pk is self._pk_ref:
            return True
        for value, killers in self._pk_lists.items():
            current = pk.get(value, [])
            if current is not killers and current != killers:
                return False
        # A pk map is never mutated once published, so this one answers
        # by identity from now on.
        self._pk_ref = pk
        return True

    def _adopt(self, kf, pk: Mapping[Value, List[str]]) -> None:
        """Record *kf* and the pk lists of its values as the state's inputs.

        The mapping is kept by reference: a killing function's mapping is
        never mutated.
        """

        self.kf_mapping = kf.mapping
        self._pk_ref = pk
        self._pk_lists = {value: pk.get(value, []) for value in kf.mapping}

    def _assign_killers(self, kf, key: Callable[[str], int]) -> None:
        """(Re)derive the killer maps of *kf*, keyed by ``key(killer)``."""

        killer_of: List[Optional[int]] = [None] * len(self._values)
        killer_values: Dict[int, List[int]] = {}
        for j, v in enumerate(self._values):
            killer = kf.mapping.get(v)
            if killer is None:
                continue
            kid = key(killer)
            killer_of[j] = kid
            killer_values.setdefault(kid, []).append(j)
        self._killer_of = killer_of
        self._killer_values = killer_values

    def dv_rows(self) -> List[int]:
        """The current DV relation as per-value successor bitsets."""

        killer_bits, mask = self._killer_bits, self._value_mask
        return [
            0 if killer is None else killer_bits[killer] & mask & ~(1 << i)
            for i, killer in enumerate(self._killer_of)
        ]

    def _replace_changed_rows(self, engine: PersistentAntichain, old_rows: List[int]) -> None:
        """Hand *engine* the DV rows that differ from *old_rows*, keeping its
        closure and matching warm.

        Longest-path DV rows are not transitively closed in general, so
        they go through one ``replace_rows``, which re-closes the changed
        rows and their ancestors.  :class:`_ReachDVState` overrides this:
        its rows are closed already.
        """

        new_rows = self.dv_rows()
        engine.replace_rows(
            new_rows,
            [i for i, (old, new) in enumerate(zip(old_rows, new_rows)) if old != new],
        )

    def _drop_warm(self) -> None:
        """Cache a cyclic verdict and drop the warm machinery.

        An invalid killing function stays invalid: cycles survive every
        further arc addition, so the verdict holds until the killing
        function itself changes, which then rebuilds the state.
        """

        self.cyclic = True
        self._engine = None

    def pop_frame(self) -> bool:
        """Undo the most recent base push's effect; False when none remain.

        A still-deferred push is simply dropped from the queue (it was never
        mirrored -- that is the lazy win, counted as skipped); a materialised
        frame is replayed.  A False return means the state was rebuilt or
        patched *after* the push being undone, so the popped arcs are baked
        into its baseline rather than framed -- the caller must discard the
        state.
        """

        if self._pending:
            self._pending.pop()
            self._note_skipped(1)
            return True
        if not self._frames:
            return False
        frame = self._frames.pop()
        if frame.engine_pushed and self._engine is not None:
            self._engine.pop()
        self._undo(frame)
        self.cyclic = frame.was_cyclic
        return True

    def antichain(self):
        """The maximum DV antichain, or the generic-fallback sentinel.

        Identical to ``saturating_antichain`` on the same killed graph: the
        persistent engine's running closure has the same content as the
        pair-set closure, and the Koenig sets it extracts are invariant
        across maximum matchings (see
        :class:`~repro.analysis.antichain.PersistentAntichain`), so the
        repaired matching reports the same antichain the from-scratch
        matching would.
        """

        engine = self._engine
        if engine is None:
            return _GENERIC_FALLBACK
        indices = engine.antichain_indices()
        if indices is None:
            # A cycle in the DV relation (possible only in exotic
            # negative-latency configurations) defers to the generic path.
            return _GENERIC_FALLBACK
        values = self._values
        return [values[i] for i in indices]

    def antichain_from_scratch(self):
        """The PR-2 per-call pipeline on the current DV rows (reference path)."""

        indices = antichain_indices_from_rows(self.dv_rows())
        if indices is None:
            return _GENERIC_FALLBACK
        values = self._values
        return [values[i] for i in indices]


class _CandidateDVState(_DVState):
    """A candidate's DV-DAG from longest paths of its killed graph.

    The exact engine for every input: non-zero read/write offsets (VLIW)
    make the DV test a threshold on longest paths, and a negative arc
    breaks its reduction to reachability, so
    :class:`IncrementalSaturation` picks this engine whenever the input
    has either (and :class:`_ReachDVState` otherwise, which the tests
    check against this one).  For a fixed killing function the killed
    graph only gains the pushed serial arcs, so its longest paths -- and
    therefore the DV-DAG edges, which are threshold tests on those paths
    -- grow monotonically.  This state keeps the killed graph alive as an
    :class:`IncrementalAnalysis` mirror, seeds every killer's longest-path
    row, and on a sync rechecks only the (killer, value) pairs whose
    longest-path entry actually moved (reported by the mirror's patch
    log).  Each sync frame holds the killed-mirror push, the engine push
    and the copy-on-write killer bits.

    All per-op state is keyed by the op ids of the *bottom mirror's*
    interner (shared with the killed mirror -- a copy of the bottom graph
    interns identically, see :class:`~repro.analysis.interner.OpInterner`),
    so the lp → DV-bit threshold scans and the
    :class:`~repro.analysis.antichain.PersistentAntichain` feed run entirely
    in id/bitset space with no string translation.
    """

    def __init__(
        self,
        values: Tuple[Value, ...],
        delta_w: Mapping[int, int],
        stats: Optional[MutableMapping[str, int]] = None,
    ) -> None:
        super().__init__(values, stats)
        #: delta_w as a flat list over value indices (the hot threshold scan).
        self._dw: List[int] = [delta_w[i] for i in range(len(values))]
        self._interner: Optional[OpInterner] = None
        #: op id -> value index (or -1), and its inverse over value indices.
        self._opid_value: List[int] = []
        self._value_opid: List[int] = []
        self._killer_read: Dict[int, int] = {}
        #: (other id, killer id) -> number of values contributing that
        #: killing arc.  The arc's latency is a pure function of the pair,
        #: so the count is all the patch path needs to merge/unmerge the
        #: killed graph's serial slots exactly like `killed_graph`'s
        #: add_edge calls did.
        self._arc_refs: Dict[Tuple[int, int], int] = {}

    @staticmethod
    def _killing_arc_refs(
        kf, pk: Mapping[Value, List[str]], op_id: Callable[[str], int]
    ) -> Dict[Tuple[int, int], int]:
        """Refcounted (other, killer) id slots exactly as `killed_graph` adds them."""

        from .pkill import killing_arc_slots  # local: avoids import cycle

        refs: Dict[Tuple[int, int], int] = {}
        for other, killer in killing_arc_slots(kf, pk):
            slot = (op_id(other), op_id(killer))
            refs[slot] = refs.get(slot, 0) + 1
        return refs

    def rebuild(self, bottom_ddg: DDG, kf, pk: Mapping[Value, List[str]]) -> None:
        from .pkill import killed_graph  # local: avoids import cycle

        self._frames = []
        # A rebuild bakes the base graph's current arcs into the fresh
        # killed copy, so any still-deferred mirror pushes are moot.
        self._note_skipped(len(self._pending))
        self._pending = []
        self._adopt(kf, pk)
        interner = context_for(bottom_ddg).op_interner()
        self._interner = interner
        op_id = interner.id
        self._arc_refs = self._killing_arc_refs(kf, pk, op_id)
        killed = killed_graph(bottom_ddg, kf, pk=pk)
        self.valid = True
        if not context_for(killed).is_acyclic():
            self._drop_warm()
            return
        self.cyclic = False
        # Reachability tracking is skipped: the sync's cycle test reads the
        # arcs' target row instead of a descendant map.  The killed graph is
        # a copy of the bottom mirror, so interning it into the mirror's
        # interner changes nothing and the flat rows share the id space.
        self.analysis = IncrementalAnalysis(
            killed, track_reachability=False, interner=interner
        )
        opid_value = [-1] * interner.size
        value_opid: List[int] = []
        for j, v in enumerate(self._values):
            vid = op_id(v.node)
            value_opid.append(vid)
            opid_value[vid] = j
        self._opid_value = opid_value
        self._value_opid = value_opid
        self._set_killer_structures(kf, killed)
        # Seeding every killer row here is what makes the sync exact: the
        # mirror patches cached rows and logs each change.
        row = self.analysis.row
        self._killer_bits = {
            kid: self._mask_from_row(row(kid), self._killer_read[kid])
            for kid in sorted(self._killer_read)
        }
        self._engine = PersistentAntichain(len(self._values), rows=self.dv_rows())

    def _set_killer_structures(self, kf, killed: DDG) -> None:
        """(Re)derive killer assignment maps from *kf* (cheap, O(values))."""

        if self._interner is None:
            raise RuntimeError("killer structures derived before rebuild() interned the graph")
        op_id = self._interner.id
        self._assign_killers(kf, op_id)
        self._killer_read = {
            op_id(k): killed.operation(k).delta_r for k in set(kf.mapping.values())
        }

    def _mask_from_row(self, row: List[float], read: int) -> int:
        """The killer's DV bitset from its flat longest-path row (threshold test)."""

        return flatbuf.threshold_mask(row, self._value_opid, self._dw, read)

    def patch(self, bottom_ddg: DDG, kf, pk: Mapping[Value, List[str]]) -> bool:
        """Re-target the warm state onto a new killing function, then replay.

        The from-scratch alternative (:meth:`rebuild`) copies the whole
        bottom graph, re-adds every killing arc, and re-seeds every killer's
        longest-path row and the antichain engine.  Between consecutive
        reduction iterations, however, the killing function of a candidate
        label changes for only a handful of values (the ones in components
        touched by the last serialization), so this method instead:

        * diffs the refcounted killing-arc slots and rewrites, at the killed
          mirror's last synced depth, exactly the serial slots whose merged
          latency moved.  The merge reads the *current* bottom mirror's own
          arc, which `killed_graph`'s add_edge would have max-merged the
          same way, so a deferred push that lands on a rewritten slot finds
          an equal or longer arc there and replays as a no-op.  The
          surgery keeps the mirror's flat adjacency and topological order
          in place;
        * keeps every cached killer row (and its DV bitset) that provably
          cannot see a changed slot -- a cached row reaches no changed arc's
          source (``row[src] is -inf``) in the old graph, and by induction
          on the first changed arc of any new path, none in the new graph
          either -- and evicts the rest;
        * only then replays the deferred base pushes through :meth:`sync`,
          which patches the kept rows and their bitsets and checks each
          push for a cycle, and seeds the evicted killers' rows on the
          final graph;
        * feeds the engine the changed DV rows through one
          :meth:`~repro.analysis.antichain.PersistentAntichain.replace_rows`,
          for growth and shrink alike, keeping its closure and matching
          warm.

        A cycle in the final killed graph is closed either by a slot the
        diff added (checked right after the diff) or by a replayed arc
        (checked by the sync), so the cycle verdict is exact too.  Like
        :meth:`rebuild` this drops the sync-frame history (the patch is not
        undoable), so a later owner pop discards the state.  Returns False
        when there is no warm acyclic state to re-target (never built, or
        the cached killing function is cyclic) -- the caller rebuilds.  The
        result is pinned equal to a rebuild by
        ``tests/test_incremental_candidates.py``.
        """

        analysis, engine, interner = self.analysis, self._engine, self._interner
        if not self.valid or self.cyclic or analysis is None or engine is None:
            return False
        if interner is None:
            raise RuntimeError("patch() of a state that rebuild() never interned")
        killed = analysis.ddg
        name_of = interner.name
        new_refs = self._killing_arc_refs(kf, pk, interner.id)
        old_refs = self._arc_refs
        changed_sources: List[int] = []
        grew = False
        for slot in old_refs.keys() | new_refs.keys():
            has = slot in new_refs
            if (slot in old_refs) == has:
                continue
            src, dst = name_of(slot[0]), name_of(slot[1])
            # The merged serial slot: the bottom mirror's own arc (base
            # graph, bottom normalisation, or pushed serialization arcs)
            # max-merged with the killing arc while it is contributed.
            base: Optional[int] = None
            for e in bottom_ddg.edges_between(src, dst):
                if e.kind is DependenceKind.SERIAL and e.rtype is None:
                    base = e.latency if base is None else max(base, e.latency)
            desired: Optional[int] = base
            if has:
                kill_lat = killed.operation(src).delta_r - killed.operation(dst).delta_r
                desired = kill_lat if base is None else max(kill_lat, base)
            current: Optional[Edge] = None
            for e in killed.edges_between(src, dst):
                if e.kind is DependenceKind.SERIAL and e.rtype is None:
                    current = e
            if desired == (None if current is None else current.latency):
                continue  # the merged slot is unchanged; nothing to patch
            analysis.replace_arc(
                current,
                None if desired is None
                else Edge(src, dst, desired, DependenceKind.SERIAL, None),
            )
            grew = grew or current is None
            changed_sources.append(slot[0])

        self._adopt(kf, pk)
        self._arc_refs = new_refs
        self._frames = []
        engine.clear_frames()
        pending, self._pending = self._pending, []
        if grew and not analysis.is_acyclic():
            # The new killing function is invalid; cache that verdict like
            # rebuild does (it survives further arc additions) and drop the
            # warm machinery -- a later change of function must rebuild.
            self._note_skipped(len(pending))
            self._drop_warm()
            return True

        old_rows = self.dv_rows()
        old_bits = self._killer_bits
        self._set_killer_structures(kf, killed)
        bits: Dict[int, int] = {}
        unseeded: List[int] = []
        for killer_id in sorted(self._killer_read):
            row = analysis._lp_rows.get(killer_id)
            previous = old_bits.get(killer_id)
            if (
                row is not None
                and previous is not None
                and all(row[s] == _NEG_INF for s in changed_sources)
            ):
                bits[killer_id] = previous
                continue
            if row is not None:
                analysis.evict_row_id(killer_id)
            unseeded.append(killer_id)
        for killer_id in old_bits:
            if killer_id not in self._killer_read:
                analysis.evict_row_id(killer_id)
        self._killer_bits = bits

        # The replay patches only the kept rows (evicted ones are not
        # cached) and leaves the engine to the single update below.
        self._engine = None
        for edges in pending:
            self.sync(edges)
        self._engine = engine
        self._frames = []
        analysis.rebase()
        if self.cyclic:
            self._drop_warm()
            return True
        bits = self._killer_bits
        for killer_id in unseeded:
            bits[killer_id] = self._mask_from_row(
                analysis.row(killer_id), self._killer_read[killer_id]
            )
        self._replace_changed_rows(engine, old_rows)
        return True

    def _drop_warm(self) -> None:
        super()._drop_warm()
        self.analysis = None

    def sync(self, edges) -> None:
        """Mirror a push of the base graph; recheck only the moved lp entries."""

        frame = _CandidateFrame(was_cyclic=self.cyclic)
        self._frames.append(frame)
        if not self.valid or self.cyclic or self.analysis is None:
            return
        analysis = self.analysis
        op_id = analysis.op_id
        targets = {e.dst for e in edges}
        if len(targets) == 1:
            # Serialization arcs of one candidate share their destination, so
            # a new cycle in the killed graph must be a base path from the
            # target back to a source; one longest-path row answers that.
            (target,) = targets
            row = analysis._transient_row_flat(op_id(target))
            if any(row[op_id(e.src)] != _NEG_INF for e in edges):
                self.cyclic = True
                return
        elif not analysis.remains_acyclic_with_edges(edges):
            self.cyclic = True
            return
        analysis_frame = analysis.push(edges)
        frame.analysis_pushed = True
        engine = self._engine
        if engine is not None:
            engine.push()
            frame.engine_pushed = True
        bits_changed = False
        opid_value = self._opid_value
        dw = self._dw
        killer_bits = self._killer_bits
        for sid, moved in analysis_frame.lp_changes.items():
            read = self._killer_read.get(sid)
            if read is None:
                continue
            row = analysis.row(sid)
            mask = killer_bits[sid]
            for y in moved:
                j = opid_value[y]
                if j >= 0 and row[y] >= read - dw[j]:
                    mask |= 1 << j
            added = mask & ~killer_bits[sid]
            if not added:
                continue
            if not bits_changed:
                # Copy-on-write: the pre-push dict goes to the frame, every
                # untouched mask stays shared with the previous iteration.
                frame.bits = killer_bits
                killer_bits = self._killer_bits = dict(killer_bits)
                bits_changed = True
            killer_bits[sid] = mask
            if engine is not None:
                # New DV arcs i -> j for every value i killed by src and
                # every newly reached value j; the engine patches its
                # running closure and marks the matching for repair.
                for i in self._killer_values.get(sid, ()):
                    engine.insert_mask(i, added & ~(1 << i))

    def _undo(self, frame: _CandidateFrame) -> None:
        if frame.analysis_pushed and self.analysis is not None:
            self.analysis.pop()
        if frame.bits is not None:
            self._killer_bits = frame.bits


class _ReachDVState(_DVState):
    """A candidate's DV-DAG from reachability bitsets of its killed graph.

    :class:`IncrementalSaturation` picks this engine while every op reads
    and writes at offset 0 and no arc is negative -- any superscalar or
    EPIC target, and every benchmark workload.  There the longest-path
    test of :class:`_CandidateDVState` is plain reachability:

    * with ``delta_r = delta_w = 0``, every threshold
      ``delta_r(k(u)) - delta_w(v)`` is 0;
    * killing arcs have latency ``delta_r(o) - delta_r(k) = 0``;
    * the reduction loop's serialization arcs have latency 0 in
      ``offsets`` mode and 1 in ``sequential`` mode;
    * so, with no negative base arc, every path of ``G→k`` has length
      >= 0, and ``lp(k, v) >= 0`` holds exactly when ``v`` is reachable
      from ``k`` -- ``v = k`` included, at length 0;
    * therefore a killer's DV bits are ``reach(k) ∩ values``, minus each
      value's own bit: on such graphs, exactly what
      :func:`~repro.analysis.flatbuf.threshold_mask` and
      :meth:`_CandidateDVState.dv_rows` compute;
    * ``G→k`` is cyclic exactly when a DFS finds a back arc, and a pushed
      arc ``a → t`` closes a cycle exactly when ``t`` already reaches
      ``a``.

    **Closed rows.**  Value ``i``'s DV row, ``reach(k(i)) ∩ values``
    minus ``i``, is its own transitive closure: if ``j`` is in ``i``'s row
    and ``l`` in ``j``'s, then ``k(i)`` reaches ``j``, ``j → k(j)`` is a
    flow arc (every potential killer reads its value, ⊥ included through
    the bottom mirror's flow arcs), and ``k(j)`` reaches ``l``; and
    ``l != i``, since ``k(i)`` reaching ``i`` would close a cycle through
    the flow arc ``i → k(i)`` in the acyclic ``G→k``.  So the engine hands
    its rows to the antichain engine as closure rows
    (:meth:`~repro.analysis.antichain.PersistentAntichain.set_closure_rows`),
    and nothing re-closes them.

    **Layout.**  ``_killer_bits`` is the reach table: one entry per op id
    of the bottom mirror, holding the ops it reaches in ``G→k`` (itself
    included) as a bitset over *bit positions*.  Values take positions
    ``0 .. nv-1`` in ``_values`` order and the other ops follow, so a
    killer's DV row is its entry masked to the low ``nv`` bits, with no
    translation step.

    **Rebuild and patch.**  Both close ``G→k`` over the bottom mirror's
    flat adjacency in place: the killing arcs go onto its out-lists as
    op-id pairs for the length of one iterative DFS post-order, which also
    finds a cycle.  No successor list is built, no DDG is copied and no
    longest path is computed.  The mirror already
    holds every deferred push, so a patch simply closes the new function's
    graph on it and hands the antichain engine the DV rows that changed; a
    rebuild seeds a new engine with every row.

    **Sync.**  Per pushed arc ``a → t``: a cycle if bit ``a`` is set in
    ``reach[t]``; otherwise every entry holding bit ``a`` gains
    ``reach[t]``.  The frame logs the old value of each entry a sync
    grows, and the grown rows of the values each such killer kills go to
    the antichain engine in one undo-framed call.
    """

    def __init__(
        self,
        values: Tuple[Value, ...],
        mirror: IncrementalAnalysis,
        stats: Optional[MutableMapping[str, int]] = None,
    ) -> None:
        super().__init__(values, stats)
        #: The owner's bottom mirror: the only graph this engine reads.
        self._mirror = mirror
        op_id = mirror.op_id
        position = {op_id(v.node): j for j, v in enumerate(values)}
        nxt = len(values)
        #: op id -> the one-bit mask of its bit position.
        self._bit: List[int] = []
        for i in range(mirror.interner.size):
            j = position.get(i)
            if j is None:
                j, nxt = nxt, nxt + 1
            self._bit.append(1 << j)
        self._killer_bits: List[int] = []

    def _killed_reach(self, kf, pk: Mapping[Value, List[str]]) -> Optional[List[int]]:
        """The reach table of ``G→k``, closed over the mirror's flat adjacency.

        The killing arcs go onto the adjacency's out-lists in place, as
        ``(killer id, 0)`` pairs, for the length of one :meth:`_closure`,
        and are cut off again before this returns.
        """

        op_id = self._mirror.interner.id
        adj = self._mirror._adj_pairs()
        grown: Dict[int, int] = {}
        try:
            for value, killer in kf.items():
                others = pk.get(value)
                if not others or (len(others) == 1 and others[0] == killer):
                    continue  # no other potential killer: no killing arc
                arc = (op_id(killer), 0)
                for other in others:
                    if other != killer:
                        oid = op_id(other)
                        out = adj[oid]
                        if oid not in grown:
                            grown[oid] = len(out)
                        out.append(arc)
            return self._closure(adj)
        finally:
            for oid, size in grown.items():
                del adj[oid][size:]

    def _closure(self, adj: Sequence[List[Tuple[int, int]]]) -> Optional[List[int]]:
        """The reach table of the graph *adj*, or None when it has a cycle.

        *adj* maps an op id to its out-arcs as ``(dst id, latency)`` pairs.
        One iterative DFS: an op's entry is its own bit OR its successors'
        entries, filled in post-order; meeting an op still on the DFS path
        is a back arc, hence a cycle.
        """

        bit = self._bit
        n = len(adj)
        reach = [0] * n
        state = [0] * n  # 0: unseen, 1: on the DFS path, 2: closed
        for root in range(n):
            if state[root]:
                continue
            state[root] = 1
            path = [root]
            todo = [iter(adj[root])]
            while path:
                for w, _latency in todo[-1]:
                    seen = state[w]
                    if not seen:
                        state[w] = 1
                        path.append(w)
                        todo.append(iter(adj[w]))
                        break
                    if seen == 1:
                        return None
                else:
                    v = path.pop()
                    todo.pop()
                    r = bit[v]
                    for w, _latency in adj[v]:
                        r |= reach[w]
                    reach[v] = r
                    state[v] = 2
        return reach

    def _check_mirror(self, bottom_ddg: DDG) -> None:
        if bottom_ddg is not self._mirror.ddg:
            raise ValueError("a reachability DV state reads only its owner's bottom mirror")

    def rebuild(self, bottom_ddg: DDG, kf, pk: Mapping[Value, List[str]]) -> None:
        self._check_mirror(bottom_ddg)
        self._frames = []
        # The table is closed on the current mirror, which already holds
        # every deferred push.
        self._note_skipped(len(self._pending))
        self._pending = []
        self._adopt(kf, pk)
        self.valid = True
        reach = self._killed_reach(kf, pk)
        if reach is None:
            self._drop_warm()
            return
        self.cyclic = False
        self._killer_bits = reach
        self._assign_killers(kf, self._mirror.op_id)
        self._engine = engine = PersistentAntichain(len(self._values))
        engine.set_closure_rows(enumerate(self.dv_rows()))

    def patch(self, bottom_ddg: DDG, kf, pk: Mapping[Value, List[str]]) -> bool:
        """Re-target the warm state onto a new killing function.

        Closes the new function's ``G→k`` on the current mirror, deferred
        pushes included, and keeps the antichain engine warm: the DV rows
        that changed go in as closure rows.  Returns False, so that the
        caller rebuilds, exactly when the longest-path engine's patch
        would: with no warm acyclic state to re-target.
        """

        engine = self._engine
        if not self.valid or self.cyclic or engine is None:
            return False
        self._check_mirror(bottom_ddg)
        old_rows = self.dv_rows()
        old_mapping, old_pk = self.kf_mapping, self._pk_lists
        deferred, self._pending = len(self._pending), []
        self._frames = []
        engine.clear_frames()
        self._adopt(kf, pk)
        reach = self._killed_reach(kf, pk)
        if reach is None:
            if deferred and self._slot_diff_cyclic(old_mapping, old_pk, kf, pk, deferred):
                self._note_skipped(deferred)
            self._drop_warm()
            return True
        self._killer_bits = reach
        self._assign_killers(kf, self._mirror.op_id)
        self._replace_changed_rows(engine, old_rows)
        return True

    def _replace_changed_rows(self, engine: PersistentAntichain, old_rows: List[int]) -> None:
        """The changed DV rows go in as closure rows (see **Closed rows**)."""

        engine.set_closure_rows(
            (i, new)
            for i, (old, new) in enumerate(zip(old_rows, self.dv_rows()))
            if old != new
        )

    def _slot_diff_cyclic(self, old_mapping, old_pk, kf, pk, deferred: int) -> bool:
        """Whether the longest-path engine's patch would skip the deferred pushes.

        That engine re-targets its killed mirror at the last synced depth,
        before it replays the *deferred* pushes, and counts them in
        ``dv_syncs_skipped`` when a killing slot it had to add closes a
        cycle there; a cycle that only a replayed arc closes costs no skip.
        Only that counter depends on the difference, so this is worked out
        only when the final ``G→k`` is cyclic.  The synced-depth graph is
        the mirror without the arcs the deferred pushes added, and a
        dropped slot keeps the mirror's own serial arc, deferred or not:
        that engine reads it from the current mirror.
        """

        from .pkill import killing_arc_slots  # local: avoids import cycle

        mirror = self._mirror
        g, op_id, name_of = mirror.ddg, mirror.op_id, mirror.interner.name
        adj = [[(dst, 0) for dst, _w in pairs] for pairs in mirror._adj_pairs()]
        deferred_serial: Set[Tuple[int, int]] = set()
        for frame in mirror._frames[len(mirror._frames) - deferred:]:
            for record in frame.records:
                if record.replaced is None:
                    edge = record.edge
                    arc = (op_id(edge.src), op_id(edge.dst))
                    adj[arc[0]].remove((arc[1], 0))
                    if edge.kind is DependenceKind.SERIAL and edge.rtype is None:
                        deferred_serial.add(arc)

        def mirror_serial(arc: Tuple[int, int]) -> bool:
            return any(
                e.kind is DependenceKind.SERIAL and e.rtype is None
                for e in g.edges_between(name_of(arc[0]), name_of(arc[1]))
            )

        def slots(mapping, pk_lists) -> Set[Tuple[int, int]]:
            return {(op_id(o), op_id(k)) for o, k in killing_arc_slots(mapping, pk_lists)}

        old, new = slots(old_mapping, old_pk), slots(kf, pk)
        if all(mirror_serial(s) and s not in deferred_serial for s in new - old):
            return False  # no slot was added, so the diff closed no cycle
        for arc in new | {s for s in old - new if mirror_serial(s)}:
            adj[arc[0]].append((arc[1], 0))
        return self._closure(adj) is None

    def sync(self, edges) -> None:
        """Mirror a push of the base graph by ORing reach sets."""

        frame = _ReachFrame(was_cyclic=self.cyclic)
        self._frames.append(frame)
        engine = self._engine
        if not self.valid or self.cyclic or engine is None:
            return
        reach, bit, op_id = self._killer_bits, self._bit, self._mirror.op_id
        log = frame.reach
        for edge in edges:
            a, t = op_id(edge.src), op_id(edge.dst)
            gained, above = reach[t], bit[a]
            if gained & above:
                # t reaches a: the arc closes a cycle.  The frame's log
                # restores the entries earlier arcs grew.
                self.cyclic = True
                return
            if reach[a] & bit[t]:
                continue  # a reaches t already, and with it all of reach[t]
            for x, rx in enumerate(reach):
                if rx & above and gained & ~rx:
                    if x not in log:
                        log[x] = rx
                    reach[x] = rx | gained
        killer_values, mask = self._killer_values, self._value_mask
        rows: List[Tuple[int, int]] = []
        for x, old in log.items():
            killed = killer_values.get(x)
            if killed is None:
                continue
            row = reach[x] & mask
            if row != old & mask:
                # x newly reaches a value: the rows of the values it kills
                # grow to its new reach set, which is closed as it is.
                rows.extend((i, row & ~(1 << i)) for i in killed)
        if rows:
            engine.push()
            frame.engine_pushed = True
            engine.set_closure_rows(rows)

    def _undo(self, frame: _ReachFrame) -> None:
        reach = self._killer_bits
        for x, old in frame.reach.items():
            reach[x] = old


class IncrementalSaturation:
    """Greedy-k saturation state kept warm across serialization pushes.

    Mutates a working graph in place and owns the only warm structural
    analysis, :attr:`mirror`, over its bottom-normalised copy ``G ∪ {⊥}``.
    A push applies the arcs to the mirror, then the arcs the mirror applied
    to the working graph; ⊥ only receives arcs, so the mirror answers every
    reachability, ASAP or longest-path query between other nodes.  On top
    sit the saturation-specific analyses, each patched only where a push
    changed it and restored by reference on pop.  Per-value tables are
    lists by value index (``_values`` order) and per-op sets are bitsets
    over the mirror's op ids, so the push-side bookkeeping hashes a
    :class:`~repro.core.types.Value` only to store a changed row in the
    ``pk`` dict:

    * the potential killers: a value's row (a name list in the ``pk``
      dict, plus its bitset in ``_pk_masks``) is replaced only when its
      potential killers change.  The dirty screen ANDs each value's
      potential-killer and consumer masks against each applied arc's
      ``ancestors`` and ``addition`` bitsets (see :class:`_AppliedArc`),
      and a dirty row is recomputed from the reach bitsets: consumer ``c``
      is a potential killer iff ``reach[c] & cons_mask == bit(c)``;
    * the killers' drag masks (``_kdv``, the value ops a killer reaches,
      itself excluded): a mask is replaced only when a push brings in a
      value op, which happens only to the arc's ``ancestors``;
    * Greedy-k's killing function.  Each push records the killers whose
      drag mask it replaced and the values whose row it replaced.  When
      no row changed since the last call, :meth:`candidate_functions`
      sends only the components holding a recorded killer through
      :class:`~repro.saturation.greedy.ChoiceCache` and keeps the previous
      function object unless an assignment changed; a component's
      assignment depends only on its values' rows and its killers' masks,
      so the others cannot move.  Otherwise (a row changed, or a pop
      since the last call) it repairs the decomposition
      (:class:`~repro.saturation.greedy.ComponentCache`) and walks every
      component (counted as ``killing_full_passes``);
    * the ``canonical`` and ``asap-induced`` killing functions: a value is
      re-chosen only when its row changed or one of its potential
      killers' ASAP times moved, and a function object is kept unless one
      of its killers changes.  When every potential killer reads at
      offset 0 the two choose by the same key, so both labels share one
      object.

    A :class:`~repro.saturation.pkill.KillingFunction`'s mapping is never
    mutated: a change copies it.  That is what lets the candidate DV
    states and Greedy-k's repeat check compare functions by identity.

    :meth:`candidate_functions` hands the three candidate functions to
    Greedy-k, and one warm candidate DV state per candidate label
    evaluates them: synced lazily on evaluation, re-targeted by ``patch``
    when its killing function drifts, and built from scratch only while
    cold or while its cached killing function is cyclic.  The input picks
    the engine.  While every op reads and writes at offset 0 and no arc
    is negative, the DV test is reachability in the killed graph and
    :class:`_ReachDVState` answers from bitsets over the mirror; any
    other input -- VLIW offsets, or a negative arc, also one pushed later
    -- gets the longest-path engine, :class:`_CandidateDVState`, for the
    rest of the session.  Both take the same reuse/patch/rebuild
    decisions.  ``stats`` counts the warm-path hits and ``timings``
    accumulates monotonic per-stage wall clock, both surfaced in
    ``ReductionResult.details["engine_stats"]``.
    """

    def __init__(self, working: DDG, rtype: RegisterType | str) -> None:
        self.rtype = canonical_type(rtype)
        self._working = working
        self._mirror = IncrementalAnalysis(working.with_bottom())
        self._pk: Optional[Dict[Value, List[str]]] = None
        #: Per value index: its pk row (the object in ``_pk``), and its
        #: potential killers as a bitset over op ids.
        self._rows: List[List[str]] = []
        self._pk_masks: List[int] = []
        #: Per value index: its consumers' names, their op ids, and the
        #: bitset of those ids (static: serial arcs add no consumer).
        self._cons: List[Tuple[Tuple[str, ...], Tuple[int, ...]]] = []
        self._cons_masks: List[int] = []
        #: Potential killer -> its drag mask: the value ops it reaches,
        #: itself excluded, as a bitset over op ids.
        self._kdv: Optional[Dict[str, int]] = None
        #: Potential killer -> the value indices it could kill in the
        #: initial pk.  Rows only shrink, so this stays a superset at every
        #: depth.
        self._killer_values: Dict[str, List[int]] = {}
        #: Op id -> potential-killer name, and the bitset of those ids.
        self._killer_name: Dict[int, str] = {}
        self._killer_ops = 0
        #: The bitset of the value ops.
        self._value_ops = 0
        #: Potential killer -> its read offset delta_r.
        self._read: Dict[str, int] = {}
        #: Whether every potential killer reads at offset 0, which makes
        #: the asap-induced choice the canonical one.
        self._zero_read = True
        #: The ``canonical`` and ``asap-induced`` functions (one object
        #: under ``_zero_read``), and their killers by value index.
        self._canonical: Optional[KillingFunction] = None
        self._induced: Optional[KillingFunction] = None
        self._canonical_of: List[Optional[str]] = []
        self._induced_of: List[Optional[str]] = []
        #: The three functions last returned by candidate_functions, and
        #: what the pushes since then changed: the killers whose drag mask
        #: and the value indices whose row they replaced.  A pop (or no
        #: previous function) asks for a walk over every component.
        self._greedy: Optional[KillingFunction] = None
        self._returned_fixed: Tuple[Optional[KillingFunction], ...] = (None, None)
        self._touched_killers: Set[str] = set()
        self._changed_rows: Set[int] = set()
        self._walk_all = True
        #: Per push: the pre-push saturation tables and fixed functions,
        #: and the working-graph arcs it added with the duplicates they
        #: displaced.
        self._frames: List[Tuple[object, ...]] = []
        from .greedy import ChoiceCache, ComponentCache  # local: avoids import cycle

        #: Cross-iteration bipartite-component decomposition, repaired from
        #: the rows a push replaced instead of rebuilt (see
        #: :class:`~repro.saturation.greedy.ComponentCache`); surfaces
        #: ``components_reused`` / the ``greedy_decompose`` timer below.
        self.component_cache = ComponentCache()
        #: Per-component killer assignments, reused while their choice
        #: provably stands; surfaces ``killing_set_hits`` and
        #: ``killing_set_misses``.
        self.choices = ChoiceCache()
        mirror = self._mirror.ddg
        self._values: Tuple[Value, ...] = tuple(sorted(mirror.values(self.rtype)))
        self._node_index: Dict[str, int] = {
            v.node: i for i, v in enumerate(self._values)
        }
        self._delta_w: Dict[int, int] = {
            i: mirror.operation(v.node).delta_w for i, v in enumerate(self._values)
        }
        self._candidate_states: Dict[str, _DVState] = {}
        #: Whether the candidates' DV relations are killed-graph
        #: reachability (see :class:`_ReachDVState`).  A negative pushed
        #: arc clears it for the rest of the session.
        self._reach_dv = all(
            op.delta_r == 0 and op.delta_w == 0 for op in mirror.operations()
        ) and all(e.latency >= 0 for e in mirror.edges())
        self.stats: Dict[str, int] = {
            "dv_rebuilds": 0,
            "dv_reuses": 0,
            "dv_patches": 0,
            "dv_syncs_skipped": 0,
            "components_reused": 0,
            "killing_set_hits": 0,
            "killing_set_misses": 0,
            "killing_full_passes": 0,
        }
        #: Monotonic per-stage wall-clock accumulators (seconds), keyed by
        #: engine stage.  The benchmark's bottleneck profile reads these, so
        #: time is attributed to the stage that spent it rather than to
        #: whichever caller happened to trigger the computation.
        #: ``killing_functions`` bills building and maintaining the
        #: candidate killing functions, less the decomposition that
        #: ``greedy_decompose`` bills.
        self.timings: Dict[str, float] = {
            "dv_rebuild": 0.0,
            "dv_patch": 0.0,
            "dv_antichain": 0.0,
            "candidate_sync": 0.0,
            "analysis_push": 0.0,
            "greedy_decompose": 0.0,
            "killing_functions": 0.0,
        }

    @property
    def working_ddg(self) -> DDG:
        return self._working

    @property
    def mirror(self) -> IncrementalAnalysis:
        """The bottom mirror's warm analysis (read-only for callers)."""

        return self._mirror

    @property
    def mirror_ddg(self) -> DDG:
        return self._mirror.ddg

    # ------------------------------------------------------------------ #
    # Saturation-state maintenance
    # ------------------------------------------------------------------ #
    def _ensure_pk(self) -> None:
        if self._pk is not None:
            return
        from .pkill import potential_killers_map  # local: avoids import cycle

        analysis = self._mirror
        mirror, op_id = analysis.ddg, analysis.op_id
        pk = potential_killers_map(mirror, self.rtype, context_for(mirror))
        index = self._node_index
        rows: List[List[str]] = [[] for _ in self._values]
        for value, killers in pk.items():
            rows[index[value.node]] = killers
        self._rows = rows
        self._pk_masks = [_bits(op_id(k) for k in row) for row in rows]
        self._cons = []
        for value in self._values:
            names = tuple(mirror.consumers(value.node, self.rtype))
            self._cons.append((names, tuple(op_id(c) for c in names)))
        self._cons_masks = [_bits(ids) for _names, ids in self._cons]
        self._value_ops = _bits(op_id(v.node) for v in self._values)
        reach = analysis.reach_bits()
        kdv: Dict[str, int] = {}
        for killers in pk.values():
            for killer in killers:
                if killer not in kdv:
                    kid = op_id(killer)
                    kdv[killer] = reach[kid] & self._value_ops & ~(1 << kid)
        self._kdv = kdv
        for i, killers in enumerate(rows):
            for killer in killers:
                self._killer_values.setdefault(killer, []).append(i)
        self._killer_name = {op_id(k): k for k in self._killer_values}
        self._killer_ops = _bits(self._killer_name)
        self._read = {k: mirror.operation(k).delta_r for k in self._killer_values}
        self._zero_read = not any(self._read.values())
        self._pk = pk
        from .pkill import KillingFunction  # local: avoids import cycle

        # Every value is "moved" from an empty function, in pk order, so the
        # mappings come out in pk order like the cold functions'.
        self._canonical = self._induced = KillingFunction(self.rtype, {})
        self._canonical_of = [None] * len(rows)
        self._induced_of = [None] * len(rows)
        self._rechoose_fixed([index[value.node] for value in pk])

    def _update_after_push(self, records: List[_AppliedArc]) -> List[int]:
        """Patch pk and the drag masks; returns the value indices whose row changed.

        Records the killers whose mask was replaced and the changed rows
        for :meth:`candidate_functions`.
        """

        if self._pk is None or self._kdv is None:
            raise RuntimeError("push bookkeeping before the potential killers were built")
        pk_masks, cons_masks = self._pk_masks, self._cons_masks
        value_ops, killer_ops, killer_name = self._value_ops, self._killer_ops, self._killer_name
        kdv = self._kdv
        dirty: Set[int] = set()
        for record in records:
            above = record.ancestors
            if not above:
                continue
            addition = record.addition
            # pkill(u) can only lose a killer k when k (an op whose reach
            # grew) newly reaches another consumer of u.
            for i, (killers, consumers) in enumerate(zip(pk_masks, cons_masks)):
                if killers & above and consumers & addition:
                    dirty.add(i)
            # A drag mask grows by the arc's new value ops, and only for
            # the ops whose reach grew; every other killer keeps its mask.
            gained = addition & value_ops
            if not gained:
                continue
            grown = above & killer_ops
            while grown:
                low = grown & -grown
                grown ^= low
                killer = killer_name[low.bit_length() - 1]
                old = kdv[killer]
                if gained & ~old:
                    if kdv is self._kdv:
                        kdv = dict(kdv)
                    kdv[killer] = old | gained
                    self._touched_killers.add(killer)
        self._kdv = kdv

        changed: List[int] = []
        if dirty:
            reach = self._mirror.reach_bits()
            pk, rows = self._pk, self._rows
            for i in sorted(dirty):
                names, ids = self._cons[i]
                consumers = cons_masks[i]
                killers: List[str] = []
                mask = 0
                for name, cid in zip(names, ids):
                    bit = 1 << cid
                    if reach[cid] & consumers == bit:
                        killers.append(name)
                        mask |= bit
                if mask == pk_masks[i]:
                    continue
                if not changed:
                    pk = self._pk = dict(pk)
                    rows = self._rows = list(rows)
                    pk_masks = self._pk_masks = list(pk_masks)
                changed.append(i)
                pk_masks[i] = mask
                rows[i] = killers
                pk[self._values[i]] = killers
            self._changed_rows.update(changed)
        return changed

    def _choose_fixed(self, i: int, asap: Mapping[str, int]) -> Tuple[str, str]:
        """The ``canonical`` and ``asap-induced`` killers of value *i*.

        Like :func:`~repro.saturation.pkill.canonical_killing_function` and
        :func:`~repro.saturation.pkill.killing_function_from_schedule` on
        the ASAP schedule: the potential killer of largest ASAP time, or of
        largest ASAP read time, ties broken by name.
        """

        killers = self._rows[i]
        canonical = max(killers, key=lambda k: (asap[k], k))
        if self._zero_read:
            return canonical, canonical
        read = self._read
        return canonical, max(killers, key=lambda k: (asap[k] + read[k], k))

    def _rechoose_fixed(self, indices) -> None:
        """Re-choose the ``canonical`` and ``asap-induced`` killers of the values
        at *indices*; a function whose killers all stand keeps its object.

        A changed function copies the mapping and assigns into the copy,
        which keeps the order of the values already in it, so a pop
        restores the old object.
        """

        from .pkill import KillingFunction  # local: avoids import cycle

        asap, values = self._mirror.asap_times(), self._values
        canonical_of, induced_of = self._canonical_of, self._induced_of
        moved_canonical: List[Tuple[int, str]] = []
        moved_induced: List[Tuple[int, str]] = []
        for i in indices:
            if not self._rows[i]:
                continue
            canonical, induced = self._choose_fixed(i, asap)
            if canonical != canonical_of[i]:
                moved_canonical.append((i, canonical))
            if induced != induced_of[i]:
                moved_induced.append((i, induced))
        if moved_canonical:
            canonical_of = self._canonical_of = list(canonical_of)
            mapping = dict(self._canonical.mapping)  # type: ignore[union-attr]
            for i, killer in moved_canonical:
                canonical_of[i] = mapping[values[i]] = killer
            self._canonical = KillingFunction(self.rtype, mapping)
        if self._zero_read:
            self._induced, self._induced_of = self._canonical, self._canonical_of
        elif moved_induced:
            induced_of = self._induced_of = list(induced_of)
            mapping = dict(self._induced.mapping)  # type: ignore[union-attr]
            for i, killer in moved_induced:
                induced_of[i] = mapping[values[i]] = killer
            self._induced = KillingFunction(self.rtype, mapping)

    # ------------------------------------------------------------------ #
    # Push / pop / query
    # ------------------------------------------------------------------ #
    def push(self, edges) -> _AnalysisFrame:
        """Push *edges* on the mirror and the working graph; returns the mirror's frame.

        Arcs that would close a cycle raise
        :class:`~repro.errors.CyclicGraphError` before anything is mutated:
        the warm analyses assume a DAG (the ASAP relaxation of a cyclic push
        would never end).
        """

        edges = list(edges)
        if not self._mirror.remains_acyclic_with_edges(edges):
            raise CyclicGraphError(
                f"serializing {self._working.name!r} must keep the DDG acyclic"
            )
        self._ensure_pk()
        if self._reach_dv and any(e.latency < 0 for e in edges):
            # Reachability no longer decides the DV test: longest-path
            # states replace the warm ones from the next evaluation on.
            self._reach_dv = False
            self._candidate_states.clear()
        t0 = time.perf_counter()
        frame = self._mirror.push(edges)
        g = self._working
        added: List[Tuple[Edge, Optional[Edge]]] = []
        for record in frame.records:
            edge = record.edge
            # The working graph's own duplicate, not the mirror's: an arc
            # added to the working graph out of band may differ.
            displaced = _duplicate_of(g, edge)
            if displaced is None or displaced.latency < edge.latency:
                g.add_edge(edge)
                added.append((edge, displaced))
        self._frames.append((
            self._pk, self._rows, self._pk_masks, self._kdv,
            self._canonical, self._induced, self._canonical_of, self._induced_of,
            added,
        ))
        changed = self._update_after_push(frame.records)
        t1 = time.perf_counter()
        self.timings["analysis_push"] += t1 - t0
        # Only a value whose row changed, or one of whose potential killers'
        # ASAP time moved, can change its canonical or asap-induced killer.
        stale = set(changed)
        for node in frame.asap_moved:
            stale.update(self._killer_values.get(node, ()))
        if stale:
            self._rechoose_fixed(stale)
        self.timings["killing_functions"] += time.perf_counter() - t1
        # Candidate DV states are synced lazily: the push is queued here
        # (O(1)) and mirrored only if/when the candidate is evaluated; see
        # _DVState.defer_sync.
        for state in self._candidate_states.values():
            state.defer_sync(edges)
        self._inject()
        return frame

    def pop(self) -> None:
        if not self._frames:
            raise IndexError("no pushed serialization frame to pop")
        (
            self._pk, self._rows, self._pk_masks, self._kdv,  # type: ignore[assignment]
            self._canonical, self._induced, self._canonical_of, self._induced_of,
            added,
        ) = self._frames.pop()
        self._mirror.pop()
        g = self._working
        for edge, displaced in reversed(added):  # type: ignore[union-attr]
            g.remove_edge(edge)
            if displaced is not None:
                g.add_edge(displaced)
        # Older rows and smaller masks are back: the next Greedy-k call
        # walks every component.
        self._walk_all = True
        # Candidate DV states replay their per-push undo frame (killer bits
        # or reach entries, killed mirror, persistent antichain engine) or
        # just drop the still-deferred push; a state rebuilt or patched
        # deeper than the restored depth has the popped arcs baked into its
        # baseline and must be discarded instead.
        dead = [
            label
            for label, state in self._candidate_states.items()
            if not state.pop_frame()
        ]
        for label in dead:
            del self._candidate_states[label]
        self._inject()

    def _inject(self) -> None:
        mctx = context_for(self._mirror.ddg)
        if self._pk is not None:
            pk = self._pk
            mctx.memo(("pkill", self.rtype), lambda: pk)
        context_for(self._working).memo("bottom", lambda: mctx)

    def candidate_functions(self, extra_candidates: bool = True):
        """Greedy-k's candidate killing functions of the mirror, from warm state.

        Equal, dict order included, to ``greedy_killing_function``,
        ``canonical_killing_function`` and ``killing_function_from_schedule``
        on the ASAP schedule of the current mirror; the
        ``candidate_functions`` hook of
        :func:`~repro.saturation.greedy._working_saturation`.  A function
        whose content did not change since the previous call is the same
        object.
        """

        self._ensure_pk()
        t0 = time.perf_counter()
        decomposed = self.component_cache.seconds
        if self._walk_all:
            # A pop restores the fixed functions of an older depth; one
            # that maps like the last one returned stays that object.
            last_canonical, last_induced = self._returned_fixed
            self._canonical = _same_function(self._canonical, last_canonical)
            self._induced = _same_function(self._induced, last_induced)
        self._returned_fixed = (self._canonical, self._induced)
        candidates = [("greedy-k", self._greedy_function())]
        if extra_candidates:
            candidates.append(("canonical", self._canonical))
            candidates.append(("asap-induced", self._induced))
        self.timings["killing_functions"] += (
            time.perf_counter() - t0 - (self.component_cache.seconds - decomposed)
        )
        return candidates

    def _greedy_function(self):
        """The greedy-k function, re-choosing only what the pushes touched.

        Without a changed row since the previous call the decomposition is
        the same, and a component's assignment depends only on its values'
        rows and its killers' drag masks: only the components holding a
        killer whose mask a push replaced can move, and only their values
        are updated, in a copy of the previous mapping (which keeps dict
        order).  Otherwise every component is walked.
        """

        from .greedy import _killing_mapping  # local: avoids import cycle
        from .pkill import KillingFunction

        pk, kdv, cache, choices = self._pk, self._kdv, self.component_cache, self.choices
        previous = self._greedy
        if previous is None or self._walk_all or self._changed_rows:
            values = self._values
            changed = (
                None if previous is None or self._walk_all
                else [values[i] for i in self._changed_rows]
            )
            mapping = _killing_mapping(cache.decompose(pk, changed), pk, kdv, choices)
            self.stats["killing_full_passes"] += 1
            # Equal content in another order (a split or merged component)
            # is another function.
            previous = _same_function(KillingFunction(self.rtype, mapping), previous)
        else:
            cache.decompose(pk, ())
            update: Optional[Dict[Value, str]] = None
            for comp_values, comp_killers in cache.components_of(self._touched_killers):
                hits = choices.hits
                assignment = choices.assignment(comp_values, comp_killers, pk, kdv)
                if choices.hits != hits:
                    continue  # the stored choice, already in the mapping
                if update is None:
                    update = dict(previous.mapping)
                update.update(assignment)
            if update is not None and update != previous.mapping:
                previous = KillingFunction(self.rtype, update)
        self._greedy = previous
        self._touched_killers = set()
        self._changed_rows = set()
        self._walk_all = False
        return previous

    def candidate_antichain(self, label: str, kf) -> Optional[List[Value]]:
        """Warm evaluation of one Greedy-k candidate killing function.

        Returns the maximum DV antichain -- provably equal to
        ``saturating_antichain`` on a freshly built killed graph -- or None
        when the killing function is invalid (cyclic killed graph), which is
        exactly the generic loop's skip condition.  An unchanged killing
        function replays the deferred pushes (``candidate_sync``); a changed
        one is re-targeted before its replay (``dv_patch``), so the old
        function is never replayed only to be replaced; a cold or cyclic
        state is rebuilt (``dv_rebuild``).
        """

        self._ensure_pk()
        if self._pk is None:
            raise RuntimeError("potential killers missing after _ensure_pk()")
        state = self._candidate_states.get(label)
        if state is None:
            if self._reach_dv:
                state = _ReachDVState(self._values, self._mirror, stats=self.stats)
            else:
                state = _CandidateDVState(self._values, self._delta_w, stats=self.stats)
            self._candidate_states[label] = state
        t0 = time.perf_counter()
        if state.matches(kf, self._pk):
            # The deferred base pushes are mirrored only now that the state
            # is actually evaluated.  A patch replays them after its
            # re-target, and a rebuild drops them.
            state.ensure_synced()
            self.stats["dv_reuses"] += 1
            self.timings["candidate_sync"] += time.perf_counter() - t0
        elif state.patch(self._mirror.ddg, kf, self._pk):
            self.stats["dv_patches"] += 1
            self.timings["dv_patch"] += time.perf_counter() - t0
        else:
            state.rebuild(self._mirror.ddg, kf, self._pk)
            self.stats["dv_rebuilds"] += 1
            self.timings["dv_rebuild"] += time.perf_counter() - t0
        if state.cyclic:
            return None
        t0 = time.perf_counter()
        result = state.antichain()
        self.timings["dv_antichain"] += time.perf_counter() - t0
        if result is _GENERIC_FALLBACK:  # pragma: no cover - exotic latencies
            from .dvk import saturating_antichain
            from .pkill import killed_graph

            if state.analysis is not None:
                killed = state.analysis.ddg
            else:
                killed = killed_graph(self._mirror.ddg, kf, pk=self._pk)
            antichain, _ = saturating_antichain(self._mirror.ddg, kf, killed=killed)
            return antichain
        return result

    def saturation(self) -> SaturationResult:
        """Greedy-k of the working graph, identical to a from-scratch run.

        Memoized on the working graph's context only (through
        :func:`~repro.saturation.greedy._working_saturation`): the graph
        changes with every push, so the answer is never hashed, looked up
        in or written to a result store, and the warm engine computes every
        revision whatever a store holds.  A second call at the same
        revision is answered from the context and leaves the counters
        unchanged.
        """

        from .greedy import _working_saturation  # local: avoids import cycle

        self._inject()
        result = _working_saturation(
            self._working,
            self.rtype,
            context_for(self._working),
            candidate_evaluator=self.candidate_antichain,
            candidate_functions=self.candidate_functions,
        )
        # The caches' own accumulators are the source of truth; all are
        # monotone, so the assignment keeps the stats/timings contract.
        cache, choices = self.component_cache, self.choices
        self.stats["components_reused"] = cache.reused
        self.stats["killing_set_hits"] = choices.hits
        self.stats["killing_set_misses"] = choices.misses
        self.timings["greedy_decompose"] = cache.seconds
        return result
