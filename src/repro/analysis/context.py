"""A memoized analysis context shared across the Figure-1 pipeline stages.

The paper's flow (RS computation -> RS reduction -> scheduling -> register
allocation) repeatedly asks the same structural questions about one DDG:
topological order, the longest-path matrix ``lp``, descendants/reachability,
transitive closure, ASAP/ALAP issue times, redundant serial arcs.  The pure
functions of :mod:`repro.analysis.graphalgo` deliberately cache nothing, so
before this module existed every pass recomputed everything from scratch --
the Greedy-k heuristic alone rebuilds the potential-killer map for each of
its candidate killing functions.

:class:`AnalysisContext` wraps a :class:`~repro.core.graph.DDG` and lazily
computes-and-caches those queries.  Correctness under mutation is handled in
two complementary ways:

* every cached answer is stamped with :attr:`DDG.version`, a monotonic
  revision counter bumped by every graph mutation; a stale context discards
  its caches transparently on the next query;
* callers that extend a graph with serialization arcs (RS reduction) can
  either call :meth:`AnalysisContext.invalidate` explicitly or use
  :meth:`AnalysisContext.with_edges`, which returns a *new* context over an
  extended copy and leaves the original untouched.

:func:`context_for` attaches the shared context to the graph object itself
(under a private attribute), so independent passes querying the same graph
share one context without any API plumbing and the cache dies exactly when
the graph does -- a global registry would either leak every throwaway graph
(its values reference its keys) or need weak-value gymnastics.
:func:`caching_disabled` switches the whole mechanism off (every query falls
through to :mod:`graphalgo`), which is how
``benchmarks/bench_analysis_cache.py`` measures the seed behaviour.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple, TypeVar

from ..core.graph import DDG, Edge
from ..errors import CyclicGraphError
from . import graphalgo
from .interner import OpInterner

__all__ = ["AnalysisContext", "context_for", "caching_disabled", "caching_enabled"]

T = TypeVar("T")

#: Attribute under which the shared context rides on its DDG.
_ATTACH = "_analysis_context"
_CACHING_ENABLED = True
#: Internal miss marker (stored values may legitimately be falsy).
_MISS = object()


def _caching_on() -> bool:
    return _CACHING_ENABLED


@contextmanager
def caching_disabled():
    """Disable analysis caching (the uncached seed behaviour).

    Inside the block :func:`context_for` hands out throw-away contexts whose
    every query recomputes through :mod:`repro.analysis.graphalgo`.  The
    flag is process-global so :class:`~repro.experiments.engine.BatchEngine`
    thread workers spawned inside the block see it too (forked process
    workers inherit it at fork time); it is a measurement tool, not meant
    to be toggled concurrently from several threads.
    """

    global _CACHING_ENABLED
    previous = _CACHING_ENABLED
    _CACHING_ENABLED = False
    try:
        yield
    finally:
        _CACHING_ENABLED = previous


def caching_enabled() -> bool:
    """Whether shared memoized contexts are currently handed out."""

    return _caching_on()


def context_for(ddg: DDG) -> "AnalysisContext":
    """The shared :class:`AnalysisContext` of *ddg* (created on first use).

    The context lives on the graph object, so its cached analyses die with
    the graph.  Under :func:`caching_disabled` a fresh pass-through context
    is returned instead and nothing is retained.
    """

    if not _caching_on():
        return AnalysisContext(ddg, enabled=False)
    ctx = ddg.__dict__.get(_ATTACH)
    if ctx is None:
        # setdefault keeps the first winner under concurrent creation.
        ctx = ddg.__dict__.setdefault(_ATTACH, AnalysisContext(ddg))
    return ctx


def _adopt(ctx: "AnalysisContext") -> "AnalysisContext":
    """Attach a derived context so :func:`context_for` returns the same one."""

    if ctx.enabled and _caching_on():
        return ctx.ddg.__dict__.setdefault(_ATTACH, ctx)
    return ctx


class AnalysisContext:
    """Lazily computed, cached structural analyses of one DDG.

    Every accessor mirrors the :mod:`repro.analysis.graphalgo` function of
    the same name and is guaranteed to return an equal result (the property
    tests in ``tests/test_analysis_context.py`` enforce exactly that).  The
    returned objects are shared -- callers must treat them as read-only.
    """

    def __init__(self, ddg: DDG, enabled: bool = True) -> None:
        self._ddg = ddg
        self._enabled = enabled
        self._version = ddg.version
        self._cache: Dict[object, object] = {}
        self._lock = threading.RLock()
        self._interner: Optional[OpInterner] = None
        self._interner_version = -1

    def __getstate__(self):
        # Contexts ride on their DDG, which the process engine pickles; the
        # lock cannot cross and the caches are cheaper to rebuild than ship.
        return {"ddg": self._ddg, "enabled": self._enabled}

    def __setstate__(self, state) -> None:
        # The DDG may still be mid-restore (pickle cycle through its
        # attached context), so don't query it here; the stale sentinel
        # version makes the first memo() resynchronise instead.
        self._ddg = state["ddg"]
        self._enabled = state["enabled"]
        self._version = -1
        self._cache = {}
        self._lock = threading.RLock()
        self._interner = None
        self._interner_version = -1

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #
    @property
    def ddg(self) -> DDG:
        return self._ddg

    @property
    def enabled(self) -> bool:
        return self._enabled

    def invalidate(self) -> None:
        """Drop every cached analysis (needed only after in-place mutation).

        Mutations through the :class:`~repro.core.graph.DDG` API bump the
        graph's revision counter and are detected automatically; explicit
        invalidation is for callers that replace referenced state behind the
        graph's back.
        """

        with self._lock:
            self._cache.clear()
            self._version = self._ddg.version

    def op_interner(self) -> OpInterner:
        """Stable name ↔ small-int interning of the graph's operations.

        Lives *outside* the versioned analysis cache on purpose: the
        reduction pipeline mutates arcs, never the node set, and the flat
        rows and bitsets indexed by these ids must survive graph revisions.
        Ids are assigned in ``DDG.nodes()`` insertion order (which
        :meth:`DDG.copy` preserves), so independently interned copies of a
        graph -- the bottom mirror and the killed graphs derived from it --
        agree on every id.  The rare node addition (``with_bottom`` on a
        live graph) is picked up append-only, keeping existing ids stable.
        """

        interner = self._interner
        if interner is None:
            interner = self._interner = OpInterner(self._ddg.nodes())
            self._interner_version = self._ddg.version
        elif self._interner_version != self._ddg.version:
            for name in self._ddg.nodes():
                interner.intern(name)
            self._interner_version = self._ddg.version
        return interner

    def graph_hash(self) -> str:
        """Canonical content hash of the graph (see :mod:`repro.analysis.store`).

        Memoized like every other analysis, so the serialization walk is
        paid once per graph revision; it keys the persistent memo tier and
        the cross-run result store.
        """

        from .store import canonical_graph_hash

        return self.memo("graph_hash", lambda: canonical_graph_hash(self._ddg))

    def memo(
        self,
        key: object,
        factory: Callable[[], T],
        persist: Optional[Tuple[str, object]] = None,
    ) -> T:
        """Memoize an arbitrary derived analysis under *key*.

        This is how higher layers (potential killers, Greedy-k results, ...)
        attach their own per-graph caches without the analysis layer having
        to know about them.  The key must capture every input other than the
        graph itself; invalidation follows the graph revision like the
        built-in queries.

        ``persist`` opts the entry into the cross-run tier: a ``(query,
        params)`` pair naming the result in the ambient
        :class:`~repro.analysis.store.ResultStore` under the graph's
        canonical content hash.  On an in-memory miss the store is consulted
        before *factory* runs, and a computed value is written back.  With
        no ambient store (the default -- see
        :func:`repro.analysis.store.active_store`) the argument is inert,
        so callers can pass it unconditionally.  Persisted values must be
        picklable and deterministic functions of (graph content, params).

        Persist answers, not trajectories: pass ``persist`` only for a
        graph a caller holds and may ask about again, in this run or a
        later one.  A graph that lives only inside one algorithm's loop
        (the RS* loop's working graph, which changes with every
        serialization) memoizes without it; each of its entries would cost
        a content hash, a lookup and an fsynced write, and a later run
        served from them would skip work whose counters it reports.
        """

        if not self._enabled:
            return factory()
        with self._lock:
            if self._version != self._ddg.version:
                self._cache.clear()
                self._version = self._ddg.version
            if key in self._cache:
                return self._cache[key]  # type: ignore[return-value]
            observed = self._version
        value = _MISS
        store = None
        if persist is not None:
            from .store import active_store

            store = active_store()
        if store is not None:
            query, params = persist
            ghash = self.graph_hash()
            value = store.get(ghash, query, params, default=_MISS)
        if value is _MISS:
            value = factory()
            if store is not None:
                store.put(ghash, query, params, value)
        with self._lock:
            # Cache only if the revision the factory observed is still
            # current -- comparing against a resynchronised self._version
            # alone would let a concurrently-mutated graph adopt a stale
            # result under its new revision.
            if self._version == observed and self._ddg.version == observed:
                self._cache.setdefault(key, value)
        return value

    # ------------------------------------------------------------------ #
    # Structural queries (mirrors of graphalgo)
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[str]:
        return self.memo("topo", self._ddg.topological_order)

    def is_acyclic(self) -> bool:
        def compute() -> bool:
            try:
                self.topological_order()
            except CyclicGraphError:
                return False
            return True

        return self.memo("acyclic", compute)

    def longest_path_matrix(self) -> Dict[str, Dict[str, float]]:
        return self.memo("lp", lambda: graphalgo.longest_path_matrix(self._ddg))

    def longest_paths_from(self, source: str) -> Mapping[str, float]:
        if "lp" in self._cache and self._version == self._ddg.version:
            return self.longest_path_matrix()[source]
        return self.memo(
            ("lp_from", source),
            lambda: graphalgo.longest_paths_from(
                self._ddg, source, order=self.topological_order()
            ),
        )

    def longest_path_to_sinks(self) -> Dict[str, float]:
        return self.memo("lp_sinks", lambda: graphalgo.longest_path_to_sinks(self._ddg))

    def critical_path_length(self) -> int:
        return self.memo("cp", lambda: graphalgo.critical_path_length(self._ddg))

    def asap_times(self) -> Dict[str, int]:
        return self.memo("asap", lambda: graphalgo.asap_times(self._ddg))

    def alap_times(self, total_time: Optional[int] = None) -> Dict[str, int]:
        return self.memo(
            ("alap", total_time), lambda: graphalgo.alap_times(self._ddg, total_time)
        )

    def worst_case_total_time(self) -> int:
        return self.memo("wctt", lambda: graphalgo.worst_case_total_time(self._ddg))

    def descendants_map(self, include_self: bool = True) -> Dict[str, Set[str]]:
        return self.memo(
            ("desc", include_self),
            lambda: graphalgo.descendants_map(self._ddg, include_self=include_self),
        )

    def reachability_matrix(self) -> Dict[str, Set[str]]:
        return self.descendants_map(include_self=False)

    def transitive_closure_pairs(self) -> Set[Tuple[str, str]]:
        def compute() -> Set[Tuple[str, str]]:
            reach = self.reachability_matrix()
            return {(u, v) for u, targets in reach.items() for v in targets}

        return self.memo("closure", compute)

    def redundant_edges(self) -> List[Edge]:
        return self.memo("redundant", lambda: graphalgo.redundant_edges(self._ddg))

    def descendants(self, node: str, include_self: bool = True) -> Set[str]:
        return self.descendants_map(include_self=include_self)[node]

    def ancestors(self, node: str, include_self: bool = True) -> Set[str]:
        return self.memo(
            ("anc", node, include_self),
            lambda: graphalgo.ancestors(self._ddg, node, include_self=include_self),
        )

    def critical_path_with_edges(self, edges) -> int:
        """Exact critical path of the graph extended with *edges*, incrementally.

        The RS-reduction heuristic scores every candidate serialization by
        the critical-path increase it would cause; materialising a graph
        copy per candidate made that its hottest loop.  Using the cached
        ASAP times, sink distances and longest-path matrix, the extension's
        critical path only needs a longest-path sweep over the tiny
        "mini-DAG" spanned by the new arcs' endpoints (base-graph segments
        become single weighted edges via ``lp``).

        The extension must keep the graph acyclic (callers check with
        ``would_remain_acyclic``).  Without caching this falls back to the
        copy-and-recompute seed path, since the matrix alone would cost more
        than it saves.
        """

        edges = list(edges)
        if not self._enabled:
            g = self._ddg.copy()
            for e in edges:
                g.add_edge(e)
            return graphalgo.critical_path_length(g)
        if not edges:
            return self.critical_path_length()

        lp = self.longest_path_matrix()
        return graphalgo.extended_critical_path(
            edges,
            self.asap_times(),
            self.longest_path_to_sinks(),
            lp.__getitem__,
            self.critical_path_length(),
        )

    def remains_acyclic_with_edges(self, edges) -> bool:
        """Whether adding *edges* keeps the graph a DAG, via cached reachability.

        Any new cycle must alternate new arcs with (possibly empty) base
        paths, so it maps to a cycle of the mini-graph over the new arcs'
        endpoints whose extra edges are the cached reachability relation.
        The RS-reduction heuristic asks this for ~|antichain|^2 candidates
        per iteration of the same graph; the uncached fallback walks the
        full graph per candidate instead (the seed behaviour).
        """

        edges = list(edges)
        if not edges:
            return True
        if not self._enabled:
            return graphalgo.would_remain_acyclic(self._ddg, edges)

        return graphalgo.mini_graph_remains_acyclic(edges, self._reaches)

    def _reaches(self, u: str, v: str) -> bool:
        """Whether the graph has a path from *u* to the distinct node *v*."""

        return v in self.descendants_map(include_self=False)[u]

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def bottom(self) -> "AnalysisContext":
        """The context of the bottom-normalised graph ``G ∪ {⊥}``.

        The normalised copy is built once and shared; like every other
        cached object it must be treated as read-only.  When the graph
        already carries ``⊥`` the context itself is returned.
        """

        if self._ddg.has_bottom:
            return self

        def build() -> AnalysisContext:
            return _adopt(AnalysisContext(self._ddg.with_bottom(), enabled=self._enabled))

        return self.memo("bottom", build)

    def with_edges(self, edges, name: Optional[str] = None) -> "AnalysisContext":
        """A new context over a copy of the graph extended with *edges*.

        This is the invalidation-free route for RS reduction: the original
        graph and its caches stay valid, the extension gets fresh ones.
        """

        g = self._ddg.copy(name or self._ddg.name)
        for edge in edges:
            g.add_edge(edge)
        return _adopt(AnalysisContext(g, enabled=self._enabled))
