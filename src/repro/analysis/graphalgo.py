"""Graph algorithms used throughout the register-saturation analysis.

Everything here operates on a :class:`~repro.core.graph.DDG` and is purely
structural: longest paths (``lp`` in the paper), reachability/descendants,
transitive closure, critical path, and the as-soon-as/as-late-as-possible
issue times that bound every valid schedule.

All functions are deterministic and side-effect free; the heavier ones cache
nothing themselves -- callers that need repeated queries should hold on to
the returned dictionaries/matrices.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..core.graph import DDG
from ..errors import CyclicGraphError

__all__ = [
    "NEG_INF",
    "longest_paths_from",
    "longest_path_matrix",
    "longest_path_to_sinks",
    "critical_path_length",
    "asap_times",
    "alap_times",
    "worst_case_total_time",
    "descendants",
    "ancestors",
    "descendants_map",
    "reachability_matrix",
    "transitive_closure_pairs",
    "transitive_closure_of_relation",
    "would_remain_acyclic",
    "extended_critical_path",
    "mini_graph_remains_acyclic",
    "is_redundant_edge",
    "redundant_edges",
]

#: Sentinel for "no path"; small enough that adding latencies never overflows.
NEG_INF = float("-inf")


# --------------------------------------------------------------------------- #
# Longest paths
# --------------------------------------------------------------------------- #
def longest_paths_from(
    ddg: DDG, source: str, order: Optional[List[str]] = None
) -> Dict[str, float]:
    """Longest-path distances (in accumulated latency) from *source* to every node.

    Returns a mapping ``node -> lp(source, node)`` where unreachable nodes map
    to :data:`NEG_INF` and ``lp(source, source) == 0``.  *order* optionally
    supplies an already-computed topological order (the disjoint-value DAG
    runs this once per killer of the same graph).
    """

    if order is None:
        order = ddg.topological_order()
    dist: Dict[str, float] = {v: NEG_INF for v in order}
    dist[source] = 0
    started = False
    for v in order:
        if v == source:
            started = True
        if not started or dist[v] == NEG_INF:
            continue
        for edge in ddg.out_edges(v):
            cand = dist[v] + edge.latency
            if cand > dist[edge.dst]:
                dist[edge.dst] = cand
    return dist


def longest_path_matrix(ddg: DDG) -> Dict[str, Dict[str, float]]:
    """The full longest-path matrix ``lp(u, v)`` of the paper.

    ``lp(u, v)`` is the largest accumulated latency of a path from ``u`` to
    ``v`` (``0`` when ``u == v``, :data:`NEG_INF` when no path exists).  The
    computation is a topological-order dynamic program run from each node,
    i.e. ``O(n (n + m))``.
    """

    order = ddg.topological_order()
    position = {v: i for i, v in enumerate(order)}
    matrix: Dict[str, Dict[str, float]] = {}
    for src in order:
        dist: Dict[str, float] = {v: NEG_INF for v in order}
        dist[src] = 0
        for v in order[position[src]:]:
            if dist[v] == NEG_INF:
                continue
            for edge in ddg.out_edges(v):
                cand = dist[v] + edge.latency
                if cand > dist[edge.dst]:
                    dist[edge.dst] = cand
        matrix[src] = dist
    return matrix


def longest_path_to_sinks(ddg: DDG) -> Dict[str, float]:
    """For every node, the longest latency path from it to any sink.

    This is ``LongestPathFrom(u)`` in the paper's ALAP bound.
    """

    order = ddg.topological_order()
    dist: Dict[str, float] = {v: 0 for v in order}
    for v in reversed(order):
        for edge in ddg.out_edges(v):
            cand = edge.latency + dist[edge.dst]
            if cand > dist[v]:
                dist[v] = cand
    return dist


def critical_path_length(ddg: DDG) -> int:
    """The critical path of the DDG: the maximum accumulated latency of any path.

    Note that following the paper this is a pure latency sum (the issue time
    of the last operation under an ASAP schedule); the caller adds the final
    operation's latency when it wants a makespan.
    """

    if ddg.n == 0:
        return 0
    to_sinks = longest_path_to_sinks(ddg)
    return int(max(to_sinks.values()))


def asap_times(ddg: DDG) -> Dict[str, int]:
    """As-soon-as-possible issue times: ``LongestPathTo(u)`` from the sources."""

    order = ddg.topological_order()
    asap: Dict[str, int] = {v: 0 for v in order}
    for v in order:
        for edge in ddg.out_edges(v):
            cand = asap[v] + edge.latency
            if cand > asap[edge.dst]:
                asap[edge.dst] = cand
    return asap


def alap_times(ddg: DDG, total_time: Optional[int] = None) -> Dict[str, int]:
    """As-late-as-possible issue times with respect to *total_time*.

    The paper defines ``sigma_bar(u) = T - LongestPathFrom(u)`` where ``T`` is
    a worst possible total schedule time; by default the critical path is
    used, which gives the tightest ALAP values.
    """

    if total_time is None:
        total_time = critical_path_length(ddg)
    to_sinks = longest_path_to_sinks(ddg)
    return {v: int(total_time - to_sinks[v]) for v in ddg.nodes()}


def worst_case_total_time(ddg: DDG) -> int:
    """The paper's worst total schedule time ``T = sum_{e in E} delta(e)``.

    This upper bound is valid for the register-saturation intLP because any
    register-need pattern reachable by some schedule is reachable by a
    schedule no longer than the fully sequential one.  A minimum of the
    critical path (plus one) is enforced so that trivial graphs keep a
    non-degenerate horizon.
    """

    total = sum(max(edge.latency, 0) for edge in ddg.edges())
    return int(max(total, critical_path_length(ddg), 1))


# --------------------------------------------------------------------------- #
# Reachability
# --------------------------------------------------------------------------- #
def descendants(ddg: DDG, node: str, include_self: bool = True) -> Set[str]:
    """The set ``↓node`` of nodes reachable from *node* (including itself by default)."""

    seen: Set[str] = {node}
    stack = [node]
    while stack:
        v = stack.pop()
        for w in ddg.successors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if not include_self:
        seen.discard(node)
    return seen


def ancestors(ddg: DDG, node: str, include_self: bool = True) -> Set[str]:
    """The set ``↑node`` of nodes that reach *node*."""

    seen: Set[str] = {node}
    stack = [node]
    while stack:
        v = stack.pop()
        for w in ddg.predecessors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if not include_self:
        seen.discard(node)
    return seen


def descendants_map(ddg: DDG, include_self: bool = True) -> Dict[str, Set[str]]:
    """``↓u`` for every node ``u``, computed in a single reverse topological sweep."""

    order = ddg.topological_order()
    desc: Dict[str, Set[str]] = {}
    for v in reversed(order):
        acc: Set[str] = set()
        for w in ddg.successors(v):
            acc.add(w)
            acc |= desc[w]
        desc[v] = acc
    if include_self:
        for v in desc:
            desc[v].add(v)
    return desc


def reachability_matrix(ddg: DDG) -> Dict[str, Set[str]]:
    """Alias of :func:`descendants_map` without the node itself (strict reachability)."""

    return descendants_map(ddg, include_self=False)


def transitive_closure_pairs(ddg: DDG) -> Set[Tuple[str, str]]:
    """All ordered pairs ``(u, v)`` with a non-trivial path ``u -> v``."""

    reach = reachability_matrix(ddg)
    return {(u, v) for u, targets in reach.items() for v in targets}


def would_remain_acyclic(ddg: DDG, edges) -> bool:
    """True when adding *edges* keeps the graph a DAG.

    Rather than copying the graph, the check looks for a path from each
    arc's head back to its tail among the existing arcs plus the tentative
    ones.  This is the single implementation behind both
    ``repro.reduction.serialization.would_remain_acyclic`` and the uncached
    fallback of ``AnalysisContext.remains_acyclic_with_edges``.
    """

    extra_succ: Dict[str, Set[str]] = {}
    for e in edges:
        extra_succ.setdefault(e.src, set()).add(e.dst)

    def reaches(start: str, goal: str) -> bool:
        seen: Set[str] = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            nexts = set(ddg.successors(node)) | extra_succ.get(node, set())
            for w in nexts:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    return not any(reaches(e.dst, e.src) for e in edges)


def extended_critical_path(edges, asap, to_sinks, lp_lookup, base_cp) -> int:
    """Exact critical path of a DAG extended with *edges*, without a copy.

    ``asap``/``to_sinks`` are the base graph's longest paths from the sources
    / to the sinks, ``lp_lookup(u)`` its longest-path row from ``u`` and
    ``base_cp`` its critical path.  Any path through the extension
    alternates base-graph segments with new arcs, so the longest mixed path
    only needs a relaxation over the "mini-DAG" spanned by the new arcs'
    endpoints (base segments collapse to single weighted edges via ``lp``).
    Distances grow monotonically, so the relaxation converges in at most one
    round per new arc on a path.

    This is the single implementation shared by
    :meth:`repro.analysis.context.AnalysisContext.critical_path_with_edges`
    and the in-place :class:`repro.reduction.session.ReductionSession`, which
    guarantees both produce the same score for a candidate serialization.
    """

    edges = list(edges)
    if not edges:
        return int(base_cp)
    nodes = {e.src for e in edges} | {e.dst for e in edges}
    best = {x: float(asap[x]) for x in nodes}
    for _ in range(len(edges) + 1):
        changed = False
        for e in edges:
            cand = best[e.src] + e.latency
            if cand > best[e.dst]:
                best[e.dst] = cand
                changed = True
        for u in nodes:
            row = lp_lookup(u)
            base_u = best[u]
            for v in nodes:
                if u == v:
                    continue
                d = row[v]
                if d != NEG_INF and base_u + d > best[v]:
                    best[v] = base_u + d
                    changed = True
        if not changed:
            break
    through_new = max(best[x] + to_sinks[x] for x in nodes)
    return int(max(base_cp, through_new))


def mini_graph_remains_acyclic(edges, reaches) -> bool:
    """Whether adding *edges* to a DAG with reachability *reaches* keeps it a DAG.

    Any new cycle must alternate new arcs with (possibly empty) base paths,
    so it maps to a cycle of the mini-graph over the new arcs' endpoints
    whose extra edges are the base reachability relation.
    ``reaches(u, v)`` tells whether the base graph has a path from ``u`` to
    the distinct node ``v``; the context passes a membership test on its
    descendant sets, the warm analysis a bit test on its reach bitsets.
    Kahn's algorithm sorts the mini-graph; unlike a recursive search it
    leaves no garbage cycle.
    """

    edges = list(edges)
    if not edges:
        return True
    nodes = sorted({e.src for e in edges} | {e.dst for e in edges})
    succ: Dict[str, Set[str]] = {x: set() for x in nodes}
    for e in edges:
        succ[e.src].add(e.dst)
    for u in nodes:
        succ_u = succ[u]
        for v in nodes:
            if v != u and reaches(u, v):
                succ_u.add(v)
    indegree = dict.fromkeys(nodes, 0)
    for targets in succ.values():
        for y in targets:
            indegree[y] += 1
    ready = [x for x in nodes if not indegree[x]]
    sorted_count = 0
    while ready:
        x = ready.pop()
        sorted_count += 1
        for y in succ[x]:
            indegree[y] -= 1
            if not indegree[y]:
                ready.append(y)
    return sorted_count == len(nodes)


def transitive_closure_of_relation(nodes, edges):
    """Transitive closure of an arbitrary binary relation over *nodes*.

    ``edges`` is an iterable of ordered pairs ``(u, v)``; the result contains
    ``(u, v)`` whenever a non-empty chain of relation edges leads from ``u``
    to ``v``.  This is the node-type-agnostic worker behind
    :func:`transitive_closure_pairs` -- the disjoint-value DAG of
    :mod:`repro.saturation.dvk` uses it on :class:`~repro.core.types.Value`
    pairs rather than on operation names.
    """

    succ: Dict[object, Set[object]] = {v: set() for v in nodes}
    for u, v in edges:
        succ.setdefault(u, set()).add(v)
    closure: Set[Tuple[object, object]] = set()
    for start in succ:
        stack = list(succ[start])
        seen: Set[object] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            closure.add((start, node))
            stack.extend(succ.get(node, ()))
    return closure


# --------------------------------------------------------------------------- #
# Redundant arcs (paper, optimization note at the end of Section 3)
# --------------------------------------------------------------------------- #
def is_redundant_edge(ddg: DDG, edge, lp: Optional[Mapping[str, Mapping[str, float]]] = None) -> bool:
    """True when the scheduling constraint of *edge* is implied by another path.

    The paper notes that an arc ``e = (u, v)`` is redundant for the
    scheduling constraints when ``lp(u, v) > delta(e)`` with the longest path
    not going through ``e`` itself.  We implement this by removing the arc
    and recomputing the longest path between its endpoints; the matrix form
    accepted via *lp* is used only as a quick negative filter.
    """

    if lp is not None and lp[edge.src][edge.dst] <= edge.latency:
        return False
    trimmed = ddg.copy()
    trimmed.remove_edge(edge)
    dist = longest_paths_from(trimmed, edge.src)
    return dist[edge.dst] >= edge.latency


def redundant_edges(ddg: DDG) -> List:
    """All serial arcs whose scheduling constraint is implied by the rest of the graph.

    Only serial arcs are ever reported: flow arcs carry the register-type
    information needed by the lifetime analysis and must never be dropped
    even when their latency constraint is redundant.
    """

    lp = longest_path_matrix(ddg)
    out = []
    for edge in list(ddg.edges()):
        if edge.is_flow:
            continue
        if is_redundant_edge(ddg, edge, lp):
            out.append(edge)
    return out
