"""Lifetime serialization arcs (the building block of RS reduction).

Reducing the register saturation means adding serial arcs that force pairs
of value lifetimes to be disjoint in *every* schedule.  The construction is
the one used by the proof of the paper's Theorem 4.2: to impose
``LT(u^t) < LT(v^t)`` (the value ``u^t`` dies before ``v^t`` is defined),
add an arc from every consumer of ``u^t`` (except ``v`` itself when ``v``
consumes ``u^t``) towards ``v``.

The latency of those arcs depends on the target family:

* **sequential / superscalar codes** -- the paper sets the latency to 1;
* **VLIW / EPIC codes** -- the latency is ``delta_r(u') - delta_w(v)`` so
  that the read of ``u'`` happens no later than the write of ``v``.  These
  latencies may be negative (never positive cycles), which is why reduction
  for those targets must additionally check that the extended graph stays
  schedulable (and, to remain a DAG usable by a subsequent resource-bound
  scheduler, acyclic).

The module also provides the schedulability test (no positive-latency
circuit) used by both the heuristic and the optimal reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis.context import context_for
from ..analysis.graphalgo import NEG_INF, is_redundant_edge
from ..analysis.graphalgo import would_remain_acyclic as graphalgo_would_remain_acyclic
from ..core.graph import DDG, Edge
from ..core.machine import ArchitectureFamily, ProcessorModel
from ..core.types import BOTTOM, DependenceKind, RegisterType, Value, canonical_type
from ..errors import CyclicGraphError, ReductionError

__all__ = [
    "SerializationMode",
    "serialization_latency",
    "serialization_edges",
    "serialization_implied",
    "apply_serialization",
    "prune_redundant_serial_arcs",
    "would_remain_acyclic",
    "has_positive_circuit",
    "is_schedulable",
    "legal_serialization",
]


class SerializationMode:
    """How the latency of added serial arcs is chosen.

    The library defaults to :data:`OFFSETS` for every target because it is
    the rule consistent with the paper's left-open lifetime intervals (a
    value written at cycle ``c`` is available at ``c + 1``): a reader issued
    at the same cycle as the next definition still sees the old value, so a
    latency of ``delta_r - delta_w`` (zero on superscalar) already guarantees
    lifetime disjointness and never lengthens the witness schedule.  The
    paper's latency-1 rule for sequential superscalar object code is kept as
    :data:`SEQUENTIAL` and can be requested explicitly (it is strictly more
    conservative and may report a larger ILP loss).
    """

    #: The paper's superscalar rule: sequential semantics, latency 1.
    SEQUENTIAL = "sequential"
    #: The paper's VLIW/EPIC rule: ``delta_r(u') - delta_w(v)``.
    OFFSETS = "offsets"

    @staticmethod
    def for_machine(machine: Optional[ProcessorModel]) -> str:
        """The mode matching the paper's per-family rule (sequential for superscalar)."""

        if machine is not None and machine.family == ArchitectureFamily.SUPERSCALAR:
            return SerializationMode.SEQUENTIAL
        return SerializationMode.OFFSETS


def serialization_latency(
    ddg: DDG, reader: str, target: str, mode: str
) -> int:
    """Latency of the serial arc ``reader -> target`` for the given mode."""

    if mode == SerializationMode.SEQUENTIAL:
        return 1
    if mode == SerializationMode.OFFSETS:
        return ddg.operation(reader).delta_r - ddg.operation(target).delta_w
    raise ReductionError(f"unknown serialization mode {mode!r}")


def serialization_edges(
    ddg: DDG,
    before: Value,
    after: Value,
    mode: str = SerializationMode.OFFSETS,
    skip_existing: bool = True,
) -> List[Edge]:
    """The serial arcs imposing ``LT(before) < LT(after)`` in every schedule.

    Following the Theorem-4.2 construction: when ``after``'s operation is a
    consumer of ``before`` the arcs come from the *other* readers; otherwise
    from every reader.  A value with no reader needs no arc (it dies at
    birth).  Arcs already present with a sufficient latency are skipped when
    *skip_existing* is set.
    """

    if before.rtype != after.rtype:
        raise ReductionError("cannot serialize lifetimes of different register types")
    readers = ddg.consumers(before.node, before.rtype)
    target = after.node
    edges: List[Edge] = []
    for reader in readers:
        if reader == target:
            continue
        latency = serialization_latency(ddg, reader, target, mode)
        if skip_existing:
            existing = ddg.edges_between(reader, target)
            if any(e.latency >= latency for e in existing):
                continue
        edges.append(Edge(reader, target, latency, DependenceKind.SERIAL, None))
    return edges


def serialization_implied(
    ddg: DDG,
    before: Value,
    after: Value,
    mode: str,
    lp_lookup,
    reach_lookup=None,
) -> bool:
    """True when ``LT(before) < LT(after)`` is already forced by the graph.

    The Theorem-4.2 serialization for the pair adds one arc per reader of
    *before*; when every such arc is dominated by an existing longest path of
    at least the arc's latency, the serialization cannot remove a single
    schedule -- evaluating it is pure waste (and applying it would only add
    redundant arcs).  The reduction heuristics use this as a cheap
    reachability pre-filter over the O(|antichain|^2) candidate pairs before
    paying for :func:`legal_serialization`.

    ``lp_lookup(node)`` must return the exact longest-path row from *node*
    (e.g. ``AnalysisContext.longest_paths_from`` or
    ``IncrementalAnalysis.lp_row``).  ``reach_lookup(node)``, when given, must
    return the strict descendant set of *node*; it is used as a cheap screen
    (a reader with no path to the target can never have its arc implied)
    before the longest-path rows are touched.  Pairs with no serialization
    arc at all (no reader, or the only reader is *after* itself) report
    False and are left to :func:`legal_serialization`, which skips them for
    free.
    """

    if before.node == BOTTOM or after.node == BOTTOM:
        return False
    readers = ddg.consumers(before.node, before.rtype)
    target = after.node
    if reach_lookup is not None:
        for reader in readers:
            if reader != target and target not in reach_lookup(reader):
                return False
    found = False
    for reader in readers:
        if reader == target:
            continue
        found = True
        latency = serialization_latency(ddg, reader, target, mode)
        dist = lp_lookup(reader)[target]
        if dist == NEG_INF or dist < latency:
            return False
    return found


def apply_serialization(ddg: DDG, edges: Iterable[Edge]) -> DDG:
    """Return a copy of *ddg* with the serialization arcs added."""

    g = ddg.copy()
    for edge in edges:
        g.add_edge(edge)
    return g


def prune_redundant_serial_arcs(ddg: DDG) -> Tuple[DDG, List[Edge]]:
    """Drop the serial arcs whose constraint is implied by the transitive closure.

    The reduction passes call this before adding new serialization arcs:
    carrying redundant arcs around makes every candidate evaluation (graph
    copy + critical path) more expensive without changing the set of valid
    schedules.  Flow arcs are never dropped (they carry the register-type
    information of the lifetime analysis).

    Arcs are re-verified one by one against the current graph because two
    redundant arcs can be redundant only thanks to each other; removing them
    simultaneously could relax the scheduling constraints.  Removing arcs
    never *creates* redundancy, so a single verified pass suffices.

    Returns ``(pruned copy, removed arcs)``; a cyclic result raises
    :class:`~repro.errors.CyclicGraphError`.
    """

    g = ddg.copy()
    removed: List[Edge] = []
    for edge in context_for(ddg).redundant_edges():
        if is_redundant_edge(g, edge):
            g.remove_edge(edge)
            removed.append(edge)
    if not g.is_acyclic():
        raise CyclicGraphError(f"pruning {ddg.name!r} must keep the graph a DAG")
    return g, removed


def would_remain_acyclic(ddg: DDG, edges: Sequence[Edge]) -> bool:
    """True when adding *edges* keeps the graph a DAG.

    Delegates to :func:`repro.analysis.graphalgo.would_remain_acyclic`, the
    single implementation also backing the context's incremental check.
    """

    return graphalgo_would_remain_acyclic(ddg, edges)


def has_positive_circuit(ddg: DDG) -> bool:
    """True when the graph contains a circuit of strictly positive total latency.

    Such a circuit makes the graph unschedulable (``sigma(u) < sigma(u)``).
    Circuits of non-positive latency -- which optimal VLIW reduction may
    introduce -- do not prevent scheduling but do break the DAG property.
    The test is a Bellman-Ford-style longest-path relaxation: if distances
    still improve after ``n`` rounds there is a positive circuit.
    """

    nodes = ddg.nodes()
    dist = {v: 0.0 for v in nodes}
    edges = list(ddg.edges())
    for _ in range(len(nodes)):
        changed = False
        for e in edges:
            cand = dist[e.src] + e.latency
            if cand > dist[e.dst]:
                dist[e.dst] = cand
                changed = True
        if not changed:
            return False
    return True


def is_schedulable(ddg: DDG) -> bool:
    """A dependence graph admits a valid schedule iff it has no positive circuit."""

    return not has_positive_circuit(ddg)


def legal_serialization(
    ddg: DDG,
    before: Value,
    after: Value,
    mode: str = SerializationMode.OFFSETS,
    require_dag: bool = True,
) -> Optional[List[Edge]]:
    """The serialization arcs for ``before < after`` if legal, else ``None``.

    A serialization is illegal when it would make the graph cyclic
    (*require_dag*) or, in the relaxed mode used for exploratory purposes,
    unschedulable.  Serializing towards the bottom node is always refused:
    ``⊥`` must stay the last operation.
    """

    if after.node == BOTTOM or before.node == BOTTOM:
        return None
    edges = serialization_edges(ddg, before, after, mode)
    if not edges:
        # Nothing to add: either already implied or the value has no reader.
        return []
    if require_dag:
        if not context_for(ddg).remains_acyclic_with_edges(edges):
            return None
        return edges
    candidate = apply_serialization(ddg, edges)
    if not is_schedulable(candidate):
        return None
    return edges
