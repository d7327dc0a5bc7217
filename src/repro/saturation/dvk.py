"""The disjoint-value DAG ``DV_k(G)`` and the values it lets live together.

Given a valid killing function ``k``, the *disjoint-value DAG* orders the
values whose lifetimes can never overlap once the killing choices are
enforced: there is an arc ``u^t -> v^t`` when, in **every** schedule of the
killed graph ``G->k``, the value ``v^t`` is written no earlier than the
death of ``u^t`` (which happens at the read of ``k(u^t)``).  Formally we use
the longest-path test::

    u^t -> v^t    iff    lp_{G->k}(k(u^t), v)  >=  delta_r(k(u^t)) - delta_w(v)

so that ``sigma(v) + delta_w(v) >= sigma(k(u)) + delta_r(k(u))`` holds for
every valid schedule of ``G->k``.

Two values that are *incomparable* in ``DV_k`` can be made simultaneously
alive by some schedule of ``G->k``; the values that can all be alive at the
same instant therefore form an antichain, and the register saturation
restricted to the killing function ``k`` is the size of a maximum antichain
of ``DV_k``.  Maximising over valid killing functions yields the register
saturation itself on the graphs where :func:`characterised` holds -- that
is exactly what the Greedy-k heuristic approximates, what the exhaustive
oracle of :mod:`repro.saturation.enumeration` computes on small graphs and
what the branch and bound of
:func:`~repro.saturation.exact_ilp.exact_saturation` searches.  Elsewhere
the maximum is only a lower bound.

A *partial* killing function leaves some values with potential killers
unassigned.  Such a value ``u`` is ordered before ``v`` only when every
potential killer of ``u`` passes the test, so the order is the part of
``DV_k`` that every completion ``k`` keeps: completing adds killing arcs,
which only lengthen the longest paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..analysis.antichain import maximum_antichain
from ..analysis.context import context_for
from ..analysis.graphalgo import transitive_closure_of_relation
from ..core.graph import DDG
from ..core.types import RegisterType, Value, canonical_type
from .bounds import ordered_after_sets
from .pkill import KillingFunction, killed_graph, potential_killers_map

__all__ = [
    "DisjointValueDAG",
    "characterised",
    "disjoint_value_dag",
    "saturating_antichain",
]


@dataclass(frozen=True)
class DisjointValueDAG:
    """The disjoint-value DAG of a killing function.

    ``edges`` holds the direct "dies before the definition of" relation and
    ``closure`` its transitive closure (the strict partial order on which
    antichains are computed).
    """

    rtype: RegisterType
    values: Tuple[Value, ...]
    edges: FrozenSet[Tuple[Value, Value]]
    closure: FrozenSet[Tuple[Value, Value]]

    def successors(self, value: Value) -> List[Value]:
        return [v for (u, v) in self.edges if u == value]

    def comparable(self, a: Value, b: Value) -> bool:
        return (a, b) in self.closure or (b, a) in self.closure

    def maximum_antichain(self) -> List[Value]:
        """A maximum antichain of the DAG (the candidate saturating values)."""

        return maximum_antichain(self.values, self.closure)

    @property
    def width(self) -> int:
        """The Dilworth width of the DAG = the saturation under this killing function."""

        return len(self.maximum_antichain())


def disjoint_value_dag(
    ddg: DDG,
    kf: KillingFunction,
    killed: Optional[DDG] = None,
    killed_ctx=None,
    pk: Optional[Mapping[Value, List[str]]] = None,
) -> DisjointValueDAG:
    """Build ``DV_k(G)`` for the killing function *kf*.

    Parameters
    ----------
    ddg:
        The original DDG (used for the value set and the write offsets).
    kf:
        A killing function for one register type, possibly partial.  It
        should be valid; a cyclic killed graph raises through the
        topological sort.
    killed:
        The killed graph ``G->k`` if the caller already built it (avoids a
        recomputation inside loops over candidate killing functions).
    killed_ctx:
        Optional :class:`~repro.analysis.context.AnalysisContext` of
        *killed* -- callers that keep killed graphs warm across reduction
        iterations pass it so the longest-path rows are reused.
    pk:
        The potential-killers map of *ddg* (:func:`potential_killers_map`),
        read only for the values *kf* leaves unassigned.
    """

    rtype = kf.rtype
    values = tuple(sorted(ddg.values(rtype)))
    if killed is None:
        killed = killed_graph(ddg, kf, pk=pk)
    # Each value's killers: its own, or every potential killer while
    # unassigned.  A value without consumers has none and dies immediately;
    # it is left incomparable (no edge), which can only overestimate the
    # antichain of this killing function but never the saturation itself
    # (the exact methods do not rely on this).
    killers_of: Dict[Value, Sequence[str]] = {}
    for u in values:
        killer = kf.killer(u)
        if killer is not None:
            killers_of[u] = (killer,)
            continue
        if pk is None:
            pk = potential_killers_map(ddg, rtype)
        killers_of[u] = pk[u]

    # Longest paths are only needed from killer nodes; the killed graph's
    # context shares one topological sort across all of them.
    if killed_ctx is None:
        killed_ctx = context_for(killed)
    later = ordered_after_sets(ddg, values, killers_of, killed_ctx.longest_paths_from)
    edges = {(u, v) for u in values for v in later[u]}

    closure = transitive_closure_of_relation(values, edges)
    return DisjointValueDAG(rtype, values, frozenset(edges), frozenset(closure))


def saturating_antichain(
    ddg: DDG,
    kf: KillingFunction,
    killed: Optional[DDG] = None,
    killed_ctx=None,
) -> Tuple[List[Value], DisjointValueDAG]:
    """Maximum antichain of ``DV_k(G)`` together with the DAG itself."""

    dag = disjoint_value_dag(ddg, kf, killed, killed_ctx=killed_ctx)
    return dag.maximum_antichain(), dag


def characterised(g: DDG, rtype: RegisterType, ctx) -> bool:
    """True when RS of the bottom-normalised *g* is the largest antichain of
    ``DV_k`` over its valid killing functions ``k``.

    Two conditions make a value's lifetime run exactly from its definition
    to its killer's read in every schedule of a killed graph: no flow arc
    of *rtype* is shorter than ``delta_w(src) - delta_r(dst)`` (else a
    lifetime can end before it starts and ``DV_k`` orders values that can
    be alive together), and every consumer outside ``pkill(u)`` reads
    ``u`` no later than some potential killer of ``u`` does, by a longest
    path (else the killer's read is not ``u``'s death).  *ctx* is *g*'s
    context.
    """

    op = g.operation
    for e in g.flow_edges(rtype):
        if e.latency < op(e.src).delta_w - op(e.dst).delta_r:
            return False
    for value, killers in potential_killers_map(g, rtype, ctx).items():
        for reader in g.consumers(value.node, rtype):
            if reader in killers:
                continue
            row, read = ctx.longest_paths_from(reader), op(reader).delta_r
            if not any(row[k] >= read - op(k).delta_r for k in killers):
                return False
    return True
