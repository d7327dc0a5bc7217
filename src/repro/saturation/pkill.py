"""Potential killers and killing functions.

These notions come from the register-saturation framework the paper builds
on (its reference [14], "Register Saturation in Superscalar and VLIW
Codes"): the *killer* of a value is the consumer whose read terminates the
value's lifetime.  Not every consumer can be last: a consumer that reaches
another consumer of the same value through a dependence path always reads
no later than that other consumer, so it can never be the (strict) last
reader.  The remaining candidates are the *potential killers*::

    pkill(u^t) = { v in Cons(u^t) |  ↓v  ∩ Cons(u^t) = {v} }

A *killing function* ``k`` chooses one potential killer per value.  Forcing
the choice in the graph -- adding serial arcs from the other potential
killers towards ``k(u)`` -- yields the *killed graph* ``G->k``; when that
graph is schedulable the killing function is *valid* and the values that can
be simultaneously alive under it are characterised by the disjoint-value DAG
(:mod:`repro.saturation.dvk`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..analysis.context import AnalysisContext, context_for
from ..core.graph import DDG, Edge
from ..core.schedule import Schedule
from ..core.types import DependenceKind, RegisterType, Value, canonical_type
from ..errors import KillingFunctionError

__all__ = [
    "potential_killers",
    "potential_killers_map",
    "KillingFunction",
    "killing_arc_slots",
    "killed_graph",
    "killing_function_from_schedule",
    "enumerate_killing_functions",
    "canonical_killing_function",
]


def potential_killers(
    ddg: DDG,
    value: Value,
    desc: Optional[Mapping[str, Set[str]]] = None,
    consumers: Optional[Sequence[str]] = None,
) -> List[str]:
    """The potential killers ``pkill(u^t)`` of *value*.

    A consumer ``v`` is a potential killer iff no *other* consumer of the
    value is reachable from ``v`` (``↓v ∩ Cons(u^t) = {v}``).  *desc* and
    *consumers* accept precomputed state (the incremental saturation engine
    keeps both warm across reduction iterations); when given, *consumers*
    must equal ``ddg.consumers(value.node, value.rtype)``.
    """

    if consumers is None:
        consumers = ddg.consumers(value.node, value.rtype)
    if desc is None:
        desc = context_for(ddg).descendants_map(include_self=True)
    cons_set = set(consumers)
    out = []
    for v in consumers:
        if (desc[v] & cons_set) == {v}:
            out.append(v)
    return out


def potential_killers_map(
    ddg: DDG,
    rtype: RegisterType | str,
    ctx: Optional[AnalysisContext] = None,
) -> Dict[Value, List[str]]:
    """``pkill`` for every value of type *rtype* (single reachability sweep).

    The map is memoized on the graph's shared
    :class:`~repro.analysis.context.AnalysisContext`: the Greedy-k heuristic
    rebuilds it for every candidate killing function, and before the context
    existed that dominated its runtime.
    """

    rtype = canonical_type(rtype)
    ctx = ctx if ctx is not None else context_for(ddg)

    def compute() -> Dict[Value, List[str]]:
        desc = ctx.descendants_map(include_self=True)
        return {
            value: potential_killers(ddg, value, desc) for value in ddg.values(rtype)
        }

    return ctx.memo(("pkill", rtype), compute)


@dataclass(frozen=True)
class KillingFunction:
    """A choice of one potential killer per value of a given register type.

    Values that have no consumer at all (possible when the DDG has not been
    normalised with the bottom node) are simply absent from the mapping:
    they die where they are born and never constrain other values.

    The mapping is a private copy that is never mutated once built, so
    holders may keep it by reference and compare functions by identity
    first (the incremental engine hands back an unchanged function as the
    same object).
    """

    rtype: RegisterType
    mapping: Mapping[Value, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", dict(self.mapping))

    def __getitem__(self, value: Value) -> str:
        return self.mapping[value]

    def __contains__(self, value: Value) -> bool:
        return value in self.mapping

    def __len__(self) -> int:
        return len(self.mapping)

    def items(self):
        return self.mapping.items()

    def killer(self, value: Value) -> Optional[str]:
        return self.mapping.get(value)

    def validate(self, ddg: DDG) -> None:
        """Check that every killer is a potential killer of its value.

        Raises :class:`~repro.errors.KillingFunctionError` otherwise.
        """

        pk = potential_killers_map(ddg, self.rtype)
        for value, killer in self.mapping.items():
            if value not in pk:
                raise KillingFunctionError(f"{value} is not a value of the DDG")
            if killer not in pk[value]:
                raise KillingFunctionError(
                    f"{killer!r} is not a potential killer of {value} "
                    f"(pkill = {sorted(pk[value])})"
                )

    def is_valid(self, ddg: DDG) -> bool:
        """True when every killer is legal *and* the killed graph is acyclic."""

        try:
            self.validate(ddg)
        except KillingFunctionError:
            return False
        return killed_graph(ddg, self).is_acyclic()


def killed_graph(
    ddg: DDG,
    kf: KillingFunction,
    from_all_consumers: bool = False,
    pk: Optional[Mapping[Value, List[str]]] = None,
) -> DDG:
    """The killed graph ``G->k``: *ddg* plus the arcs enforcing the killing choices.

    For every value ``u^t`` and every other potential killer ``v`` of
    ``u^t`` a serial arc ``v -> k(u^t)`` of latency
    ``delta_r(v) - delta_r(k(u^t))`` is added, which forces in every schedule
    ``sigma(k) + delta_r(k) >= sigma(v) + delta_r(v)``: the chosen killer is a
    last reader of the value.  With ``from_all_consumers=True`` the arcs are
    added from *every* other consumer, a strictly more conservative variant
    that is convenient when the reading offsets differ wildly.  *pk* accepts
    a precomputed potential-killers map (must equal
    :func:`potential_killers_map` of *ddg*).
    """

    g = ddg.copy(name=f"{ddg.name}->k")
    if pk is None:
        pk = potential_killers_map(ddg, kf.rtype)
    if from_all_consumers:
        for value, killer in kf.items():
            killer_offset = ddg.operation(killer).delta_r
            for other in ddg.consumers(value.node, value.rtype):
                if other == killer:
                    continue
                latency = ddg.operation(other).delta_r - killer_offset
                g.add_edge(Edge(other, killer, latency, DependenceKind.SERIAL, None))
    else:
        for other, killer in killing_arc_slots(kf, pk):
            latency = ddg.operation(other).delta_r - ddg.operation(killer).delta_r
            g.add_edge(Edge(other, killer, latency, DependenceKind.SERIAL, None))
    return g


def killing_arc_slots(
    kf: KillingFunction, pk: Mapping[Value, List[str]]
) -> Iterator[Tuple[str, str]]:
    """The (other, killer) pairs whose serial arcs :func:`killed_graph` adds.

    One pair per (value, other-potential-killer) contribution, in the order
    ``killed_graph`` adds the arcs; duplicates are yielded when several
    values contribute the same slot, which is exactly what the incremental
    candidate engine's refcounted patch diff needs to merge/unmerge slots
    the way ``add_edge``'s max-merge did.
    """

    for value, killer in kf.items():
        for other in pk.get(value, []):
            if other != killer:
                yield other, killer


def killing_function_from_schedule(
    ddg: DDG,
    schedule: Schedule,
    rtype: RegisterType | str,
) -> KillingFunction:
    """The killing function induced by a schedule: the last potential-killer read wins.

    Ties are broken deterministically (largest read cycle, then operation
    name) so the result is reproducible.  The induced function is *not*
    always valid.  The schedule satisfies every killing arc it implies, so
    the killed graph has no cycle of positive latency; but ops issued in the
    same cycle can still close a zero-latency one.  Callers must check the
    killed graph's acyclicity, as Greedy-k does.
    """

    rtype = canonical_type(rtype)
    pk = potential_killers_map(ddg, rtype)
    mapping: Dict[Value, str] = {}
    for value, killers in pk.items():
        if not killers:
            continue
        mapping[value] = max(
            killers,
            key=lambda v: (schedule[v] + ddg.operation(v).delta_r, v),
        )
    return KillingFunction(rtype, mapping)


def canonical_killing_function(ddg: DDG, rtype: RegisterType | str) -> KillingFunction:
    """A deterministic fallback killing function (deepest potential killer).

    For every value the potential killer with the largest longest-path depth
    from the sources is chosen; intuitively the value is kept alive as long
    as possible, which tends to maximise overlap.  The result is not always
    acyclic-valid on adversarial graphs -- callers are expected to check
    :meth:`KillingFunction.is_valid`.  A schedule-induced function is no
    safe fallback: it can be cyclic too (see
    :func:`killing_function_from_schedule`).
    """

    rtype = canonical_type(rtype)
    depth = context_for(ddg).asap_times()
    pk = potential_killers_map(ddg, rtype)
    mapping = {
        value: max(killers, key=lambda v: (depth[v], v))
        for value, killers in pk.items()
        if killers
    }
    return KillingFunction(rtype, mapping)


def enumerate_killing_functions(
    ddg: DDG,
    rtype: RegisterType | str,
    only_valid: bool = True,
    limit: Optional[int] = None,
) -> Iterator[KillingFunction]:
    """Enumerate killing functions (the Cartesian product of the pkill sets).

    This is exponential in the number of values with several potential
    killers and is only used by the brute-force saturation oracle of the
    test-suite.  With ``only_valid`` (default) the functions whose killed
    graph is cyclic are skipped.
    """

    rtype = canonical_type(rtype)
    pk = potential_killers_map(ddg, rtype)
    values = [v for v in sorted(pk, key=lambda x: x.node) if pk[v]]
    choices = [sorted(pk[v]) for v in values]
    count = 0
    for combo in itertools.product(*choices) if values else iter([()]):
        kf = KillingFunction(rtype, dict(zip(values, combo)))
        if only_valid and not killed_graph(ddg, kf).is_acyclic():
            continue
        yield kf
        count += 1
        if limit is not None and count >= limit:
            return
