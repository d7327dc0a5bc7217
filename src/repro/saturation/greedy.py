"""The Greedy-k heuristic for register-saturation computation.

Computing the register saturation exactly is NP-complete (proved in the
paper's reference [14]); the heuristic evaluated by the paper's Section 5 --
and shown there to be "nearly optimal", with a maximal empirical error of
one register -- works on killing functions:

1. compute the potential killers ``pkill(u^t)`` of every value;
2. decompose the bipartite *potential-killing graph* (values on one side,
   their potential killers on the other) into connected components;
3. inside each component choose a **killing set**: a subset of the killer
   side that covers every value of the component while dragging as few
   other values as possible below it (minimising the union of the killers'
   descendant values) -- those descendants are exactly the values that the
   killing choice orders *after* the component's values and that therefore
   cannot enlarge an antichain containing them.  Each killer's *drag*, the
   values it reaches (itself excluded), is an int bitset, so a subset's
   drag is an OR and its size a popcount;
4. assign each value a killer from the chosen set, yielding a killing
   function ``k``; build ``DV_k`` and return the size of its maximum
   antichain.

Small components are solved exactly (exhaustive bitmask subset search);
large ones greedily with a cover-ratio rule.  The implementation additionally
evaluates the canonical (deepest potential killer) and the ASAP-induced
killing functions and keeps the best antichain, which can only tighten the
approximation: every candidate is checked for validity, so every reported
value is a true lower bound of the register saturation -- the paper's case
``RS < RS*`` is impossible.
"""

from __future__ import annotations

import time
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..analysis.context import AnalysisContext, context_for
from ..core.graph import DDG
from ..core.lifetime import register_need
from ..core.schedule import asap_schedule
from ..core.types import RegisterType, Value, canonical_type
from .dvk import saturating_antichain
from .pkill import (
    KillingFunction,
    canonical_killing_function,
    killed_graph,
    killing_function_from_schedule,
    potential_killers_map,
)
from .result import SaturationResult

__all__ = ["ChoiceCache", "ComponentCache", "greedy_saturation", "greedy_killing_function"]

#: Components whose killer side is at most this large are solved exhaustively.
_EXHAUSTIVE_COMPONENT_LIMIT = 10


# --------------------------------------------------------------------------- #
# Killing-set selection
# --------------------------------------------------------------------------- #
def _bipartite_components(
    pk: Mapping[Value, List[str]]
) -> List[Tuple[List[Value], List[str]]]:
    """Connected components of the value/potential-killer bipartite graph."""

    value_nodes = [v for v in pk if pk[v]]
    killer_of: Dict[str, Set[Value]] = {}
    for value, killers in pk.items():
        for killer in killers:
            killer_of.setdefault(killer, set()).add(value)

    seen_values: Set[Value] = set()
    components: List[Tuple[List[Value], List[str]]] = []
    for start in value_nodes:
        if start in seen_values:
            continue
        comp_values: Set[Value] = set()
        comp_killers: Set[str] = set()
        stack: List[object] = [start]
        while stack:
            item = stack.pop()
            if isinstance(item, Value):
                if item in comp_values:
                    continue
                comp_values.add(item)
                for killer in pk[item]:
                    if killer not in comp_killers:
                        stack.append(killer)
            else:
                killer = str(item)
                if killer in comp_killers:
                    continue
                comp_killers.add(killer)
                for value in killer_of.get(killer, ()):
                    if value not in comp_values:
                        stack.append(value)
        seen_values |= comp_values
        components.append((sorted(comp_values), sorted(comp_killers)))
    return components


class ComponentCache:
    """Cross-iteration cache of the bipartite killing components.

    The incremental reduction driver re-runs Greedy-k after every push, and
    :func:`_bipartite_components` walked the whole value/killer graph from
    scratch each time even though a push perturbs only the components near
    the new arcs' endpoints.  This cache keeps the previous decomposition
    and *repairs* it: the copy-on-write ``pk`` maintenance replaces the
    killer-list object of exactly the values whose potential killers
    changed (and pops restore the old objects).  The incremental engine
    records those values per push and hands them in; without them (after
    a pop) ``pk[v] is cached_row`` identifies the clean values without
    comparing content.  Components
    containing a dirty value -- or a killer appearing in a dirty value's new
    list, which could link it into an existing component -- are dissolved
    and re-decomposed from the freed sub-relation; everything else is
    returned as the identical list objects, which also keeps
    :class:`ChoiceCache`'s identity check hot.

    One dissolution round suffices: a kept component's values all have
    unchanged killer lists, and any killer that could connect a freed value
    to a kept component already belonged to that value's old (dissolved)
    component or appears in a dirty value's new list (also dissolved).

    The emitted order is provably the fresh function's: it emits one
    component per first-in-``pk``-order member value, so sorting the merged
    kept + recomputed components by their leader (minimum ``pk`` position
    over the component's values) reproduces the from-scratch order exactly
    -- and through it the killing function's dict insertion order, which
    persists into stored result bytes.  ``reused`` counts components
    returned without recomputation (surfaced as ``components_reused``) and
    ``seconds`` accumulates decompose wall clock (the ``greedy_decompose``
    stage timer).  :meth:`components_of` hands back the components that
    hold given killers, for a caller that re-chooses only those.
    """

    def __init__(self) -> None:
        #: Value -> its pk killer-list object at the last decompose (the
        #: identity witness); None until the first call.
        self._rows: Optional[Dict[Value, List[str]]] = None
        #: Value -> position in pk iteration order (stable while the key
        #: set is unchanged: the engine's epochs copy via ``dict(pk)``).
        self._pos: Dict[Value, int] = {}
        #: (leader, comp_values, comp_killers), sorted by leader.
        self._comps: List[Tuple[int, List[Value], List[str]]] = []
        self._value_comp: Dict[Value, int] = {}
        self._killer_comp: Dict[str, int] = {}
        self.reused = 0
        self.seconds = 0.0

    def decompose(
        self,
        pk: Mapping[Value, List[str]],
        changed: Optional[Collection[Value]] = None,
    ) -> List[Tuple[List[Value], List[str]]]:
        """The components of *pk*, equal to :func:`_bipartite_components`.

        *changed* names the values whose pk row object was replaced since
        the previous call, over the same values; the incremental engine
        records them per push.  None checks the key set and scans every
        value's row by identity instead, which a caller must ask for
        whenever it cannot name them (after a pop, which restores older
        rows).
        """

        t0 = time.perf_counter()
        try:
            if self._rows is None:
                return self._rebuild(pk)
            if changed is None:
                if self._rows.keys() != pk.keys():
                    return self._rebuild(pk)
                rows = self._rows
                dirty = [v for v in pk if rows[v] is not pk[v]]
            else:
                dirty = list(changed)
            if not dirty:
                self.reused += len(self._comps)
                return [(vals, kills) for _l, vals, kills in self._comps]
            return self._repair(pk, dirty)
        finally:
            self.seconds += time.perf_counter() - t0

    def _rebuild(self, pk: Mapping[Value, List[str]]):
        comps = _bipartite_components(pk)
        self._pos = {v: i for i, v in enumerate(pk)}
        pos = self._pos
        self._comps = [
            (min(pos[v] for v in vals), vals, kills) for vals, kills in comps
        ]
        self._index()
        self._rows = dict(pk)
        return comps

    def _index(self) -> None:
        self._value_comp = {}
        self._killer_comp = {}
        for ci, (_l, vals, kills) in enumerate(self._comps):
            for v in vals:
                self._value_comp[v] = ci
            for k in kills:
                self._killer_comp[k] = ci

    def _repair(self, pk: Mapping[Value, List[str]], dirty: List[Value]):
        doomed: Set[int] = set()
        for v in dirty:
            ci = self._value_comp.get(v)
            if ci is not None:
                doomed.add(ci)
            for k in pk[v]:
                ck = self._killer_comp.get(k)
                if ck is not None:
                    doomed.add(ck)
        freed: Set[Value] = set(dirty)
        kept: List[Tuple[int, List[Value], List[str]]] = []
        for ci, comp in enumerate(self._comps):
            if ci in doomed:
                freed.update(comp[1])
            else:
                kept.append(comp)
        self.reused += len(kept)
        # The freed sub-relation in pk order; its fresh decomposition plus
        # the kept components, re-sorted by leader, is the from-scratch
        # decomposition (see the class docstring for the argument).
        sub_pk = {v: pk[v] for v in pk if v in freed}
        pos = self._pos
        merged = kept + [
            (min(pos[v] for v in vals), vals, kills)
            for vals, kills in _bipartite_components(sub_pk)
        ]
        merged.sort(key=lambda comp: comp[0])
        self._comps = merged
        self._index()
        self._rows = dict(pk)
        return [(vals, kills) for _l, vals, kills in merged]

    def components_of(
        self, killers: Collection[str]
    ) -> List[Tuple[List[Value], List[str]]]:
        """The components of the last decomposition holding any of *killers*."""

        where = self._killer_comp
        comps = self._comps
        hit = sorted({where[k] for k in killers if k in where})
        return [(comps[ci][1], comps[ci][2]) for ci in hit]


def _drag_masks(
    pk: Mapping[Value, List[str]], desc: Mapping[str, Set[str]]
) -> Dict[str, int]:
    """Each potential killer's drag from name-keyed descendant sets.

    The drag of killer ``k`` is the set of values ordered after it,
    ``↓k ∩ V`` without ``k``, as a bitset with value ``i`` of *pk* at bit
    ``i``; *desc* holds the strict descendants.  The cold Greedy-k path
    uses it; the incremental engine keeps its own masks over op ids.  Only
    ORs and popcounts of masks are ever compared, so the bit layout does
    not matter.
    """

    bit = {value.node: 1 << i for i, value in enumerate(pk)}
    value_nodes = frozenset(bit)
    drag: Dict[str, int] = {}
    for killers in pk.values():
        for killer in killers:
            if killer not in drag:
                mask = 0
                for name in desc[killer] & value_nodes:
                    mask |= bit[name]
                drag[killer] = mask
    return drag


def _exhaustive_killing_set(
    comp_values: Sequence[Value],
    comp_killers: Sequence[str],
    pk: Mapping[Value, List[str]],
    drag: Mapping[str, int],
) -> List[str]:
    """The covering subset of least ``(drag, size)``, first in combinations order.

    Subsets are bitmasks over the killers, with killer ``i`` at bit
    ``n - 1 - i``: among subsets of one size, a larger mask is then an
    earlier ``itertools.combinations`` tuple, so the ``(cost, size, -mask)``
    minimum is the subset the size-by-size combinations scan keeps.  Each
    mask's cover (component values it kills) and drag (the OR of its
    killers' drag masks) is its value without its lowest bit, ORed with
    that bit's killer, so every subset costs a few int ops.
    """

    n = len(comp_killers)
    pos = {k: n - 1 - i for i, k in enumerate(comp_killers)}
    cover_of = [0] * n
    drag_of = [0] * n
    for j, value in enumerate(comp_values):
        for killer in pk[value]:
            cover_of[pos[killer]] |= 1 << j
    for killer, p in pos.items():
        drag_of[p] = drag[killer]
    full = (1 << len(comp_values)) - 1
    cover = [0] * (1 << n)
    drag = [0] * (1 << n)
    best: Optional[Tuple[int, int, int]] = None
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        c = cover[mask] = cover[mask ^ low] | cover_of[i]
        d = drag[mask] = drag[mask ^ low] | drag_of[i]
        if c == full:
            key = (d.bit_count(), mask.bit_count(), -mask)
            if best is None or key < best:
                best = key
    if best is None:  # every component value has a potential killer in it
        raise RuntimeError(
            f"no killing set covers the values {[str(v) for v in comp_values]}"
        )
    return [k for k in comp_killers if -best[2] >> pos[k] & 1]


def _choose_killing_set(
    comp_values: Sequence[Value],
    comp_killers: Sequence[str],
    pk: Mapping[Value, List[str]],
    drag: Mapping[str, int],
) -> List[str]:
    """Choose killers covering every value of the component with minimal drag.

    Exhaustive when the killer side is small, greedy (max newly covered
    values per newly dragged descendant) otherwise.  A lone killer covers
    its whole component.
    """

    if len(comp_killers) == 1:
        return [comp_killers[0]]
    if len(comp_killers) <= _EXHAUSTIVE_COMPONENT_LIMIT:
        return _exhaustive_killing_set(comp_values, comp_killers, pk, drag)

    uncovered = set(comp_values)
    chosen: List[str] = []
    dragged = 0
    while uncovered:
        def score(killer: str) -> Tuple[float, str]:
            newly_covered = sum(1 for v in uncovered if killer in pk[v])
            if newly_covered == 0:
                return (float("inf"), killer)
            newly_dragged = (drag[killer] & ~dragged).bit_count()
            return (newly_dragged / newly_covered, killer)

        best_killer = min(comp_killers, key=score)
        chosen.append(best_killer)
        dragged |= drag[best_killer]
        uncovered = {v for v in uncovered if best_killer not in pk[v]}
    return chosen


def _component_choice(
    comp_values: Sequence[Value],
    comp_killers: Sequence[str],
    pk: Mapping[Value, List[str]],
    drag: Mapping[str, int],
) -> Tuple[List[str], Dict[Value, str]]:
    """The component's killing set, and each value mapped to its killer from it."""

    chosen = _choose_killing_set(comp_values, comp_killers, pk, drag)
    members = set(chosen)
    # Among the chosen killers able to kill a value, prefer the one dragging
    # the fewest descendants (ties broken by name).
    return chosen, {
        value: min(
            (k for k in pk[value] if k in members),
            key=lambda k: (drag[k].bit_count(), k),
        )
        for value in comp_values
    }


class ChoiceCache:
    """Each component's killer assignment, reused while it provably stands.

    A component's assignment is a pure function of its values' potential-
    killer rows and its killers' drag masks.  The incremental engine keeps
    the rows identity-stable (a push replaces a value's row only when its
    potential killers change, a pop restores the previous objects), and a
    push only ever *grows* a drag mask.  A stored choice therefore stands
    when the component's values and rows are the same objects and either

    * the component has one killer, whose assignment reads no drag; or
    * every chosen killer's mask equals the stored one and every other
      killer's mask is a superset of its stored one.

    Why the second case is exact: the covers are the same (they depend on
    the rows only), the chosen set's drag is unchanged, and every other
    cover's drag is an OR of supersets, so every other key ``(drag, size,
    -mask)`` of the exhaustive search stays above the chosen one.  The
    greedy cover rule of components above the exhaustive limit sees the
    same ``dragged`` prefix at every step, since it ORs only chosen
    masks, while every other killer's score can only rise.  The final
    per-value pick reads chosen masks only.  The check compares content,
    not history, so it also holds after a pop: a mask that shrank below
    its stored one re-chooses.  ``hits`` counts reused components and
    ``misses`` re-chosen ones.
    """

    def __init__(self) -> None:
        #: killer tuple -> (values, their pk rows, killer masks, which
        #: killers were chosen, assignment)
        self._entries: Dict[Tuple[str, ...], Tuple] = {}
        self.hits = 0
        self.misses = 0

    def assignment(
        self,
        comp_values: List[Value],
        comp_killers: List[str],
        pk: Mapping[Value, List[str]],
        drag: Mapping[str, int],
    ) -> Dict[Value, str]:
        key = tuple(comp_killers)
        entry = self._entries.get(key)
        if entry is not None and self._stands(entry, comp_values, comp_killers, pk, drag):
            self.hits += 1
            return entry[4]
        self.misses += 1
        chosen, assignment = _component_choice(comp_values, comp_killers, pk, drag)
        members = set(chosen)
        self._entries[key] = (
            comp_values,
            [pk[v] for v in comp_values],
            [drag[k] for k in comp_killers],
            [k in members for k in comp_killers],
            assignment,
        )
        return assignment

    @staticmethod
    def _stands(entry, comp_values, comp_killers, pk, drag) -> bool:
        values, rows, masks, chosen, _ = entry
        if values != comp_values:
            return False
        for v, row in zip(comp_values, rows):
            if pk[v] is not row:
                return False
        if len(comp_killers) == 1:
            return True
        # comp_killers equality is implied by the key (the killer tuple).
        for k, old, was_chosen in zip(comp_killers, masks, chosen):
            new = drag[k]
            if new == old:
                continue
            if was_chosen or old & ~new:
                return False
        return True


def _killing_mapping(
    components: Sequence[Tuple[List[Value], List[str]]],
    pk: Mapping[Value, List[str]],
    drag: Mapping[str, int],
    choices: Optional[ChoiceCache] = None,
) -> Dict[Value, str]:
    """The Greedy-k killing function's mapping, component by component.

    *choices* reuses the assignments of components whose choice still
    stands (the incremental engine's path); it never changes the result.
    """

    mapping: Dict[Value, str] = {}
    for comp_values, comp_killers in components:
        if choices is None:
            mapping.update(_component_choice(comp_values, comp_killers, pk, drag)[1])
        else:
            mapping.update(choices.assignment(comp_values, comp_killers, pk, drag))
    return mapping


def greedy_killing_function(
    ddg: DDG,
    rtype: RegisterType | str,
    ctx: Optional[AnalysisContext] = None,
) -> KillingFunction:
    """The killing function selected by the Greedy-k heuristic (before fallback)."""

    rtype = canonical_type(rtype)
    ctx = ctx if ctx is not None else context_for(ddg)
    pk = potential_killers_map(ddg, rtype, ctx)
    drag = _drag_masks(pk, ctx.descendants_map(include_self=False))
    return KillingFunction(rtype, _killing_mapping(_bipartite_components(pk), pk, drag))


# --------------------------------------------------------------------------- #
# The public entry point and the RS* loop's private path
# --------------------------------------------------------------------------- #
def greedy_saturation(
    ddg: DDG,
    rtype: RegisterType | str,
    extra_candidates: bool = True,
    ctx: Optional[AnalysisContext] = None,
) -> SaturationResult:
    """Approximate the register saturation ``RS_t(G)`` with the Greedy-k heuristic.

    Parameters
    ----------
    ddg:
        The data dependence graph.  It is normalised with the bottom node
        internally so exit values get a killer.
    rtype:
        Register type to analyse.
    extra_candidates:
        Also evaluate the canonical killing function (deepest potential
        killer) and the one induced by the ASAP schedule, and keep the best
        antichain.  A candidate repeating an earlier one's killing function
        is not evaluated again.  This is a cheap polish that never
        invalidates the lower-bound property.
    ctx:
        Optional shared :class:`~repro.analysis.context.AnalysisContext` of
        *ddg*.  The final result is memoized on it, so the pipeline stages
        and the reduction pass asking for the same saturation pay for one
        computation.  With a result store active, a miss on *ctx* is looked
        up in the store under the graph's content hash, and a computed
        result is stored as ``saturation.greedy``; a hit on *ctx* touches
        no store.  The RS* loop's per-iteration saturations share this memo
        entry but never reach the store (:func:`_working_saturation`).

    Returns
    -------
    SaturationResult
        ``rs`` is the heuristic value RS*; ``saturating_values`` the
        corresponding antichain; ``killing_function`` the winning killing
        function.  ``optimal`` is always False here even when the value
        happens to be exact.
    """

    rtype = canonical_type(rtype)
    ctx = ctx if ctx is not None else context_for(ddg)
    return ctx.memo(
        ("greedy_saturation", rtype, extra_candidates),
        lambda: _greedy_saturation_uncached(ddg, rtype, extra_candidates, ctx),
        # Cross-run tier (inert unless a result store is active): the result
        # is a deterministic function of graph content + these parameters.
        persist=(
            "saturation.greedy",
            {"rtype": rtype.name, "extra_candidates": extra_candidates},
        ),
    )


def _working_saturation(
    ddg: DDG,
    rtype: RegisterType,
    ctx: AnalysisContext,
    candidate_evaluator=None,
    candidate_functions=None,
) -> SaturationResult:
    """Greedy-k of a reduction loop's working graph, memoized on *ctx* only.

    Equal to ``greedy_saturation(ddg, rtype, ctx=ctx)`` and shares its
    in-memory memo entry, but never hashes the graph and never reads or
    writes the result store.  The RS* loop asks this after every applied
    serialization, of a graph that exists only inside the loop.  Persisting
    those answers would cost a content hash, a lookup and an fsynced write
    per iteration, for entries that only a later reduction of the same
    graph to a smaller budget reads; that run would skip its warm engine
    for the first iterations and report engine counters that depend on
    what the store held.

    The two hooks let the incremental engine supply its warm state; each
    must return exactly what the built-in path would, so they change the
    speed, never the result.

    candidate_evaluator:
        Optional ``(label, killing_function) -> antichain | None`` hook that
        replaces the killed-graph construction + DV-DAG + antichain per
        candidate; ``None`` means the killing function is invalid (cyclic
        killed graph).  The incremental engine supplies its warm
        per-candidate DV states here
        (:meth:`~repro.saturation.incremental.IncrementalSaturation.candidate_antichain`).
    candidate_functions:
        Optional ``extra_candidates -> [(label, killing_function), ...]``
        hook that replaces building the candidate killing functions of the
        bottom-normalised graph: ``greedy-k``, ``canonical`` and
        ``asap-induced``.  The incremental engine supplies its warm
        functions here
        (:meth:`~repro.saturation.incremental.IncrementalSaturation.candidate_functions`).
    """

    return ctx.memo(
        ("greedy_saturation", rtype, True),
        lambda: _greedy_saturation_uncached(
            ddg, rtype, True, ctx, candidate_evaluator, candidate_functions
        ),
    )


def _greedy_saturation_uncached(
    ddg: DDG,
    rtype: RegisterType,
    extra_candidates: bool,
    ctx: AnalysisContext,
    candidate_evaluator=None,
    candidate_functions=None,
) -> SaturationResult:
    start = time.perf_counter()
    bottom_ctx = ctx.bottom()
    g = bottom_ctx.ddg
    # Keyed by exactly g.values(rtype); the warm engine injects it.
    pk_map = potential_killers_map(g, rtype, bottom_ctx)
    if not pk_map:
        return SaturationResult(rtype, 0, method="greedy-k", wall_time=time.perf_counter() - start)

    candidates: List[Tuple[str, KillingFunction]]
    if candidate_functions is not None:
        candidates = candidate_functions(extra_candidates)
    else:
        candidates = [("greedy-k", greedy_killing_function(g, rtype, ctx=bottom_ctx))]
        if extra_candidates:
            candidates.append(("canonical", canonical_killing_function(g, rtype)))
            candidates.append(
                ("asap-induced", killing_function_from_schedule(g, asap_schedule(g), rtype))
            )

    best_rs = -1
    best_antichain: List[Value] = []
    best_kf: Optional[KillingFunction] = None
    best_label = "greedy-k"
    fallback_used = False
    evaluated: List[Mapping[Value, str]] = []
    for label, kf in candidates:
        # A repeated killing function has the earlier candidate's validity
        # and antichain, and only a strictly larger antichain wins.
        if kf.mapping in evaluated:
            continue
        evaluated.append(kf.mapping)
        antichain: Optional[List[Value]]
        if candidate_evaluator is not None:
            antichain = candidate_evaluator(label, kf)
        else:
            killed = killed_graph(g, kf, pk=pk_map)
            # Through the killed graph's context the acyclicity check shares
            # its topological sort with the disjoint-value DAG construction.
            if not context_for(killed).is_acyclic():
                antichain = None
            else:
                antichain, _ = saturating_antichain(g, kf, killed)
        if antichain is None:
            fallback_used = True
            continue
        if len(antichain) > best_rs:
            best_rs = len(antichain)
            best_antichain = antichain
            best_kf = kf
            best_label = label

    if best_kf is None:
        # Every candidate's killed graph was cyclic (a schedule-induced
        # function can close a zero-latency cycle between ops issued in
        # the same cycle): fall back to the register need of the ASAP
        # schedule.
        schedule = asap_schedule(g)
        rn = register_need(g, schedule, rtype)
        return SaturationResult(
            rtype,
            rn,
            method="greedy-k/fallback-asap",
            witness_schedule=schedule,
            wall_time=time.perf_counter() - start,
            details={"fallback": "no valid killing function"},
        )

    return SaturationResult(
        rtype=rtype,
        rs=best_rs,
        saturating_values=tuple(sorted(best_antichain)),
        method="greedy-k",
        killing_function=dict(best_kf.mapping),
        optimal=False,
        wall_time=time.perf_counter() - start,
        details={
            "winning_candidate": best_label,
            "candidates_evaluated": len(candidates),
            "invalid_candidates_skipped": fallback_used,
            "num_values": len(pk_map),
        },
    )
