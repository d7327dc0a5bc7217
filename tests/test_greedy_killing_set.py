"""Greedy-k's killing-set search against the combinations scan it replaced.

``_choose_killing_set`` solves a component of at most
``_EXHAUSTIVE_COMPONENT_LIMIT`` killers exhaustively, enumerating subsets as
bitmasks.  The reference below is the size-by-size
``itertools.combinations`` scan: the first subset of least
``(drag, size)`` that covers every value of the component, where the drag
is the number of values ordered after the chosen killers.  A killer's drag
is an int bitset of those values.  Random components force ties in both
drag and size, so the tie order is checked as well as the optimum.

``ChoiceCache`` reuses a component's stored choice while it provably
stands; its unit tests pin the reuse rule.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.analysis.context import context_for
from repro.codes.generator import layered_random_ddg
from repro.core.types import INT, Value
from repro.saturation import greedy
from repro.saturation.greedy import (
    _EXHAUSTIVE_COMPONENT_LIMIT,
    ChoiceCache,
    _bipartite_components,
    _choose_killing_set,
    _component_choice,
    _drag_masks,
)
from repro.saturation.pkill import potential_killers_map


def _reference_choice(comp_values, comp_killers, pk, drag):
    best, best_cost = None, None
    for size in range(1, len(comp_killers) + 1):
        for subset in itertools.combinations(comp_killers, size):
            chosen = set(subset)
            if all(any(k in chosen for k in pk[v]) for v in comp_values):
                dragged = 0
                for killer in subset:
                    dragged |= drag[killer]
                cost = (bin(dragged).count("1"), size)
                if best_cost is None or cost < best_cost:
                    best, best_cost = list(subset), cost
    return best


def _random_component(rng: random.Random, killers: int, values: int, universe: int):
    """A random component over a small drag universe.

    Few distinct dragged values (bits) and repeated killer rows make many
    subsets tie in drag and in size.
    """

    comp_killers = sorted(f"k{i:02d}" for i in range(killers))
    comp_values = [Value(f"v{j:02d}", INT) for j in range(values)]
    pk = {}
    for j, value in enumerate(comp_values):
        row = rng.sample(comp_killers, rng.randint(1, min(3, killers)))
        if j < killers:
            # Every killer kills some value.
            row = sorted(set(row) | {comp_killers[j]})
        pk[value] = sorted(row)
    drag = {
        k: sum(1 << bit for bit in rng.sample(range(universe), rng.randint(0, universe)))
        for k in comp_killers
    }
    if killers > 1 and rng.random() < 0.5:
        # Two killers with the same row and drag: a tie in everything but order.
        a, b = rng.sample(comp_killers, 2)
        drag[b] = drag[a]
        for row in pk.values():
            if a in row and b not in row:
                row.append(b)
                row.sort()
    return comp_values, comp_killers, pk, drag


@pytest.mark.parametrize("seed", range(12))
def test_bitmask_search_matches_combinations(seed):
    rng = random.Random(seed)
    for killers in range(1, _EXHAUSTIVE_COMPONENT_LIMIT + 1):
        for _ in range(4):
            values = rng.randint(killers, killers + 3)
            universe = rng.choice((0, 2, 4, 8))
            comp = _random_component(rng, killers, values, universe)
            assert _choose_killing_set(*comp) == _reference_choice(*comp), (
                killers, values, universe
            )


def test_ties_follow_combinations_order():
    # Every killer covers every value and drags nothing: the first single
    # killer wins, and among the equal pairs the first combination would.
    values = [Value("a", INT), Value("b", INT)]
    killers = ["k0", "k1", "k2", "k3"]
    pk = {v: list(killers) for v in values}
    desc = {k: 0 for k in killers}
    assert _choose_killing_set(values, killers, pk, desc) == ["k0"]
    # Two disjoint halves: each pair crossing them ties at drag 0, size 2.
    pk = {values[0]: ["k0", "k1"], values[1]: ["k2", "k3"]}
    assert _choose_killing_set(values, killers, pk, desc) == ["k0", "k2"]
    assert _reference_choice(values, killers, pk, desc) == ["k0", "k2"]


def test_limit_boundary(monkeypatch):
    calls = []
    exhaustive = greedy._exhaustive_killing_set

    def spy(*args):
        calls.append(len(args[1]))
        return exhaustive(*args)

    monkeypatch.setattr(greedy, "_exhaustive_killing_set", spy)
    rng = random.Random(5)
    for killers in (1, 10, 11):
        comp = _random_component(rng, killers, killers + 2, 6)
        chosen = _choose_killing_set(*comp)
        covered = set(chosen)
        assert all(any(k in covered for k in comp[2][v]) for v in comp[0])
        if killers == 10:
            assert chosen == _reference_choice(*comp)
    # A lone killer returns at once, 10 killers are searched exhaustively
    # and 11 go to the greedy cover-ratio rule.
    assert calls == [10]


@pytest.mark.parametrize("seed", range(6))
def test_real_components_match_reference(seed):
    ddg = layered_random_ddg(nodes=24, layers=4, seed=seed).with_bottom()
    ctx = context_for(ddg)
    pk = potential_killers_map(ddg, INT, ctx)
    drag = _drag_masks(pk, ctx.descendants_map(include_self=False))
    value_nodes = {v.node for v in pk}
    desc = ctx.descendants_map(include_self=False)
    for killer, mask in drag.items():
        # The mask holds exactly the values the killer orders after it.
        assert bin(mask).count("1") == len(desc[killer] & value_nodes)
    for comp_values, comp_killers in _bipartite_components(pk):
        if len(comp_killers) <= _EXHAUSTIVE_COMPONENT_LIMIT:
            assert _choose_killing_set(
                comp_values, comp_killers, pk, drag
            ) == _reference_choice(comp_values, comp_killers, pk, drag)


class TestChoiceCacheReuse:
    """The stored choice stands only while the reuse rule proves it.

    One component of three values: ``k0`` kills ``a`` and ``b``, ``k1``
    kills ``b`` and ``c``, ``k2`` kills ``c`` only.  With the drags below
    the choice is ``{k0, k2}`` (drag 1 beats ``{k0, k1}``'s drag 2), so
    ``k1`` is the non-chosen killer.
    """

    VALUES = [Value("a", INT), Value("b", INT), Value("c", INT)]
    KILLERS = ["k0", "k1", "k2"]

    def _pk(self):
        a, b, c = self.VALUES
        return {a: ["k0"], b: ["k0", "k1"], c: ["k1", "k2"]}

    def _ask(self, cache, pk, drag):
        misses = cache.misses
        assignment = cache.assignment(self.VALUES, self.KILLERS, pk, drag)
        assert assignment == _component_choice(self.VALUES, self.KILLERS, pk, drag)[1]
        return cache.misses == misses

    def test_lone_killer_is_reused_after_its_mask_grows(self):
        cache = ChoiceCache()
        values = [Value("a", INT), Value("b", INT)]
        pk = {v: ["k0"] for v in values}
        cache.assignment(values, ["k0"], pk, {"k0": 0b1})
        assert cache.assignment(values, ["k0"], pk, {"k0": 0b111}) == {
            v: "k0" for v in values
        }
        assert (cache.hits, cache.misses) == (1, 1)

    def test_chosen_killer_growth_rechooses(self):
        cache, pk = ChoiceCache(), self._pk()
        drag = {"k0": 0b001, "k1": 0b010, "k2": 0b000}
        assert not self._ask(cache, pk, drag)
        assert _choose_killing_set(self.VALUES, self.KILLERS, pk, drag) == ["k0", "k2"]
        # k2 is chosen: its growth to drag 2 makes {k0, k1} (drag 2,
        # first in combinations order among the ties) the answer.
        grown = dict(drag, k2=0b110)
        assert not self._ask(cache, pk, grown)
        assert _choose_killing_set(self.VALUES, self.KILLERS, pk, grown) == ["k0", "k1"]

    def test_non_chosen_growth_alone_reuses(self):
        cache, pk = ChoiceCache(), self._pk()
        drag = {"k0": 0b001, "k1": 0b010, "k2": 0b000}
        assert not self._ask(cache, pk, drag)
        assert self._ask(cache, pk, dict(drag, k1=0b1110))
        assert cache.hits == 1

    def test_shrink_after_a_pop_rechooses(self):
        cache, pk = ChoiceCache(), self._pk()
        drag = {"k0": 0b001, "k1": 0b110, "k2": 0b100}
        assert not self._ask(cache, pk, drag)
        # A pop restores smaller masks: a non-chosen killer below its
        # stored mask may now win, so the choice is made again.
        shrunk = dict(drag, k1=0b000)
        assert not self._ask(cache, pk, shrunk)
        assert _choose_killing_set(self.VALUES, self.KILLERS, pk, shrunk) == ["k0", "k1"]

    def test_replaced_row_rechooses(self):
        cache, pk = ChoiceCache(), self._pk()
        drag = {"k0": 0b001, "k1": 0b010, "k2": 0b000}
        assert not self._ask(cache, pk, drag)
        same_content = {v: list(row) for v, row in pk.items()}
        assert not self._ask(cache, same_content, drag)
