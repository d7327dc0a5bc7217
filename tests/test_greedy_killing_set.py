"""Greedy-k's killing-set search against the combinations scan it replaced.

``_choose_killing_set`` solves a component of at most
``_EXHAUSTIVE_COMPONENT_LIMIT`` killers exhaustively, enumerating subsets as
bitmasks.  The reference below is the size-by-size
``itertools.combinations`` scan: the first subset of least
``(drag, size)`` that covers every value of the component, where the drag
is the number of values ordered after the chosen killers.  Random
components force ties in both drag and size, so the tie order is checked
as well as the optimum.
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
    _bipartite_components,
    _choose_killing_set,
    _descendant_values,
)
from repro.saturation.pkill import potential_killers_map


def _reference_choice(comp_values, comp_killers, pk, desc_values):
    best, best_cost = None, None
    for size in range(1, len(comp_killers) + 1):
        for subset in itertools.combinations(comp_killers, size):
            chosen = set(subset)
            if all(any(k in chosen for k in pk[v]) for v in comp_values):
                dragged = set()
                for killer in subset:
                    dragged |= desc_values[killer]
                cost = (len(dragged), size)
                if best_cost is None or cost < best_cost:
                    best, best_cost = list(subset), cost
    return best


def _random_component(rng: random.Random, killers: int, values: int, universe: int):
    """A random component over a small drag universe.

    Few distinct drag names and repeated killer rows make many subsets tie
    in drag and in size.
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
    names = [f"d{i}" for i in range(universe)]
    desc_values = {
        k: frozenset(rng.sample(names, rng.randint(0, universe))) for k in comp_killers
    }
    if killers > 1 and rng.random() < 0.5:
        # Two killers with the same row and drag: a tie in everything but order.
        a, b = rng.sample(comp_killers, 2)
        desc_values[b] = desc_values[a]
        for row in pk.values():
            if a in row and b not in row:
                row.append(b)
                row.sort()
    return comp_values, comp_killers, pk, desc_values


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
    desc = {k: frozenset() for k in killers}
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
    desc = ctx.descendants_map(include_self=False)
    value_nodes = {v.node for v in pk}
    desc_values = {
        k: _descendant_values(desc, k, value_nodes) for row in pk.values() for k in row
    }
    for comp_values, comp_killers in _bipartite_components(pk):
        if len(comp_killers) <= _EXHAUSTIVE_COMPONENT_LIMIT:
            assert _choose_killing_set(
                comp_values, comp_killers, pk, desc_values
            ) == _reference_choice(comp_values, comp_killers, pk, desc_values)
