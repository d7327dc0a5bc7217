"""The push-side saturation bookkeeping against cold references, step by step.

A reduction session keeps its reachability as op-id bitsets, each killer's
drag as a bitset of the value ops it reaches, and Greedy-k's killing
function warm: a push re-chooses only the components holding a killer
whose drag mask it grew, and walks every component only when a
potential-killer row changed or after a pop.  Random push, pop and
``reset_to_depth`` interleavings check, after every step, that

* the decoded reach bitsets equal ``graphalgo.descendants_map``;
* the pk masks and every drag mask equal a cold recompute;
* the three candidate functions equal, dict order included, the cold
  ``greedy_killing_function``, ``canonical_killing_function`` and
  ``killing_function_from_schedule`` on the ASAP schedule;
* a function whose content did not change is the same object as at the
  previous step.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import graphalgo
from repro.codes import benchmark_suite
from repro.codes.generator import layered_random_ddg, random_superblock
from repro.core.graph import Edge
from repro.core.machine import retarget, vliw
from repro.core.schedule import asap_schedule
from repro.core.types import DependenceKind
from repro.reduction import ReductionSession
from repro.saturation.greedy import greedy_killing_function, greedy_saturation
from repro.saturation.pkill import (
    canonical_killing_function,
    killing_function_from_schedule,
)


def _graphs():
    graphs = [
        (f"layered-{seed}", layered_random_ddg(nodes=16, layers=4, seed=seed))
        for seed in range(6)
    ]
    graphs.append(("superblock-60", random_superblock(operations=60, seed=7)))
    entry = next(e for e in benchmark_suite(max_size=40) if e.name == "dsp-fir6")
    graphs.append(("dsp-fir6-ro1", retarget(entry.ddg, vliw(read_offset=1))))
    return [pytest.param(name, ddg, id=name) for name, ddg in graphs]


def _decoded(reach, names):
    out = {}
    for i, bits in enumerate(reach):
        out[names[i]] = {names[j] for j in range(len(names)) if bits >> j & 1}
    return out


def _check_state(sat, label):
    mirror = sat.mirror
    g = mirror.ddg.copy()
    names = mirror.interner.names()
    assert _decoded(mirror.reach_bits(), names) == graphalgo.descendants_map(
        g, include_self=True
    ), label
    op_id = mirror.op_id
    below = graphalgo.descendants_map(g, include_self=False)
    value_nodes = {v.node for v in sat._values}
    for killer, mask in sat._kdv.items():
        assert mask == sum(1 << op_id(n) for n in below[killer] & value_nodes), (
            label, killer,
        )
    for i, value in enumerate(sat._values):
        row = sat._pk[value]
        assert sat._rows[i] is row, (label, value)
        assert sat._pk_masks[i] == sum(1 << op_id(k) for k in row), (label, value)


def _cold_functions(sat):
    g = sat.mirror.ddg.copy()
    rtype = sat.rtype
    return [
        ("greedy-k", greedy_killing_function(g, rtype)),
        ("canonical", canonical_killing_function(g, rtype)),
        ("asap-induced", killing_function_from_schedule(g, asap_schedule(g), rtype)),
    ]


def _push_something(session, rng, values, order):
    """Push a legal value serialization, or else one or two forward serial arcs."""

    if rng.random() < 0.7:
        for _ in range(20):
            u, v = rng.sample(values, 2)
            edges = session.legal_serialization(u, v)
            if edges:
                session.push(edges)
                return True
    edges = []
    for _ in range(rng.randint(1, 2)):
        a, b = sorted(rng.sample(range(len(order)), 2))
        edges.append(Edge(order[a], order[b], rng.randint(0, 2), DependenceKind.SERIAL, None))
    if not session._saturation.mirror.remains_acyclic_with_edges(edges):
        return False
    session.push(edges)
    return True


@pytest.mark.parametrize("name, ddg", _graphs())
def test_bookkeeping_matches_cold_reference_after_every_step(name, ddg):
    rng = random.Random(name)
    rtype = max(ddg.register_types(), key=lambda t: len(ddg.values(t)))
    session = ReductionSession(ddg, rtype)
    sat = session._saturation
    values = list(sat._values)
    order = ddg.topological_order()
    previous = dict(sat.candidate_functions())
    seen = {"push": 0, "pop": 0, "reset": 0, "kept": 0, "partial": 0}
    for step in range(45):
        label = f"{name} step {step}"
        op = rng.random()
        passes = sat.stats["killing_full_passes"]
        if op < 0.15 and session.depth:
            session.pop()
            seen["pop"] += 1
        elif op < 0.25 and session.depth >= 2:
            session.reset_to_depth(rng.randrange(session.depth))
            seen["reset"] += 1
        elif _push_something(session, rng, values, order):
            seen["push"] += 1
        _check_state(sat, label)
        current = sat.candidate_functions()
        cold = _cold_functions(sat)
        assert [(n, list(kf.items())) for n, kf in current] == [
            (n, list(kf.items())) for n, kf in cold
        ], label
        if sat.stats["killing_full_passes"] == passes:
            seen["partial"] += 1
        for fn_label, kf in current:
            before = previous[fn_label]
            if list(kf.items()) == list(before.items()):
                assert kf is before, (label, fn_label)
                seen["kept"] += 1
        previous = dict(current)
        if step % 5 == 0:
            # The warm DV states adopt functions by reference.
            warm = session.saturation()
            fresh = greedy_saturation(session.ddg.copy(), rtype)
            assert (warm.rs, warm.saturating_values) == (
                fresh.rs, fresh.saturating_values
            ), label
    assert seen["push"] >= 10 and seen["pop"] + seen["reset"] >= 3, seen
    assert seen["partial"] > 0 and seen["kept"] > 0, seen
