"""Oracle tests for the order-width upper bound and exact RS without a solve.

On small random DAGs and their reductions the chain

    Greedy-k  <=  intLP  =  killing enumeration  <=  saturation_upper_bound

must hold, the must-die-before order must be transitively closed, and every
``exact_saturation`` answer proven by the bounds or by the search over
killing functions must equal the intLP and come with a witness schedule
whose register need, recounted here from the raw arcs and offsets, is that
answer.  The same holds on an offset population (suite and random DAGs
retargeted to VLIW read offsets 0-3), where killing enumeration is a
second oracle.  The search's node bound must cover every completion of a
partial killing function, found by brute force.  Every reduction of the
population, successful or not, must keep the input arcs, leave an acyclic
graph and report the critical path that its raw arcs give.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from collections import defaultdict

import pytest

from repro.analysis.antichain import maximum_antichain
from repro.analysis.context import context_for
from repro.codes import benchmark_suite
from repro.codes.generator import layered_random_ddg
from repro.core import DDGBuilder
from repro.core.machine import retarget, vliw
from repro.core.types import BOTTOM, FLOAT, INT, canonical_type
from repro.errors import SolverError
from repro.reduction import reduce_saturation_heuristic
from repro.saturation import (
    dvk,
    enumerate_killing_functions,
    exact_saturation,
    exact_ilp,
    greedy_saturation,
    intlp_saturation,
    killed_graph,
    ordered_after,
    potential_killers_map,
    saturating_antichain,
    saturation_by_killing_enumeration,
    saturation_by_schedule_enumeration,
    saturation_upper_bound,
)

SEEDS = range(60)
REGISTERS = 3


def _instances(seed):
    """A random DAG and its successful reductions to R=3, per register type."""

    ddg = layered_random_ddg(nodes=11, layers=4, max_latency=3, seed=seed)
    out = []
    for rtype in ddg.register_types():
        out.append((ddg, rtype))
        reduced = reduce_saturation_heuristic(ddg, rtype, REGISTERS)
        if reduced.success:
            out.append((reduced.extended_ddg, rtype))
    return out


def _must_die_before(ddg, rtype):
    """``u -> {v : u < v}`` on the bottom-normalised graph."""

    bottom = context_for(ddg).bottom()
    lp = bottom.longest_path_matrix()
    values = sorted(bottom.ddg.values(rtype))
    return {
        u: {v for v in values if v != u and ordered_after(bottom.ddg, u, v, lp)}
        for u in values
    }


def _transitively_closed(later):
    return all(later[v] <= later[u] for u in later for v in later[u])


def _kahn_asap(graph):
    """ASAP issue times over the raw arcs, or None when they close a cycle."""

    indegree = {name: 0 for name in graph.nodes()}
    out = defaultdict(list)
    for e in graph.edges():
        indegree[e.dst] += 1
        out[e.src].append((e.dst, e.latency))
    ready = [name for name, d in indegree.items() if d == 0]
    times = {name: 0 for name in indegree}
    done = 0
    while ready:
        name = ready.pop()
        done += 1
        for dst, latency in out[name]:
            times[dst] = max(times[dst], times[name] + latency)
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
    return times if done == len(indegree) else None


def _recounted_need(graph, times, rtype):
    """Register need of *times* on *graph*, from its arcs and offsets alone."""

    ops = {op.name: op for op in graph.operations()}
    readers = defaultdict(list)
    for e in graph.edges():
        assert times[e.dst] - times[e.src] >= e.latency, f"{e.src}->{e.dst} violated"
        if e.is_flow and e.rtype == rtype:
            readers[e.src].append(e.dst)
    spans = []
    for name, op in ops.items():
        if name == BOTTOM or rtype not in op.defs:
            continue
        birth = times[name] + op.delta_w
        death = max((times[r] + ops[r].delta_r for r in readers[name]), default=birth)
        if death > birth:
            spans.append((birth, death))
    return max((sum(1 for b, d in spans if b < t <= d) for _, t in spans), default=0)


@pytest.mark.parametrize("seed", SEEDS)
def test_upper_bound_above_killing_enumeration(seed):
    for ddg, rtype in _instances(seed):
        assert _transitively_closed(_must_die_before(ddg, rtype))
        greedy = greedy_saturation(ddg.copy(), rtype).rs
        oracle = saturation_by_killing_enumeration(ddg.copy(), rtype)
        upper = saturation_upper_bound(ddg.copy(), rtype)
        assert oracle.optimal
        assert greedy <= oracle.rs <= upper <= len(ddg.values(rtype))


@pytest.mark.needs_ilp_solver
@pytest.mark.parametrize("seed", SEEDS)
def test_exact_equals_intlp_and_oracles(seed):
    for ddg, rtype in _instances(seed):
        exact = exact_saturation(ddg.copy(), rtype)
        assert exact.optimal
        if exact.method == "intlp":
            intlp = exact.rs
        else:
            assert exact.method in ("bounds", "search")
            intlp = intlp_saturation(ddg.copy(), rtype).rs
            graph = ddg.with_bottom()
            assert _recounted_need(graph, exact.witness_schedule.times, rtype) == exact.rs
            assert len(exact.saturating_values) == exact.rs
        greedy = greedy_saturation(ddg.copy(), rtype).rs
        oracle = saturation_by_killing_enumeration(ddg.copy(), rtype).rs
        upper = saturation_upper_bound(ddg.copy(), rtype)
        assert greedy <= intlp == oracle <= upper
        assert exact.rs == intlp


@pytest.mark.parametrize("seed", SEEDS)
def test_every_reduction_keeps_arcs_and_reports_its_critical_path(seed):
    ddg = layered_random_ddg(nodes=11, layers=4, max_latency=3, seed=seed)
    for rtype in ddg.register_types():
        reduced = reduce_saturation_heuristic(ddg, rtype, REGISTERS)
        extended = reduced.extended_ddg
        strongest = defaultdict(lambda: float("-inf"))
        for e in extended.edges():
            key = (e.src, e.dst, e.kind, e.rtype)
            strongest[key] = max(strongest[key], e.latency)
        for e in ddg.edges():
            assert strongest[(e.src, e.dst, e.kind, e.rtype)] >= e.latency, e
        assert _kahn_asap(extended) is not None
        times = _kahn_asap(extended.with_bottom())
        assert reduced.critical_path_after == max(times.values())


def test_figure2_proven_by_bounds(figure2):
    result = exact_saturation(figure2, INT)
    assert (result.method, result.rs, result.optimal) == ("bounds", 4, True)
    assert result.details["upper_bound"] == 4
    assert _recounted_need(figure2.with_bottom(), result.witness_schedule.times, INT) == 4


@pytest.mark.needs_ilp_solver
def test_horizon_accepts_witness_issued_within_it(figure2):
    horizon = context_for(figure2).bottom().worst_case_total_time()
    result = exact_saturation(figure2.copy(), INT, horizon=horizon)
    assert (result.method, result.optimal) == ("bounds", True)
    assert result.witness_schedule[BOTTOM] <= horizon
    assert result.rs == intlp_saturation(figure2.copy(), INT, horizon=horizon).rs
    issued = result.witness_schedule[BOTTOM]
    assert exact_saturation(figure2.copy(), INT, horizon=issued).method == "bounds"
    # A horizon the witness misses leaves the answer to the solver.
    tight = issued - 1
    solved = exact_saturation(figure2.copy(), INT, horizon=tight)
    assert solved.method == "intlp"
    assert solved.rs == intlp_saturation(figure2.copy(), INT, horizon=tight).rs


def short_flow_arc_ddg():
    """``v`` is written 5 cycles into its operation, ``cv`` may read it after 1.

    The flow arc ``v -> cv`` is shorter than ``delta_w(v) - delta_r(cv)``,
    so ``v``'s lifetime can be empty: ``u < v`` and ``v < w`` hold, but
    ``u`` and ``w`` can be alive together (``cu`` reads ``u`` 4 cycles late).
    """

    return (
        DDGBuilder("short-flow-arc")
        .default_type("int")
        .value("u")
        .op("cu", delta_r=4)
        .value("v", delta_w=5)
        .op("cv")
        .value("w")
        .op("cw")
        .flow("u", "cu")
        .serial("cu", "v", 1)
        .flow("v", "cv", latency=1)
        .serial("cv", "w", 1)
        .flow("w", "cw")
        .build()
    )


def test_intransitive_order_falls_back_to_value_count():
    ddg = short_flow_arc_ddg()
    later = _must_die_before(ddg, INT)
    u, v, w = sorted(later)
    assert later == {u: {v}, v: {w}, w: set()}
    assert not _transitively_closed(later)
    # The width of the closure (one chain u < v < w) would be unsound.
    assert len(maximum_antichain([u, v, w], [(u, v), (v, w), (u, w)])) == 1
    assert saturation_by_schedule_enumeration(ddg, INT).rs == 2
    assert saturation_upper_bound(ddg, INT) == len(ddg.values(INT)) == 3
    # The DV closure undercounts here, and killing enumeration says so.
    killing = saturation_by_killing_enumeration(ddg, INT)
    assert killing.rs == 1
    assert not killing.optimal and not killing.details["characterised"]


@pytest.mark.needs_ilp_solver
def test_intransitive_order_is_solved():
    result = exact_saturation(short_flow_arc_ddg(), INT)
    assert (result.method, result.rs) == ("intlp", 2)


def late_reader_ddg():
    """``c1`` reads ``u`` 3 cycles into its operation and reaches ``w``,
    the other consumer of ``u``, by a 0-latency arc, so it is no potential
    killer of ``u``, yet it may read ``u`` last.  ``DV_k`` then orders
    ``u`` before ``w``, but issuing ``c1`` in ``w``'s cycle keeps both
    alive.
    """

    return (
        DDGBuilder("late-reader")
        .default_type("int")
        .value("u")
        .op("c1", delta_r=3)
        .op("p")
        .value("w")
        .op("d")
        .flow("u", "c1")
        .flow("u", "w")
        .serial("c1", "w", 0)
        .serial("p", "w", 5)
        .flow("w", "d")
        .build()
    )


def test_late_reader_outside_pkill_leaves_the_search_out():
    ddg = late_reader_ddg()
    bottom = context_for(ddg).bottom()
    assert not dvk.characterised(bottom.ddg, INT, bottom)
    assert saturation_by_schedule_enumeration(ddg, INT).rs == 2
    assert greedy_saturation(ddg.copy(), INT).rs == 1 < saturation_upper_bound(ddg, INT)
    # Killing enumeration undercounts too, and reads the same predicate.
    killing = saturation_by_killing_enumeration(ddg.copy(), INT)
    assert killing.rs == 1
    assert not killing.optimal and not killing.details["characterised"]


@pytest.mark.needs_ilp_solver
def test_late_reader_outside_pkill_is_solved():
    result = exact_saturation(late_reader_ddg(), INT)
    assert (result.method, result.rs) == ("intlp", 2)


@pytest.mark.needs_ilp_solver
def test_intlp_witness_mismatch_raises(monkeypatch, figure2):
    real_solve = exact_ilp.solve

    def off_by_one(*args, **kwargs):
        solution = real_solve(*args, **kwargs)
        return dataclasses.replace(solution, objective=solution.objective + 1)

    monkeypatch.setattr(exact_ilp, "solve", off_by_one)
    with pytest.raises(SolverError, match="witness schedule needs 4"):
        intlp_saturation(figure2, INT)


@functools.lru_cache(maxsize=None)
def _offset_graphs():
    """The offset population's DAGs, before retargeting."""

    graphs = [entry.ddg for entry in benchmark_suite(seed=2004, max_size=20)]
    graphs += [
        layered_random_ddg(nodes=12, layers=4, max_latency=3, seed=s) for s in range(15)
    ]
    return tuple(graphs)


def _offset_instances(read_offset):
    machine = vliw(read_offset=read_offset)
    for ddg in _offset_graphs():
        retargeted = retarget(ddg, machine)
        for rtype in retargeted.register_types():
            yield retargeted, rtype


@pytest.mark.parametrize("read_offset", range(4))
def test_offset_population_is_settled_without_a_solve(read_offset):
    for ddg, rtype in _offset_instances(read_offset):
        graph = ddg.with_bottom()
        # Greedy-k's witness keeps its whole antichain alive, offsets or not.
        greedy = greedy_saturation(ddg.copy(), rtype)
        witness = exact_ilp._witness_schedule(
            graph, rtype, greedy.killing_function, greedy.saturating_values
        )
        assert _recounted_need(graph, witness.times, rtype) == greedy.rs
        exact = exact_saturation(ddg.copy(), rtype)
        assert exact.method in ("bounds", "search") and exact.optimal
        assert _recounted_need(graph, exact.witness_schedule.times, rtype) == exact.rs
        upper = exact.details["upper_bound"]
        assert greedy.rs <= exact.rs <= exact.details.get("root_bound", upper) <= upper
        oracle = saturation_by_killing_enumeration(ddg.copy(), rtype)
        if oracle.optimal:
            assert exact.rs == oracle.rs


@pytest.mark.needs_ilp_solver
@pytest.mark.parametrize("read_offset", range(4))
def test_offset_population_equals_intlp(read_offset):
    for ddg, rtype in _offset_instances(read_offset):
        assert exact_saturation(ddg.copy(), rtype).rs == intlp_saturation(ddg.copy(), rtype).rs


@pytest.mark.parametrize("seed", range(20))
def test_node_bound_covers_every_completion(seed):
    """At random partial killing functions, the search's node bound is at
    least the largest antichain of every valid completion's DV_k, and a
    cyclic node has no valid completion."""

    ddg = layered_random_ddg(nodes=13, layers=4, max_latency=3, seed=seed)
    g = context_for(retarget(ddg, vliw(read_offset=seed % 4))).bottom().ddg
    rng = random.Random(seed)
    for rtype in g.register_types():
        pk = potential_killers_map(g, rtype)
        widths = []
        for kf in enumerate_killing_functions(g, rtype, only_valid=False):
            killed = killed_graph(g, kf)
            if killed.is_acyclic():
                widths.append((kf.mapping, len(saturating_antichain(g, kf, killed)[0])))
        multi = sorted(v for v in pk if len(pk[v]) > 1)
        forced = {v: ks[0] for v, ks in pk.items() if len(ks) == 1}
        root = exact_ilp._node_antichain(g, rtype, forced, pk)
        assert len(root) <= saturation_upper_bound(g, rtype)
        for _ in range(8):
            fixed = rng.sample(multi, rng.randint(0, len(multi)))
            partial = {**forced, **{v: rng.choice(sorted(pk[v])) for v in fixed}}
            node = exact_ilp._node_antichain(g, rtype, partial, pk)
            completions = [
                width for mapping, width in widths
                if all(mapping[v] == k for v, k in partial.items())
            ]
            if node is None:
                assert not completions
                continue
            assert len(node) >= max(completions, default=0)
            if len(fixed) == len(multi):
                assert completions == [len(node)]


@pytest.mark.parametrize(
    "suite_seed, name, rtype, nodes, rs, greedy_rs",
    [
        (2004, "whetstone-m6", "float", 4, 6, 6),
        (2005, "rand-layered-3", "int", 89, 14, 12),
    ],
)
def test_search_node_counts_are_pinned(suite_seed, name, rtype, nodes, rs, greedy_rs):
    rtype = canonical_type(rtype)
    entry = next(e for e in benchmark_suite(seed=suite_seed) if e.name == name)
    result = exact_saturation(entry.ddg.copy(), rtype)
    assert (result.method, result.rs, result.details["search_nodes"]) == ("search", rs, nodes)
    assert greedy_saturation(entry.ddg.copy(), rtype).rs == greedy_rs
    graph = entry.ddg.with_bottom()
    assert _recounted_need(graph, result.witness_schedule.times, rtype) == rs


@pytest.mark.needs_ilp_solver
def test_search_past_its_node_budget_leaves_the_answer_to_the_solver(monkeypatch):
    entry = next(e for e in benchmark_suite(seed=2004) if e.name == "whetstone-m6")
    searched = exact_saturation(entry.ddg.copy(), FLOAT)
    monkeypatch.setattr(exact_ilp, "_SEARCH_NODE_BUDGET", searched.details["search_nodes"] - 1)
    solved = exact_saturation(entry.ddg.copy(), FLOAT)
    assert (solved.method, solved.rs) == ("intlp", searched.rs)


@pytest.mark.needs_ilp_solver
def test_intlp_counts_no_empty_lifetime():
    """rand-loop-8 at VLIW read offset 0 has one int value whose lifetime
    the solver could leave empty while still counting it."""

    entry = next(e for e in benchmark_suite(seed=2004) if e.name == "rand-loop-8")
    ddg = retarget(entry.ddg, vliw(read_offset=0))
    graph = ddg.with_bottom()
    for result in (exact_saturation(ddg.copy(), INT), intlp_saturation(ddg.copy(), INT)):
        assert result.rs == 1
        assert _recounted_need(graph, result.witness_schedule.times, INT) == 1
