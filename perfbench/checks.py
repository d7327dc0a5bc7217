"""Output checks that do not reuse the code under test.

Each check recomputes what it needs from the graph's operations and arcs
alone: its own topological sort and longest paths, its own lifetimes and
register need.  Every function returns a list of problems (empty = pass).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.types import BOTTOM


def _topological_order(ddg) -> Optional[List[str]]:
    """Kahn's algorithm over the raw arcs; ``None`` when the graph is cyclic."""

    nodes = [op.name for op in ddg.operations()]
    indegree = {n: 0 for n in nodes}
    succ: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    for e in ddg.edges():
        indegree[e.dst] += 1
        succ[e.src].append((e.dst, e.latency))
    ready = [n for n in nodes if indegree[n] == 0]
    order: List[str] = []
    while ready:
        node = ready.pop()
        order.append(node)
        for dst, _ in succ[node]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
    return order if len(order) == len(nodes) else None


def _longest_paths_from(order: List[str], succ, source: str) -> Dict[str, int]:
    dist = {source: 0}
    for node in order[order.index(source):]:
        if node not in dist:
            continue
        for dst, latency in succ[node]:
            reach = dist[node] + latency
            if dst not in dist or dist[dst] < reach:
                dist[dst] = reach
    return dist


def check_reduction(original, reduced) -> List[str]:
    """The reduced DAG is acyclic, keeps every flow arc verbatim and still
    enforces every input arc's latency along some path."""

    order = _topological_order(reduced)
    if order is None:
        return [f"{reduced.name}: reduced DAG is cyclic"]
    problems: List[str] = []
    kept = set(reduced.edges())
    succ: Dict[str, List[Tuple[str, int]]] = defaultdict(list)
    for e in kept:
        succ[e.src].append((e.dst, e.latency))
    by_source: Dict[str, List] = defaultdict(list)
    for e in original.edges():
        if e.is_flow and e not in kept:
            problems.append(f"{reduced.name}: flow arc {e.src}->{e.dst} lost")
        by_source[e.src].append(e)
    for src, arcs in by_source.items():
        dist = _longest_paths_from(order, succ, src)
        for e in arcs:
            if dist.get(e.dst, float("-inf")) < e.latency:
                problems.append(
                    f"{reduced.name}: arc {e.src}->{e.dst} (latency {e.latency}) no longer enforced"
                )
    return problems


def precedence_violations(ddg, times: Mapping[str, int]) -> List[str]:
    problems = [f"{n} unscheduled" for n in (op.name for op in ddg.operations()) if n not in times]
    for e in ddg.edges():
        if e.src in times and e.dst in times and times[e.dst] - times[e.src] < e.latency:
            problems.append(
                f"{ddg.name}: {e.dst} issued at {times[e.dst]} before {e.src}@{times[e.src]}+{e.latency}"
            )
    return problems


def lifetimes(ddg, times: Mapping[str, int], rtype) -> Dict[str, Tuple[int, int]]:
    """``node -> (birth, death)``: the value lives in ``]birth, death]``."""

    ops = {op.name: op for op in ddg.operations()}
    readers: Dict[str, List[str]] = defaultdict(list)
    for e in ddg.edges():
        if e.is_flow and e.rtype == rtype:
            readers[e.src].append(e.dst)
    out: Dict[str, Tuple[int, int]] = {}
    for name, op in ops.items():
        if name == BOTTOM or rtype not in op.defs:
            continue
        birth = times[name] + op.delta_w
        death = max((times[r] + ops[r].delta_r for r in readers[name]), default=birth)
        out[name] = (birth, death)
    return out


def max_live(intervals: Iterable[Tuple[int, int]]) -> int:
    """Largest number of ``]birth, death]`` intervals sharing an instant."""

    live = [(b, d) for b, d in intervals if d > b]
    return max((sum(1 for b, d in live if b < t <= d) for _, t in live), default=0)


def check_allocation(ddg, times, rtype, allocation, registers: int) -> List[str]:
    """No register holds two overlapping lifetimes; within budget on success."""

    spans = lifetimes(ddg, times, rtype)
    spilled = {v.node for v in allocation.spilled}
    held: Dict[int, List[Tuple[str, int, int]]] = defaultdict(list)
    problems: List[str] = []
    for value, reg in allocation.assignment.items():
        birth, death = spans[value.node]
        if value.node in spilled or death <= birth:
            continue
        for other, b, d in held[reg]:
            if death > b and d > birth:
                problems.append(f"{ddg.name}: r{reg} holds {other} and {value.node} at once")
        held[reg].append((value.node, birth, death))
    if allocation.success:
        if len(held) > registers or allocation.registers_used > registers:
            problems.append(
                f"{ddg.name}: allocation reports success with {allocation.registers_used} > {registers} registers"
            )
        assigned = {v.node for v in allocation.assignment}
        missing = [n for n, (b, d) in spans.items() if d > b and n not in assigned]
        if missing:
            problems.append(f"{ddg.name}: live values without a register: {missing[:3]}")
    return problems


def check_witness(graph, rtype, rs: int, times: Optional[Mapping[str, int]]) -> List[str]:
    """An exact RS witness schedule of the bottom-normalised *graph* is valid
    and needs exactly *rs* registers."""

    if times is None:
        return [f"{graph.name}: exact result without witness schedule"]
    problems = precedence_violations(graph, times)
    if not problems:
        need = max_live(lifetimes(graph, times, rtype).values())
        if need != rs:
            problems.append(f"{graph.name}: witness needs {need} registers, RS reported {rs}")
    return problems


def break_schedule(ddg, times: Mapping[str, int]) -> Dict[str, int]:
    """A copy of *times* with one consumer issued before its producer (self-test)."""

    broken = dict(times)
    arc = next(e for e in ddg.edges() if e.is_flow)
    broken[arc.dst] = broken[arc.src] - 1
    return broken
