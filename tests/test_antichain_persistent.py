"""Property tests for the persistent antichain engine.

:class:`~repro.analysis.antichain.PersistentAntichain` keeps the DV-DAG
closure as a running family of bitsets and the Hopcroft--Karp matching alive
across monotone edge insertions.  Its whole value rests on two claims, both
pinned here over random DAG populations:

* at every step of any insertion sequence it reports the **byte-identical**
  antichain to the from-scratch reference
  (:func:`~repro.analysis.antichain.antichain_indices_from_rows`, the exact
  pipeline the incremental saturation engine ran per call before the
  persistent engine existed) -- this is the Dulmage--Mendelsohn invariance
  of the Koenig sets across maximum matchings, checked empirically;
* the Dilworth duality ``|antichain| = n - |maximum matching|`` holds at
  every step, and a push/pop round trip restores the *exact* prior state
  (closure rows, matching arrays, cached antichain).

Both claims also hold under :meth:`PersistentAntichain.replace_rows`, the
update that swaps whole successor rows (shrinks included) when a
candidate's killing function changes, and under
:meth:`PersistentAntichain.set_closure_rows`, which takes rows that are
already transitively closed as they are.  The antichain is read off the
repair's last BFS phase, so it is also checked after another query ran
the repair, after a pop that restores a repaired state, and on an empty
ground set.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.antichain import (
    PersistentAntichain,
    antichain_indices_from_rows,
    brute_force_maximum_antichain,
    closure_from_rows,
    is_antichain,
    maximum_antichain,
)


def _random_dag_pairs(n: int, rng: random.Random):
    """All forward pairs of a random vertex order, shuffled."""

    perm = list(range(n))
    rng.shuffle(perm)
    pos = {v: i for i, v in enumerate(perm)}
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and pos[u] < pos[v]]
    rng.shuffle(pairs)
    return pairs


def _rows_from(n, pairs):
    rows = [0] * n
    for u, v in pairs:
        rows[u] |= 1 << v
    return rows


def _closure_pairs(engine: PersistentAntichain, n: int):
    return {
        (i, j)
        for i in range(n)
        for j in range(n)
        if (engine.closure_row(i) >> j) & 1
    }


class TestMonotoneInsertion:
    @pytest.mark.parametrize("seed", range(12))
    def test_identical_to_from_scratch_at_every_step(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 16)
        pairs = _random_dag_pairs(n, rng)
        split = rng.randint(0, len(pairs))
        rows = _rows_from(n, pairs[:split])
        engine = PersistentAntichain(n, rows=list(rows))
        assert not engine.cyclic
        assert engine.antichain_indices() == antichain_indices_from_rows(rows)
        for u, v in pairs[split:]:
            rows[u] |= 1 << v
            assert engine.insert(u, v)
            got = engine.antichain_indices()
            assert got == antichain_indices_from_rows(rows)
            # Dilworth duality on the running state.
            assert len(got) == n - engine.matching_size()
            assert engine.cardinality() == len(got)

    @pytest.mark.parametrize("seed", range(6))
    def test_antichain_is_maximum(self, seed):
        """The reported set is an antichain of the closure and has optimal size."""

        rng = random.Random(100 + seed)
        n = rng.randint(2, 12)
        pairs = _random_dag_pairs(n, rng)
        keep = pairs[: rng.randint(0, len(pairs))]
        rows = _rows_from(n, keep)
        engine = PersistentAntichain(n, rows=rows)
        got = engine.antichain_indices()
        closure = _closure_pairs(engine, n)
        assert is_antichain(got, closure)
        assert len(got) == brute_force_maximum_antichain(list(range(n)), closure)
        # And the generic pair-set entry point agrees on the same closure.
        assert len(maximum_antichain(list(range(n)), closure)) == len(got)

    def test_implied_insert_is_noop(self):
        engine = PersistentAntichain(3, rows=[0b010, 0b100, 0])  # 0<1<2
        before = [engine.closure_row(i) for i in range(3)]
        assert engine.insert(0, 2)  # already in the closure
        assert [engine.closure_row(i) for i in range(3)] == before

    def test_cycle_detection_and_undo(self):
        engine = PersistentAntichain(3, rows=[0b010, 0b100, 0])  # 0<1<2
        antichain = engine.antichain_indices()
        engine.push()
        assert not engine.insert(2, 0)  # closes the cycle
        assert engine.cyclic
        assert engine.antichain_indices() is None
        assert engine.cardinality() is None
        engine.pop()
        assert not engine.cyclic
        assert engine.antichain_indices() == antichain

    def test_cyclic_seed(self):
        engine = PersistentAntichain(2, rows=[0b10, 0b01])
        assert engine.cyclic
        assert engine.antichain_indices() is None

    def test_empty_ground_set(self):
        engine = PersistentAntichain(0, rows=[])
        assert engine.antichain_indices() == []
        assert engine.cardinality() == 0


def _random_forward_row(i, pos, perm, rng, density):
    """A random successor row of *i* that respects the order *perm*."""

    row = 0
    for j in perm[pos[i] + 1:]:
        if rng.random() < density:
            row |= 1 << j
    return row


def _check_against_reference(engine, rows, label):
    n = len(rows)
    closure = closure_from_rows(rows)
    assert [engine.closure_row(i) for i in range(n)] == closure, label
    reference = antichain_indices_from_rows(rows)
    assert engine.antichain_indices() == reference, label
    match_l, match_r = engine.matching()
    matched = [(u, v) for u, v in enumerate(match_l) if v != -1]
    # A valid matching of the split graph of the new closure ...
    assert all((closure[u] >> v) & 1 and match_r[v] == u for u, v in matched), label
    # ... and a maximum one (Dilworth: width = n - |maximum matching|).
    assert engine.cardinality() == n - len(matched) == len(reference), label


class TestRowReplacement:
    """`replace_rows` against the from-scratch closure and antichain."""

    @pytest.mark.parametrize("seed", range(8))
    def test_identical_to_from_scratch_after_every_replacement(self, seed):
        rng = random.Random(2000 + seed)
        n = rng.randint(2, 40)
        perm = list(range(n))
        rng.shuffle(perm)
        pos = {v: i for i, v in enumerate(perm)}
        density = rng.choice((0.1, 0.25, 0.5))
        rows = [_random_forward_row(i, pos, perm, rng, density) for i in range(n)]
        engine = PersistentAntichain(n, rows=list(rows))
        _check_against_reference(engine, rows, f"seed {seed} seed rows")
        shrinks = grows = 0
        for step in range(30):
            new_rows = list(rows)
            changed = rng.sample(range(n), rng.randint(1, max(1, n // 4)))
            for i in changed:
                new_rows[i] = _random_forward_row(i, pos, perm, rng, rng.random() * 0.6)
            shrinks += any(old & ~new for old, new in zip(rows, new_rows))
            grows += any(new & ~old for old, new in zip(rows, new_rows))
            if rng.random() < 0.3:
                engine.antichain_indices()  # a warm matching to keep or drop
            assert engine.replace_rows(new_rows, changed)
            rows = new_rows
            _check_against_reference(engine, rows, f"seed {seed} step {step}")
        assert shrinks and grows

    @pytest.mark.parametrize("seed", range(4))
    def test_push_pop_round_trip(self, seed):
        rng = random.Random(3000 + seed)
        n = rng.randint(4, 24)
        perm = list(range(n))
        rng.shuffle(perm)
        pos = {v: i for i, v in enumerate(perm)}
        rows = [_random_forward_row(i, pos, perm, rng, 0.3) for i in range(n)]
        engine = PersistentAntichain(n, rows=list(rows))
        before_closure = [engine.closure_row(i) for i in range(n)]
        before_matching = engine.matching()
        before_antichain = engine.antichain_indices()
        engine.push()
        for _ in range(5):
            changed = rng.sample(range(n), 3)
            for i in changed:
                rows[i] = _random_forward_row(i, pos, perm, rng, 0.4)
            engine.replace_rows(list(rows), changed)
            engine.antichain_indices()
        engine.pop()
        assert [engine.closure_row(i) for i in range(n)] == before_closure
        assert engine.matching() == before_matching
        assert engine.antichain_indices() == before_antichain

    def test_cycle_then_recovery(self):
        n = 12
        rows = [0] * n
        for i in range(n - 1):
            rows[i] = 1 << (i + 1)  # the chain 0 < 1 < ... < n-1
        rows[3] |= 1 << 9
        engine = PersistentAntichain(n, rows=list(rows))
        assert engine.antichain_indices() == antichain_indices_from_rows(rows)
        # 8 -> 2 closes the cycle 2 < 3 < ... < 8 < 2.
        cyclic = list(rows)
        cyclic[8] |= 1 << 2
        assert not engine.replace_rows(cyclic, [8])
        assert engine.cyclic
        assert engine.antichain_indices() is None
        assert engine.cardinality() is None
        assert not engine.insert(0, 5)
        # Dropping the back arc, and rewriting two more rows, recovers it.
        recovered = list(rows)
        recovered[3] = 0
        recovered[5] = 1 << 11
        assert engine.replace_rows(recovered, [3, 5, 8])
        assert not engine.cyclic
        _check_against_reference(engine, recovered, "recovered")

    def test_cycle_among_changed_rows_only(self):
        engine = PersistentAntichain(4, rows=[0b0010, 0, 0b1000, 0])  # 0<1, 2<3
        # 1 -> 0 closes a two-cycle among the replaced row and its ancestor.
        assert not engine.replace_rows([0b0010, 0b0001, 0b1000, 0], [1])
        assert engine.cyclic
        assert engine.replace_rows([0b0010, 0b0100, 0b1000, 0], [1])
        _check_against_reference(engine, [0b0010, 0b0100, 0b1000, 0], "chain")


def _random_closed_relation(n, rng):
    """The closure of a random DAG on ``range(n)``, with its order and raw rows."""

    perm = list(range(n))
    rng.shuffle(perm)
    pos = {v: i for i, v in enumerate(perm)}
    density = rng.choice((0.05, 0.15, 0.3))
    raw = [_random_forward_row(i, pos, perm, rng, density) for i in range(n)]
    return closure_from_rows(raw), raw, perm, pos


def _closed_engine(closed):
    engine = PersistentAntichain(len(closed))
    engine.set_closure_rows(enumerate(closed))
    return engine


class TestClosedRows:
    """`set_closure_rows` against the from-scratch path and a `replace_rows` twin."""

    @staticmethod
    def _check(engine, twin, closed, label):
        # A closed relation is its own closure, so the reference check
        # compares the closure rows with *closed* itself.
        _check_against_reference(engine, closed, label)
        _check_against_reference(twin, closed, label)
        assert engine.matching_size() == twin.matching_size(), label

    @pytest.mark.parametrize("seed", range(12))
    def test_growth_and_shrink_under_push_pop(self, seed):
        rng = random.Random(4000 + seed)
        n = rng.randint(1, 40)
        closed, raw, perm, pos = _random_closed_relation(n, rng)
        engine = _closed_engine(closed)
        twin = PersistentAntichain(n, rows=closed)
        self._check(engine, twin, closed, f"seed {seed} start")
        snapshots = []
        grows = shrinks = pops = 0
        for step in range(40):
            label = f"seed {seed} step {step}"
            if rng.random() < 0.25 and snapshots:
                engine.pop()
                twin.pop()
                raw, closed, matching = snapshots.pop()
                # The exact matching comes back, not merely an equivalent one.
                assert engine.matching() == matching, label
                pops += 1
                self._check(engine, twin, closed, label)
                continue
            if rng.random() < 0.5:
                snapshots.append((list(raw), closed, engine.matching()))
                engine.push()
                twin.push()
            new_raw = list(raw)
            changed_raw = rng.sample(range(n), rng.randint(1, max(1, n // 4)))
            growth_only = rng.random() < 0.5
            for i in changed_raw:
                row = _random_forward_row(i, pos, perm, rng, rng.random() * 0.4)
                # A sync only adds arcs; a killing-function change also drops some.
                new_raw[i] = raw[i] | row if growth_only else row
            new_closed = closure_from_rows(new_raw)
            changed = [i for i in range(n) if new_closed[i] != closed[i]]
            grows += any(new & ~old for old, new in zip(closed, new_closed))
            shrinks += any(old & ~new for old, new in zip(closed, new_closed))
            if rng.random() < 0.3:
                engine.antichain_indices()  # a warm matching to keep or drop
                twin.antichain_indices()
            engine.set_closure_rows((i, new_closed[i]) for i in changed)
            assert twin.replace_rows(new_closed, changed), label
            raw, closed = new_raw, new_closed
            self._check(engine, twin, closed, label)
        assert grows and shrinks and pops

    @pytest.mark.parametrize("seed", range(6))
    def test_keeps_every_matched_pair_a_new_row_still_holds(self, seed):
        rng = random.Random(4100 + seed)
        n = rng.randint(8, 40)
        closed, raw, perm, pos = _random_closed_relation(n, rng)
        engine = _closed_engine(closed)
        before, _ = engine.matching()
        for i in rng.sample(range(n), n // 3):
            raw[i] = _random_forward_row(i, pos, perm, rng, 0.2)
        new_closed = closure_from_rows(raw)
        engine.set_closure_rows(enumerate(new_closed))
        # Before any repair: a pair survives exactly when its row kept it.
        assert engine._match_l == [
            v if v != -1 and (new_closed[u] >> v) & 1 else -1
            for u, v in enumerate(before)
        ]
        assert engine.antichain_indices() == antichain_indices_from_rows(new_closed)

    @pytest.mark.parametrize("query", ["matching", "matching_size", "cardinality"])
    def test_antichain_after_another_query_ran_the_repair(self, query):
        rng = random.Random(4200)
        closed, raw, perm, pos = _random_closed_relation(24, rng)
        engine = _closed_engine(closed)
        getattr(engine, query)()
        assert engine.antichain_indices() == antichain_indices_from_rows(closed)
        raw[perm[0]] |= _random_forward_row(perm[0], pos, perm, rng, 0.5)
        grown = closure_from_rows(raw)
        engine.set_closure_rows(enumerate(grown))
        getattr(engine, query)()
        assert engine.antichain_indices() == antichain_indices_from_rows(grown)

    def test_pop_restores_a_repaired_state(self):
        rng = random.Random(4300)
        closed, raw, perm, pos = _random_closed_relation(30, rng)
        engine = _closed_engine(closed)
        matching = engine.matching()  # repaired; no antichain asked for yet
        engine.push()
        engine.set_closure_rows(
            enumerate(closure_from_rows([row | _random_forward_row(i, pos, perm, rng, 0.3)
                                         for i, row in enumerate(raw)]))
        )
        engine.antichain_indices()
        engine.pop()
        assert engine.matching() == matching
        assert engine.antichain_indices() == antichain_indices_from_rows(closed)

    def test_empty_ground_set(self):
        engine = _closed_engine([])
        assert engine.matching() == ([], [])
        assert engine.matching_size() == engine.cardinality() == 0
        engine.push()
        engine.set_closure_rows([])
        engine.pop()
        assert engine.antichain_indices() == []

    def test_cyclic_engine_refuses_closed_rows(self):
        engine = PersistentAntichain(2, rows=[0b10, 0b01])
        assert engine.cyclic
        with pytest.raises(RuntimeError):
            engine.set_closure_rows([(0, 0b10), (1, 0)])


class TestPushPop:
    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_restores_exact_state(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(2, 14)
        pairs = _random_dag_pairs(n, rng)
        split = rng.randint(0, len(pairs))
        engine = PersistentAntichain(n, rows=_rows_from(n, pairs[:split]))
        engine.antichain_indices()  # warm the matching before framing
        snapshots = []
        for u, v in pairs[split:]:
            if rng.random() < 0.4:
                match_l, match_r = engine.matching()
                snapshots.append(
                    (
                        [engine.closure_row(i) for i in range(n)],
                        match_l,
                        match_r,
                        engine.antichain_indices(),
                        engine.depth,
                    )
                )
                engine.push()
            engine.insert(u, v)
            if rng.random() < 0.5:
                engine.antichain_indices()  # interleave repairs with inserts
        while engine.depth:
            engine.pop()
            closure, match_l, match_r, antichain, depth = snapshots.pop()
            assert engine.depth == depth
            assert [engine.closure_row(i) for i in range(n)] == closure
            # The exact matching is restored, not merely an equivalent one.
            got_l, got_r = engine.matching()
            assert (got_l, got_r) == (match_l, match_r)
            assert engine.antichain_indices() == antichain

    def test_nested_frames_unwind_in_order(self):
        engine = PersistentAntichain(4, rows=[0, 0, 0, 0])
        assert len(engine.antichain_indices()) == 4
        engine.push()
        engine.insert(0, 1)
        assert len(engine.antichain_indices()) == 3
        engine.push()
        engine.insert(2, 3)
        assert len(engine.antichain_indices()) == 2
        engine.pop()
        assert len(engine.antichain_indices()) == 3
        engine.pop()
        assert len(engine.antichain_indices()) == 4


class TestDeepChains:
    def test_long_chain_does_not_recurse(self):
        """A 600-element chain used to blow the recursion limit in the DFS."""

        n = 600
        rows = [1 << (i + 1) if i + 1 < n else 0 for i in range(n)]
        engine = PersistentAntichain(n, rows=rows)
        assert engine.antichain_indices() == [n - 1] == antichain_indices_from_rows(rows)
        assert engine.cardinality() == 1

    def test_long_chain_generic_entry_point(self):
        """The shared list-based Hopcroft--Karp walks deep graphs iteratively.

        The split graph of a sparse 1200-element chain admits augmenting
        paths ~1199 vertices deep; the historic recursive DFS blew Python's
        default recursion limit there (the raw relation also exercises the
        documented non-closed behaviour: the result has minimum-chain-cover
        size, here a single chain).
        """

        n = 1200
        elements = list(range(n))
        pairs = {(i, i + 1) for i in range(n - 1)}
        assert len(maximum_antichain(elements, pairs)) == 1
        closed = {(i, j) for i in range(120) for j in range(i + 1, 120)}
        assert len(maximum_antichain(list(range(120)), closed)) == 1
