"""The flat hot core's scalar kernels against their direct definitions.

``max_merge`` and ``threshold_mask`` (``repro.analysis.flatbuf``) and the
bitset closure (``repro.analysis.antichain.closure_from_rows``) carry every
warm longest-path row and DV relation of the reduction engine.  Each is
checked on randomized inputs, ``-inf`` sentinels included, against a
literal evaluation of what it computes -- not against another
implementation of itself.
"""

from __future__ import annotations

import random

from repro.analysis import flatbuf
from repro.analysis.antichain import closure_from_rows

NEG_INF = flatbuf.NEG_INF


def _random_row(rng, n, p_inf=0.3):
    return [
        NEG_INF if rng.random() < p_inf else float(rng.randint(-50, 200))
        for _ in range(n)
    ]


def test_backend_is_scalar():
    assert flatbuf.backend() == "scalar"


class TestMaxMerge:
    def test_randomized_rows_match_definition(self):
        rng = random.Random(20260808)
        for case in range(300):
            n = rng.randint(1, 40)
            row = _random_row(rng, n)
            dst = _random_row(rng, n, p_inf=rng.choice([0.1, 0.5, 1.0]))
            shift = float(rng.randint(-10, 60))
            pristine = list(row)

            patched, changed = flatbuf.max_merge(
                row, shift, flatbuf.finite_entries(dst)
            )

            expected = [
                max(row[y], shift + dst[y]) if dst[y] != NEG_INF else row[y]
                for y in range(n)
            ]
            grew = [y for y in range(n) if expected[y] != row[y]]
            assert row == pristine, f"case {case}: input row mutated"
            if not grew:
                assert (patched, changed) == (None, None), f"case {case}"
                continue
            assert patched == expected, f"case {case}"
            assert patched is not row
            assert changed == grew, f"case {case}: changed indices, ascending"

    def test_no_improvement_returns_none(self):
        row = [5.0, 6.0]
        finite = flatbuf.finite_entries([0.0, 0.0])
        assert flatbuf.max_merge(row, 1.0, finite) == (None, None)
        assert flatbuf.max_merge(row, 99.0, flatbuf.finite_entries([NEG_INF] * 2)) == (
            None,
            None,
        )

    def test_finite_entries_skip_unreachable(self):
        assert flatbuf.finite_entries([NEG_INF, 0.0, NEG_INF, 3.0]) == [(1, 0.0), (3, 3.0)]

    def test_unreachable_entries_become_reachable(self):
        row = [0.0, NEG_INF, 7.0]
        finite = flatbuf.finite_entries([NEG_INF, 2.0, 1.0])
        assert flatbuf.max_merge(row, 3.0, finite) == ([0.0, 5.0, 7.0], [1])
        assert row == [0.0, NEG_INF, 7.0]


class TestThresholdMask:
    def test_randomized_rows_match_bitwise_definition(self):
        rng = random.Random(977)
        for case in range(300):
            n = rng.randint(1, 48)
            k = rng.randint(0, n)
            row = _random_row(rng, n)
            vids = rng.sample(range(n), k)
            dw = [rng.randint(0, 4) for _ in range(k)]
            read = rng.randint(-5, 120)

            mask = flatbuf.threshold_mask(row, vids, dw, read)

            assert type(mask) is int
            for j in range(k):
                lp = row[vids[j]]
                expected = lp != NEG_INF and lp >= read - dw[j]
                assert bool(mask >> j & 1) == expected, f"case {case} bit {j}"
            assert mask >> k == 0, f"case {case}: bits beyond the value set"

    def test_empty_value_set_is_zero(self):
        assert flatbuf.threshold_mask([1.0, 2.0], [], [], 10) == 0

    def test_equality_boundary_sets_bit(self):
        # lp == read - dw is a conflict: bits 0 and 2 sit exactly on it.
        row = [5.0, NEG_INF, 4.0, 3.0]
        assert flatbuf.threshold_mask(row, [0, 1, 2, 3], [0, 3, 1, 1], 5) == 0b0101

    def test_unreachable_entries_never_set(self):
        row = [NEG_INF] * 6
        assert flatbuf.threshold_mask(row, list(range(6)), [0] * 6, -(10**9)) == 0


def _dfs_reachability(rows):
    """Strict successors of every vertex by explicit DFS over the bit relation."""

    n = len(rows)
    out = []
    for i in range(n):
        seen = 0
        stack = [j for j in range(n) if rows[i] >> j & 1]
        while stack:
            j = stack.pop()
            if seen >> j & 1:
                continue
            seen |= 1 << j
            stack.extend(k for k in range(n) if rows[j] >> k & 1)
        out.append(seen)
    return out


class TestClosure:
    @staticmethod
    def _random_dag_rows(rng, n):
        perm = list(range(n))
        rng.shuffle(perm)
        # Edges follow a hidden random order, so the rows are not already
        # topologically sorted.
        rows = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.15:
                    rows[perm[a]] |= 1 << perm[b]
        return rows

    def test_matches_dfs_reachability(self):
        rng = random.Random(4242)
        for _ in range(60):
            rows = self._random_dag_rows(rng, rng.randint(0, 40))
            assert closure_from_rows(rows) == _dfs_reachability(rows)

    def test_empty_relation(self):
        assert closure_from_rows([]) == []
        assert closure_from_rows([0, 0, 0]) == [0, 0, 0]

    def test_chain_reaches_every_later_vertex(self):
        n = 50
        rows = [1 << (i + 1) for i in range(n - 1)] + [0]
        expected = [((1 << n) - 1) & ~((1 << (i + 1)) - 1) for i in range(n)]
        assert closure_from_rows(rows) == expected

    def test_cycle_returns_none(self):
        assert closure_from_rows([0b010, 0b100, 0b001]) is None  # 0 -> 1 -> 2 -> 0
        assert closure_from_rows([0b1]) is None  # self-loop
