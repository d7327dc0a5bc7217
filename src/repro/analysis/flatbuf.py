"""Scalar kernels of the flat hot core.

The reduction engine keeps its hot state on integer op ids (see
:mod:`repro.saturation.incremental`): longest-path rows are plain
``List[float]`` buffers indexed by op id, and a killer's disjoint-value
relation is an int bitset over value indices.  The two inner loops over that
state live here:

* :func:`finite_entries` + :func:`max_merge` -- patching one lp row under a
  pushed arc, copy-on-write;
* :func:`threshold_mask` -- the DV threshold scan turning a killer's lp row
  into its bitset.

``tests/test_flatbuf.py`` checks each kernel against its direct definition.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = [
    "NEG_INF",
    "backend",
    "finite_entries",
    "max_merge",
    "threshold_mask",
]

NEG_INF = float("-inf")


def backend() -> str:
    """The kernel implementation in use; there is only the scalar one."""

    return "scalar"


def finite_entries(row_dst: List[float]) -> List[Tuple[int, float]]:
    """The ``(y, lp(dst, y))`` pairs of an arc's destination row with a
    finite longest path: the per-arc hoist of the push patch loop."""

    return [(y, dv) for y, dv in enumerate(row_dst) if dv != NEG_INF]


def max_merge(row: List[float], shift: float, finite):
    """``row'[y] = max(row[y], shift + lp(dst, y))`` over the finite entries.

    Returns ``(patched_row, changed_indices)`` -- a fresh copy-on-write row
    and the ascending indices that grew -- or ``(None, None)`` when nothing
    improved.  *row* itself is never mutated.  The changed-index list feeds
    the DV dirty-region recheck, so its order is part of the contract.
    """

    patched = None
    changed: Optional[List[int]] = None
    for y, dv in finite:
        cand = shift + dv
        if patched is None:
            if cand > row[y]:
                patched = row[:]
                patched[y] = cand
                changed = [y]
        elif cand > patched[y]:
            patched[y] = cand
            changed.append(y)  # type: ignore[union-attr]
    return patched, changed


def threshold_mask(
    row: List[float], value_ids: Sequence[int], delta_w: Sequence[int], read: int
) -> int:
    """The killer's DV bitset: bit ``j`` set iff ``lp(k, v_j) >= read - dw_j``.

    ``v_j`` is the op id ``value_ids[j]`` and ``dw_j`` is ``delta_w[j]``; an
    unreachable value (``-inf``) never sets its bit.
    """

    mask = 0
    for j, vid in enumerate(value_ids):
        dist = row[vid]
        if dist != NEG_INF and dist >= read - delta_w[j]:
            mask |= 1 << j
    return mask
