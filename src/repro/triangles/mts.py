"""Minimum time span of a temporal triangle (paper Definition 1).

``mts(∆) = min over (t1, t2, t3) ∈ τ(uv)×τ(vw)×τ(wu) of max(t) − min(t)``

Since ``max{|t1−t2|, |t2−t3|, |t3−t1|} = max(t1,t2,t3) − min(t1,t2,t3)``,
this is the classic *smallest range covering one element from each of three
sorted lists* problem. :func:`mts3` solves it for one triangle with three
pointers in O(|τ1|+|τ2|+|τ3|): always advance the pointer holding the
current minimum — the current range is the best one whose minimum is that
element. :func:`mts_batch` solves it for many triangles at once, with numpy
successor searches in place of the pointers.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


def mts3(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> int:
    """Minimum time span over three sorted timestamp lists.

    Inputs must be non-empty and ascending (the packed-schema invariant).
    """
    i = j = k = 0
    la, lb, lc = len(a), len(b), len(c)
    best = None
    while True:
        ta, tb, tc = a[i], b[j], c[k]
        lo = ta if ta <= tb and ta <= tc else (tb if tb <= tc else tc)
        hi = ta if ta >= tb and ta >= tc else (tb if tb >= tc else tc)
        span = hi - lo
        if best is None or span < best:
            best = span
            if best == 0:
                return 0
        # advance the list holding the minimum
        if lo == ta:
            i += 1
            if i == la:
                return int(best)
        elif lo == tb:
            j += 1
            if j == lb:
                return int(best)
        else:
            k += 1
            if k == lc:
                return int(best)


_BLOCK = 1 << 16  # timestamps per block of mts_batch's successor search


def mts_batch(times: Sequence[np.ndarray], tri: np.ndarray) -> np.ndarray:
    """Minimum time span of many triangles at once.

    Row ``tri[i]`` holds three indices into ``times`` (sorted, distinct,
    non-empty timestamp arrays). When all three lists are singletons the
    span is ``max − min`` of their one timestamps. Every other row takes the
    successor form of the smallest covering range: a best range starts at
    some x of one list and ends at the larger of x's successors (first
    elements ≥ x) in the other two, so

        mts = min over roles a and x ∈ τ_a of max(succ_b(x), succ_c(x)) − x.

    One ``searchsorted`` per role and other list finds the successors among
    the keys ``list · U + rank(t)`` (U distinct timestamps), which ascend
    when the lists are laid end to end. The rows go in blocks of about
    ``_BLOCK`` timestamps, which bounds the temporaries.
    """
    n = len(times)
    lens = np.fromiter(map(len, times), dtype=np.int64, count=n)
    start = np.cumsum(lens) - lens
    vals = np.concatenate(times).astype(np.int64, copy=False) if n else np.zeros(0, np.int64)
    first = vals[start[tri]]
    out = first.max(axis=1) - first.min(axis=1)
    rows = np.flatnonzero((lens[tri] > 1).any(axis=1))
    if not len(rows):
        return out
    uniq, rank = np.unique(vals, return_inverse=True)
    keys = np.repeat(np.arange(n, dtype=np.int64) * len(uniq), lens) + rank
    end = start + lens

    def succ(e: np.ndarray, rx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Successor in list e[j] of the timestamp ranked rx[j], and whether
        it exists."""
        p = np.searchsorted(keys, e * len(uniq) + rx)
        return vals[np.minimum(p, len(vals) - 1)], p < end[e]

    width = lens[tri[rows]].sum(axis=1)
    cum = np.cumsum(width)
    lo = 0
    while lo < len(rows):
        hi = max(lo + 1, int(np.searchsorted(cum, cum[lo] - width[lo] + _BLOCK, side="right")))
        r = tri[rows[lo:hi]]
        best = np.full(len(r), np.iinfo(np.int64).max)
        for a, b, c in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            cnt = lens[r[:, a]]
            seg = np.cumsum(cnt) - cnt
            i = np.repeat(np.arange(len(r)), cnt)
            pos = np.arange(int(cnt.sum())) + np.repeat(start[r[:, a]] - seg, cnt)
            sb, ok_b = succ(r[i, b], rank[pos])
            sc, ok_c = succ(r[i, c], rank[pos])
            span = np.maximum(sb, sc) - vals[pos]
            span[~(ok_b & ok_c)] = np.iinfo(np.int64).max
            best = np.minimum(best, np.minimum.reduceat(span, seg))
        out[rows[lo:hi]] = best
        lo = hi
    return out


def mts3_brute(a: Sequence[int], b: Sequence[int], c: Sequence[int]) -> int:
    """O(|a|·|b|·|c|) cross-product reference, for tests only."""
    aa, bb, cc = np.asarray(a), np.asarray(b), np.asarray(c)
    t1 = aa[:, None, None]
    t2 = bb[None, :, None]
    t3 = cc[None, None, :]
    hi = np.maximum(np.maximum(t1, t2), t3)
    lo = np.minimum(np.minimum(t1, t2), t3)
    return int((hi - lo).min())
