"""Minimum time span of a temporal triangle (paper Definition 1).

``mts(∆) = min over (t1, t2, t3) ∈ τ(uv)×τ(vw)×τ(wu) of max(t) − min(t)``

Since ``max{|t1−t2|, |t2−t3|, |t3−t1|} = max(t1,t2,t3) − min(t1,t2,t3)``,
this is the classic *smallest range covering one element from each of three
sorted lists* problem, solved with three pointers in O(|τ1|+|τ2|+|τ3|):
always advance the pointer holding the current minimum — the current range
is the best one whose minimum is that element.
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


def mts_batch(times: Sequence[np.ndarray], tri: np.ndarray) -> np.ndarray:
    """Minimum time span of many triangles at once.

    Row ``tri[i]`` holds three indices into ``times`` (sorted, non-empty
    timestamp arrays). When all three lists are singletons the span is
    ``max − min`` of their one timestamps, computed in numpy; the remaining
    rows go through :func:`mts3`.
    """
    n = len(times)
    lens = np.fromiter(map(len, times), dtype=np.int64, count=n)
    first = np.fromiter((x[0] for x in times), dtype=np.int64, count=n)
    vals = first[tri]
    out = vals.max(axis=1) - vals.min(axis=1)
    for i in np.flatnonzero((lens[tri] > 1).any(axis=1)).tolist():
        a, b, c = tri[i].tolist()
        out[i] = mts3(times[a], times[b], times[c])
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
