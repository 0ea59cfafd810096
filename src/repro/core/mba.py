"""Maintenance-Based Algorithm (MBA, §V-B).

One pass over all triangles in descending order of minimum time span:
invalidating a triangle maintains every edge's *current δ-trussness*
simultaneously (Lemmas 1–3), and each unit decrease of trussness k → k−1
while invalidating the mts = d triangles is exactly the statement
"e ∈ H-IES between T_{k,d} and T_{k,d−1}", i.e. k-spn_k(e) = d (Lemma 4).
So MBA produces the complete k-span table — and hence both TC-Index and
DC-Index — while touching each triangle exactly once (vs once per k in DBA).

Maintained invariant (the paper's trick): for every edge e,

    ks(e) = #{ valid triangles ∆ ∋ e : L(∆) = trn(e) }

where L(∆) is the minimum trussness among ∆'s edges (Definition 10). In the
trn(e)-truss this is e's support, so e stays at its level iff
ks(e) ≥ trn(e) − 2.

When a level-k triangle is invalidated, only level-k edges can be affected
(Lemma 2), each by at most one level (Lemma 1). The cascade is a worklist
that re-checks dropped edges at their new level — so even multi-level
settles (which Lemma 1 rules out per single invalidation, but which cost
nothing to support) are handled exactly.

Implementation note: the sweep runs millions of tiny operations, so the
mutable state lives in plain Python lists/tuples — numpy scalar indexing in
this hot loop makes MBA slower than DBA, inverting the paper's Fig. 14. The
state also caches every triangle's level, ``lvl[tid] = L(∆)``, so the BFS,
the ks recount and invalidation compare one list entry instead of taking
``min(trn[e1], trn[e2], trn[e3])``. The cache changes only when an edge
drops from k to k−1, and then exactly for the valid level-k triangles on the
dropped edges: the BFS visits all of them, and moving each to k−1 as it is
visited also marks it as seen.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .decomposition import trussness
from .kspan import KspanTable
from .model import TemporalGraph

OnDrop = Callable[[int, int], None]


class _MbaState:
    """Mutable state of the δ-sweep: trussness, ks counters, levels, validity."""

    def __init__(self, g: TemporalGraph):
        tri = g.triangles()
        all_ok = np.ones(tri.n, dtype=bool)
        trn_arr = trussness(g.m, tri, all_ok)
        lvl_arr = trn_arr[tri.tri_e].min(axis=1)
        at_lvl = trn_arr[tri.tri_e] == lvl_arr[:, None]
        self.m = g.m
        self.trn: list[int] = trn_arr.tolist()
        self.lvl: list[int] = lvl_arr.tolist()
        self.ks: list[int] = np.bincount(tri.tri_e[at_lvl], minlength=g.m).tolist()
        self.tri_edges: list[tuple[int, int, int]] = tri.tri_edges
        self.edge_tris: list[list[int]] = tri.edge_tris
        self.tri_valid: list[bool] = [True] * tri.n

    def recount(self, e: int) -> int:
        """Recompute ks(e) from scratch at e's current level."""
        k = self.trn[e]
        lvl, tri_valid = self.lvl, self.tri_valid
        cnt = 0
        for tid in self.edge_tris[e]:
            if lvl[tid] == k and tri_valid[tid]:
                cnt += 1
        return cnt

    def settle(self, pending: list[int], on_drop: OnDrop) -> None:
        """Drain edges whose ks may violate ks ≥ trn−2; drop levels until stable.

        ``on_drop(e, k_old)`` is called for every unit decrease k_old → k_old−1.
        """
        trn, ks, lvl = self.trn, self.ks, self.lvl
        tri_edges, tri_valid, edge_tris = self.tri_edges, self.tri_valid, self.edge_tris
        while pending:
            e0 = pending.pop()
            k = trn[e0]
            if ks[e0] >= k - 2 or k <= 2:
                continue
            # BFS the full drop set at level k reachable from e0 (Lemma 3 ii).
            # A visited triangle holds a dropped edge, so its level becomes
            # k−1; setting that now also keeps it from being visited twice.
            drop = {e0}
            stack = [e0]
            while stack:
                e = stack.pop()
                for tid in edge_tris[e]:
                    if lvl[tid] != k or not tri_valid[tid]:
                        continue
                    lvl[tid] = k - 1
                    for e2_ in tri_edges[tid]:
                        if e2_ == e or e2_ in drop:
                            continue
                        if trn[e2_] == k:
                            ks[e2_] -= 1
                            if ks[e2_] < k - 2:
                                drop.add(e2_)
                                stack.append(e2_)
            for e in drop:
                trn[e] = k - 1
                on_drop(e, k)
            for e in drop:
                ks[e] = self.recount(e)
                if ks[e] < trn[e] - 2 and trn[e] > 2:
                    pending.append(e)  # Lemma 1 says unreachable; exact anyway

    def invalidate(self, tid: int, on_drop: OnDrop) -> None:
        """Invalidate one triangle and maintain all trussness values."""
        if not self.tri_valid[tid]:
            return
        self.tri_valid[tid] = False
        trn, ks = self.trn, self.ks
        k = self.lvl[tid]
        pending: list[int] = []
        for e in self.tri_edges[tid]:
            if trn[e] == k:
                ks[e] -= 1
                if ks[e] < k - 2:
                    pending.append(e)
        if pending:
            self.settle(pending, on_drop)


def _sweep(state: _MbaState, mts: np.ndarray, on_group: Callable[[int], OnDrop]) -> None:
    """Invalidate every triangle with mts > 0, in groups of descending mts.

    ``on_group(d)`` runs before the group with mts = d is invalidated, when
    the maintained trussness is the δ-trussness for every δ from d up to
    the previous group's mts; it returns the ``on_drop`` callback for the
    group. Triangles with mts = 0 stay valid in every (k, δ)-truss.
    """
    order = np.argsort(-mts, kind="stable")
    mts_sorted = mts[order].tolist()
    tids_sorted = order.tolist()
    i, n = 0, len(tids_sorted)
    while i < n and mts_sorted[i] > 0:
        d = mts_sorted[i]
        on_drop = on_group(d)
        while i < n and mts_sorted[i] == d:
            state.invalidate(tids_sorted[i], on_drop)
            i += 1


def mba(g: TemporalGraph) -> KspanTable:
    """Full k-span table via one descending-mts sweep of triangle invalidations."""
    tri = g.triangles()
    state = _MbaState(g)
    static_trn = np.asarray(state.trn, dtype=np.int64)  # T_k keys off static trn
    kmax = int(static_trn.max()) if g.m else 2
    dmax = int(tri.mts.max()) if tri.n else 0
    spans: dict[int, np.ndarray] = {
        k: np.full(g.m, -1, dtype=np.int64) for k in range(3, kmax + 1)
    }

    def on_group(d: int) -> OnDrop:
        def on_drop(e: int, k_old: int) -> None:
            if k_old >= 3:
                spans[k_old][e] = d

        return on_drop

    _sweep(state, tri.mts, on_group)

    # Edges still at trussness t after the sweep have k-span 0 for all k ≤ t.
    for k in range(3, kmax + 1):
        zero = (static_trn >= k) & (spans[k] == -1)
        spans[k][zero] = 0

    return KspanTable(list(g.edges), static_trn, kmax, dmax, spans)
