"""Truss-decomposition primitives (peeling with a validity mask).

These are the workhorses shared by the index-free Online-Query (§III), DBA
(§V-A) and the verification step of dynamic maintenance (§VI-D):

* :func:`support` — per-edge count of valid, unbroken triangles;
* :func:`peel_to_truss` — cascade-remove edges below a support threshold
  (the fixpoint that defines a (k, δ)-truss);
* :func:`trussness` — full decomposition: trn(e) = max k with e ∈ k-truss,
  counting only triangles marked valid (δ-trussness when the mask encodes
  ``mts ≤ δ``; classic static trussness when all triangles are valid);
* :func:`decomph` — the paper's δ-sweep: step δ down one mts value at a
  time, peeling after each step, and record the δ at which each edge
  leaves. DBA runs it on each static k-truss; maintenance runs it on the
  affected subgraph (Algorithm 2).
"""
from __future__ import annotations

import numpy as np


def support(
    m: int, tri_e: np.ndarray, tri_ok: np.ndarray, alive: np.ndarray | None = None
) -> np.ndarray:
    """Per-edge support: #triangles that are valid and have all edges alive."""
    if alive is None:
        mask = tri_ok
    else:
        mask = tri_ok & alive[tri_e].all(axis=1)
    sup = np.zeros(m, dtype=np.int64)
    if mask.any():
        np.add.at(sup, tri_e[mask].ravel(), 1)
    return sup


def peel_to_truss(
    *,
    alive: np.ndarray,
    sup: np.ndarray,
    tri_e: np.ndarray,
    tri_alive: np.ndarray,
    edge_tris: list[list[int]],
    threshold: int,
    seeds: list[int] | None = None,
) -> list[int]:
    """Cascade-remove alive edges whose support < ``threshold``, in place.

    ``tri_alive`` marks triangles that are valid *and* currently unbroken;
    it is maintained in place (a triangle dies with its first removed edge).
    ``seeds`` optionally restricts the initial scan to a candidate set (all
    alive edges are scanned when omitted). Returns removed edge ids, in
    removal order.
    """
    if seeds is None:
        stack = [int(e) for e in np.flatnonzero(alive & (sup < threshold))]
    else:
        stack = [e for e in seeds if alive[e] and sup[e] < threshold]
    removed: list[int] = []
    while stack:
        e = stack.pop()
        if not alive[e] or sup[e] >= threshold:
            continue
        alive[e] = False
        removed.append(e)
        for tid in edge_tris[e]:
            if tri_alive[tid]:
                tri_alive[tid] = False
                for e2 in tri_e[tid]:
                    e2 = int(e2)
                    if e2 != e and alive[e2]:
                        sup[e2] -= 1
                        if sup[e2] < threshold:
                            stack.append(e2)
    return removed


def trussness(
    m: int, tri_e: np.ndarray, tri_ok: np.ndarray, edge_tris: list[list[int]]
) -> np.ndarray:
    """Decomposition: trn(e) for every edge, counting only valid triangles.

    Classic peeling, levelled by k: at level k, edges that cannot keep
    support ≥ k−2 are removed with trn = k−1; survivors form the k-truss.
    Edges in no valid triangle get trn = 2 (every edge is in the 2-truss).
    """
    alive = np.ones(m, dtype=bool)
    tri_alive = tri_ok.copy()
    sup = support(m, tri_e, tri_ok)
    trn = np.full(m, 2, dtype=np.int64)
    k = 3
    n_left = int(alive.sum())
    while n_left > 0:
        removed = peel_to_truss(
            alive=alive,
            sup=sup,
            tri_e=tri_e,
            tri_alive=tri_alive,
            edge_tris=edge_tris,
            threshold=k - 2,
        )
        for e in removed:
            trn[e] = k - 1
        n_left -= len(removed)
        k += 1
        # safety: k can never exceed max support + 2
        if k > m + 3:
            raise RuntimeError("trussness failed to converge")
    return trn


def decomph(
    *,
    alive: np.ndarray,
    sup: np.ndarray,
    tri_e: np.ndarray,
    mts: np.ndarray,
    tri_alive: np.ndarray,
    edge_tris: list[list[int]],
    threshold: int,
    stop: int,
) -> np.ndarray:
    """δ-sweep (``decomph``, §V-A) from the largest mts down to ``stop``.

    Invalidates the alive triangles with mts > ``stop`` in groups of
    descending mts and cascade-peels edges whose support drops below
    ``threshold`` after each group; ``alive``, ``sup`` and ``tri_alive``
    are updated in place. Returns a span per edge: d for an edge peeled
    while the mts = d group is invalidated, ``stop`` for an edge that
    survives, and −1 for an edge dead on entry.
    """
    span = np.where(alive, stop, -1).astype(np.int64)
    tids = np.flatnonzero(tri_alive & (mts > stop))
    order = tids[np.argsort(-mts[tids], kind="stable")].tolist()
    mts_sorted = mts[order].tolist()
    i = 0
    while i < len(order):
        d = mts_sorted[i]
        seeds: list[int] = []
        while i < len(order) and mts_sorted[i] == d:
            tid = order[i]
            i += 1
            if tri_alive[tid]:
                tri_alive[tid] = False
                for e in tri_e[tid].tolist():
                    if alive[e]:
                        sup[e] -= 1
                        seeds.append(e)
        removed = peel_to_truss(
            alive=alive,
            sup=sup,
            tri_e=tri_e,
            tri_alive=tri_alive,
            edge_tris=edge_tris,
            threshold=threshold,
            seeds=seeds,
        )
        span[removed] = d
    return span
