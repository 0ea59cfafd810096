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

The peeling kernels run millions of tiny steps, so their mutable state —
``alive``, ``sup``, ``tri_alive`` and the span output — is plain Python
lists, and they read triangles as ``TriangleStore.tri_edges`` tuples:
indexing a list is several times cheaper than reading a numpy scalar.
:func:`support` stays vectorized; callers convert its result once with
``.tolist()``.
"""
from __future__ import annotations

import numpy as np

from .model import TriangleStore


def support(m: int, tri_e: np.ndarray, tri_ok: np.ndarray) -> np.ndarray:
    """Per-edge support: #valid triangles (``tri_ok``) holding the edge."""
    return np.bincount(tri_e[tri_ok].ravel(), minlength=m)


def peel_to_truss(
    *,
    alive: list[bool],
    sup: list[int],
    tri_edges: list[tuple[int, int, int]],
    tri_alive: list[bool],
    edge_tris: list[list[int]],
    threshold: int,
    seeds: list[int],
) -> list[int]:
    """Cascade-remove alive edges whose support < ``threshold``, in place.

    ``tri_alive`` marks triangles that are valid *and* currently unbroken;
    it is maintained in place (a triangle dies with its first removed edge).
    The cascade starts from ``seeds``; an alive edge below the threshold
    that is neither a seed nor loses support during the cascade stays.
    Returns removed edge ids, in removal order.
    """
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
                for e2 in tri_edges[tid]:
                    if e2 != e and alive[e2]:
                        s = sup[e2] - 1
                        sup[e2] = s
                        if s < threshold:
                            stack.append(e2)
    return removed


def trussness(m: int, tri: TriangleStore, tri_ok: np.ndarray) -> np.ndarray:
    """Decomposition: trn(e) for every edge, counting only valid triangles.

    Classic peeling, levelled by k: at level k, edges that cannot keep
    support ≥ k−2 are removed with trn = k−1; survivors form the k-truss.
    Edges in no valid triangle get trn = 2 (every edge is in the 2-truss).
    """
    alive = [True] * m
    tri_alive = tri_ok.tolist()
    sup = support(m, tri.tri_e, tri_ok).tolist()
    trn = [2] * m
    left = list(range(m))
    k = 3
    while left:
        removed = peel_to_truss(
            alive=alive,
            sup=sup,
            tri_edges=tri.tri_edges,
            tri_alive=tri_alive,
            edge_tris=tri.edge_tris,
            threshold=k - 2,
            seeds=[e for e in left if sup[e] < k - 2],
        )
        for e in removed:
            trn[e] = k - 1
        left = [e for e in left if alive[e]]
        k += 1
        # safety: k can never exceed max support + 2
        if k > m + 3:
            raise RuntimeError("trussness failed to converge")
    return np.asarray(trn, dtype=np.int64)


def decomph(
    *,
    alive: list[bool],
    sup: list[int],
    tri_edges: list[tuple[int, int, int]],
    mts: list[int],
    tri_alive: list[bool],
    edge_tris: list[list[int]],
    threshold: int,
    stop: int,
) -> list[int]:
    """δ-sweep (``decomph``, §V-A) from the largest mts down to ``stop``.

    Invalidates the alive triangles with mts > ``stop`` in groups of
    descending mts and cascade-peels edges whose support drops below
    ``threshold`` after each group; ``alive``, ``sup`` and ``tri_alive``
    are updated in place. Returns a span per edge: d for an edge peeled
    while the mts = d group is invalidated, ``stop`` for an edge that
    survives, and −1 for an edge dead on entry.
    """
    span = [stop if a else -1 for a in alive]
    order = sorted(
        (tid for tid, ok in enumerate(tri_alive) if ok and mts[tid] > stop),
        key=mts.__getitem__,
        reverse=True,
    )
    i = 0
    while i < len(order):
        d = mts[order[i]]
        seeds: list[int] = []
        while i < len(order) and mts[order[i]] == d:
            tid = order[i]
            i += 1
            if tri_alive[tid]:
                tri_alive[tid] = False
                for e in tri_edges[tid]:
                    if alive[e]:
                        sup[e] -= 1
                        seeds.append(e)
        removed = peel_to_truss(
            alive=alive,
            sup=sup,
            tri_edges=tri_edges,
            tri_alive=tri_alive,
            edge_tris=edge_tris,
            threshold=threshold,
            seeds=seeds,
        )
        for e in removed:
            span[e] = d
    return span
