"""Definition-level brute-force reference implementations (tests only).

Everything here is deliberately naive — triple loops and cross products —
so that it is obviously correct. All production algorithms (Spark triangle
enumeration, peeling, DBA/MBA, the indexes, dynamic maintenance) are tested
against these on small graphs.
"""
from __future__ import annotations

import itertools
import math

import pandas as pd

from .mts import mts3_brute


def _packed_map(flat: pd.DataFrame) -> dict[tuple[int, int], list[int]]:
    """flat (u,v,t) → {(u,v) with u<v: sorted distinct timestamps}."""
    out: dict[tuple[int, int], set[int]] = {}
    for u, v, t in flat.itertuples(index=False):
        a, b = (int(u), int(v)) if u < v else (int(v), int(u))
        if a == b:
            continue
        out.setdefault((a, b), set()).add(int(t))
    return {e: sorted(ts) for e, ts in out.items()}


def triangles_with_mts(flat: pd.DataFrame) -> list[tuple[int, int, int, int]]:
    """All triangles (a<b<c) with their minimum time span, by triple loop."""
    tmap = _packed_map(flat)
    verts = sorted({x for e in tmap for x in e})
    out = []
    for a, b, c in itertools.combinations(verts, 3):
        if (a, b) in tmap and (b, c) in tmap and (a, c) in tmap:
            m = mts3_brute(tmap[(a, b)], tmap[(b, c)], tmap[(a, c)])
            out.append((a, b, c, m))
    return out


def kd_truss(flat: pd.DataFrame, k: int, delta: float) -> set[tuple[int, int]]:
    """(k, δ)-truss edge set by definition: repeatedly drop deficient edges.

    O(m² · triangles) — maximal subgraph where each edge is in ≥ k−2
    δ-triangles *of the subgraph*.
    """
    tmap = _packed_map(flat)
    tris = triangles_with_mts(flat)
    alive = set(tmap)
    changed = True
    while changed and alive:
        changed = False
        sup = {e: 0 for e in alive}
        for a, b, c, m in tris:
            es = ((a, b), (b, c), (a, c))
            if m <= delta and all(e in alive for e in es):
                for e in es:
                    sup[e] += 1
        bad = {e for e in alive if sup[e] < k - 2}
        if bad:
            alive -= bad
            changed = True
    return alive


def static_trussness(flat: pd.DataFrame) -> dict[tuple[int, int], int]:
    """trn(e) = max k with e ∈ k-truss, by repeated kd_truss(δ=∞) calls."""
    tmap = _packed_map(flat)
    trn = {e: 2 for e in tmap}
    k = 3
    while True:
        t = kd_truss(flat, k, math.inf)
        if not t:
            return trn
        for e in t:
            trn[e] = k
        k += 1


def kspan(flat: pd.DataFrame, e: tuple[int, int], k: int) -> float:
    """k-span of an edge by definition (Def. 5): min δ with e ∈ T_{k,δ}.

    Returns ``math.inf`` if e is not even in the static k-truss.
    """
    deltas = sorted({m for *_, m in triangles_with_mts(flat)} | {0})
    if e not in kd_truss(flat, k, math.inf):
        return math.inf
    for d in deltas:
        if e in kd_truss(flat, k, d):
            return d
    return math.inf
