"""Dynamic index maintenance (§VI): filter-and-verification.

An evolving temporal graph is a stream of edge insertions ``(u, v, t)``
(the paper assumes no deletion — history is immutable). An insertion is a
**timestamp insertion** when the static edge already exists (only mts
values of its triangles can drop) or an **edge insertion** otherwise (new
triangles appear and static trussness can rise by ≤ 1). Either way the
k-span table — and hence TC-Index and DC-Index — is patched locally
instead of rebuilt:

1. **Filter of k** (Theorem 5): only k ≤ trn(e0, G+) can change.
2. **Filter of k-span** (Lemmas 5–7): per k, collect the *affected
   triangles* — for a timestamp insertion the triangles containing e0 whose
   mts dropped across δm = max k-span of their edges (Lemma 5); for an edge
   insertion every new triangle inside the k-truss (mts dropping ∞ → m).
   Each gets an interval [δ⁻_∆, δ⁺_∆]: δ⁺_∆ = max k-span of its edges
   (Lemma 6); δ⁻_∆ = max(mts(∆,G+), max_e μ(e)) where μ(e), the (k−2)-th
   smallest mts among e's triangles, is a computable lower bound on any
   k-span (our stand-in for the paper's recursive δ̲(e); a smaller δ⁻ only
   enlarges the verified region, never changes results). Overlapping
   intervals are merged and processed in descending order. Newly-promoted
   edges get the Lemma-7 upper bound δ̄ = max(t1, t2) as a provisional
   k-span (taken as a hull over the promoted set — see the inline note).
3. **Filter of edges / GAS** (Algorithm 1): BFS from e0 (plus promoted
   edges) over triangles whose k-rank upper estimate is ≤ δ⁺, collecting
   the edges with (estimated) k-span ≤ δ⁺. Lemma 6's chain argument
   guarantees every edge whose k-span changes — and every triangle
   supporting such a change — passes this filter.
4. **Verification** (Algorithm 2): run DBA's ``decomph`` sweep on the
   collected local subgraph from δ⁺ downward, overwriting the k-spans of
   the region edges with their exact new values. A promoted edge left
   unverified, or a new edge with fewer than k−2 triangles inside the
   k-truss of G+, contradicts the lemmas above and raises ``RuntimeError``.

Static trussness under an *edge* insertion is recomputed exactly and
locally-in-k: for each k ≤ kb (the classic upper bound of [36]),
``k-truss(G+) = k-truss(H_k)`` where ``H_k = {e : trn_G(e) ≥ k−1} ∪ {e0}``.
Proof: every edge of k-truss(G+) has trn_{G+} ≥ k, hence trn_G ≥ k−1 (one
insertion raises trussness by ≤ 1), so k-truss(G+) ⊆ H_k ⊆ G+; k-truss is
monotone and idempotent, so k-truss(G+) = k-truss(k-truss(G+)) ⊆
k-truss(H_k) ⊆ k-truss(G+). Edges of k-truss(H_k) with trn_G = k−1 are
exactly those promoted to k.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decomposition import decomph, peel_to_truss, support
from .kspan import KspanTable
from .model import TemporalGraph


@dataclass
class MaintenanceStats:
    """What the filters achieved for one insertion (for reporting/tests)."""

    kind: str
    k_range: tuple[int, int] | None = None  # inclusive [3, trn(e0, G+)]
    touched_ks: list[int] = field(default_factory=list)
    region_sizes: dict[int, int] = field(default_factory=dict)
    changed: dict[int, int] = field(default_factory=dict)  # k -> #edges with new span
    promoted: dict[int, int] = field(default_factory=dict)  # k -> #promoted edges


# --------------------------------------------------------------------------
# static trussness maintenance for edge insertion
# --------------------------------------------------------------------------


def _kb_upper_bound(g: TemporalGraph, e0: int, trn: np.ndarray) -> int:
    """k2/kb of [36]: max k with ≥ k−2 triangles of e0 whose other edges
    both have trn ≥ k−1."""
    tri = g.triangles()
    caps = []
    for tid in tri.edge_tris[e0]:
        others = [int(x) for x in tri.tri_e[tid] if int(x) != e0]
        caps.append(min(trn[others[0]], trn[others[1]]))
    caps.sort(reverse=True)
    kb = 2
    for k in range(3, len(caps) + 3):
        # need ≥ k−2 triangles with cap ≥ k−1
        cnt = sum(1 for c in caps if c >= k - 1)
        if cnt >= k - 2:
            kb = k
    return kb


def _update_static_trussness(
    g: TemporalGraph, trn_old: np.ndarray, e0: int
) -> tuple[np.ndarray, dict[int, list[int]]]:
    """Exact new trussness after inserting static edge e0 (docstring proof).

    Returns (trn_new including e0's slot, {k: promoted edge ids}).
    ``trn_old`` has length g.m (e0's slot present, value ignored).
    """
    tri = g.triangles()
    trn_new = trn_old.copy()
    trn_new[e0] = 2
    kb = _kb_upper_bound(g, e0, trn_old)
    promoted: dict[int, list[int]] = {}
    for k in range(3, kb + 1):
        cand = (trn_old >= k - 1) | (np.arange(g.m) == e0)
        # triangles fully inside H_k
        tri_in = cand[tri.tri_e].all(axis=1) if tri.n else np.zeros(0, bool)
        alive = cand.copy()
        tri_alive = tri_in.copy()
        sup = support(g.m, tri.tri_e, tri_alive)
        peel_to_truss(
            alive=alive,
            sup=sup,
            tri_e=tri.tri_e,
            tri_alive=tri_alive,
            edge_tris=tri.edge_tris,
            threshold=k - 2,
        )
        # survivors form k-truss(G+)
        ids = np.flatnonzero(alive)
        promo = [int(e) for e in ids if e != e0 and trn_old[e] == k - 1]
        if promo:
            promoted[k] = promo
            trn_new[np.asarray(promo)] = k
        if alive[e0]:
            trn_new[e0] = k
    return trn_new, promoted


# --------------------------------------------------------------------------
# GAS (Algorithm 1) + verification sweep (Algorithm 2 lines 12–18)
# --------------------------------------------------------------------------


def _gas(
    g: TemporalGraph,
    est: np.ndarray,
    seeds: list[int],
    delta_minus: int,
    delta_plus: int,
) -> tuple[list[int], list[int], list[int]]:
    """Affected-subgraph search (Algorithm 1): BFS over triangles whose
    k-rank estimate is ≤ δ⁺, bounded below by δ⁻.

    ``est[e]`` is an upper bound on e's new k-span (−1: not in the static
    k-truss of G+). Edges with est ∈ [δ⁻, δ⁺] form the *region* (their
    k-spans are re-verified) and the BFS expands through them; edges with
    est < δ⁻ are *boundary* anchors — their k-spans cannot change (every
    change requires an affected triangle valid, i.e. a threshold ≥ δ⁻), so
    the branch terminates and their support is treated as ∞ in the sweep.

    Returns (region edge ids, boundary edge ids, local triangle ids).
    """
    tri = g.triangles()
    region: set[int] = set()
    boundary: set[int] = set()
    tris: set[int] = set()
    frontier = [e for e in seeds if delta_minus <= est[e] <= delta_plus]
    region.update(frontier)
    while frontier:
        e = frontier.pop()
        for tid in tri.edge_tris[e]:
            if tid in tris or tri.mts[tid] > delta_plus:
                continue
            es = [int(x) for x in tri.tri_e[tid]]
            if any(est[x] < 0 or est[x] > delta_plus for x in es):
                continue
            tris.add(tid)
            for x in es:
                if x in region or x in boundary:
                    continue
                if est[x] < delta_minus:
                    boundary.add(x)  # support anchor; do not expand
                else:
                    region.add(x)
                    frontier.append(x)
    return sorted(region), sorted(boundary), sorted(tris)


def _verify_sweep(
    g: TemporalGraph,
    k: int,
    region: list[int],
    boundary: list[int],
    tids: list[int],
    delta_minus: int,
) -> dict[int, int]:
    """decomph on the local subgraph: exact new k-spans of region edges.

    Sweeps δ from δ⁺ down to δ⁻. Boundary edges carry infinite support
    (never peeled, never reassigned). Region edges peeled while
    invalidating the mts = d triangles get k-span d; region survivors at
    δ⁻ get k-span δ⁻ exactly (below δ⁻ every affected triangle is invalid,
    so T_{k,δ} is unchanged from G and cannot contain them — old region
    edges had old k-span ≥ δ⁻, promoted edges were not in T_k(G) at all).
    """
    tri = g.triangles()
    local = list(region) + list(boundary)
    pos = {e: i for i, e in enumerate(local)}
    n = len(local)
    loc_tri = np.asarray(
        [[pos[int(x)] for x in tri.tri_e[tid]] for tid in tids], dtype=np.int64
    ).reshape(len(tids), 3)
    loc_edge_tris: list[list[int]] = [[] for _ in range(n)]
    for i, es in enumerate(loc_tri.tolist()):
        for le in es:
            loc_edge_tris[le].append(i)
    tri_alive = np.ones(len(tids), dtype=bool)
    sup = support(n, loc_tri, tri_alive)
    sup[len(region):] = np.int64(1) << 40  # boundary: s[e'] ← ∞ (Alg. 1 line 22)
    span = decomph(
        alive=np.ones(n, dtype=bool),
        sup=sup,
        tri_e=loc_tri,
        mts=tri.mts[np.asarray(tids, dtype=np.int64)],
        tri_alive=tri_alive,
        edge_tris=loc_edge_tris,
        threshold=k - 2,
        stop=delta_minus,
    )
    return dict(zip(region, span[: len(region)].tolist()))


# --------------------------------------------------------------------------
# Lemma 7 upper bounds for promoted edges
# --------------------------------------------------------------------------


def _lemma7_bounds(
    g: TemporalGraph,
    k: int,
    trn_new: np.ndarray,
    spans_old: np.ndarray,
    promoted: list[int],
) -> dict[int, int]:
    """δ̄(e) = max(t1, t2) per promoted edge at level k (Def. 12)."""
    tri = g.triangles()
    out: dict[int, int] = {}
    for e in promoted:
        t1 = 0
        t2 = 0
        for tid in tri.edge_tris[e]:
            es = [int(x) for x in tri.tri_e[tid]]
            if int(trn_new[es].min()) != k:
                continue
            t1 = max(t1, int(tri.mts[tid]))
            for o in es:
                if o != e and spans_old[o] >= 0:
                    t2 = max(t2, int(spans_old[o]))
        out[e] = max(t1, t2)
    return out


def _e0_bound(
    g: TemporalGraph, k: int, e0: int, trn_new: np.ndarray, est: np.ndarray
) -> int:
    """δ̄(e0): (k−2)-th smallest triangle activation (§VI-B.2).

    Activation of a triangle = max(mts, k-span estimates of its other
    edges) — the smallest δ at which the triangle can support e0.
    """
    tri = g.triangles()
    acts = []
    for tid in tri.edge_tris[e0]:
        es = [int(x) for x in tri.tri_e[tid]]
        others = [o for o in es if o != e0]
        if any(trn_new[o] < k for o in others):
            continue
        a = int(tri.mts[tid])
        for o in others:
            if est[o] < 0:
                a = -1
                break
            a = max(a, int(est[o]))
        if a >= 0:
            acts.append(a)
    need = max(1, k - 2)
    if len(acts) < need:
        # e0 ∈ k-truss(G+) gives it ≥ k−2 triangles inside the k-truss
        raise RuntimeError(
            f"edge {e0} at k={k}: {len(acts)} triangles inside the k-truss, "
            f"need {need}"
        )
    acts.sort()
    return acts[need - 1]


# --------------------------------------------------------------------------
# the full filter-and-verification update (Algorithm 2)
# --------------------------------------------------------------------------


def update_kspan_table(
    g: TemporalGraph, table: KspanTable, u: int, v: int, t: int
) -> MaintenanceStats:
    """Insert (u, v, t) into g and patch ``table`` in place.

    ``g`` must be the graph the table was built from (same edge ids).
    Returns per-k statistics about the filters.
    """
    delta = g.insert(u, v, t)
    kind = delta["kind"]
    if kind == "noop":
        return MaintenanceStats(kind="noop")
    e0 = delta["eid"]
    tri = g.triangles()
    stats = MaintenanceStats(kind=kind)

    if kind == "edge":
        # grow the table by e0's slot
        table.edges.append(g.edges[e0])
        trn_old = np.append(table.trn, np.int64(2))
        for k in table.spans:
            table.spans[k] = np.append(table.spans[k], np.int64(-1))
        trn_new, promoted = _update_static_trussness(g, trn_old, e0)
        table.trn = trn_new
        new_kmax = max(table.kmax, int(trn_new.max()) if g.m else 2)
        for k in range(table.kmax + 1, new_kmax + 1):
            table.spans[k] = np.full(g.m, -1, dtype=np.int64)
        table.kmax = new_kmax
        k_hi = int(trn_new[e0])
        changed_tids = list(delta["new_tris"])
    else:
        trn_new = table.trn
        promoted = {}
        k_hi = int(trn_new[e0])
        changed_tids = [tid for tid, _old, _new in delta["changed"]]

    table.delta_max = int(tri.mts.max()) if tri.n else 0
    stats.k_range = (3, k_hi)

    changed_old = {tid: old for tid, old, _new in delta.get("changed", [])}

    for k in range(3, k_hi + 1):
        spans_k = table.spans[k]
        est = spans_k.astype(np.int64).copy()
        promo_k = list(promoted.get(k, []))
        if kind == "edge" and trn_new[e0] >= k:
            promo_k_all = promo_k + [e0]
        else:
            promo_k_all = promo_k
        stats.promoted[k] = len(promo_k_all)

        # Lemma 7 provisional bounds. We take the *hull* B_k over the whole
        # promoted set plus e0: the upper-bound proof is a mutual fixpoint
        # ({promoted} ∪ {e0} ∪ T_{k,B}-old all keep ≥ k−2 valid triangles at
        # threshold B simultaneously), so every member must carry the same
        # bound — a per-edge bound would not dominate chains through other
        # promoted edges.
        if promo_k_all:
            bound = 0
            for b in _lemma7_bounds(g, k, trn_new, spans_k, promo_k).values():
                bound = max(bound, b)
            if kind == "edge" and trn_new[e0] >= k:
                est_tmp = est.copy()
                for e in promo_k:
                    est_tmp[e] = bound
                bound = max(bound, _e0_bound(g, k, e0, trn_new, est_tmp))
            for e in promo_k_all:
                est[e] = bound

        # affected triangles (filter of k-span, Lemma 5) with per-triangle
        # intervals [δ⁻_∆, δ⁺_∆] (Lemma 6):
        #   δ⁺_∆ = max k-span estimate among ∆'s edges;
        #   δ⁻_∆ = max(mts(∆, G+), max_{e∈∆} μ(e)) where μ(e) — the
        #   (k−2)-th smallest mts among e's triangles — lower-bounds any
        #   edge's k-span (∆ can affect nothing while one of its edges is
        #   outside the truss). A triangle with δ⁻_∆ > δ⁺_∆ only ever adds
        #   support to edges that are already members — a no-op.
        mu_cache: dict[int, int] = {}

        def mu(e: int) -> int:
            if e not in mu_cache:
                ms = sorted(int(tri.mts[t_]) for t_ in tri.edge_tris[e])
                mu_cache[e] = ms[k - 3] if len(ms) >= k - 2 else (1 << 40)
            return mu_cache[e]

        intervals: list[tuple[int, int]] = []
        seeds = [e0] + promo_k_all
        for tid in changed_tids:
            es = [int(x) for x in tri.tri_e[tid]]
            if any(est[x] < 0 for x in es):
                continue  # not inside the static k-truss of G+
            delta_p = max(int(est[x]) for x in es)
            m_new = int(tri.mts[tid])
            if kind == "ts" and not (changed_old[tid] >= delta_p > m_new):
                continue  # Lemma 5: this triangle cannot affect level k
            delta_m = max(m_new, max(mu(x) for x in es))
            if delta_m > delta_p:
                continue  # fully-present only where all edges are members
            intervals.append((delta_m, delta_p))
            seeds.extend(es)
        if not intervals and not promo_k_all:
            continue  # level k fully filtered out

        if promo_k:
            # promoted edges' verification range is not anchored to e0's
            # triangles, so collapse to the safe hull for this level
            lo = min([dm for dm, _ in intervals] or [0])
            hi = max([dp for _, dp in intervals] + [int(est[e]) for e in promo_k_all])
            intervals = [(min(lo, hi), hi)]
        else:
            # merge overlapping intervals; e0's triangles all overlap at
            # est[e0], so a new edge is always verified in one interval
            intervals.sort()
            merged: list[tuple[int, int]] = []
            for a, b in intervals:
                if merged and a <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], b))
                else:
                    merged.append((a, b))
            intervals = merged

        region_total = 0
        n_changed = 0
        # descending order: est entries are refreshed between intervals, so
        # lower intervals see the already-verified upper-range k-spans
        for delta_minus, delta_plus in sorted(intervals, reverse=True):
            region, boundary, tids = _gas(g, est, seeds, delta_minus, delta_plus)
            if not region:
                continue
            region_total += len(region)
            new_span = _verify_sweep(g, k, region, boundary, tids, delta_minus)
            for e, s in new_span.items():
                est[e] = s
                if spans_k[e] != s:
                    spans_k[e] = s
                    n_changed += 1
        if region_total:
            stats.touched_ks.append(k)
            stats.region_sizes[k] = region_total
        # a new/promoted edge is always covered by some interval's region
        # (its triangles' intervals all overlap at its own estimate)
        for e in promo_k_all:
            if spans_k[e] < 0:
                raise RuntimeError(f"promoted edge {e} at k={k} left unverified")
        stats.changed[k] = n_changed

    return stats
