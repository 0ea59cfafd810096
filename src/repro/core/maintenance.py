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

Static trussness under an *edge* insertion is recomputed exactly by a
local search per k ≤ kb (the classic upper bound of [36]), the
candidate-set idea of Huang et al.'s truss maintenance. BFS from e0 over
the triangles whose edges all lie in H_k = {e : trn_G(e) ≥ k−1} ∪ {e0},
expanding only through e0 and edges with trn_G = k−1; the edges it expands
through form the candidate set C, and the trn_G ≥ k edges it meets are
anchors with infinite support. Peeling C at threshold k−2 leaves exactly
the promoted edges (plus e0 when trn(e0, G+) ≥ k). Proof: let S =
k-truss(G+). Every edge of S has trn_G ≥ k−1 or is e0 (one insertion
raises trussness by ≤ 1), so S ⊆ H_k. (i) No promoted edge lies outside
C: if x ∈ S has trn_G = k−1 and x ∉ C, an S-triangle of x holding an edge
y ∈ C lies in H_k, so the BFS expanding through y would have reached x.
Hence every S-triangle of such an x avoids C and e0, and U = (S \\ C) ∪
k-truss(G) is a subgraph of G in which every edge has support ≥ k−2; so U
⊆ k-truss(G), contradicting trn_G(x) = k−1. (ii) The peel keeps S ∩ C:
each such edge keeps its ≥ k−2 S-triangles, which the BFS collected and
whose other edges lie in S ∩ C or are anchors (anchors lie in k-truss(G)
⊆ S). (iii) The peel keeps nothing else: the survivors together with
k-truss(G) have support ≥ k−2 everywhere, so they lie in S. The levels
nest, so once e0 falls out of S at some k, S = k-truss(G) for every higher
k and the search stops.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .decomposition import decomph, peel_to_truss
from .kspan import KspanTable
from .model import TemporalGraph, TriangleStore

INF = 1 << 40  # support of an anchor edge: never peeled (Alg. 1 line 22)


@dataclass
class MaintenanceStats:
    """What the filters achieved for one insertion (for reporting/tests)."""

    kind: str
    k_range: tuple[int, int] | None = None  # inclusive [3, trn(e0, G+)]
    touched_ks: list[int] = field(default_factory=list)
    region_sizes: dict[int, int] = field(default_factory=dict)
    changed: dict[int, int] = field(default_factory=dict)  # k -> #edges with new span
    promoted: dict[int, int] = field(default_factory=dict)  # k -> #promoted edges
    candidates: dict[int, int] = field(default_factory=dict)  # k -> promotion candidate set size

    @property
    def changed_ks(self) -> list[int]:
        """The levels on which some k-span changed, a subset of ``touched_ks``."""
        return [k for k, n in self.changed.items() if n]


# --------------------------------------------------------------------------
# local subgraphs: the BFS shared by promotion search and GAS
# --------------------------------------------------------------------------


@dataclass
class _Local:
    """A subgraph grown by :func:`_grow`, in local edge ids 0..n−1."""

    edges: list[int] = field(default_factory=list)  # local id -> global edge id
    inner: list[int] = field(default_factory=list)  # local ids the BFS expanded through
    sup: list[int] = field(default_factory=list)  # local support; INF for anchors
    tri_edges: list[tuple[int, int, int]] = field(default_factory=list)
    edge_tris: list[list[int]] = field(default_factory=list)
    tids: list[int] = field(default_factory=list)  # local triangle -> global tid


def _grow(
    tri: TriangleStore,
    seeds: list[int],
    tri_ok: Callable[[int], bool],
    expand: Callable[[int], bool],
) -> _Local:
    """BFS from ``seeds`` over the triangles passing ``tri_ok``.

    Each edge of an accepted triangle gets a local id when first met; the
    BFS expands through it when ``expand`` says so (seeds always expand)
    and otherwise keeps it as an anchor with support ∞. The support of an
    expanded edge counts the accepted triangles on it, which are all of its
    triangles passing ``tri_ok``.
    """
    out = _Local()
    loc: dict[int, int] = {}
    edges, inner, edge_tris = out.edges, out.inner, out.edge_tris
    frontier: list[int] = []
    for e in seeds:
        if e not in loc:
            loc[e] = len(edges)
            inner.append(len(edges))
            edges.append(e)
            edge_tris.append([])
            frontier.append(e)
    seen: set[int] = set()
    tri_edges, tids = tri.tri_edges, out.tids
    while frontier:
        for tid in tri.edge_tris[frontier.pop()]:
            if tid in seen:
                continue
            seen.add(tid)
            if not tri_ok(tid):
                continue
            lt = len(tids)
            tids.append(tid)
            ids = []
            for x in tri_edges[tid]:
                i = loc.get(x)
                if i is None:
                    i = loc[x] = len(edges)
                    edges.append(x)
                    edge_tris.append([lt])
                    if expand(x):
                        inner.append(i)
                        frontier.append(x)
                else:
                    edge_tris[i].append(lt)
                ids.append(i)
            out.tri_edges.append(tuple(ids))
    out.sup = [INF] * len(edges)
    for i in inner:
        out.sup[i] = len(edge_tris[i])
    return out


# --------------------------------------------------------------------------
# static trussness maintenance for edge insertion
# --------------------------------------------------------------------------


def _kb_upper_bound(tri: TriangleStore, e0: int, trn: list[int]) -> int:
    """k2/kb of [36]: max k with ≥ k−2 triangles of e0 whose other edges
    both have trn ≥ k−1."""
    caps = []
    for tid in tri.edge_tris[e0]:
        a, b = (x for x in tri.tri_edges[tid] if x != e0)
        caps.append(min(trn[a], trn[b]))
    caps.sort(reverse=True)
    # the (k−2)-th largest cap must reach k−1
    kb = 2
    for k in range(3, len(caps) + 3):
        if caps[k - 3] >= k - 1:
            kb = k
    return kb


def _update_static_trussness(
    tri: TriangleStore, trn_old: np.ndarray, e0: int, stats: MaintenanceStats
) -> tuple[np.ndarray, dict[int, list[int]]]:
    """Exact new trussness after inserting static edge e0, by the local
    candidate search of the module docstring.

    Returns (trn_new including e0's slot, {k: promoted edge ids}) and
    records each level's candidate-set size in ``stats.candidates``.
    ``trn_old`` has length g.m (e0's slot present, value ignored).
    """
    trn = trn_old.tolist()
    trn_new = trn_old.copy()
    trn_new[e0] = 2
    promoted: dict[int, list[int]] = {}
    tri_edges = tri.tri_edges

    def in_h(tid: int) -> bool:  # all of the triangle's edges lie in H_k
        a, b, c = tri_edges[tid]
        return trn[a] >= k - 1 and trn[b] >= k - 1 and trn[c] >= k - 1

    for k in range(3, _kb_upper_bound(tri, e0, trn) + 1):
        trn[e0] = k - 1  # e0 joins H_k as a candidate
        sub = _grow(tri, [e0], in_h, lambda x: trn[x] < k)
        stats.candidates[k] = len(sub.inner)
        alive = [True] * len(sub.edges)
        peel_to_truss(
            alive=alive,
            sup=sub.sup,
            tri_edges=sub.tri_edges,
            tri_alive=[True] * len(sub.tids),
            edge_tris=sub.edge_tris,
            threshold=k - 2,
            seeds=sub.inner,
        )
        if not alive[0]:  # local id 0 is e0; e0 ∉ k-truss(G+): no promotion at k or above
            break
        trn_new[e0] = k
        promo = sorted(sub.edges[i] for i in sub.inner[1:] if alive[i])
        if promo:
            promoted[k] = promo
            trn_new[promo] = k
    return trn_new, promoted


# --------------------------------------------------------------------------
# GAS (Algorithm 1) + verification sweep (Algorithm 2 lines 12–18)
# --------------------------------------------------------------------------


def _gas(
    tri: TriangleStore,
    est: list[int],
    mts: list[int],
    seeds: list[int],
    delta_minus: int,
    delta_plus: int,
) -> _Local:
    """Affected-subgraph search (Algorithm 1): BFS over triangles whose
    k-rank estimate is ≤ δ⁺, bounded below by δ⁻.

    ``est[e]`` is an upper bound on e's new k-span (−1: not in the static
    k-truss of G+). Edges with est ∈ [δ⁻, δ⁺] form the *region* (their
    k-spans are re-verified) and the BFS expands through them; edges with
    est < δ⁻ are *boundary* anchors — their k-spans cannot change (every
    change requires an affected triangle valid, i.e. a threshold ≥ δ⁻), so
    the branch terminates and their support is treated as ∞ in the sweep.

    Returns the local subgraph; its ``inner`` edges are the region.
    """
    tri_edges = tri.tri_edges

    def tri_ok(tid: int) -> bool:
        if mts[tid] > delta_plus:
            return False
        a, b, c = tri_edges[tid]
        return (
            0 <= est[a] <= delta_plus
            and 0 <= est[b] <= delta_plus
            and 0 <= est[c] <= delta_plus
        )

    return _grow(
        tri,
        [e for e in seeds if delta_minus <= est[e] <= delta_plus],
        tri_ok,
        lambda x: est[x] >= delta_minus,
    )


def _verify_sweep(
    sub: _Local, mts: list[int], k: int, delta_minus: int
) -> dict[int, int]:
    """decomph on the local subgraph: exact new k-spans of region edges.

    Sweeps δ from δ⁺ down to δ⁻. Boundary edges carry infinite support
    (never peeled, never reassigned). Region edges peeled while
    invalidating the mts = d triangles get k-span d; region survivors at
    δ⁻ get k-span δ⁻ exactly (below δ⁻ every affected triangle is invalid,
    so T_{k,δ} is unchanged from G and cannot contain them — old region
    edges had old k-span ≥ δ⁻, promoted edges were not in T_k(G) at all).
    """
    span = decomph(
        alive=[True] * len(sub.edges),
        sup=sub.sup,
        tri_edges=sub.tri_edges,
        mts=[mts[tid] for tid in sub.tids],
        tri_alive=[True] * len(sub.tids),
        edge_tris=sub.edge_tris,
        threshold=k - 2,
        stop=delta_minus,
    )
    return {sub.edges[i]: span[i] for i in sub.inner}


# --------------------------------------------------------------------------
# Lemma 7 upper bounds for promoted edges
# --------------------------------------------------------------------------


def _lemma7_bound(
    tri: TriangleStore,
    mts: list[int],
    k: int,
    trn_new: list[int],
    spans_old: list[int],
    promoted: list[int],
) -> int:
    """max over the promoted edges of δ̄(e) = max(t1, t2) at level k (Def. 12)."""
    bound = 0
    for e in promoted:
        for tid in tri.edge_tris[e]:
            es = tri.tri_edges[tid]
            if min(trn_new[x] for x in es) != k:
                continue
            bound = max(bound, mts[tid])
            for o in es:
                if o != e:
                    bound = max(bound, spans_old[o])
    return bound


def _e0_bound(
    tri: TriangleStore, mts: list[int], k: int, e0: int, trn_new: list[int], est: list[int]
) -> int:
    """δ̄(e0): (k−2)-th smallest triangle activation (§VI-B.2).

    Activation of a triangle = max(mts, k-span estimates of its other
    edges) — the smallest δ at which the triangle can support e0.
    """
    acts = []
    for tid in tri.edge_tris[e0]:
        a, b = (x for x in tri.tri_edges[tid] if x != e0)
        if trn_new[a] < k or trn_new[b] < k or est[a] < 0 or est[b] < 0:
            continue
        acts.append(max(mts[tid], est[a], est[b]))
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
        trn_new, promoted = _update_static_trussness(tri, trn_old, e0, stats)
        table.trn = trn_new
        new_kmax = max(table.kmax, int(trn_new.max()) if g.m else 2)
        for k in range(table.kmax + 1, new_kmax + 1):
            table.spans[k] = np.full(g.m, -1, dtype=np.int64)
        table.kmax = new_kmax
        changed_tids = list(delta["new_tris"])
    else:
        trn_new = table.trn
        promoted = {}
        changed_tids = [tid for tid, _old, _new in delta["changed"]]
    k_hi = int(trn_new[e0])

    table.delta_max = int(tri.mts.max()) if tri.n else 0
    stats.k_range = (3, k_hi)

    changed_old = {tid: old for tid, old, _new in delta["changed"]}
    # Python lists of the numpy state, made when a level first reads them,
    # so an insertion that every filter rejects converts nothing
    mts: list[int] | None = None
    trn_l: list[int] | None = None
    # μ(e) at every level comes from e's triangle mts in ascending order
    mts_sorted: dict[int, list[int]] = {}

    def mu(e: int, k: int) -> int:
        ms = mts_sorted.get(e)
        if ms is None:
            ms = mts_sorted[e] = np.sort(tri.mts[tri.edge_tris[e]]).tolist()
        return ms[k - 3] if len(ms) >= k - 2 else INF

    for k in range(3, k_hi + 1):
        spans_k = table.spans[k]
        promo_k = promoted.get(k, [])
        promo_k_all = promo_k + [e0] if kind == "edge" and trn_new[e0] >= k else promo_k
        stats.promoted[k] = len(promo_k_all)
        est: list[int] | None = None  # spans_k as a list once the level needs it

        # Lemma 7 provisional bounds. We take the *hull* B_k over the whole
        # promoted set plus e0: the upper-bound proof is a mutual fixpoint
        # ({promoted} ∪ {e0} ∪ T_{k,B}-old all keep ≥ k−2 valid triangles at
        # threshold B simultaneously), so every member must carry the same
        # bound — a per-edge bound would not dominate chains through other
        # promoted edges.
        if promo_k_all:
            if mts is None:
                mts = tri.mts.tolist()
            if trn_l is None:
                trn_l = trn_new.tolist()
            est = spans_k.tolist()
            bound = _lemma7_bound(tri, mts, k, trn_l, est, promo_k)
            if kind == "edge" and trn_new[e0] >= k:
                for e in promo_k:
                    est[e] = bound
                bound = max(bound, _e0_bound(tri, mts, k, e0, trn_l, est))
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
        look = spans_k if est is None else est
        intervals: list[tuple[int, int]] = []
        seeds = [e0] + promo_k_all
        for tid in changed_tids:
            es = tri.tri_edges[tid]
            ests = [int(look[x]) for x in es]
            if min(ests) < 0:
                continue  # not inside the static k-truss of G+
            delta_p = max(ests)
            m_new = int(tri.mts[tid])
            if kind == "ts" and not (changed_old[tid] >= delta_p > m_new):
                continue  # Lemma 5: this triangle cannot affect level k
            delta_m = max(m_new, max(mu(x, k) for x in es))
            if delta_m > delta_p:
                continue  # fully-present only where all edges are members
            intervals.append((delta_m, delta_p))
            seeds.extend(es)
        if not intervals and not promo_k_all:
            continue  # level k fully filtered out
        if est is None:
            est = spans_k.tolist()
        if mts is None:
            mts = tri.mts.tolist()

        if promo_k:
            # promoted edges' verification range is not anchored to e0's
            # triangles, so collapse to the safe hull for this level
            lo = min([dm for dm, _ in intervals] or [0])
            hi = max([dp for _, dp in intervals] + [est[e] for e in promo_k_all])
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
            sub = _gas(tri, est, mts, seeds, delta_minus, delta_plus)
            if not sub.inner:
                continue
            region_total += len(sub.inner)
            for e, s in _verify_sweep(sub, mts, k, delta_minus).items():
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
