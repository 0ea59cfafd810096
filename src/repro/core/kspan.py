"""k-spans and the Decomposition-Based construction Algorithm (DBA, §V-A).

The **k-span** of an edge (Definition 5) is the smallest δ such that the
(k, δ)-truss still contains it. The complete index content of both TC-Index
and DC-Index is the *k-span table*: for every edge e and every k ≤ trn(e),
the value k-spn(e). ``T_{k,δ} = {e : trn(e) ≥ k and k-spn_k(e) ≤ δ}``.

DBA computes the table one k at a time: start from the static k-truss
(= T_{k,δmax}), then run the δ-sweep :func:`~.decomposition.decomph` down
to δ = 0. An edge peeled while invalidating mts = d triangles lies in
T_{k,d} \\ T_{k,d−1}, i.e. its k-span is d (the H-IES between those
trusses); an edge that survives the sweep has k-span 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import decomph, support, trussness
from .model import TemporalGraph


@dataclass
class KspanTable:
    """Complete (k, δ)-truss content in O(Σ_k |T_k|) space.

    ``spans[k][e]`` is k-spn(e), or −1 when e is not in the static k-truss.
    """

    edges: list[tuple[int, int]]
    trn: np.ndarray  # static trussness per edge
    kmax: int
    delta_max: int
    spans: dict[int, np.ndarray]

    @property
    def m(self) -> int:
        return len(self.edges)

    def truss_edge_ids(self, k: int, delta: float) -> np.ndarray:
        """Edge ids of T_{k,δ} (k ≤ 2 → the whole graph)."""
        if k <= 2:
            return np.arange(self.m)
        if k > self.kmax:
            return np.zeros(0, dtype=np.int64)
        s = self.spans[k]
        return np.flatnonzero((s >= 0) & (s <= delta))

    def truss_edges(self, k: int, delta: float) -> set[tuple[int, int]]:
        return {self.edges[int(e)] for e in self.truss_edge_ids(k, delta)}

    def truss_size(self, k: int, delta: float) -> int:
        return int(len(self.truss_edge_ids(k, delta)))

    def total_truss_cells(self) -> int:
        """Σ_{k,δ} |T_{k,δ}| — the denominator of the compression ratio.

        Each edge with k-span s at level k appears in T_{k,δ} for every
        δ ∈ [s, δmax], i.e. (δmax − s + 1) cells.
        """
        total = 0
        for k in range(3, self.kmax + 1):
            s = self.spans[k]
            present = s >= 0
            total += int(((self.delta_max - s[present]) + 1).sum())
        return total

    def equal(self, other: "KspanTable") -> bool:
        """Structural equality (used to cross-check DBA vs MBA vs rebuild)."""
        if self.kmax != other.kmax or self.edges != other.edges:
            return False
        if not np.array_equal(self.trn, other.trn):
            return False
        return all(
            np.array_equal(self.spans[k], other.spans[k])
            for k in range(3, self.kmax + 1)
        )


def check_query(k, delta) -> None:
    """Reject a (k, δ) query with a non-integral (or infinite) k or a NaN δ.

    Ints, numpy ints and ``math.inf`` for δ pass; both indexes and both
    Online-Queries call this first, so it stays at two comparisons.
    """
    if k % 1 != 0 or delta != delta:
        raise ValueError(f"query needs an integral k and a non-NaN δ, got k={k!r}, δ={delta!r}")


def dba(g: TemporalGraph) -> KspanTable:
    """Decomposition-Based Algorithm: full k-span table, one δ-sweep per k."""
    tri = g.triangles()
    m = g.m
    all_ok = np.ones(tri.n, dtype=bool)
    trn = trussness(m, tri, all_ok)
    kmax = int(trn.max()) if m else 2
    dmax = int(tri.mts.max()) if tri.n else 0
    mts = tri.mts.tolist()
    spans: dict[int, np.ndarray] = {}

    for k in range(3, kmax + 1):
        in_k = trn >= k
        # X∆_k: triangles of the static k-truss (all edges have trn ≥ k)
        tri_in = in_k[tri.tri_e].all(axis=1) if tri.n else np.zeros(0, bool)
        spans[k] = np.asarray(
            decomph(
                alive=in_k.tolist(),
                sup=support(m, tri.tri_e, tri_in).tolist(),
                tri_edges=tri.tri_edges,
                mts=mts,
                tri_alive=tri_in.tolist(),
                edge_tris=tri.edge_tris,
                threshold=k - 2,
                stop=0,
            ),
            dtype=np.int64,
        )

    return KspanTable(list(g.edges), trn, kmax, dmax, spans)
