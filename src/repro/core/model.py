"""Driver-local temporal-graph model.

``TemporalGraph`` holds the packed representation (oriented static edges +
sorted distinct timestamp arrays). Built on first use are the edge → id and
per-vertex neighbor maps (``eid``, ``nbr``), which ``insert`` and id
lookups need and a build does not, and the ``TriangleStore``: the flat
triangle list (edge-id triples + minimum time span) and the per-edge
triangle-id inverted lists that every peeling/maintenance algorithm in this
package consumes. The triangles are listed in numpy, degree-ordered
(:func:`triangle_edges`), and their spans come from
:func:`~repro.triangles.mts.mts_batch`.

The model supports the paper's streaming update (§VI): ``insert(u, v, t)``
applies a timestamp insertion or an edge insertion in place and — when the
triangle store is already materialized — updates it *incrementally* (new
triangles from common neighbors / mts recomputation for affected triangles
only), returning exactly the delta the dynamic-maintenance algorithm needs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..triangles.mts import mts3, mts_batch


class TriangleStore:
    """Flat triangle list + inverted per-edge lists.

    ``tri_e[t] = (e1, e2, e3)`` are edge ids of triangle t and
    ``tri_edges[t]`` the same triple as a tuple; ``mts[t]`` its minimum time
    span; ``edge_tris[e]`` the ids of triangles containing e. The numpy
    arrays feed vectorized work (support counts, masks), the lists feed the
    Python peeling loops, which read list entries much faster than numpy
    scalars. Appending (edge insertion) grows all three in step; mts updates
    (timestamp insertion) mutate ``mts`` in place.

    ``tri_e`` and ``mts`` are views of the first ``n`` rows of buffers that
    grow geometrically, so a stream of appends costs amortized O(1) each.
    """

    def __init__(
        self,
        tri_e: np.ndarray,
        mts: np.ndarray,
        edge_tris: list[list[int]],
        tri_edges: list[tuple[int, int, int]],
    ):
        self._tri_buf = tri_e
        self._mts_buf = mts
        self.tri_e = tri_e  # (T, 3) int64
        self.mts = mts  # (T,) int64
        self.edge_tris = edge_tris
        self.tri_edges = tri_edges

    @classmethod
    def build(cls, tri_e: np.ndarray, mts: np.ndarray, m: int) -> "TriangleStore":
        """Store over ``m`` edges; ``edge_tris`` comes from one stable argsort
        of ``tri_e``, so each edge's triangle ids are ascending."""
        flat = tri_e.ravel()
        tid_objs = list(range(len(mts)))  # the three lists of a triangle share its id
        tids = list(map(tid_objs.__getitem__, np.argsort(flat, kind="stable") // 3))
        ends = np.cumsum(np.bincount(flat, minlength=m)).tolist()
        edge_tris = [tids[a:b] for a, b in zip([0] + ends[:-1], ends)]
        # every tuple holding edge e shares one int; one column at a time
        # keeps the temporary ints of only one column alive
        eid_objs = list(range(m))
        cols = [list(map(eid_objs.__getitem__, col.tolist())) for col in tri_e.T]
        return cls(tri_e, mts, edge_tris, list(zip(*cols)))

    @property
    def n(self) -> int:
        return len(self.tri_edges)

    def append(self, edges: tuple[int, int, int], m: int) -> int:
        tid = self.n
        if tid == len(self._mts_buf):
            cap = 2 * tid + 16
            tri_buf = np.empty((cap, 3), dtype=np.int64)
            mts_buf = np.empty(cap, dtype=np.int64)
            tri_buf[:tid] = self.tri_e
            mts_buf[:tid] = self.mts
            self._tri_buf, self._mts_buf = tri_buf, mts_buf
        self._tri_buf[tid] = edges
        self._mts_buf[tid] = m
        self.tri_e = self._tri_buf[: tid + 1]
        self.mts = self._mts_buf[: tid + 1]
        self.tri_edges.append(edges)
        for e in edges:
            while e >= len(self.edge_tris):
                self.edge_tris.append([])
            self.edge_tris[e].append(tid)
        return tid

    def copy(self) -> "TriangleStore":
        """Independent store: arrays and ``edge_tris`` are copied, the
        immutable ``tri_edges`` tuples are shared."""
        return TriangleStore(
            self.tri_e.copy(),
            self.mts.copy(),
            [list(x) for x in self.edge_tris],
            list(self.tri_edges),
        )


class EdgeKeys:
    """Edges (x, y) over vertex labels 0..n−1 as sorted int64 keys x·n + y,
    for vectorised (x, y) → edge-id lookup."""

    def __init__(self, x: np.ndarray, y: np.ndarray, n: int):
        key = x * n + y
        self.n = n
        self.eid = np.argsort(key)  # edge id of each sorted key
        self.keys = key[self.eid]

    def find(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Edge id of each (x[i], y[i]); −1 where there is no such edge."""
        q = x * self.n + y
        p = np.minimum(np.searchsorted(self.keys, q), len(self.keys) - 1)
        return np.where(self.keys[p] == q, self.eid[p], -1)


def triangle_edges(edges: np.ndarray) -> np.ndarray:
    """Edge-id rows ``(e_xy, e_yz, e_xz)`` of every triangle of the static
    graph whose edge i is ``edges[i]`` (an (m, 2) array, no repeated pair).

    Degree-ordered ("compact-forward") listing (Latapy, TCS 407, 2008): rank
    the vertices by (degree, id), orient each edge from the lower rank x to
    the higher y, and close each x → y with every z in out(y) for which
    x → z is an edge, found by one ``searchsorted`` over the edge keys. Each
    triangle is listed once, from its lowest-ranked vertex.
    """
    verts, lab = np.unique(edges, return_inverse=True)
    n = len(verts)
    lab = lab.reshape(-1, 2)
    order = np.lexsort((np.arange(n), np.bincount(lab.ravel(), minlength=n)))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    r = rank[lab]
    keys = EdgeKeys(r.min(axis=1), r.max(axis=1), n)
    xs, ys = np.divmod(keys.keys, n)  # sorted by x: the out-lists, in CSR order
    head = np.searchsorted(xs, np.arange(n + 1))
    cnt = head[ys + 1] - head[ys]  # |out(y)| for each x → y
    p = np.repeat(np.arange(len(xs)), cnt)  # the x → y of each wedge
    q = np.arange(len(p)) + np.repeat(head[ys] - (np.cumsum(cnt) - cnt), cnt)  # its y → z
    e_xz = keys.find(xs[p], ys[q])
    hit = e_xz >= 0
    return np.stack([keys.eid[p[hit]], keys.eid[q[hit]], e_xz[hit]], axis=1)


class TemporalGraph:
    """Packed temporal graph with lazy triangle store."""

    def __init__(self, edges: list[tuple[int, int]], times: list[np.ndarray]):
        assert len(edges) == len(times)
        self.edges: list[tuple[int, int]] = list(edges)
        self.times: list[np.ndarray] = [np.asarray(t, dtype=np.int64) for t in times]
        self._eid: dict[tuple[int, int], int] | None = None
        self._nbr: dict[int, dict[int, int]] | None = None
        self._tri: TriangleStore | None = None

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_flat(cls, flat: pd.DataFrame) -> "TemporalGraph":
        """Build from a flat (u, v, t) frame (normalized on the way in)."""
        from ..tgraph.schema import pack_flat_pdf

        src, dst, times = pack_flat_pdf(flat)
        return cls(list(zip(src.tolist(), dst.tolist())), times)

    def copy(self) -> "TemporalGraph":
        g = TemporalGraph(list(self.edges), [t.copy() for t in self.times])
        if self._tri is not None:
            g._tri = self._tri.copy()
        return g

    # -- basic accessors ---------------------------------------------------
    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> set[int]:
        return {x for e in self.edges for x in e}

    @property
    def eid(self) -> dict[tuple[int, int], int]:
        """Edge (u, v), u < v → edge id; built on first use, kept by ``insert``."""
        if self._eid is None:
            self._eid = {e: i for i, e in enumerate(self.edges)}
        return self._eid

    @property
    def nbr(self) -> dict[int, dict[int, int]]:
        """Vertex → {neighbour: edge id}; built on first use, kept by ``insert``."""
        if self._nbr is None:
            self._nbr = {}
            for i, (u, v) in enumerate(self.edges):
                self._nbr.setdefault(u, {})[v] = i
                self._nbr.setdefault(v, {})[u] = i
        return self._nbr

    def to_flat(self) -> pd.DataFrame:
        """Flat int64 (u, v, t) frame: one row per timestamp of each edge."""
        uv = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        uv = np.repeat(uv, [len(ts) for ts in self.times], axis=0)
        t = np.concatenate([np.zeros(0, dtype=np.int64), *self.times])
        return pd.DataFrame({"u": uv[:, 0], "v": uv[:, 1], "t": t})

    # -- triangles ----------------------------------------------------------
    def triangles(self) -> TriangleStore:
        """Enumerate all triangles (once) with their minimum time span."""
        if self._tri is None:
            tri_e = triangle_edges(np.array(self.edges, dtype=np.int64).reshape(-1, 2))
            self._tri = TriangleStore.build(tri_e, mts_batch(self.times, tri_e), self.m)
        return self._tri

    @property
    def delta_max(self) -> int:
        t = self.triangles()
        return int(t.mts.max()) if t.n else 0

    # -- streaming updates (§VI) --------------------------------------------
    def insert(self, u: int, v: int, t: int) -> dict:
        """Insert temporal edge (u, v, t); returns the structural delta.

        Timestamp insertion (static edge exists): adds t to τ(u,v) and
        recomputes mts for the triangles containing the edge. Edge
        insertion: registers the new static edge and appends its new
        triangles (common neighbors of u and v). Either way the triangle
        store — if built — stays exact.

        Returns a dict with keys: ``kind`` ('ts'|'edge'|'noop'), ``eid``,
        ``changed`` (list of (tid, old_mts, new_mts)) and ``new_tris``
        (list of tids appended). A null, non-integral or non-finite ``u``,
        ``v`` or ``t`` raises ``ValueError`` and leaves the graph unchanged.
        """
        for x in (u, v, t):  # x % 1 is NaN for ±inf and NaN
            if x is None or x % 1 != 0:
                raise ValueError(f"vertex ids and timestamp must be finite integers, got {(u, v, t)!r}")
        u, v = int(u), int(v)
        if u == v:
            return {"kind": "noop", "eid": -1, "changed": [], "new_tris": []}
        a, b = (u, v) if u < v else (v, u)
        eid, nbr = self.eid, self.nbr
        if (a, b) in eid:
            e0 = eid[(a, b)]
            ts = self.times[e0]
            if t in ts:
                return {"kind": "noop", "eid": e0, "changed": [], "new_tris": []}
            pos = int(np.searchsorted(ts, t))
            self.times[e0] = np.insert(ts, pos, t)
            changed = []
            if self._tri is not None:
                tri_edges, mts, times = self._tri.tri_edges, self._tri.mts, self.times
                for tid in self._tri.edge_tris[e0]:
                    e1, e2, e3 = tri_edges[tid]
                    old = int(mts[tid])
                    new = mts3(times[e1], times[e2], times[e3])
                    if new != old:
                        mts[tid] = new
                        changed.append((tid, old, new))
            return {"kind": "ts", "eid": e0, "changed": changed, "new_tris": []}
        # edge insertion
        e0 = self.m
        self.edges.append((a, b))
        self.times.append(np.asarray([t], dtype=np.int64))
        eid[(a, b)] = e0
        nbr.setdefault(a, {})[b] = e0
        nbr.setdefault(b, {})[a] = e0
        new_tids = []
        if self._tri is not None:
            while e0 >= len(self._tri.edge_tris):
                self._tri.edge_tris.append([])
            na, nb = nbr[a], nbr[b]
            small, large = (na, nb) if len(na) <= len(nb) else (nb, na)
            for w in sorted(small):
                if w in large and w != a and w != b:
                    e_aw = nbr[a][w]
                    e_bw = nbr[b][w]
                    m = mts3(self.times[e0], self.times[e_bw], self.times[e_aw])
                    new_tids.append(self._tri.append((e0, e_bw, e_aw), m))
        return {"kind": "edge", "eid": e0, "changed": [], "new_tris": new_tids}
