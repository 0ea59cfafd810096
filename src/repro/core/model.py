"""Driver-local temporal-graph model.

``TemporalGraph`` holds the packed representation (oriented static edges +
sorted distinct timestamp arrays) with O(1) edge lookup and per-vertex
neighbor maps, plus a lazily-built ``TriangleStore``: the flat triangle
list (edge-id triples + minimum time span) and the per-edge triangle-id
inverted lists that every peeling/maintenance algorithm in this package
consumes.

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


class TemporalGraph:
    """Packed temporal graph with lazy triangle store."""

    def __init__(self, edges: list[tuple[int, int]], times: list[np.ndarray]):
        assert len(edges) == len(times)
        self.edges: list[tuple[int, int]] = list(edges)
        self.times: list[np.ndarray] = [np.asarray(t, dtype=np.int64) for t in times]
        self.eid: dict[tuple[int, int], int] = {e: i for i, e in enumerate(self.edges)}
        self.nbr: dict[int, dict[int, int]] = {}
        for i, (u, v) in enumerate(self.edges):
            self.nbr.setdefault(u, {})[v] = i
            self.nbr.setdefault(v, {})[u] = i
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
        return set(self.nbr)

    def to_flat(self) -> pd.DataFrame:
        rows_u, rows_v, rows_t = [], [], []
        for (u, v), ts in zip(self.edges, self.times):
            rows_u.extend([u] * len(ts))
            rows_v.extend([v] * len(ts))
            rows_t.extend(int(x) for x in ts)
        return pd.DataFrame({"u": rows_u, "v": rows_v, "t": rows_t})

    # -- triangles ----------------------------------------------------------
    def triangles(self) -> TriangleStore:
        """Enumerate all triangles (once) with their minimum time span.

        Oriented enumeration: for each edge (u, v) with u < v, close with
        common neighbors w > v, so each triangle is emitted exactly once.
        """
        if self._tri is not None:
            return self._tri
        e_uv_rows: list[int] = []
        e_vw_rows: list[int] = []
        e_uw_rows: list[int] = []
        for e_uv, (u, v) in enumerate(self.edges):
            nu, nv = self.nbr[u], self.nbr[v]
            small, large = (nu, nv) if len(nu) <= len(nv) else (nv, nu)
            for w in small:
                if w > v and w in large:
                    e_uv_rows.append(e_uv)
                    e_vw_rows.append(nv[w])
                    e_uw_rows.append(nu[w])
        tri_e = np.stack(
            [np.asarray(r, dtype=np.int64) for r in (e_uv_rows, e_vw_rows, e_uw_rows)],
            axis=1,
        )
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
        if (a, b) in self.eid:
            e0 = self.eid[(a, b)]
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
        self.eid[(a, b)] = e0
        self.nbr.setdefault(a, {})[b] = e0
        self.nbr.setdefault(b, {})[a] = e0
        new_tids = []
        if self._tri is not None:
            while e0 >= len(self._tri.edge_tris):
                self._tri.edge_tris.append([])
            na, nb = self.nbr[a], self.nbr[b]
            small, large = (na, nb) if len(na) <= len(nb) else (nb, na)
            for w in sorted(small):
                if w in large and w != a and w != b:
                    e_aw = self.nbr[a][w]
                    e_bw = self.nbr[b][w]
                    m = mts3(self.times[e0], self.times[e_bw], self.times[e_aw])
                    new_tids.append(self._tri.append((e0, e_bw, e_aw), m))
        return {"kind": "edge", "eid": e0, "changed": [], "new_tris": new_tids}
