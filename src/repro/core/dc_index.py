"""Dual Containment Index (DC-Index, §IV-B) and DC-Query.

Derivation, exactly as in the paper:

1. **(k, δ)-truss graph** (Def. 6): nodes are all trusses T_{k,δ},
   3 ≤ k ≤ kmax, 0 ≤ δ ≤ δmax; a *vertical* edge T_{k,δ} → T_{k+1,δ} and a
   *horizontal* edge T_{k,δ} → T_{k,δ−1} carry the incremental-edge-set
   sizes (the sink is always contained in the source).
2. **Arborescence** (Def. 7): every node keeps only its lighter outgoing
   edge — a minimum-weight spanning arborescence rooted at T_{kmax,0}.
3. **Reduction** (Def. 8): nodes whose kept edge has weight 0 are identical
   to their sink and are removed; survivors re-point to the next remaining
   node on their root path.
4. **Incremental edge set tree**: each kept node stores the edges of its
   truss minus its parent's truss; the root stores T_{kmax,0} in full.
5. **Compressed lookup table**: per k, the run-length-encoded map δ → tree
   node representing T_{k,δ} (runs keyed by their smallest δ).

The whole derivation runs on the (k, δ) cell grid in numpy: one cumsum
matrix of truss sizes gives both edge weights of every cell, pointer
jumping over the sink array resolves each cell's representative node, and
the IES payloads are scattered with ``searchsorted``/``repeat``.

Storage is a heavy-path decomposition (Sleator–Tarjan) of the tree: all
payloads sit in one read-only array in heavy-child-first preorder, so each
chain of heavy edges is one contiguous slice. A root path crosses at most
⌊log₂|nodes|⌋ light edges, hence DC-Query(k, δ) is one lookup-row bisection
plus at most ⌊log₂|nodes|⌋ + 1 slices — the same output-optimal complexity
as TC-Query (Theorem 4). The tree is space-optimal among structures with
that query time (Theorem 3); in particular total stored edges ≤ TC-Index's
(each node stores min(w_h, w_v) ≤ w_h, and TC's rows are exactly the
Σ w_h + |T_{k,0}| decomposition).
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .kspan import KspanTable, check_query


@dataclass
class DCNode:
    """One kept node of the incremental edge set tree."""

    k: int
    delta: int
    parent: tuple[int, int] | None  # key of the next node on the root path
    edge_ids: np.ndarray  # read-only view of this node's IES in the flat array


def _jump(ptr: np.ndarray) -> np.ndarray:
    """Pointer jumping: follow ``ptr`` from every slot to its fixed point."""
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            return ptr
        ptr = nxt


def _scatter(flat, node_delta, begin, e, lo, hi) -> None:
    """Write edge e[i] into every node whose δ (sorted ``node_delta``) lies
    in [lo[i], hi[i]]; node j's payload starts at flat[begin[j]] and keeps
    edge-id order."""
    a = np.searchsorted(node_delta, lo, "left")
    cnt = np.maximum(np.searchsorted(node_delta, hi, "right") - a, 0)
    node = np.repeat(a - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
    order = np.argsort(node, kind="stable")
    node = node[order]
    rank = np.arange(len(node)) - np.searchsorted(node, node, "left")
    flat[begin[node] + rank] = np.repeat(e, cnt)[order]


class DCIndex:
    """Tree-structured index over all (k, δ)-trusses."""

    def __init__(self, table: KspanTable):
        self.edges = table.edges
        self.kmax = table.kmax
        self.delta_max = table.delta_max
        self._build(table)

    # -- construction --------------------------------------------------------
    def _build(self, table: KspanTable) -> None:
        kmax, n_d = table.kmax, table.delta_max + 1
        self.nodes: dict[tuple[int, int], DCNode] = {}
        self.rows: dict[int, tuple[list[int], list[tuple[int, int]]]] = {}
        self.root: tuple[int, int] | None = (kmax, 0) if kmax >= 3 else None
        n_k = kmax - 2  # levels k = 3 … kmax are grid rows 0 … n_k − 1
        if n_k < 1:
            return

        # |T_{k,δ}| for every cell; the extra zero row stands for T_{kmax+1}.
        size = np.zeros((n_k + 1, n_d), dtype=np.int64)
        for i in range(n_k):
            s = table.spans[i + 3]
            size[i] = np.bincount(s[s >= 0], minlength=n_d)
        size = np.cumsum(size, axis=1)
        w_v = size[:-1] - size[1:]
        w_h = np.diff(size[:-1], axis=1, prepend=0)
        # lighter out-edge, vertical on ties (it chains toward the root
        # fastest; either is correct since both sinks are then equal sets);
        # at δ = 0 vertical always wins, at k = kmax only horizontal exists
        vert = w_v <= w_h
        vert[-1] = False
        w = np.where(vert, w_v, w_h).ravel()
        cell = np.arange(n_k * n_d)
        sink = np.where(vert.ravel(), cell + n_d, cell - 1)
        kept = w > 0
        root = (n_k - 1) * n_d
        kept[root], sink[root] = True, root
        rep = _jump(np.where(kept, cell, sink))

        # Kept nodes in δ-ascending, k-descending order: a parent (larger k
        # or smaller δ) always precedes its children, and the root is first.
        kc = np.flatnonzero(kept)
        kc = kc[np.lexsort((-kc, kc % n_d))]
        n = len(kc)
        node_of = np.full(len(cell), -1)
        node_of[kc] = np.arange(n)
        par = node_of[rep[sink[kc]]]
        par[0] = -1

        # Heavy-path layout: subtree node counts, heavy child = largest
        # count (ties: lowest node index), children heavy first.
        par_l, sub = par.tolist(), [1] * n
        for j in range(n - 1, 0, -1):
            sub[par_l[j]] += sub[j]
        sub = np.asarray(sub)
        child = np.lexsort((np.arange(1, n), -sub[1:], par[1:])) + 1
        first = np.diff(par[child], prepend=-1) != 0
        heavy = np.zeros(n, dtype=bool)
        heavy[child[first]] = True
        # preorder position = Σ over the root path of (1 + subtree counts of
        # the earlier siblings), a path sum taken by pointer jumping
        before = np.cumsum(sub[child]) - sub[child]
        pos = np.zeros(n, dtype=np.int64)
        pos[child] = 1 + before - np.maximum.accumulate(np.where(first, before, 0))
        up = np.maximum(par, 0)
        while up.any():
            pos, up = pos + pos[up], up[up]
        weight = w[kc]
        by_pos = np.zeros(n, dtype=np.int64)
        by_pos[pos] = weight
        begin = (np.cumsum(by_pos) - by_pos)[pos]
        end = begin + weight
        head = _jump(np.where(heavy, par, np.arange(n)))

        # IES payloads, written straight into the flat array:
        #  horizontal node (k,δ) and the root: edges with k-span exactly δ
        #  vertical node (k,δ): edges with span_k ≤ δ < span_{k+1}
        flat = np.empty(int(weight.sum()), dtype=np.int64)
        ki, kd = kc // n_d, kc % n_d
        is_v = vert.ravel()[kc]
        for i in range(n_k):
            s = table.spans[i + 3]
            e = np.flatnonzero(s >= 0)
            lo = s[e]
            at = ki == i
            h = np.flatnonzero(at & ~is_v)  # δ-ascending, as kc is
            _scatter(flat, kd[h], begin[h], e, lo, lo)
            v = np.flatnonzero(at & is_v)
            if len(v):
                nxt = table.spans[i + 4][e]
                hi = np.where(nxt >= 0, nxt - 1, n_d - 1)
                _scatter(flat, kd[v], begin[v], e, lo, hi)
        flat.setflags(write=False)  # query results may be views of it

        keys = list(zip((ki + 3).tolist(), kd.tolist()))
        for (k, d), p, b, t in zip(keys, par_l, begin.tolist(), end.tolist()):
            self.nodes[(k, d)] = DCNode(k, d, keys[p] if p >= 0 else None, flat[b:t])
        # per node: its payload's end, its chain head's payload start, and the
        # node after the chain (the head's parent, −1 past the root)
        self._flat = flat
        self._end = end.tolist()
        self._head_begin = begin[head].tolist()
        self._next = par[head].tolist()

        # Compressed lookup table: per-k runs of identical representatives.
        self._lookup: dict[int, tuple[list[int], list[int]]] = {}
        for i in range(n_k):
            r = rep[i * n_d:(i + 1) * n_d]
            starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]]).tolist()
            nodes = node_of[r[starts]].tolist()
            self._lookup[i + 3] = (starts, nodes)
            self.rows[i + 3] = (starts, [keys[j] for j in nodes])

    # -- query ---------------------------------------------------------------
    def query_ids(self, k: int, delta: float) -> np.ndarray:
        """Edge ids of T_{k,δ}: lookup, then one slice per chain on the root path."""
        check_query(k, delta)
        if k <= 2:
            return np.arange(len(self.edges))
        if k > self.kmax or delta < 0:
            return np.zeros(0, dtype=np.int64)
        # clamp before int(): δ may be float('inf') (= the static k-truss)
        delta_c = self.delta_max if delta >= self.delta_max else int(delta)
        starts, nodes = self._lookup[k]
        j = nodes[bisect.bisect_right(starts, delta_c) - 1]
        flat, head_begin, end, nxt = self._flat, self._head_begin, self._end, self._next
        parts = []
        while j >= 0:
            parts.append(flat[head_begin[j]:end[j]])
            j = nxt[j]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def query(self, k: int, delta: float) -> set[tuple[int, int]]:
        return {self.edges[int(e)] for e in self.query_ids(k, delta)}

    # -- statistics (Table II) -------------------------------------------------
    def total_edges(self) -> int:
        """Total edge entries stored across all tree nodes."""
        return sum(len(n.edge_ids) for n in self.nodes.values())

    def space_bytes(self) -> int:
        """Byte model: 8 B/edge entry + 12 B/tree node + 16 B/lookup run."""
        n_runs = sum(len(starts) for starts, _ in self.rows.values())
        return 8 * self.total_edges() + 12 * len(self.nodes) + 16 * n_runs
