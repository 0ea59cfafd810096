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

The whole derivation runs in numpy. The (level, edge) entries of all
levels are listed once; binned by (k, δ) cell they give the truss sizes,
whose cumsum yields both edge weights of every cell, and pointer jumping
over the sink array resolves each cell's representative node. Payloads
come from the same entries: a horizontal node's IES is the entries of its
cell, a vertical node's is found by one range expansion over the vertical
nodes of all levels, and one stable sort of the (layout position, edge)
pairs writes them all. The ``DCNode`` objects (``nodes``) and the keyed
lookup rows (``rows``) are made from the build's arrays on first access
only: queries, maintenance and the Table II figures never need them.

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
from functools import cached_property

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


def _entries(table: KspanTable, n_k: int, n_d: int) -> tuple[np.ndarray, ...]:
    """The (level, edge) entries of all levels, level by level in edge-id order.

    Per entry: the edge id, its grid cell i·n_d + δ (level i = k − 3, δ = its
    k-span) and the end of its cell range in vertical IESes (δ < span_{k+1});
    the top level has no vertical node, so its ranges are empty. Cells take
    the grid's narrowest unsigned dtype, to keep the build's transient
    memory small.
    """
    ct = np.min_scalar_type(n_k * n_d)
    ids, cell, stop = [], [], []
    for i in range(n_k):
        s = table.spans[i + 3]
        e = np.flatnonzero(s >= 0)
        lo = s[e] + i * n_d
        if i + 1 < n_k:
            nxt = table.spans[i + 4][e]
            hi = np.where(nxt >= 0, nxt + i * n_d, (i + 1) * n_d)
        else:
            hi = lo
        ids.append(e)
        cell.append(lo.astype(ct))
        stop.append(hi.astype(ct))
    return tuple(np.concatenate(x) for x in (ids, cell, stop))


def _grid(cell: np.ndarray, n_k: int, n_d: int) -> tuple[np.ndarray, ...]:
    """The reduced arborescence on the flattened (k, δ) grid.

    Per cell: the weight of its lighter out-edge, whether that edge is
    vertical, whether the cell is kept (non-zero weight, or the root
    T_{kmax,0}), its sink, and its representative (the first kept cell on
    its sink chain).
    """
    n_cells = n_k * n_d
    # |T_{k,δ}| for every cell; the extra zero row stands for T_{kmax+1}.
    size = np.zeros((n_k + 1, n_d), dtype=np.int64)
    size[:-1] = np.bincount(cell, minlength=n_cells).reshape(n_k, n_d)
    size = np.cumsum(size, axis=1)
    w_v = size[:-1] - size[1:]
    w_h = np.diff(size[:-1], axis=1, prepend=0)
    # lighter out-edge, vertical on ties (it chains toward the root fastest;
    # either is correct since both sinks are then equal sets); at δ = 0
    # vertical always wins, at k = kmax only horizontal exists
    vert = w_v <= w_h
    vert[-1] = False
    vert = vert.ravel()
    w = np.where(vert, w_v.ravel(), w_h.ravel())
    at = np.arange(n_cells)
    sink = np.where(vert, at + n_d, at - 1)
    kept = w > 0
    root = (n_k - 1) * n_d
    kept[root], sink[root] = True, root
    return w, vert, kept, sink, _jump(np.where(kept, at, sink))


def _heavy_path(par: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-path layout of a tree whose parents precede their children
    (node 0 is the root, ``par[0] = −1``).

    The heavy child is the one with the largest subtree node count (ties:
    lowest node index). Returns each node's preorder position with heavy
    children first, and whether it is its parent's heavy child.
    """
    n = len(par)
    par_l, sub = par.tolist(), [1] * n
    for j in range(n - 1, 0, -1):
        sub[par_l[j]] += sub[j]
    sub = np.asarray(sub)
    child = np.lexsort((np.arange(1, n), -sub[1:], par[1:])) + 1
    first = np.diff(par[child], prepend=-1) != 0
    heavy = np.zeros(n, dtype=bool)
    heavy[child[first]] = True
    # preorder position = Σ over the root path of (1 + subtree counts of the
    # earlier siblings), a path sum taken by pointer jumping
    before = np.cumsum(sub[child]) - sub[child]
    pos = np.zeros(n, dtype=np.int64)
    pos[child] = 1 + before - np.maximum.accumulate(np.where(first, before, 0))
    up = np.maximum(par, 0)
    while up.any():
        pos, up = pos + pos[up], up[up]
    return pos, heavy


def _payloads(ids, cell, stop, vert, kept, kc, pos) -> np.ndarray:
    """All IES payloads in one array, node after node in layout order.

    Every entry becomes (layout position, edge) pairs. A horizontal node
    (k,δ), and the root, holds the entries of its cell (k-span exactly δ).
    A vertical node (k,δ) holds the entries whose cell range [span_k,
    span_{k+1}) contains δ, found by one range expansion over the vertical
    nodes in cell order. Each node's pairs come in edge-id order, so one
    stable sort by position lays out the array; with ≤ 2¹⁶ nodes the key
    is 16-bit and the sort a radix sort.
    """
    n = len(kc)
    pt = np.min_scalar_type(n)  # positions 0 … n − 1; n marks "no node"
    at = np.full(len(vert), n, dtype=pt)
    at[kc] = pos
    v_cells = np.flatnonzero(kept & vert)
    v_pos = at[v_cells]
    at[v_cells] = n
    key_h = at[cell]
    in_h = key_h < n
    # vertical nodes before each cell, so cells [c, d) hold v_before[d] − v_before[c]
    v_before = np.zeros(len(vert) + 1, dtype=np.int64)
    np.cumsum(kept & vert, out=v_before[1:])
    first = v_before[cell]
    cnt = v_before[stop] - first
    v_at = np.repeat(first - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
    key = np.concatenate((key_h[in_h], v_pos[v_at]))
    flat = np.concatenate((ids[in_h], np.repeat(ids, cnt)))
    return flat[np.argsort(key, kind="stable")]


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
        self.root: tuple[int, int] | None = (kmax, 0) if kmax >= 3 else None
        n_k = kmax - 2  # levels k = 3 … kmax are grid rows 0 … n_k − 1
        self._lookup: dict[int, tuple[list[int], list[int]]] = {}
        self._cell = self._par = self._begin = np.zeros(0, dtype=np.int64)
        self._flat = np.zeros(0, dtype=np.int64)
        self._end, self._head_begin, self._next = [], [], []
        if n_k < 1:
            return
        ids, cell, stop = _entries(table, n_k, n_d)
        w, vert, kept, sink, rep = _grid(cell, n_k, n_d)

        # Kept nodes in δ-ascending, k-descending order: a parent (larger k
        # or smaller δ) always precedes its children, and the root is first.
        kc = np.flatnonzero(kept)
        kc = kc[np.lexsort((-kc, kc % n_d))]
        n = len(kc)
        node_of = np.full(len(kept), -1)
        node_of[kc] = np.arange(n)
        par = node_of[rep[sink[kc]]]
        par[0] = -1

        pos, heavy = _heavy_path(par)
        weight = w[kc]
        by_pos = np.zeros(n, dtype=np.int64)
        by_pos[pos] = weight
        begin = (np.cumsum(by_pos) - by_pos)[pos]
        head = _jump(np.where(heavy, par, np.arange(n)))
        self._flat = _payloads(ids, cell, stop, vert, kept, kc, pos)
        self._flat.setflags(write=False)  # query results may be views of it
        self._cell, self._par, self._begin = kc, par, begin
        # per node: its payload's end, its chain head's payload start, and the
        # node after the chain (the head's parent, −1 past the root)
        self._end = (begin + weight).tolist()
        self._head_begin = begin[head].tolist()
        self._next = par[head].tolist()

        # Compressed lookup table: per-k runs of identical representatives.
        for i in range(n_k):
            r = rep[i * n_d:(i + 1) * n_d]
            starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]]).tolist()
            self._lookup[i + 3] = (starts, node_of[r[starts]].tolist())

    # -- tree nodes, made on first access ---------------------------------------
    @cached_property
    def _keys(self) -> list[tuple[int, int]]:
        n_d = self.delta_max + 1
        return list(zip((self._cell // n_d + 3).tolist(), (self._cell % n_d).tolist()))

    @cached_property
    def nodes(self) -> dict[tuple[int, int], DCNode]:
        """Kept nodes by (k, δ), parents before children, the root first."""
        keys, flat = self._keys, self._flat
        return {
            key: DCNode(*key, keys[p] if p >= 0 else None, flat[b:t])
            for key, p, b, t in zip(keys, self._par.tolist(), self._begin.tolist(), self._end)
        }

    @cached_property
    def rows(self) -> dict[int, tuple[list[int], list[tuple[int, int]]]]:
        """Per k: the lookup runs' smallest δ and the node key of each run."""
        keys = self._keys
        return {k: (starts, [keys[j] for j in js]) for k, (starts, js) in self._lookup.items()}

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
        return len(self._flat)

    def space_bytes(self) -> int:
        """Byte model: 8 B/edge entry + 12 B/tree node + 16 B/lookup run."""
        n_runs = sum(len(starts) for starts, _ in self._lookup.values())
        return 8 * self.total_edges() + 12 * len(self._end) + 16 * n_runs
