"""Maintenance-Based Algorithm (MBA, §V-B).

One pass over all triangles in descending order of minimum time span:
invalidating a triangle maintains every edge's *current δ-trussness*
simultaneously (Lemmas 1–3), and each unit decrease of trussness k → k−1
while invalidating the mts = d triangles is exactly the statement
"e ∈ H-IES between T_{k,d} and T_{k,d−1}", i.e. k-spn_k(e) = d (Lemma 4).
So MBA produces the complete k-span table — and hence both TC-Index and
DC-Index — while touching each triangle once per level band (vs once per k
in DBA).

Maintained invariant (the paper's trick): for every edge e,

    ks(e) = #{ valid triangles ∆ ∋ e : L(∆) = trn(e) }

where L(∆) is the minimum trussness among ∆'s edges (Definition 10). In the
trn(e)-truss this is e's support, so e stays at its level iff
ks(e) ≥ trn(e) − 2.

When a level-k triangle is invalidated, only level-k edges can be affected
(Lemma 2), each by at most one level (Lemma 1). The cascade is a worklist
that re-checks dropped edges at their new level — so even multi-level
settles (which Lemma 1 rules out per single invalidation, but which cost
nothing to support) are handled exactly.

**Level bands** (an engineering addition, not in the paper). The sweep is
sequential, but the levels split into contiguous bands [lo, hi] ⊆ [3, kmax]
that are swept independently, one per core. A band's state caps trussness
at ``hi``, starts with the triangles of static level < lo invalid, and stops
every edge at a floor of lo − 1; its drops give exactly the k-spans of
levels lo..hi, because:

(i) for k ≥ lo, T_{k,δ} ⊆ T_k ⊆ T_lo (the static lo-truss), and whether an
    edge is in T_{k,δ} depends only on triangles inside T_lo, i.e. those of
    static level ≥ lo. Triangles of lower level are never counted by an edge
    at a level ≥ lo (Lemma 2), so marking them invalid up front changes no
    level ≥ lo.
(ii) capping at ``hi`` is MBA with all levels above hi merged into one: the
    capped values are min(trn_δ, hi), the ks invariant holds for them (an
    edge at hi needs hi − 2 valid triangles of level hi, its support in the
    static hi-truss restricted to valid triangles), and a drop k_old → k_old
    − 1 with k_old ≤ hi happens at the same δ as without the cap.
(iii) an edge that reaches lo − 1 is outside T_{lo,δ} for the current δ and
    hence for every smaller δ; its triangles have L ≤ lo − 1, so it never
    again counts towards an edge at a level ≥ lo and need not drop further.
    The default band [3, kmax] has floor 2: it is the paper's single sweep.

Bands are cut so that each holds about the same estimated work w(k) =
Σ_{trn(e) ≥ k} |edge_tris(e)| (every edge that passes level k scans its
triangle list there), with fewer bands when the work would not repay a
fork. The k-span table is one (kmax − 2) × m array in anonymous shared
memory. The parent process sweeps the first band and ``os.fork``s one child
per further band; a child reads the parent's graph copy-on-write, so
nothing is pickled on the way in, and sweeps straight into its slice of
the shared table, so nothing is sent back either. Each process is first
moved to a CPU of its own (:func:`_place`), and once the children are
reaped the parent takes back write access to its resident memory in one
batch (:func:`_own_memory`), which the forks had revoked page by page.

Implementation note: the sweep runs millions of tiny operations, so the
mutable state lives in plain Python lists/tuples — numpy scalar indexing in
this hot loop makes MBA slower than DBA, inverting the paper's Fig. 14. The
state also caches every triangle's level, ``lvl[tid] = L(∆)``, so the BFS,
the ks recount and invalidation compare one list entry instead of taking
``min(trn[e1], trn[e2], trn[e3])``. The cache changes only when an edge
drops from k to k−1, and then exactly for the valid level-k triangles on the
dropped edges: the BFS visits all of them, and moving each to k−1 as it is
visited also marks it as seen. The state fills the band's rows of the
shared table in place: they start at 0 inside the static k-truss (an edge
that never drops keeps k-span 0) and −1 outside, and ``settle`` records
each drop from k at the current mts d straight into row k, so the rows are
final when the sweep ends.
"""
from __future__ import annotations

import ctypes
import gc
import mmap
import os
import signal
import traceback

import numpy as np

from .decomposition import trussness
from .kspan import KspanTable
from .model import TemporalGraph

# Least estimated work (Σ w(k), in triangle-list entries) per band before
# MBA forks a process for it. Measured on a 4-core VM: the sweep reads
# ≈0.25–0.35 µs per unit, fork + exit + reap costs the parent ≈8 ms at
# 250 MB RSS, and a child's state setup ≈15–25 ms more; so a band of this
# size (≈30 ms) repays its fork, and hypothesis-sized graphs (≤ 10⁴) never fork.
MIN_BAND_WORK = 100_000


class _MbaState:
    """Mutable state of the δ-sweep over levels [lo, hi]: trussness capped at
    ``hi``, ks counters, levels, validity, the band's triangle ids, and the
    rows ``spans`` it fills, row k − lo with level k's k-span of every edge."""

    def __init__(self, g: TemporalGraph, trn: np.ndarray, lo: int, hi: int, spans: np.ndarray):
        tri = g.triangles()
        trn_arr = np.minimum(trn, hi)
        tri_trn = trn_arr[tri.tri_e]
        lvl_arr = tri_trn.min(axis=1)
        valid = lvl_arr >= lo
        at_lvl = (tri_trn == lvl_arr[:, None]) & valid[:, None]
        self.lo = lo
        self.floor = lo - 1
        self.trn: list[int] = trn_arr.tolist()
        self.lvl: list[int] = lvl_arr.tolist()
        self.ks: list[int] = np.bincount(tri.tri_e[at_lvl], minlength=g.m).tolist()
        self.tri_edges: list[tuple[int, int, int]] = tri.tri_edges
        self.edge_tris: list[list[int]] = tri.edge_tris
        self.tri_valid: list[bool] = valid.tolist()
        self.tids: np.ndarray = np.flatnonzero(valid)
        # an edge that never drops from k keeps k-span 0 (−1: not in T_k)
        self.spans = spans
        spans[:] = -1
        spans[trn_arr >= np.arange(lo, hi + 1)[:, None]] = 0
        self.d = 0  # mts of the triangles being invalidated

    def recount(self, e: int) -> int:
        """Recompute ks(e) from scratch at e's current level."""
        k = self.trn[e]
        lvl, tri_valid = self.lvl, self.tri_valid
        cnt = 0
        for tid in self.edge_tris[e]:
            if lvl[tid] == k and tri_valid[tid]:
                cnt += 1
        return cnt

    def settle(self, pending: list[int]) -> None:
        """Drain edges whose ks may violate ks ≥ trn−2; drop levels until
        stable, but never below the floor. A drop from k records
        k-spn_k(e) = d (Lemma 4)."""
        trn, ks, lvl, floor = self.trn, self.ks, self.lvl, self.floor
        tri_edges, tri_valid, edge_tris = self.tri_edges, self.tri_valid, self.edge_tris
        while pending:
            e0 = pending.pop()
            k = trn[e0]
            if ks[e0] >= k - 2 or k <= floor:
                continue
            # BFS the full drop set at level k reachable from e0 (Lemma 3 ii).
            # A visited triangle holds a dropped edge, so its level becomes
            # k−1; setting that now also keeps it from being visited twice.
            drop = {e0}
            stack = [e0]
            while stack:
                e = stack.pop()
                for tid in edge_tris[e]:
                    if lvl[tid] != k or not tri_valid[tid]:
                        continue
                    lvl[tid] = k - 1
                    for e2_ in tri_edges[tid]:
                        if e2_ == e or e2_ in drop:
                            continue
                        if trn[e2_] == k:
                            ks[e2_] -= 1
                            if ks[e2_] < k - 2:
                                drop.add(e2_)
                                stack.append(e2_)
            row, d = self.spans[k - self.lo], self.d
            for e in drop:
                trn[e] = k - 1
                row[e] = d
            for e in drop:
                ks[e] = self.recount(e)
                if ks[e] < trn[e] - 2 and trn[e] > floor:
                    pending.append(e)  # Lemma 1 says unreachable; exact anyway

    def invalidate(self, tid: int) -> None:
        """Invalidate one triangle and maintain all trussness values."""
        if not self.tri_valid[tid]:
            return
        self.tri_valid[tid] = False
        trn, ks = self.trn, self.ks
        k = self.lvl[tid]
        pending: list[int] = []
        for e in self.tri_edges[tid]:
            if trn[e] == k:
                ks[e] -= 1
                if ks[e] < k - 2:
                    pending.append(e)
        if pending:
            self.settle(pending)


def _band_spans(g: TemporalGraph, trn: np.ndarray, lo: int, hi: int, out: np.ndarray) -> None:
    """Fill ``out``: row k − lo gets the k-span of every edge, for k in
    [lo, hi]; −1 where the edge is outside the static k-truss. Triangles
    with mts = 0 stay valid in every (k, δ)-truss, so only those with
    mts > 0 are invalidated, in descending mts."""
    state = _MbaState(g, trn, lo, hi, out)
    mts = g.triangles().mts
    tids = state.tids[mts[state.tids] > 0]
    order = tids[np.argsort(-mts[tids], kind="stable")]
    for tid, d in zip(order.tolist(), mts[order].tolist()):
        state.d = d
        state.invalidate(tid)


def _bands(trn: np.ndarray, tri_e: np.ndarray, kmax: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous bands [lo, hi] covering [3, kmax] of ≈ equal estimated
    work, at most ``workers`` of them and at least MIN_BAND_WORK each."""
    if kmax < 3:
        return []
    per_edge = np.bincount(tri_e.ravel(), minlength=len(trn))
    at = np.bincount(trn, weights=per_edge, minlength=kmax + 1)
    w = np.cumsum(at[::-1])[::-1][3:]  # w(k) for k = 3..kmax
    total = float(w.sum())
    n = max(1, min(workers, kmax - 2, int(total // MIN_BAND_WORK)))
    # each level joins the band its work midpoint falls in
    band = np.minimum(((np.cumsum(w) - w / 2) * n / total).astype(np.int64), n - 1)
    starts = np.flatnonzero(np.diff(band, prepend=-1)) + 3
    return list(zip(starts.tolist(), (np.append(starts[1:], kmax + 1) - 1).tolist()))


def _place(cpu: int) -> None:
    """Move this thread to ``cpu`` now, and leave it free to move again.

    A forked child starts on its parent's CPU, and the kernel may leave
    all bands there for hundreds of ms (seen on a 4-vCPU VM: four bands of
    ≈0.08 s each took 0.35 s, all on one CPU)."""
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {cpu})
    finally:
        os.sched_setaffinity(0, allowed)


def _fork_band(g: TemporalGraph, trn: np.ndarray, lo: int, hi: int, cpu: int,
               out: np.ndarray) -> int:
    """Start a child on ``cpu`` that sweeps [lo, hi] into ``out``, rows of
    a shared mapping; returns its pid."""
    pid = os.fork()
    if pid == 0:  # the child never returns to the caller
        status = 1
        try:
            _place(cpu)
            _band_spans(g, trn, lo, hi, out)
            status = 0
        except BaseException:
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(status)
    return pid


_MADV_POPULATE_WRITE = 23  # Linux ≥ 5.14; older kernels answer EINVAL
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _own_memory() -> None:
    """Take back write access to this process's resident private memory.

    A fork write-protects every resident page of the caller, so after the
    children exit each page's next first write still faults (≈2 µs). The
    caller pays those faults wherever it next writes: a caller that frees
    its previous graph and queries the new one took ≈500 of them inside
    its queries per stackoverflow@1 build (perfbench `build`: DC-query p99
    +27 %), and maintenance after a rebuild ran 16 % slower (`maintain`).
    One populate call per run of resident pages resolves them here, in one
    batch of ≈30 ms at 250 MB; pages that are not resident stay so. A
    kernel without the advice changes nothing.
    """
    try:
        with open("/proc/self/maps") as maps:
            spans = [f[0] for f in map(str.split, maps)
                     if f[1] == "rw-p" and (len(f) == 5 or f[5] == "[heap]")]
        pagemap = open("/proc/self/pagemap", "rb")
    except OSError:
        return
    madvise = ctypes.CDLL(None, use_errno=True).madvise
    madvise.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    madvise.restype = ctypes.c_int
    with pagemap:
        for span in spans:
            lo, hi = (int(x, 16) for x in span.split("-"))
            pagemap.seek(lo // _PAGE * 8)
            present = np.frombuffer(pagemap.read((hi - lo) // _PAGE * 8), dtype=np.uint64) >> 63
            edges = np.diff(present.astype(np.int8), prepend=0, append=0)
            for a, b in zip(np.flatnonzero(edges == 1).tolist(), np.flatnonzero(edges == -1).tolist()):
                madvise(lo + a * _PAGE, (b - a) * _PAGE, _MADV_POPULATE_WRITE)


def _sweep_bands(g: TemporalGraph, trn: np.ndarray, bands: list[tuple[int, int]],
                 table: np.ndarray) -> None:
    """Fill ``table``, whose row k − 3 is level k: the first band is swept
    here, each further one in a forked child writing its rows in place.
    Every child is reaped before this returns or raises."""
    if len(bands) <= 1:
        for lo, hi in bands:
            _band_spans(g, trn, lo, hi, table[lo - 3:hi - 2])
        return
    pids = []
    cpus = sorted(os.sched_getaffinity(0))
    # a child's collections then leave the inherited objects alone, so no
    # finalizer of the caller's garbage (say, a py4j proxy that messages
    # the JVM over the caller's socket) runs in a child
    gc.freeze()
    try:
        for i, (lo, hi) in enumerate(bands[1:], 1):
            pids.append(_fork_band(g, trn, lo, hi, cpus[i % len(cpus)], table[lo - 3:hi - 2]))
        _place(cpus[0])
        lo, hi = bands[0]
        _band_spans(g, trn, lo, hi, table[lo - 3:hi - 2])
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        gc.unfreeze()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    _own_memory()
    for (lo, hi), status in zip(bands[1:], statuses):
        if status != 0:
            raise RuntimeError(f"MBA band [{lo}, {hi}] failed in its child process "
                               f"(exit code {os.waitstatus_to_exitcode(status)})")


def mba(g: TemporalGraph, workers: int | None = None) -> KspanTable:
    """Full k-span table via descending-mts sweeps of triangle invalidations,
    one per level band, on up to ``workers`` processes (default: every core
    this process may run on)."""
    tri = g.triangles()
    static_trn = trussness(g.m, tri, np.ones(tri.n, dtype=bool))  # T_k keys off static trn
    kmax = int(static_trn.max()) if g.m else 2
    dmax = int(tri.mts.max()) if tri.n else 0
    if workers is None:
        workers = len(os.sched_getaffinity(0))
    # shared, so forked bands write their rows straight into it; a mapping
    # cannot be empty
    buf = mmap.mmap(-1, max((kmax - 2) * g.m * 8, 8))
    table = np.frombuffer(buf, dtype=np.int64, count=(kmax - 2) * g.m).reshape(kmax - 2, g.m)
    _sweep_bands(g, static_trn, _bands(static_trn, tri.tri_e, kmax, workers), table)
    return KspanTable(list(g.edges), static_trn, kmax, dmax, {k: table[k - 3] for k in range(3, kmax + 1)})
