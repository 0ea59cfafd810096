"""MBA (§V-B): trussness maintenance under triangle invalidation."""
import math
import os

import numpy as np
import pytest

from repro.core import mba as mba_mod
from repro.core.dc_index import DCIndex
from repro.core.decomposition import trussness
from repro.core.kspan import dba
from repro.core.maintainers import DCMaintainer, TCMaintainer
from repro.core.mba import _band_spans, mba
from repro.core.model import TemporalGraph
from repro.core.online import online_query
from repro.core.tc_index import TCIndex
from repro.tgraph.generators import analog, random_temporal_graph, triangle_rich_graph
from tests.helpers import kspan_fixpoint, span_map


@pytest.mark.parametrize("seed", range(10))
def test_mba_equals_dba(seed):
    flat = random_temporal_graph(n_vertices=14, n_edges=55, n_timestamps=15, seed=seed)
    g = TemporalGraph.from_flat(flat)
    assert mba(g).equal(dba(g))


def test_mba_equals_dba_clique_graph():
    flat = triangle_rich_graph(n_cliques=3, clique_size=7, n_timestamps=30, seed=4)
    g = TemporalGraph.from_flat(flat)
    assert mba(g).equal(dba(g))


def test_mba_equals_dba_on_analog():
    flat = analog("email", sf=0.08, seed=1)
    g = TemporalGraph.from_flat(flat)
    assert mba(g).equal(dba(g))


def test_mba_equals_dba_on_dense_core():
    """stackoverflow's kmax-24 core, where the level cascades are deepest."""
    g = TemporalGraph.from_flat(analog("stackoverflow", sf=0.03, seed=7))
    assert mba(g).equal(dba(g))


@pytest.mark.parametrize("seed", range(6))
def test_maintained_trussness_equals_fresh_decomposition(seed):
    """Lemmas 1–3: after invalidating all triangles with mts > δ, the
    maintained trussness equals a from-scratch δ-decomposition.

    The maintained trussness after the groups > δ is read off MBA's table:
    the largest k with 0 ≤ spn_k(e) ≤ δ, else 2. That is the state by
    construction, since levels only fall and a fall from k during the
    group d records spn_k(e) = d > δ."""
    flat = random_temporal_graph(n_vertices=13, n_edges=50, n_timestamps=10, seed=seed)
    g = TemporalGraph.from_flat(flat)
    tri = g.triangles()
    table = mba(g)
    for d in sorted({int(m) for m in tri.mts} | {0}):
        maintained = np.full(g.m, 2, dtype=np.int64)
        for k in range(3, table.kmax + 1):
            s = table.spans[k]
            maintained[(s >= 0) & (s <= d)] = k
        fresh = trussness(g.m, tri, tri.mts <= d)
        assert np.array_equal(maintained, fresh), d


def test_lemma1_single_invalidation_drops_at_most_one():
    """Invalidate triangles one at a time; each edge's trussness falls ≤ 1."""
    from repro.core.mba import _MbaState

    flat = triangle_rich_graph(n_cliques=2, clique_size=6, n_timestamps=14, seed=7)
    g = TemporalGraph.from_flat(flat)
    tri = g.triangles()
    trn = trussness(g.m, tri, np.ones(tri.n, dtype=bool))
    kmax = int(trn.max())
    state = _MbaState(g, trn, 3, kmax, np.empty((kmax - 2, g.m), dtype=np.int64))
    order = np.argsort(-tri.mts, kind="stable")
    for tid in order:
        if int(tri.mts[tid]) == 0:
            break
        before = np.asarray(state.trn)
        state.invalidate(int(tid))
        assert (before - np.asarray(state.trn)).max() <= 1


def test_ks_invariant_maintained():
    """ks(e) = #{valid ∆ ∋ e : L(∆) = trn(e)} holds throughout the sweep, and
    the cached lvl[∆] equals L(∆) for every valid triangle."""
    from repro.core.mba import _MbaState

    flat = random_temporal_graph(n_vertices=12, n_edges=45, n_timestamps=8, seed=3)
    g = TemporalGraph.from_flat(flat)
    tri = g.triangles()
    trn = trussness(g.m, tri, np.ones(tri.n, dtype=bool))
    kmax = int(trn.max())
    state = _MbaState(g, trn, 3, kmax, np.empty((kmax - 2, g.m), dtype=np.int64))
    order = np.argsort(-tri.mts, kind="stable")

    def level(tid):
        return min(state.trn[e] for e in state.tri_edges[tid])

    def check():
        for tid in range(tri.n):
            if state.tri_valid[tid]:
                assert state.lvl[tid] == level(tid), tid
        for e in range(g.m):
            cnt = sum(
                1
                for tid in tri.edge_tris[e]
                if state.tri_valid[tid] and level(tid) == state.trn[e]
            )
            assert cnt == state.ks[e], e

    check()
    for tid in order[: min(25, len(order))]:
        if int(tri.mts[tid]) == 0:
            break
        state.invalidate(int(tid))
        check()


@pytest.mark.parametrize("name,sf", [("email", 1.0), ("mathoverflow", 0.5)])
def test_mba_equals_dba_equals_fixpoint(name, sf):
    """MBA in bands (default and 4 workers) and in one band ≡ DBA ≡ the
    least fixpoint of the local k-span update, an oracle sharing no code."""
    g = TemporalGraph.from_flat(analog(name, sf=sf, seed=7))
    want = dba(g)
    for workers in (None, 1, 4):
        assert mba(g, workers=workers).equal(want), workers
    fix = kspan_fixpoint(g)
    assert sorted(fix) == list(range(3, want.kmax + 1))
    for k, spans in fix.items():
        assert np.array_equal(spans, want.spans[k]), k


def test_band_split_points_merge_to_one_band():
    """On the kmax-24 dense core, the bands [3, c−1] and [c, kmax] give the
    single band's rows for every split point c."""
    g = TemporalGraph.from_flat(analog("stackoverflow", sf=0.03, seed=7))
    tri = g.triangles()
    trn = trussness(g.m, tri, np.ones(tri.n, dtype=bool))
    kmax = int(trn.max())
    whole = np.empty((kmax - 2, g.m), dtype=np.int64)
    _band_spans(g, trn, 3, kmax, whole)
    for c in range(4, kmax + 1):
        merged = np.full_like(whole, -2)  # a cell no band writes stays −2
        _band_spans(g, trn, 3, c - 1, merged[:c - 3])
        _band_spans(g, trn, c, kmax, merged[c - 3:])
        assert np.array_equal(merged, whole), c


@pytest.fixture
def forks(monkeypatch):
    """Pids of the children ``os.fork`` starts during the test. The checks
    name each pid: a Spark JVM that an earlier test launched is also a child
    of this process, so ``os.waitpid(-1, ...)`` would see it."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_bands_reap_every_child(forks):
    g = TemporalGraph.from_flat(analog("email", sf=1.0, seed=7))
    mba(g, workers=4)
    assert len(forks) == 3
    assert_reaped(forks)


@pytest.mark.parametrize("where", ["child", "parent"])
def test_failed_band_raises_and_reaps(monkeypatch, forks, where):
    """A band that raises in a child surfaces as RuntimeError naming it; one
    that raises in the parent propagates. Either way no child is left."""
    band = mba_mod._band_spans

    def failing(g, trn, lo, hi, out):
        if (lo > 3) == (where == "child"):
            raise ValueError(f"band [{lo}, {hi}]")
        band(g, trn, lo, hi, out)

    monkeypatch.setattr(mba_mod, "_band_spans", failing)
    g = TemporalGraph.from_flat(analog("stackoverflow", sf=0.03, seed=7))
    err = RuntimeError if where == "child" else ValueError
    with pytest.raises(err, match=r"band \[\d+, \d+\]"):
        mba(g, workers=4)
    assert len(forks) == 3
    assert_reaped(forks)


def test_tiny_graph_forks_nothing(forks):
    flat = random_temporal_graph(n_vertices=14, n_edges=55, n_timestamps=15, seed=0)
    g = TemporalGraph.from_flat(flat)
    assert mba(g, workers=4).equal(dba(g))
    assert forks == []


DEGENERATE = {
    "empty": ([], []),
    "path": ([(0, 1), (1, 2), (2, 3)], [[1, 4], [2], [3, 7]]),
    "triangle": ([(0, 1), (0, 2), (1, 2)], [[1, 4], [2], [3, 7]]),
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_graphs(name):
    """Graphs whose k-span table has no cells (empty, triangle-free) or one
    level: MBA on one or four workers ≡ DBA, and TC ≡ DC ≡ Online ≡ the
    table at every k ∈ {2, 3, 4} and δ ∈ {0, δmax, ∞}."""
    g = TemporalGraph(*DEGENERATE[name])
    want = dba(g)
    for workers in (1, 4):
        assert mba(g, workers=workers).equal(want), workers
    tc, dc = TCIndex(want), DCIndex(want)
    for k in (2, 3, 4):
        for d in (0, g.delta_max, math.inf):
            got = want.truss_edges(k, d)
            assert tc.query(k, d) == got, (k, d)
            assert dc.query(k, d) == got, (k, d)
            assert online_query(g, k, d) == got, (k, d)


@pytest.mark.parametrize("maintainer", [TCMaintainer, DCMaintainer])
def test_maintainer_from_empty_graph_builds_a_clique(maintainer):
    """From no edges to a 4-clique, timestamp and edge insertions mixed:
    after each, the table ≡ a fresh MBA and the index answers as one built
    on it."""
    m = maintainer(TemporalGraph([], []))
    stream = [(0, 1, 3), (1, 2, 5), (0, 2, 4), (0, 1, 9), (2, 3, 1), (1, 3, 2), (0, 3, 8), (2, 3, 6)]
    for u, v, t in stream:
        m.insert(u, v, t)
        fresh = mba(TemporalGraph.from_flat(m.g.to_flat()))
        assert (m.table.kmax, m.table.delta_max) == (fresh.kmax, fresh.delta_max), (u, v, t)
        assert span_map(m.table) == span_map(fresh), (u, v, t)
        fresh_idx = type(m.index)(fresh)
        for k in range(2, fresh.kmax + 2):
            for d in (0, fresh.delta_max):
                assert m.index.query(k, d) == fresh_idx.query(k, d), (u, v, t, k, d)
    assert fresh.kmax == 4
