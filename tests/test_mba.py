"""MBA (§V-B): trussness maintenance under triangle invalidation."""
import os

import numpy as np
import pytest

from repro.core import mba as mba_mod
from repro.core.decomposition import trussness
from repro.core.kspan import dba
from repro.core.mba import _band_spans, mba
from repro.core.model import TemporalGraph
from repro.tgraph.generators import analog, random_temporal_graph, triangle_rich_graph
from tests.helpers import kspan_fixpoint


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
    state = _MbaState(g, trn, 3, int(trn.max()))
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
    state = _MbaState(g, trn, 3, int(trn.max()))
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
    whole = _band_spans(g, trn, 3, kmax)
    for c in range(4, kmax + 1):
        merged = np.vstack([_band_spans(g, trn, 3, c - 1), _band_spans(g, trn, c, kmax)])
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

    def failing(g, trn, lo, hi):
        if (lo > 3) == (where == "child"):
            raise ValueError(f"band [{lo}, {hi}]")
        return band(g, trn, lo, hi)

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
