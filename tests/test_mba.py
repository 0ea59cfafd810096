"""MBA (§V-B): trussness maintenance under triangle invalidation."""
import numpy as np
import pytest

from repro.core.decomposition import trussness
from repro.core.kspan import dba
from repro.core.mba import mba, mba_with_delta_trace
from repro.core.model import TemporalGraph
from repro.tgraph.generators import analog, random_temporal_graph, triangle_rich_graph


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
    maintained trussness equals a from-scratch δ-decomposition."""
    flat = random_temporal_graph(n_vertices=13, n_edges=50, n_timestamps=10, seed=seed)
    g = TemporalGraph.from_flat(flat)
    tri = g.triangles()
    probes = sorted({int(m) for m in tri.mts} | {0})
    trace = mba_with_delta_trace(g, probes)
    for d, maintained in trace.items():
        fresh = trussness(g.m, tri, tri.mts <= d)
        assert np.array_equal(maintained, fresh), d


def test_lemma1_single_invalidation_drops_at_most_one():
    """Invalidate triangles one at a time; each edge's trussness falls ≤ 1."""
    from repro.core.mba import _MbaState

    flat = triangle_rich_graph(n_cliques=2, clique_size=6, n_timestamps=14, seed=7)
    g = TemporalGraph.from_flat(flat)
    tri = g.triangles()
    state = _MbaState(g)
    order = np.argsort(-tri.mts, kind="stable")
    for tid in order:
        if int(tri.mts[tid]) == 0:
            break
        before = np.asarray(state.trn)
        state.invalidate(int(tid), lambda e, k: None)
        assert (before - np.asarray(state.trn)).max() <= 1


def test_ks_invariant_maintained():
    """ks(e) = #{valid ∆ ∋ e : L(∆) = trn(e)} holds throughout the sweep, and
    the cached lvl[∆] equals L(∆) for every valid triangle."""
    from repro.core.mba import _MbaState

    flat = random_temporal_graph(n_vertices=12, n_edges=45, n_timestamps=8, seed=3)
    g = TemporalGraph.from_flat(flat)
    tri = g.triangles()
    state = _MbaState(g)
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
        state.invalidate(int(tid), lambda e, k: None)
        check()
