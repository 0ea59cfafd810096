"""Peeling primitives: support, peel_to_truss, trussness."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.core.decomposition import support, trussness
from repro.core.model import TemporalGraph
from repro.tgraph.generators import random_temporal_graph, triangle_rich_graph
from repro.triangles.brute import static_trussness


def _complete_graph(n: int) -> pd.DataFrame:
    rows = [(i, j, 0) for i in range(n) for j in range(i + 1, n)]
    return pd.DataFrame(rows, columns=["u", "v", "t"])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_trussness_complete_graph(n):
    # every edge of K_n is in n−2 triangles → the whole graph is an n-truss
    g = TemporalGraph.from_flat(_complete_graph(n))
    tri = g.triangles()
    trn = trussness(g.m, tri, np.ones(tri.n, bool))
    assert (trn == n).all()


def test_trussness_triangle_free():
    flat = pd.DataFrame({"u": [0, 1, 2, 3], "v": [1, 2, 3, 4], "t": [0, 0, 0, 0]})
    g = TemporalGraph.from_flat(flat)
    tri = g.triangles()
    trn = trussness(g.m, tri, np.ones(tri.n, bool))
    assert (trn == 2).all()


@pytest.mark.parametrize("seed", range(10))
def test_trussness_matches_brute(seed):
    flat = random_temporal_graph(n_vertices=13, n_edges=40, seed=seed)
    g = TemporalGraph.from_flat(flat)
    tri = g.triangles()
    trn = trussness(g.m, tri, np.ones(tri.n, bool))
    brute = static_trussness(flat)
    for e, (u, v) in enumerate(g.edges):
        assert trn[e] == brute[(u, v)], (u, v)


def test_trussness_with_validity_mask_matches_brute_delta():
    """δ-trussness (mask = mts ≤ δ) vs brute kd_truss membership."""
    from repro.triangles.brute import kd_truss

    flat = triangle_rich_graph(n_cliques=2, clique_size=6, n_timestamps=15, seed=2)
    g = TemporalGraph.from_flat(flat)
    tri = g.triangles()
    for delta in [0, 2, 5, 10, math.inf]:
        trn = trussness(g.m, tri, tri.mts <= delta)
        kmax = int(trn.max())
        for k in range(3, kmax + 2):
            expect = kd_truss(flat, k, delta)
            got = {g.edges[e] for e in np.flatnonzero(trn >= k)}
            assert got == expect, (k, delta)


def test_support_counts_valid_alive_only():
    g = TemporalGraph.from_flat(_complete_graph(4))
    tri = g.triangles()
    sup = support(g.m, tri.tri_e, np.ones(tri.n, bool))
    assert (sup == 2).all()  # each K4 edge is in 2 triangles
    # kill one triangle via validity
    ok = np.ones(tri.n, bool)
    ok[0] = False
    sup2 = support(g.m, tri.tri_e, ok)
    assert sup2.sum() == sup.sum() - 3
    # exactly the dead triangle's three edges lose one, as an int64 count
    want = np.full(g.m, 2, dtype=np.int64)
    want[tri.tri_e[0]] = 1
    assert sup2.dtype == np.int64 and np.array_equal(sup2, want)
    assert not support(g.m, tri.tri_e, np.zeros(tri.n, bool)).any()


def test_empty_graph():
    g = TemporalGraph.from_flat(pd.DataFrame({"u": [0], "v": [1], "t": [0]}))
    tri = g.triangles()
    trn = trussness(g.m, tri, np.ones(tri.n, bool))
    assert list(trn) == [2]
