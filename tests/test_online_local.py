"""Index-free Online-Query (§III), driver-local implementation."""
import math

import numpy as np
import pandas as pd
import pytest

from repro.core.model import TemporalGraph
from repro.core.online import online_query
from repro.tgraph.generators import random_temporal_graph, triangle_rich_graph
from repro.triangles.brute import kd_truss


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k,delta", [(3, 0), (3, 3), (3, math.inf), (4, 5), (5, 2)])
def test_matches_brute(seed, k, delta):
    flat = random_temporal_graph(n_vertices=12, n_edges=40, n_timestamps=10, seed=seed)
    g = TemporalGraph.from_flat(flat)
    assert online_query(g, k, delta) == kd_truss(flat, k, delta)


def test_k2_returns_whole_graph():
    flat = random_temporal_graph(n_vertices=8, n_edges=15, seed=0)
    g = TemporalGraph.from_flat(flat)
    assert online_query(g, 2, 0) == set(g.edges)


def test_monotone_in_delta():
    flat = triangle_rich_graph(n_cliques=3, clique_size=6, n_timestamps=20, seed=4)
    g = TemporalGraph.from_flat(flat)
    prev: set = set()
    for delta in range(0, g.delta_max + 1):
        cur = online_query(g, 4, delta)
        assert prev <= cur
        prev = cur
    assert cur == online_query(g, 4, math.inf)


def test_monotone_in_k():
    flat = triangle_rich_graph(n_cliques=2, clique_size=7, n_timestamps=20, seed=5)
    g = TemporalGraph.from_flat(flat)
    prev = online_query(g, 3, 5)
    for k in range(4, 10):
        cur = online_query(g, k, 5)
        assert cur <= prev
        prev = cur


def test_dual_containment_property():
    """Property 4.1: T_{k,δ} ⊆ T_{k',δ'} when k' ≤ k and δ' ≥ δ."""
    flat = triangle_rich_graph(n_cliques=2, clique_size=6, n_timestamps=12, seed=6)
    g = TemporalGraph.from_flat(flat)
    trusses = {
        (k, d): online_query(g, k, d) for k in range(3, 7) for d in range(0, 13, 4)
    }
    for (k, d), t in trusses.items():
        for (k2, d2), t2 in trusses.items():
            if k2 <= k and d2 >= d:
                assert t <= t2, ((k, d), (k2, d2))


def test_paper_example2_delta_support_semantics():
    """Example 2's structure: an edge in two triangles with mts 2 and 6."""
    # triangle A = {0,1,2} with all edges at t=0 and t=2 (mts 2 via (0,0,2)…
    # actually mts 0 — so build explicit spans)
    flat = pd.DataFrame(
        [
            # edge (0,1): shared by both triangles
            (0, 1, 10),
            # triangle A: (0,2),(1,2) → best window [8,10] span 2
            (0, 2, 8), (1, 2, 9),
            # triangle B: (0,3),(1,3) → best window [10,16] span 6
            (0, 3, 16), (1, 3, 12),
        ],
        columns=["u", "v", "t"],
    )
    g = TemporalGraph.from_flat(flat)
    tri = g.triangles()
    spans = sorted(int(x) for x in tri.mts)
    assert spans == [2, 6]
    # (3,6)-truss contains triangle A only at δ∈[2,5], both at δ≥6
    assert online_query(g, 3, 1) == set()
    assert online_query(g, 3, 2) == {(0, 1), (0, 2), (1, 2)}
    assert online_query(g, 3, 6) == set(g.edges)
    # k=4 needs each edge in 2 triangles: only edge (0,1) has support 2,
    # its partners don't → empty at any δ
    assert online_query(g, 4, math.inf) == set()


def test_bad_query_input_rejected():
    """NaN δ and non-integral k raise, as on TC and DC; ints, numpy ints and
    inf are accepted."""
    flat = random_temporal_graph(n_vertices=12, n_edges=40, n_timestamps=10, seed=1)
    g = TemporalGraph.from_flat(flat)
    for k, d in ((3, math.nan), (3.5, 10), (np.float64(4.2), 0), (math.inf, 3)):
        with pytest.raises(ValueError):
            online_query(g, k, d)
    for k, d in ((3, 10), (np.int64(3), np.int64(10)), (3, math.inf), (4.0, 2)):
        assert online_query(g, k, d) == kd_truss(flat, int(k), d), (k, d)
