"""DBA (§V-A) and the k-span table it produces (Definition 5)."""
import math

import numpy as np
import pytest

from repro.core.kspan import dba
from repro.core.model import TemporalGraph
from repro.core.online import online_query
from repro.tgraph.generators import random_temporal_graph, triangle_rich_graph
from repro.triangles.brute import kspan as brute_kspan


@pytest.mark.parametrize("seed", range(5))
def test_kspan_matches_brute_definition(seed):
    flat = random_temporal_graph(n_vertices=10, n_edges=30, n_timestamps=8, seed=seed)
    g = TemporalGraph.from_flat(flat)
    table = dba(g)
    for k in range(3, table.kmax + 1):
        for e, edge in enumerate(g.edges):
            got = table.spans[k][e]
            expect = brute_kspan(flat, edge, k)
            if expect == math.inf:
                assert got == -1, (edge, k)
            else:
                assert got == expect, (edge, k)


@pytest.mark.parametrize("seed", range(8))
def test_trusses_from_table_match_online(seed):
    flat = random_temporal_graph(n_vertices=14, n_edges=50, n_timestamps=12, seed=seed)
    g = TemporalGraph.from_flat(flat)
    table = dba(g)
    deltas = sorted({int(m) for m in g.triangles().mts} | {0, g.delta_max + 3})
    for k in range(3, table.kmax + 2):
        for d in deltas:
            assert table.truss_edges(k, d) == online_query(g, k, d), (k, d)


def test_property_5_1_kspan_bounded_by_delta():
    """Property 5.1: k-spans of edges in T_{k,δ} are ≤ δ."""
    flat = triangle_rich_graph(n_cliques=3, clique_size=6, n_timestamps=18, seed=1)
    g = TemporalGraph.from_flat(flat)
    table = dba(g)
    for k in range(3, table.kmax + 1):
        for d in (0, 3, 7, g.delta_max):
            ids = table.truss_edge_ids(k, d)
            assert (table.spans[k][ids] <= d).all()


def test_kspan_monotone_in_k():
    """T_{k,δ} ⊆ T_{k−1,δ} ⟹ k-spn is non-decreasing in k for each edge."""
    flat = triangle_rich_graph(n_cliques=2, clique_size=7, n_timestamps=25, seed=2)
    g = TemporalGraph.from_flat(flat)
    table = dba(g)
    for k in range(4, table.kmax + 1):
        lo, hi = table.spans[k - 1], table.spans[k]
        both = (lo >= 0) & (hi >= 0)
        assert (hi[both] >= lo[both]).all()
        # an edge in the k-truss is in the (k−1)-truss
        assert not ((hi >= 0) & (lo < 0)).any()


def test_static_truss_is_delta_max_case():
    flat = triangle_rich_graph(n_cliques=2, clique_size=6, seed=3)
    g = TemporalGraph.from_flat(flat)
    table = dba(g)
    for k in range(3, table.kmax + 1):
        assert table.truss_edges(k, g.delta_max) == online_query(g, k, math.inf)


def test_total_truss_cells_matches_enumeration():
    flat = random_temporal_graph(n_vertices=10, n_edges=28, n_timestamps=6, seed=9)
    g = TemporalGraph.from_flat(flat)
    table = dba(g)
    expect = sum(
        table.truss_size(k, d)
        for k in range(3, table.kmax + 1)
        for d in range(0, table.delta_max + 1)
    )
    assert table.total_truss_cells() == expect


def test_edgeless_levels():
    flat = random_temporal_graph(n_vertices=8, n_edges=12, seed=11)
    g = TemporalGraph.from_flat(flat)
    table = dba(g)
    assert table.truss_edges(table.kmax + 1, math.inf) == set()
    assert table.truss_edges(2, 0) == set(g.edges)


def test_tables_differing_only_in_delta_max_are_not_equal():
    """δmax sets every T_{k,δmax} and the compression denominator, so a
    stale δmax must not pass as equal."""
    g = TemporalGraph.from_flat(random_temporal_graph(n_vertices=10, n_edges=30, seed=4))
    table = dba(g)
    assert table.equal(dba(g))
    stale = dba(g)
    stale.delta_max += 1
    assert not table.equal(stale)
    assert not stale.equal(table)
