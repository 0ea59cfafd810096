"""Dynamic index maintenance (§VI): filter-and-verification ≡ rebuild."""
import numpy as np
import pandas as pd
import pytest

from repro.core.dc_index import DCIndex
from repro.core.decomposition import trussness
from repro.core.kspan import KspanTable
from repro.core.maintainers import DCMaintainer, TCMaintainer, rebuild_from_scratch
from repro.core.maintenance import update_kspan_table
from repro.core.mba import mba
from repro.core.model import TemporalGraph
from repro.core.online import online_query
from repro.core.tc_index import TCIndex
from repro.tgraph.generators import (
    analog,
    random_temporal_graph,
    triangle_rich_graph,
)

from tests.helpers import assert_same_maps, assert_same_tree, hold_out, span_map


def _assert_equiv_rebuild(g: TemporalGraph, table: KspanTable):
    fresh = rebuild_from_scratch(g)
    assert table.kmax == fresh.kmax
    assert table.delta_max == fresh.delta_max
    assert span_map(table) == span_map(fresh)


# -- timestamp insertion ------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_timestamp_insertions_match_rebuild(seed):
    rng = np.random.default_rng(seed)
    flat = random_temporal_graph(n_vertices=12, n_edges=40, n_timestamps=16, seed=seed)
    g = TemporalGraph.from_flat(flat)
    table = mba(g)
    for _ in range(12):
        e = g.edges[int(rng.integers(0, g.m))]  # existing static edge
        t = int(rng.integers(0, 16))
        update_kspan_table(g, table, e[0], e[1], t)
        _assert_equiv_rebuild(g, table)


def test_timestamp_insertion_tightens_kspan():
    # triangle {0,1,2}: spans 0@0, 50@(1,2), 100@(0,2) → mts 100; adding
    # t=99 on (0,1) narrows it to 50
    flat = pd.DataFrame({"u": [0, 1, 0], "v": [1, 2, 2], "t": [0, 50, 100]})
    g = TemporalGraph.from_flat(flat)
    table = mba(g)
    assert table.spans[3][g.eid[(0, 1)]] == 100
    stats = update_kspan_table(g, table, 0, 1, 99)
    assert stats.kind == "ts"
    assert table.spans[3][g.eid[(0, 1)]] == 50
    _assert_equiv_rebuild(g, table)


# -- edge insertion -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_edge_insertions_match_rebuild(seed):
    rng = np.random.default_rng(100 + seed)
    flat = random_temporal_graph(n_vertices=12, n_edges=35, n_timestamps=12, seed=seed)
    g = TemporalGraph.from_flat(flat)
    g.triangles()
    table = mba(g)
    for _ in range(10):
        u, v = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        t = int(rng.integers(0, 12))
        update_kspan_table(g, table, u, v, t)
        _assert_equiv_rebuild(g, table)


def test_edge_insertion_promotes_trussness():
    """Remove one clique edge, rebuild index, reinsert → exact promotion."""
    flat = triangle_rich_graph(n_cliques=1, clique_size=6, n_timestamps=10, seed=1)
    g_full = TemporalGraph.from_flat(flat)
    drop = g_full.edges[0]
    keep = flat[~((flat["u"] == drop[0]) & (flat["v"] == drop[1]))]
    g = TemporalGraph.from_flat(keep)
    g.triangles()
    table = mba(g)
    ts = np.asarray(
        flat[(flat["u"] == drop[0]) & (flat["v"] == drop[1])]["t"]
    )
    for t in ts:
        update_kspan_table(g, table, drop[0], drop[1], int(t))
    _assert_equiv_rebuild(g, table)


def test_remove_reinsert_cycle_on_clique_graph():
    """The paper's Fig-16 workload shape: delete edges, reinsert, compare."""
    rng = np.random.default_rng(5)
    flat = triangle_rich_graph(n_cliques=3, clique_size=6, n_timestamps=25, seed=3)
    g_full = TemporalGraph.from_flat(flat)
    victims = [g_full.edges[int(i)] for i in rng.choice(g_full.m, 5, replace=False)]
    mask = ~flat.apply(lambda r: (r["u"], r["v"]) in victims, axis=1)
    g = TemporalGraph.from_flat(flat[mask])
    g.triangles()
    table = mba(g)
    for (u, v) in victims:
        e = g_full.eid[(u, v)]
        for t in g_full.times[e]:
            update_kspan_table(g, table, u, v, int(t))
    _assert_equiv_rebuild(g, table)
    # final graph equals the original
    assert set(g.edges) == set(g_full.edges)


# -- filters ------------------------------------------------------------------


def test_theorem5_k_filter():
    """No level above trn(e0, G+) is ever touched."""
    rng = np.random.default_rng(42)
    flat = random_temporal_graph(n_vertices=14, n_edges=50, n_timestamps=10, seed=2)
    g = TemporalGraph.from_flat(flat)
    g.triangles()
    table = mba(g)
    for _ in range(20):
        u, v = int(rng.integers(0, 14)), int(rng.integers(0, 14))
        stats = update_kspan_table(g, table, u, v, int(rng.integers(0, 10)))
        if stats.kind == "noop":
            continue
        e0 = g.eid[(min(u, v), max(u, v))]
        assert all(k <= table.trn[e0] for k in stats.touched_ks)


def test_noop_insertion_changes_nothing():
    flat = random_temporal_graph(n_vertices=10, n_edges=30, n_timestamps=8, seed=7)
    g = TemporalGraph.from_flat(flat)
    table = mba(g)
    before = span_map(table)
    u, v = g.edges[0]
    t = int(g.times[0][0])
    stats = update_kspan_table(g, table, u, v, t)
    assert stats.kind == "noop"
    assert span_map(table) == before


def test_region_is_local():
    """GAS restricts verification to a subgraph, not the whole k-truss."""
    flat = triangle_rich_graph(n_cliques=4, clique_size=7, n_timestamps=40, seed=9)
    g = TemporalGraph.from_flat(flat)
    g.triangles()
    table = mba(g)
    # insert a timestamp on an edge of the *last* clique
    u, v = g.edges[g.m - 1]
    stats = update_kspan_table(g, table, u, v, 0)
    _assert_equiv_rebuild(g, table)
    for k, size in stats.region_sizes.items():
        assert size <= table.truss_size(k, table.delta_max)


# -- maintained index objects -------------------------------------------------


@pytest.mark.parametrize("maintainer_cls", [TCMaintainer, DCMaintainer])
def test_maintained_index_answers_queries(maintainer_cls):
    rng = np.random.default_rng(11)
    flat = random_temporal_graph(n_vertices=13, n_edges=45, n_timestamps=14, seed=4)
    g = TemporalGraph.from_flat(flat)
    g.triangles()
    m = maintainer_cls(g)
    for _ in range(15):
        u, v = int(rng.integers(0, 13)), int(rng.integers(0, 13))
        m.insert(u, v, int(rng.integers(0, 14)))
    deltas = sorted({int(x) for x in g.triangles().mts} | {0})
    for k in range(2, m.table.kmax + 2):
        for d in deltas:
            assert m.index.query(k, d) == online_query(g, k, d), (k, d)


def test_maintainer_on_analog_stream():
    flat = analog("email", sf=0.06, seed=4)
    g = TemporalGraph.from_flat(flat)
    g.triangles()
    m = TCMaintainer(g)
    rng = np.random.default_rng(0)
    verts = sorted(g.vertices)
    for _ in range(10):
        u = verts[int(rng.integers(0, len(verts)))]
        v = verts[int(rng.integers(0, len(verts)))]
        m.insert(u, v, int(rng.integers(0, 803)))
    _assert_equiv_rebuild(g, m.table)


# -- dense cores and the local promotion search ---------------------------------


def test_dense_core_reinsertion_matches_rebuild():
    """Remove every row of four top-trussness edges of stackoverflow's dense
    core, then reinsert them row by row: the edges come back promoted into
    the core, TC-IM's maps and DC-IM's tree equal fresh builds after every
    row, and both tables end equal to a rebuild."""
    flat = analog("stackoverflow", sf=0.03, seed=7)
    g_full = TemporalGraph.from_flat(flat)
    trn = mba(g_full).trn
    top = np.flatnonzero(trn == trn.max())
    pick = np.random.default_rng(7).choice(top, size=4, replace=False)
    rest, rows = hold_out(flat, {g_full.edges[int(e)] for e in pick})
    g = TemporalGraph.from_flat(rest)
    g.triangles()
    table = mba(g)
    tcm, dcm = maintainers = [TCMaintainer(g.copy(), table), DCMaintainer(g.copy())]
    promoted = 0  # existing edges whose static trussness rose
    for u, v, t in rows.itertuples(index=False):
        before = tcm.table.trn.copy()
        for m in maintainers:
            m.insert(int(u), int(v), int(t))
        promoted += int((tcm.table.trn[: len(before)] > before).sum())
        assert_same_maps(tcm.index, TCIndex(tcm.table))
        assert_same_tree(dcm.index, DCIndex(dcm.table))
    assert promoted > 0
    for m in maintainers:
        fresh_g = TemporalGraph(list(m.g.edges), [ts.copy() for ts in m.g.times])
        fresh = mba(fresh_g)
        assert span_map(m.table) == span_map(fresh)
        tri = fresh_g.triangles()
        assert np.array_equal(m.table.trn, trussness(fresh_g.m, tri, np.ones(tri.n, bool)))
        for k in range(3, fresh.kmax + 1):
            d = fresh.delta_max // 2
            assert m.index.query(k, d) == fresh.truss_edges(k, d), k


def test_promotion_candidates_stay_local():
    """Edge insertions on an analog search candidate sets far smaller than
    the graph — the dense core bounds the largest — and the result agrees
    with a rebuild."""
    flat = analog("mathoverflow", sf=0.5, seed=7)
    held = np.random.default_rng(5).choice(len(flat), size=60, replace=False)
    g = TemporalGraph.from_flat(flat.drop(flat.index[held]))
    g.triangles()
    table = mba(g)
    sizes = []
    for u, v, t in flat.iloc[held][["u", "v", "t"]].itertuples(index=False):
        stats = update_kspan_table(g, table, int(u), int(v), int(t))
        if stats.kind == "edge":
            sizes.extend(stats.candidates.values())
    assert len(sizes) > 20
    assert max(sizes) * 10 < g.m
    assert np.mean(sizes) * 100 < g.m
    _assert_equiv_rebuild(g, table)
