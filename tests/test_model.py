"""TemporalGraph model: triangle enumeration, incremental updates."""
import networkx as nx
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import TemporalGraph
from repro.tgraph.generators import DATASETS, analog, random_temporal_graph, triangle_rich_graph
from repro.tgraph.schema import normalize_flat_pdf
from repro.triangles.brute import triangles_with_mts
from repro.triangles.mts import mts3_brute


def _model_triangles(g: TemporalGraph) -> set[tuple[int, int, int, int]]:
    tri = g.triangles()
    out = set()
    for tid in range(tri.n):
        verts = sorted({x for e in tri.tri_e[tid] for x in g.edges[int(e)]})
        assert len(verts) == 3
        out.add((*verts, int(tri.mts[tid])))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_triangles_match_brute(seed):
    flat = random_temporal_graph(n_vertices=14, n_edges=45, n_timestamps=12, seed=seed)
    g = TemporalGraph.from_flat(flat)
    assert _model_triangles(g) == set(triangles_with_mts(flat))


def _nx_triangles(edges) -> set[tuple[int, int, int]]:
    """Independent reference: the 3-cliques of networkx's clique listing."""
    out = set()
    for c in nx.enumerate_all_cliques(nx.Graph(edges)):
        if len(c) > 3:
            break
        if len(c) == 3:
            out.add(tuple(sorted(c)))
    return out


def _vertex_triangles(g: TemporalGraph) -> list[tuple[int, int, int]]:
    """Each listed triangle as its sorted vertex triple; its three edges are
    distinct and span exactly three vertices."""
    out = []
    for row in g.triangles().tri_e.tolist():
        assert len(set(row)) == 3
        verts = sorted({x for e in row for x in g.edges[e]})
        assert len(verts) == 3
        out.append(tuple(verts))
    return out


@settings(max_examples=150, deadline=None)
@given(
    ids=st.lists(st.integers(-(2**40), 2**40), min_size=2, max_size=14, unique=True),
    pairs=st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=60),
    seed=st.integers(0, 2**32 - 1),
)
def test_triangles_match_networkx(ids, pairs, seed):
    """Negative, non-contiguous and large vertex ids, edges in shuffled
    order: every triangle is listed once, as networkx finds it."""
    ends = [(ids[a % len(ids)], ids[b % len(ids)]) for a, b in pairs]
    edges = sorted({(min(e), max(e)) for e in ends if e[0] != e[1]})
    edges = [edges[i] for i in np.random.default_rng(seed).permutation(len(edges))]
    g = TemporalGraph(edges, [[0]] * len(edges))
    found = _vertex_triangles(g)
    assert len(found) == len(set(found))
    assert set(found) == _nx_triangles(edges)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_analog_triangles_match_networkx(name):
    g = TemporalGraph.from_flat(analog(name, sf=0.05, seed=3))
    found = _vertex_triangles(g)
    assert len(found) == len(set(found)) and found
    assert set(found) == _nx_triangles(g.edges)


def test_triangles_on_clique_graph():
    flat = triangle_rich_graph(n_cliques=2, clique_size=5, seed=3)
    g = TemporalGraph.from_flat(flat)
    assert _model_triangles(g) == set(triangles_with_mts(flat))


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 8)), max_size=40
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_from_flat_matches_reference_packing(rows, seed):
    """Self-loops, repeated rows, reversed (u, v) and shuffled rows all pack
    to the oriented edges with their sorted distinct timestamps."""
    rows = rows + [(v, u, t) for u, v, t in rows[::2]] + rows[1::3]
    rows = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
    flat = pd.DataFrame(rows, columns=["u", "v", "t"], dtype=np.int64)
    expected: dict[tuple[int, int], set[int]] = {}
    for u, v, t in normalize_flat_pdf(flat).itertuples(index=False):
        expected.setdefault((u, v), set()).add(t)
    g = TemporalGraph.from_flat(flat)
    assert g.edges == sorted(expected)
    assert [ts.tolist() for ts in g.times] == [sorted(expected[e]) for e in g.edges]


def test_from_flat_empty_frame():
    g = TemporalGraph.from_flat(pd.DataFrame({"u": [], "v": [], "t": []}))
    assert g.m == 0 and g.edges == [] and g.times == []
    assert g.triangles().n == 0


@pytest.mark.parametrize("seed", range(6))
def test_triangle_mts_matches_brute_on_mixed_tau(seed):
    """Singleton-τ triangles take the numpy path, the rest mts3: both agree
    with the cross-product reference."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(12):
        for v in range(u + 1, 12):
            if rng.random() < 0.6:
                n_ts = int(rng.choice([1, 1, 1, 2, 3]))
                rows += [(u, v, int(t)) for t in rng.integers(0, 30, size=n_ts)]
    g = TemporalGraph.from_flat(pd.DataFrame(rows, columns=["u", "v", "t"]))
    tri = g.triangles()
    single = np.array([len(ts) == 1 for ts in g.times])[tri.tri_e].all(axis=1)
    assert single.any() and not single.all()
    for tid in range(tri.n):
        e1, e2, e3 = tri.tri_e[tid]
        assert tri.mts[tid] == mts3_brute(g.times[e1], g.times[e2], g.times[e3]), tid


def test_edge_tris_lists_ascending_tids():
    g = TemporalGraph.from_flat(triangle_rich_graph(n_cliques=2, clique_size=6, seed=1))
    tri = g.triangles()
    assert len(tri.edge_tris) == g.m
    for e, tids in enumerate(tri.edge_tris):
        assert tids == sorted(tids)
        assert tids == [t for t in range(tri.n) if e in tri.tri_e[t]]


def test_basic_accessors():
    flat = pd.DataFrame({"u": [0, 1, 0], "v": [1, 2, 2], "t": [1, 2, 3]})
    g = TemporalGraph.from_flat(flat)
    assert g.m == 3
    assert g.vertices == {0, 1, 2}
    tri = g.triangles()
    assert tri.n == 1
    assert int(tri.mts[0]) == 2
    assert g.delta_max == 2


def test_to_flat_roundtrip():
    flat = random_temporal_graph(n_vertices=10, n_edges=25, seed=1)
    g = TemporalGraph.from_flat(flat)
    pd.testing.assert_frame_equal(g.to_flat(), flat)
    g2 = TemporalGraph.from_flat(g.to_flat())
    assert g2.edges == g.edges
    assert all(np.array_equal(a, b) for a, b in zip(g2.times, g.times))
    assert (TemporalGraph([], []).to_flat().dtypes == np.int64).all()


# -- incremental updates (the §VI stream) ------------------------------------


def test_insert_noop():
    g = TemporalGraph.from_flat(pd.DataFrame({"u": [0], "v": [1], "t": [5]}))
    assert g.insert(0, 1, 5)["kind"] == "noop"
    assert g.insert(3, 3, 1)["kind"] == "noop"


@pytest.mark.parametrize("t", [3.5, float("nan"), float("inf")])
def test_insert_rejects_non_integral_timestamp(t):
    """A fractional or NaN t would land truncated in τ (3.5 next to 3 makes
    τ = [3, 3]); it is rejected and the graph, store included, is unchanged."""
    g = TemporalGraph.from_flat(pd.DataFrame({"u": [0, 1, 0], "v": [1, 2, 2], "t": [3, 5, 9]}))
    tri = g.triangles()
    before = (list(g.edges), [ts.tolist() for ts in g.times], tri.n, tri.mts.tolist())
    for u, v in ((0, 1), (1, 3), (2, 2)):  # timestamp, edge and self-loop insertion
        with pytest.raises(ValueError):
            g.insert(u, v, t)
    tri = g.triangles()
    assert (list(g.edges), [ts.tolist() for ts in g.times], tri.n, tri.mts.tolist()) == before


def test_insert_accepts_integral_float_and_numpy_int():
    """For timestamps and vertex ids alike; the edge list holds ints."""
    g = TemporalGraph.from_flat(pd.DataFrame({"u": [0], "v": [1], "t": [3]}))
    assert g.insert(0, 1, 4.0)["kind"] == "ts"
    assert g.insert(1.0, np.int64(0), np.int64(6))["kind"] == "ts"
    assert g.insert(np.int32(2), 1.0, np.int32(2))["kind"] == "edge"
    assert g.edges == [(0, 1), (1, 2)]
    assert all(type(x) is int for e in g.edges for x in e)
    assert [ts.tolist() for ts in g.times] == [[3, 4, 6], [2]]


@pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf"), None])
def test_insert_rejects_non_integral_vertex_id(bad):
    """A fractional vertex id would land as an edge (1.5, 2); a bad id on
    either end is rejected and the graph, store included, is unchanged."""
    g = TemporalGraph.from_flat(pd.DataFrame({"u": [0, 1, 0], "v": [1, 2, 2], "t": [3, 5, 9]}))
    tri = g.triangles()
    before = (list(g.edges), [ts.tolist() for ts in g.times], tri.n, tri.mts.tolist())
    for u, v in ((bad, 2), (0, bad), (bad, bad)):
        with pytest.raises(ValueError):
            g.insert(u, v, 4)
    tri = g.triangles()
    assert (list(g.edges), [ts.tolist() for ts in g.times], tri.n, tri.mts.tolist()) == before


@pytest.mark.parametrize("bad", [3.7, float("nan"), float("inf")])
def test_from_flat_rejects_non_integral_timestamps(bad):
    flat = pd.DataFrame({"u": [0, 1], "v": [1, 2], "t": [2.0, bad]})
    with pytest.raises(ValueError):
        TemporalGraph.from_flat(flat)


@pytest.mark.parametrize("col", ["u", "v"])
@pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf")])
def test_from_flat_rejects_non_integral_vertex_ids(col, bad):
    flat = pd.DataFrame({"u": [0.0, 1.0], "v": [1.0, 2.0], "t": [2, 3]})
    flat.loc[1, col] = bad
    with pytest.raises(ValueError, match=f"the {col} column"):
        TemporalGraph.from_flat(flat)


def test_from_flat_accepts_integral_float_and_int32_timestamps():
    """Vertex ids too: float and int32 u, v columns give int edges."""
    as_float = pd.DataFrame({"u": [1.0, 1.0, 0.0], "v": [0.0, 2.0, 1.0], "t": [7.0, 2.0, 2.0]})
    as_int32 = as_float.astype(np.int32)
    for flat in (as_float, as_int32):
        g = TemporalGraph.from_flat(flat)
        assert g.edges == [(0, 1), (1, 2)]
        assert all(type(x) is int for e in g.edges for x in e)
        assert [ts.tolist() for ts in g.times] == [[2, 7], [2]]
        assert all(ts.dtype == np.int64 for ts in g.times)


def test_insert_timestamp_updates_mts():
    flat = pd.DataFrame({"u": [0, 1, 0], "v": [1, 2, 2], "t": [0, 50, 100]})
    g = TemporalGraph.from_flat(flat)
    g.triangles()
    assert g.delta_max == 100
    d = g.insert(0, 1, 99)  # tightens the triangle to span 50
    assert d["kind"] == "ts"
    assert d["changed"] == [(0, 100, 50)]
    assert int(g.triangles().mts[0]) == 50


def test_insert_edge_creates_triangles():
    flat = pd.DataFrame({"u": [0, 1], "v": [1, 2], "t": [3, 7]})
    g = TemporalGraph.from_flat(flat)
    g.triangles()
    d = g.insert(2, 0, 5)
    assert d["kind"] == "edge"
    assert len(d["new_tris"]) == 1
    assert int(g.triangles().mts[d["new_tris"][0]]) == 4


@pytest.mark.parametrize("seed", range(6))
def test_incremental_equals_rebuild(seed):
    """Streaming inserts keep the triangle store identical to a rebuild."""
    rng = np.random.default_rng(seed)
    flat = random_temporal_graph(n_vertices=12, n_edges=30, n_timestamps=20, seed=seed)
    g = TemporalGraph.from_flat(flat)
    g.triangles()
    for _ in range(15):
        u, v = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        t = int(rng.integers(0, 20))
        g.insert(u, v, t)
    fresh = TemporalGraph.from_flat(g.to_flat())
    assert _model_triangles(g) == _model_triangles(fresh)


def test_copy_is_independent():
    g = TemporalGraph.from_flat(pd.DataFrame({"u": [0, 1, 0], "v": [1, 2, 2], "t": [1, 2, 3]}))
    g.triangles()
    h = g.copy()
    g.insert(0, 1, 9)
    assert len(h.times[h.eid[(0, 1)]]) == 1
    assert h.triangles().n == 1


def _assert_store_consistent(g: TemporalGraph) -> None:
    """tri_e, tri_edges and mts agree with each other and with a fresh
    enumeration, and edge_tris is the exact inverted index of tri_e."""
    tri = g.triangles()
    assert tri.tri_e.shape == (tri.n, 3) and tri.mts.shape == (tri.n,)
    assert tri.tri_edges == [tuple(r) for r in tri.tri_e.tolist()]
    inverted: list[list[int]] = [[] for _ in range(g.m)]
    for tid, es in enumerate(tri.tri_edges):
        for e in es:
            inverted[e].append(tid)
    assert tri.edge_tris == inverted
    fresh = TemporalGraph(list(g.edges), [t.copy() for t in g.times])
    assert _model_triangles(g) == _model_triangles(fresh)


def _insert_stream(g: TemporalGraph, rng, n: int) -> list[str]:
    verts = sorted(g.vertices)
    kinds = []
    for _ in range(n):
        if rng.random() < 0.5:  # timestamp insertion on an existing edge
            u, v = g.edges[int(rng.integers(0, g.m))]
        else:
            u, v = (verts[int(i)] for i in rng.integers(0, len(verts), size=2))
        kinds.append(g.insert(u, v, int(rng.integers(0, 800)))["kind"])
    return kinds


def _assert_maps_current(g: TemporalGraph) -> None:
    """g.eid and g.nbr equal the maps rebuilt from g.edges."""
    nbr: dict[int, dict[int, int]] = {}
    for i, (u, v) in enumerate(g.edges):
        nbr.setdefault(u, {})[v] = i
        nbr.setdefault(v, {})[u] = i
    assert g.eid == {e: i for i, e in enumerate(g.edges)}
    assert g.nbr == nbr


@pytest.mark.parametrize("triangles_first", [False, True])
def test_edge_maps_stay_current_under_mixed_stream_and_copy(triangles_first):
    """The edge maps, built on first use, follow every insertion, on the
    original and on a copy taken mid-stream."""
    g = TemporalGraph.from_flat(analog("email", sf=0.06, seed=4))
    if triangles_first:
        g.triangles()
    rng = np.random.default_rng(5)
    kinds = _insert_stream(g, rng, 40)
    _assert_maps_current(g)
    h = g.copy()
    kinds += _insert_stream(h, rng, 40)
    assert kinds.count("ts") > 0 and kinds.count("edge") > 0
    assert h.m > g.m
    _assert_maps_current(h)
    _assert_maps_current(g)


def test_store_stays_consistent_under_mixed_stream_and_copy():
    """Appends grow tri_e, mts, tri_edges and edge_tris in step; a copy taken
    mid-stream is consistent and independent of the original."""
    from repro.tgraph.generators import analog

    g = TemporalGraph.from_flat(analog("email", sf=0.06, seed=4))
    g.triangles()
    rng = np.random.default_rng(3)
    kinds = _insert_stream(g, rng, 40)
    _assert_store_consistent(g)
    h = g.copy()
    tri = g.triangles()
    snapshot = (tri.tri_e.copy(), tri.mts.copy(), list(tri.tri_edges),
                [list(x) for x in tri.edge_tris])
    kinds += _insert_stream(h, rng, 60)
    assert kinds.count("ts") > 0 and kinds.count("edge") > 0
    assert h.triangles().n > g.triangles().n  # the copy grew past its buffer
    _assert_store_consistent(h)
    _assert_store_consistent(g)
    tri = g.triangles()
    assert np.array_equal(tri.tri_e, snapshot[0]) and np.array_equal(tri.mts, snapshot[1])
    assert tri.tri_edges == snapshot[2] and tri.edge_tris == snapshot[3]
