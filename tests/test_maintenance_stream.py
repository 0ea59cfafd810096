"""Long mixed insertion streams: no drift between maintained and rebuilt state."""
import numpy as np
import pytest

from repro.core.dc_index import DCIndex
from repro.core.maintainers import DCMaintainer, TCMaintainer
from repro.core.mba import mba
from repro.core.model import TemporalGraph
from repro.core.tc_index import TCIndex
from repro.tgraph.generators import analog, random_temporal_graph, triangle_rich_graph

from tests.helpers import assert_kspan_fixpoint, span_map


@pytest.mark.parametrize("seed", range(4))
def test_fifty_mixed_insertions(seed):
    rng = np.random.default_rng(seed)
    flat = random_temporal_graph(n_vertices=15, n_edges=45, n_timestamps=20, seed=seed)
    g = TemporalGraph.from_flat(flat)
    g.triangles()
    m = TCMaintainer(g)
    for _ in range(50):
        u, v = int(rng.integers(0, 15)), int(rng.integers(0, 15))
        m.insert(u, v, int(rng.integers(0, 20)))
        assert_kspan_fixpoint(g, m.table)
    fresh = mba(TemporalGraph.from_flat(g.to_flat()))
    assert m.table.kmax == fresh.kmax
    assert m.table.delta_max == fresh.delta_max
    assert span_map(m.table) == span_map(fresh)
    # and the maintained TC-Index answers like a freshly built one
    fresh_idx = TCIndex(fresh)
    for k in range(3, fresh.kmax + 1):
        for d in (0, fresh.delta_max // 2, fresh.delta_max):
            assert m.index.query(k, d) == fresh_idx.query(k, d), (k, d)


def test_stream_on_clique_overlap_graph():
    rng = np.random.default_rng(9)
    flat = triangle_rich_graph(n_cliques=3, clique_size=6, n_timestamps=30, seed=2)
    g = TemporalGraph.from_flat(flat)
    g.triangles()
    m = DCMaintainer(g)
    n_verts = max(g.vertices) + 1
    for _ in range(30):
        u, v = int(rng.integers(0, n_verts)), int(rng.integers(0, n_verts))
        m.insert(u, v, int(rng.integers(0, 30)))
        assert_kspan_fixpoint(g, m.table)
    fresh = mba(TemporalGraph.from_flat(g.to_flat()))
    assert span_map(m.table) == span_map(fresh)
    fresh_idx = DCIndex(fresh)
    for k in range(3, fresh.kmax + 1):
        assert m.index.query(k, fresh.delta_max // 3) == fresh_idx.query(
            k, fresh.delta_max // 3
        ), k


def test_stream_on_email_analog():
    rng = np.random.default_rng(3)
    flat = analog("email", sf=0.12, seed=5)
    g = TemporalGraph.from_flat(flat)
    g.triangles()
    m = TCMaintainer(g)
    verts = sorted(g.vertices)
    for _ in range(25):
        u = verts[int(rng.integers(0, len(verts)))]
        v = verts[int(rng.integers(0, len(verts)))]
        m.insert(u, v, int(rng.integers(0, 803)))
        assert_kspan_fixpoint(g, m.table)
    fresh = mba(TemporalGraph.from_flat(g.to_flat()))
    assert span_map(m.table) == span_map(fresh)


def test_mathoverflow_reinsertion_stream():
    """200 held-out analog rows, timestamp and edge insertions mixed: the
    maintained table is a fixpoint of the local k-span update on every
    level after every insertion, and ≡ rebuild every 100 insertions."""
    flat = analog("mathoverflow", sf=0.2, seed=7)
    held = np.random.default_rng(11).choice(len(flat), size=200, replace=False)
    g = TemporalGraph.from_flat(flat.drop(flat.index[held]))
    g.triangles()
    m = TCMaintainer(g)
    kinds = []
    rows = flat.iloc[held][["u", "v", "t"]].itertuples(index=False)
    for i, (u, v, t) in enumerate(rows, start=1):
        kinds.append(m.insert(int(u), int(v), int(t)).kind)
        assert_kspan_fixpoint(g, m.table)
        if i % 100 == 0:
            fresh = mba(TemporalGraph.from_flat(g.to_flat()))
            assert m.table.kmax == fresh.kmax
            assert m.table.delta_max == fresh.delta_max
            assert span_map(m.table) == span_map(fresh), i
    assert kinds.count("ts") > 0 and kinds.count("edge") > 0
