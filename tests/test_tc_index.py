"""TC-Index structure and TC-Query (§IV-A, Theorems 1–2)."""
import math

import numpy as np
import pytest

from repro.core.kspan import dba
from repro.core.mba import mba
from repro.core.model import TemporalGraph
from repro.core.online import online_query
from repro.core.tc_index import TCIndex
from repro.tgraph.generators import random_temporal_graph, triangle_rich_graph


def _graph(seed=0):
    return TemporalGraph.from_flat(
        random_temporal_graph(n_vertices=14, n_edges=55, n_timestamps=12, seed=seed)
    )


@pytest.mark.parametrize("seed", range(8))
def test_tc_query_equals_online_for_all_params(seed):
    g = _graph(seed)
    idx = TCIndex(mba(g))
    deltas = sorted({int(m) for m in g.triangles().mts} | {0, g.delta_max + 5})
    for k in range(2, idx.kmax + 2):
        for d in deltas:
            assert idx.query(k, d) == online_query(g, k, d), (k, d)


def test_sequences_sorted_descending():
    g = TemporalGraph.from_flat(
        triangle_rich_graph(n_cliques=3, clique_size=6, n_timestamps=20, seed=1)
    )
    table = mba(g)
    idx = TCIndex(table)
    for k, m in idx.maps.items():
        spans = table.spans[k][m.edge_ids]
        assert (np.diff(spans) <= 0).all(), k
        # D_k offsets point at the first edge of each span value
        assert m.uniq_spans_asc == sorted(set(spans.tolist()))
        assert len(m.offsets) == len(m.uniq_spans_asc)
        for sp, off in zip(m.uniq_spans_asc, m.offsets):
            assert spans[off] == sp
            assert off == 0 or spans[off - 1] > sp


def test_query_is_suffix_scan():
    """Theorem 2 (optimality): the answer is a contiguous suffix of E_k."""
    g = _graph(3)
    idx = TCIndex(mba(g))
    for k in range(3, idx.kmax + 1):
        m = idx.maps[k]
        for d in (0, 2, 5, math.inf):
            ids = idx.query_ids(k, d)
            assert len(ids) == 0 or np.array_equal(ids, m.edge_ids[len(m.edge_ids) - len(ids):])


def test_query_result_is_read_only():
    """A query result is a view of E_k; writing to it must not reach the index."""
    g = _graph(3)
    idx = TCIndex(mba(g))
    k = 3
    ids = idx.query_ids(k, math.inf)
    before = ids.copy()
    assert len(ids) > 0
    with pytest.raises(ValueError):
        ids[0] = -1
    assert np.array_equal(idx.query_ids(k, math.inf), before)


def test_bad_query_input_rejected():
    """NaN δ and non-integral k raise; ints, numpy ints and inf are accepted."""
    g = _graph(4)
    idx = TCIndex(mba(g))
    for k, d in ((4, math.nan), (3.5, 10), (np.float64(4.2), 0), (math.inf, 3)):
        with pytest.raises(ValueError):
            idx.query_ids(k, d)
    for k, d in ((3, 10), (np.int64(3), np.int64(10)), (3, math.inf), (4.0, 2)):
        assert idx.query(k, d) == online_query(g, int(k), d), (k, d)


def test_infinite_delta_returns_static_truss():
    g = _graph(5)
    idx = TCIndex(dba(g))
    for k in range(3, idx.kmax + 1):
        assert idx.query(k, math.inf) == online_query(g, k, math.inf)


def test_edge_cases():
    g = _graph(6)
    idx = TCIndex(mba(g))
    assert idx.query(2, 0) == set(g.edges)
    assert idx.query(idx.kmax + 1, math.inf) == set()
    assert idx.query(3, -1) == set()


def test_total_edges_theorem1_bound():
    """Theorem 1: index size O(kmax · (|E| + δmax)) — entries ≤ kmax·|E|."""
    g = _graph(7)
    idx = TCIndex(mba(g))
    assert idx.total_edges() <= (idx.kmax - 2) * g.m
    assert idx.space_bytes() <= 8 * (idx.kmax - 2) * g.m + 12 * (idx.kmax - 2) * (
        idx.delta_max + 1
    )


def test_same_index_from_dba_and_mba():
    g = _graph(8)
    a, b = TCIndex(dba(g)), TCIndex(mba(g))
    assert a.total_edges() == b.total_edges()
    for k in a.maps:
        assert np.array_equal(a.maps[k].edge_ids, b.maps[k].edge_ids)
