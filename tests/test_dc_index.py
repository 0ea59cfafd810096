"""DC-Index structure and DC-Query (§IV-B, Theorems 3–4)."""
import math

import numpy as np
import pytest

from repro.core.dc_index import DCIndex
from repro.core.kspan import dba
from repro.core.mba import mba
from repro.core.model import TemporalGraph
from repro.core.online import online_query
from repro.core.tc_index import TCIndex
from repro.tgraph.generators import (
    analog,
    coarsen_time,
    random_temporal_graph,
    triangle_rich_graph,
)


def _graph(seed=0):
    return TemporalGraph.from_flat(
        random_temporal_graph(n_vertices=14, n_edges=55, n_timestamps=12, seed=seed)
    )


@pytest.mark.parametrize("seed", range(8))
def test_dc_query_equals_online_for_all_params(seed):
    g = _graph(seed)
    idx = DCIndex(mba(g))
    deltas = sorted({int(m) for m in g.triangles().mts} | {0, g.delta_max + 5})
    for k in range(2, idx.kmax + 2):
        for d in deltas:
            assert idx.query(k, d) == online_query(g, k, d), (k, d)


@pytest.mark.parametrize("seed", range(4))
def test_dc_equals_tc_everywhere(seed):
    """Theorem 4: DC-Query ≡ TC-Query."""
    g = _graph(seed + 20)
    table = mba(g)
    tc, dc = TCIndex(table), DCIndex(table)
    for k in range(3, table.kmax + 1):
        for d in range(0, table.delta_max + 2):
            assert tc.query(k, d) == dc.query(k, d), (k, d)


def test_path_union_is_disjoint():
    """IESes along a root path never overlap (incremental storage)."""
    g = TemporalGraph.from_flat(
        triangle_rich_graph(n_cliques=3, clique_size=7, n_timestamps=25, seed=2)
    )
    idx = DCIndex(mba(g))
    for k in range(3, idx.kmax + 1):
        for d in (0, idx.delta_max // 2, idx.delta_max):
            ids = idx.query_ids(k, d)
            assert len(ids) == len(set(int(x) for x in ids)), (k, d)


def test_arborescence_reaches_root():
    g = _graph(9)
    idx = DCIndex(mba(g))
    for key, node in idx.nodes.items():
        seen = set()
        cur = key
        while cur is not None:
            assert cur not in seen  # acyclic
            seen.add(cur)
            cur = idx.nodes[cur].parent
        assert idx.root in seen


def test_space_optimality_dc_leq_tc():
    """DC total stored edges ≤ TC total stored edges (Theorem 3 corollary)."""
    for seed in range(6):
        g = _graph(seed + 40)
        table = mba(g)
        assert DCIndex(table).total_edges() <= TCIndex(table).total_edges()


def test_compression_ratio_well_below_uncompressed():
    """Index entries ≪ Σ_{k,δ}|T_{k,δ}| (the paper's 10⁻⁴-ratio claim shape)."""
    g = TemporalGraph.from_flat(analog("email", sf=0.1, seed=0))
    table = mba(g)
    dc = DCIndex(table)
    total_cells = table.total_truss_cells()
    if total_cells:
        assert dc.total_edges() < total_cells / 10


def test_zero_weight_nodes_removed():
    """Reduction (Def. 8): every kept non-root node stores a non-empty IES."""
    g = _graph(11)
    idx = DCIndex(mba(g))
    for key, node in idx.nodes.items():
        if key != idx.root:
            assert len(node.edge_ids) > 0, key


def test_lookup_rows_cover_all_deltas():
    g = _graph(12)
    idx = DCIndex(mba(g))
    for k, (starts, reps) in idx.rows.items():
        assert starts[0] == 0
        assert starts == sorted(starts)
        assert len(starts) == len(reps)


def test_coarsened_granularity_favors_dc():
    """Fig. 15 effect: merging timestamps (smaller δmax) widens TC − DC gap."""
    flat = analog("email", sf=0.12, seed=2)
    gaps = []
    for merge in (1, 40):
        g = TemporalGraph.from_flat(coarsen_time(flat, merge))
        table = mba(g)
        tc, dc = TCIndex(table), DCIndex(table)
        gaps.append(tc.total_edges() - dc.total_edges())
    assert gaps[1] >= gaps[0]


def test_edge_cases():
    g = _graph(13)
    idx = DCIndex(mba(g))
    assert idx.query(2, 0) == set(g.edges)
    assert idx.query(idx.kmax + 1, math.inf) == set()
    assert idx.query(3, -1) == set()
    assert idx.query(3, math.inf) == online_query(g, 3, math.inf)


@pytest.fixture(scope="module")
def email_table():
    return mba(TemporalGraph.from_flat(analog("email", sf=0.3, seed=7)))


def test_ies_is_truss_minus_parent(email_table):
    """Each kept node stores exactly T(node) \\ T(parent); the root all of T(root)."""
    table = email_table
    idx = DCIndex(table)
    for (k, d), node in idx.nodes.items():
        want = table.truss_edge_ids(k, d)
        if node.parent is not None:
            want = np.setdiff1d(want, table.truss_edge_ids(*node.parent))
        assert np.array_equal(node.edge_ids, want), (k, d)


def test_root_path_is_few_chain_slices(email_table):
    """Heavy-path layout: any root path is ≤ ⌊log₂|nodes|⌋ + 1 contiguous slices."""
    idx = DCIndex(email_table)
    bound = math.floor(math.log2(len(idx.nodes))) + 1
    for j in range(len(idx.nodes)):
        slices = 0
        while j >= 0:
            slices += 1
            j = idx._next[j]
        assert slices <= bound


def test_dc_equals_tc_on_email_analog(email_table):
    """Theorem 4 at analog scale: seeded (k, δ) pairs plus the δ boundaries."""
    table = email_table
    tc, dc = TCIndex(table), DCIndex(table)
    rng = np.random.default_rng(5)
    pairs = [
        (int(rng.integers(3, table.kmax + 1)), int(rng.integers(0, table.delta_max + 1)))
        for _ in range(500)
    ]
    pairs += [
        (k, d)
        for k in range(3, table.kmax + 1)
        for d in (0, table.delta_max, table.delta_max + 1, math.inf)
    ]
    for k, d in pairs:
        assert np.array_equal(np.sort(dc.query_ids(k, d)), np.sort(tc.query_ids(k, d))), (k, d)


def test_query_result_is_read_only(email_table):
    """A DC result is a read-only view (one chain slice) or an owned copy
    (several); writing to it must not reach the index."""
    idx = DCIndex(email_table)
    views = 0
    for k in range(3, idx.kmax + 1):
        for d in (0, idx.delta_max // 2, idx.delta_max):
            ids = idx.query_ids(k, d)
            before = ids.copy()
            if ids.flags.writeable:
                ids[:] = -1
            else:
                views += 1
                with pytest.raises(ValueError):
                    ids[0] = -1
            assert np.array_equal(idx.query_ids(k, d), before), (k, d)
    assert views > 0


def test_bad_query_input_rejected():
    """NaN δ and non-integral k raise; ints, numpy ints and inf are accepted."""
    g = _graph(14)
    idx = DCIndex(mba(g))
    for k, d in ((3, math.nan), (3.5, 10), (np.float64(4.2), 0), (math.inf, 3)):
        with pytest.raises(ValueError):
            idx.query_ids(k, d)
    for k, d in ((3, 10), (np.int64(3), np.int64(10)), (3, math.inf), (4.0, 2)):
        assert idx.query(k, d) == online_query(g, int(k), d), (k, d)
