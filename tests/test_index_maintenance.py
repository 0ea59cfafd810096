"""TC-IM and DC-IM hold exactly the index a fresh build gives, after every
insertion of a mixed stream — including the insertions that leave every
k-span as it was and so patch nothing. (The dense-core reinsertion in
``test_maintenance.py`` applies the same check.)"""
import numpy as np
import pytest

from repro.core.dc_index import DCIndex
from repro.core.maintainers import DCMaintainer, TCMaintainer
from repro.core.mba import mba
from repro.core.model import TemporalGraph
from repro.core.tc_index import TCIndex
from repro.tgraph.generators import analog

from tests.helpers import assert_same_maps, assert_same_tree


def test_mathoverflow_stream_keeps_fresh_indexes():
    """80 held-out mathoverflow rows: timestamp and edge insertions, some of
    which change no k-span and leave DC-IM's tree in place."""
    flat = analog("mathoverflow", sf=0.2, seed=7)
    held = np.random.default_rng(3).choice(len(flat), size=80, replace=False)
    g = TemporalGraph.from_flat(flat.drop(flat.index[held]))
    g.triangles()
    tcm, dcm = TCMaintainer(g.copy()), DCMaintainer(g.copy())
    kinds, kept = [], 0
    for u, v, t in flat.iloc[held][["u", "v", "t"]].itertuples(index=False):
        before = dcm.index
        kinds.append(tcm.insert(int(u), int(v), int(t)).kind)
        assert dcm.insert(int(u), int(v), int(t)).kind == kinds[-1]
        kept += dcm.index is before
        assert_same_tree(dcm.index, DCIndex(dcm.table))
        assert_same_maps(tcm.index, TCIndex(tcm.table))
    assert tcm.table.equal(dcm.table)
    assert "ts" in kinds and "edge" in kinds
    assert 0 < kept < len(kinds)


@pytest.fixture(scope="module")
def email_table():
    return mba(TemporalGraph.from_flat(analog("email", sf=0.3, seed=7)))


def test_nodes_same_before_and_after_queries(email_table):
    """``nodes`` and ``rows`` are made on first access; reading them before
    or after queries gives the same tree, and queries agree either way."""
    first, later = DCIndex(email_table), DCIndex(email_table)
    assert first.nodes and first.rows
    rng = np.random.default_rng(1)
    pairs = [
        (int(rng.integers(3, email_table.kmax + 1)), int(rng.integers(0, email_table.delta_max + 1)))
        for _ in range(200)
    ]
    for k, d in pairs:
        assert np.array_equal(later.query_ids(k, d), first.query_ids(k, d)), (k, d)
    assert_same_tree(later, first)
    assert later.nodes is later.nodes and later.rows is later.rows
