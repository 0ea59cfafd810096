"""Property-based fuzzing of the §VI maintenance pipeline (hypothesis).

The single highest-risk component: randomized graphs × randomized insertion
streams, always compared against a from-scratch rebuild.
"""
import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maintenance import update_kspan_table
from repro.core.mba import mba
from repro.core.model import TemporalGraph
from repro.tgraph.schema import normalize_flat_pdf

from tests.helpers import assert_kspan_fixpoint, span_map


interaction = st.tuples(
    st.integers(0, 9), st.integers(0, 9), st.integers(0, 14)
)


@settings(max_examples=40, deadline=None)
@given(
    base=st.lists(interaction, min_size=5, max_size=60),
    stream=st.lists(interaction, min_size=1, max_size=8),
)
def test_random_streams_equal_rebuild(base, stream):
    flat = normalize_flat_pdf(pd.DataFrame(base, columns=["u", "v", "t"]))
    if len(flat) == 0:
        return
    g = TemporalGraph.from_flat(flat)
    g.triangles()
    table = mba(g)
    for u, v, t in stream:
        if u == v:
            continue
        update_kspan_table(g, table, u, v, t)
        assert_kspan_fixpoint(g, table)
    fresh = mba(TemporalGraph.from_flat(g.to_flat()))
    assert table.kmax == fresh.kmax
    assert span_map(table) == span_map(fresh)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dense_small_world_stream(seed):
    """Denser graphs (more cascades, more promotions) via a seeded sampler."""
    rng = np.random.default_rng(seed)
    n = 8
    rows = []
    for _ in range(70):
        u, v = rng.integers(0, n, 2)
        if u != v:
            rows.append((int(u), int(v), int(rng.integers(0, 10))))
    flat = normalize_flat_pdf(pd.DataFrame(rows, columns=["u", "v", "t"]))
    if len(flat) < 3:
        return
    g = TemporalGraph.from_flat(flat)
    g.triangles()
    table = mba(g)
    for _ in range(6):
        u, v = rng.integers(0, n, 2)
        if u == v:
            continue
        update_kspan_table(g, table, int(u), int(v), int(rng.integers(0, 10)))
        assert_kspan_fixpoint(g, table)
    fresh = mba(TemporalGraph.from_flat(g.to_flat()))
    assert span_map(table) == span_map(fresh)
