"""Synthetic temporal-graph generators: determinism, schema, shape."""
import numpy as np
import pandas as pd
import pytest

from repro.tgraph.generators import (
    DATASETS,
    PAPER_TABLE1,
    analog,
    coarsen_time,
    random_temporal_graph,
    triangle_rich_graph,
)
from repro.tgraph.schema import normalize_flat_pdf
from tests.helpers import flat_pdf_to_packed_pdf


def test_all_paper_datasets_have_specs():
    assert set(DATASETS) == set(PAPER_TABLE1)
    assert len(DATASETS) == 8


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_analog_deterministic(name):
    a = analog(name, sf=0.05, seed=3)
    b = analog(name, sf=0.05, seed=3)
    pd.testing.assert_frame_equal(a, b)


def test_analog_seed_sensitivity():
    a = analog("email", sf=0.05, seed=1)
    b = analog("email", sf=0.05, seed=2)
    assert not a.equals(b)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_analog_schema(name):
    f = analog(name, sf=0.03, seed=0)
    assert list(f.columns) == ["u", "v", "t"]
    assert (f["u"] < f["v"]).all()
    assert f["t"].min() >= 0
    assert f["t"].max() < DATASETS[name].n
    assert not f.duplicated().any()


def test_analog_tau_shape():
    # mean timestamps per static edge should track the spec's tau
    for name in ("email", "youtube"):
        f = analog(name, sf=0.2, seed=0)
        packed = flat_pdf_to_packed_pdf(f)
        tau = float(np.mean([len(ts) for ts in packed["ts"]]))
        spec_tau = DATASETS[name].tau
        assert tau == pytest.approx(spec_tau, rel=0.35)


def test_analog_scale_factor_grows_edges():
    small = flat_pdf_to_packed_pdf(analog("superuser", sf=0.02, seed=0))
    large = flat_pdf_to_packed_pdf(analog("superuser", sf=0.08, seed=0))
    assert len(large) > len(small)


def test_random_temporal_graph_bounds():
    f = random_temporal_graph(n_vertices=30, n_edges=60, n_timestamps=10, seed=5)
    packed = flat_pdf_to_packed_pdf(f)
    assert len(packed) <= 60
    assert f["t"].between(0, 9).all()


def test_triangle_rich_graph_has_triangles():
    from repro.triangles.brute import triangles_with_mts

    f = triangle_rich_graph(n_cliques=2, clique_size=6, seed=0)
    assert len(triangles_with_mts(f)) >= 2 * 20  # 2 × C(6,3) ignoring overlap


def test_coarsen_time_shrinks_range():
    f = analog("email", sf=0.05, seed=0)
    c = coarsen_time(f, 20)
    assert c["t"].max() <= f["t"].max() // 20
    # static edge set unchanged
    assert set(map(tuple, c[["u", "v"]].drop_duplicates().values)) == set(
        map(tuple, f[["u", "v"]].drop_duplicates().values)
    )


def test_normalize_flat_orients_and_dedups():
    raw = pd.DataFrame({"u": [2, 1, 3, 3], "v": [1, 2, 3, 4], "t": [5, 5, 1, 2]})
    out = normalize_flat_pdf(raw)
    # (2,1,5) and (1,2,5) collapse; self-loop (3,3) dropped
    assert len(out) == 2
    assert (out["u"] < out["v"]).all()


def test_packed_timestamps_sorted_distinct():
    raw = pd.DataFrame({"u": [1, 2, 1], "v": [2, 1, 2], "t": [9, 9, 3]})
    packed = flat_pdf_to_packed_pdf(raw)
    assert len(packed) == 1
    assert packed["ts"][0] == [3, 9]
