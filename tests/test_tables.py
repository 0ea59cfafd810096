"""Table/case-study/perf harnesses produce well-formed, claim-shaped rows."""
import math

import numpy as np
import pytest

from repro.tables.case_study import PAPER_CASE_STUDY, case_study, subgraph_metrics
from repro.tables.perf import (
    build_all,
    construction_times,
    default_params,
    granularity_comparison,
    index_ids,
    maintenance_times,
    online_ids,
    query_latency,
)
from repro.tables.table2 import PAPER_TABLE2, index_stats_row, table2


def test_case_study_shape():
    df = case_study(sf=0.6, seed=7)
    assert list(df["delta"]) == ["inf", 200, 150, 100]
    # trusses shrink as δ tightens
    assert df["edges"].is_monotonic_decreasing
    assert df["vertices"].is_monotonic_decreasing
    # duration of the whole truss barely changes (the paper's key point)
    d = df[df["edges"] > 0]["duration"]
    if len(d) > 1:
        assert d.max() - d.min() <= 0.1 * d.max()
    assert set(PAPER_CASE_STUDY.columns) <= set(df.columns) | {"k"}


def test_subgraph_metrics_triangle_counting():
    # a single triangle: 3 vertices, cc 1.0
    from repro.core.model import TemporalGraph
    import pandas as pd

    g = TemporalGraph.from_flat(
        pd.DataFrame({"u": [0, 1, 0], "v": [1, 2, 2], "t": [0, 5, 9]})
    )
    m = subgraph_metrics(g, set(g.edges))
    assert m == {
        "vertices": 3,
        "edges": 3,
        "triangles": 1,
        "coefficient": 1.0,
        "duration": 9,
    }


def test_table2_row_invariants():
    row = index_stats_row("email", sf=0.3, seed=7)
    assert row["dc_total"] <= row["tc_total"]  # Theorem 3 corollary
    assert row["compression"] < 0.2  # far below storing all trusses
    assert row["ratio"] >= 1.0  # index stores each edge at least once
    assert row["avg_entry"] > 0 and row["space_mb"] > 0


def test_table2_multiple_datasets():
    df = table2(sf=0.15, seed=7, datasets=["email", "askubuntu", "superuser"])
    assert sorted(df["dataset"]) == ["askubuntu", "email", "superuser"]
    assert (df["dc_total"] <= df["tc_total"]).all()
    assert set(PAPER_TABLE2) == {
        "email", "mathoverflow", "askubuntu", "superuser",
        "wikitalk", "youtube", "stackoverflow", "wikipedia",
    }


def test_query_latency_orders_of_magnitude():
    """The headline claim at small scale: indexes beat Online-Query big."""
    row = query_latency("email", sf=0.6, seed=7, reps=30, online_reps=3)
    assert row["truss_edges"] > 0
    assert row["online_s"] > 10 * row["tc_s"]
    assert row["online_s"] > row["dc_s"]


def test_construction_mba_not_slower_than_dba():
    """Fig. 14 claim (shape): MBA ≤ DBA, with slack for timer noise."""
    row = construction_times("email", sf=0.5, seed=7)
    assert row["mba_s"] <= row["dba_s"] * 1.2


def test_granularity_dc_advantage_grows():
    df = granularity_comparison("email", sf=0.4, seed=7, merges=(1, 40))
    assert (df["dc_total"] <= df["tc_total"]).all()
    assert df["delta_max"].iloc[1] < df["delta_max"].iloc[0]
    assert df["saving_pct"].iloc[1] >= df["saving_pct"].iloc[0]


def test_maintenance_faster_than_rebuild():
    """Fig. 16 claim (shape): per-insert maintenance ≪ rebuild."""
    row = maintenance_times("email", sf=0.4, seed=7, n_updates=10, rebuilds=1)
    assert row["tc_im_s"] < row["rebuild_s"]
    assert row["dc_im_s"] < row["rebuild_s"]
    # Fig. 16(b): both distributions, split by insertion kind
    assert row["ts_n"] + row["edge_n"] == row["updates"]
    for kind in ("ts", "edge"):
        for im in ("tc", "dc"):
            if row[f"{kind}_n"]:
                assert 0 < row[f"{kind}_{im}_p50_s"] <= row[f"{kind}_{im}_p90_s"]


#: analogs on which the Fig. 10 paths are compared at the default (k, δ)
DEFAULT_PARAM_GRAPHS = [("email", 0.3), ("youtube", 0.1), ("wikitalk", 0.1), ("stackoverflow", 0.1)]


def test_default_params_track_paper():
    """The defaults follow the paper, and at them Online ≡ TC ≡ DC under the
    shared int64-id output contract, each of |T_{k,δ}| edges."""
    for name, sf in DEFAULT_PARAM_GRAPHS:
        g, table, tc, dc = build_all(name, sf=sf, seed=7)
        k, d = default_params(table)
        assert k == max(3, round(0.3 * table.kmax))
        assert d == round(0.6 * table.delta_max)
        want = np.sort(index_ids(tc, k, d))
        assert len(want) == table.truss_size(k, d) > 0, name
        assert np.array_equal(np.sort(online_ids(g, k, d)), want), name
        assert np.array_equal(np.sort(index_ids(dc, k, d)), want), name


def test_table1_spark(spark):
    from repro.tables.table1 import format_table, table1, table1_with_paper

    from repro.tgraph.generators import DATASETS

    df = table1(spark, sf=0.15, seed=7, datasets=["email", "youtube", "askubuntu"])
    assert list(df.columns) == ["dataset", "V", "E", "n", "tau", "tri", "kmax", "dmax"]
    assert (df["kmax"] >= 3).all()
    # δmax is bounded by the time axis (spec n), not by the count of
    # occupied ticks (df["n"]), which at small sf undercounts the axis
    spec_n = df["dataset"].map(lambda d: DATASETS[d].n)
    assert (df["dmax"] < spec_n).all()
    merged = table1_with_paper(df)
    assert "kmax_paper" in merged.columns
    assert "email" in format_table(df)
