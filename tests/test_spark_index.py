"""Hybrid distributed index construction + DataFrame-resident TC-Query."""
import math

import numpy as np
import pytest

from repro.core.mba import mba
from repro.core.model import TemporalGraph
from repro.core.online import online_query
from repro.core.spark_index import (
    build_index_spark,
    kspan_table_to_df,
    tc_query_spark,
    temporal_graph_from_spark,
)
from repro.core.tc_index import TCIndex
from repro.tgraph.generators import analog, random_temporal_graph, triangle_rich_graph
from repro.tgraph.schema import pack_flat


def test_temporal_graph_from_spark_equals_local(spark):
    flat_pdf = random_temporal_graph(n_vertices=14, n_edges=50, n_timestamps=10, seed=2)
    packed = pack_flat(spark.createDataFrame(flat_pdf))
    g_spark = temporal_graph_from_spark(packed)
    g_local = TemporalGraph.from_flat(flat_pdf)
    assert g_spark.edges == g_local.edges
    ts, tl = g_spark.triangles(), g_local.triangles()
    assert ts.n == tl.n
    spark_set = {tuple(sorted(map(int, ts.tri_e[i]))) + (int(ts.mts[i]),) for i in range(ts.n)}
    local_set = {tuple(sorted(map(int, tl.tri_e[i]))) + (int(tl.mts[i]),) for i in range(tl.n)}
    assert spark_set == local_set


def test_build_index_spark_equals_local_mba(spark):
    flat_pdf = triangle_rich_graph(n_cliques=2, clique_size=6, n_timestamps=15, seed=3)
    table, _df = build_index_spark(spark.createDataFrame(flat_pdf))
    local = mba(TemporalGraph.from_flat(flat_pdf))
    assert table.equal(local)


def test_build_index_spark_forks_bands_beside_live_jvm(spark):
    """On a dense core MBA forks its level bands while this process holds a
    live Spark gateway: the table equals the one-band table, and Spark still
    answers afterwards."""
    flat_pdf = analog("stackoverflow", sf=0.03, seed=7)
    table, index_df = build_index_spark(spark.createDataFrame(flat_pdf))
    assert table.equal(mba(TemporalGraph.from_flat(flat_pdf), workers=1))
    assert index_df.count() == sum(int((s >= 0).sum()) for s in table.spans.values())


def test_tc_query_spark_matches_online(spark):
    flat_pdf = triangle_rich_graph(n_cliques=2, clique_size=7, n_timestamps=20, seed=4)
    flat = spark.createDataFrame(flat_pdf)
    table, index_df = build_index_spark(flat)
    edges = pack_flat(flat).select("src", "dst")
    g = TemporalGraph.from_flat(flat_pdf)
    for k in range(2, table.kmax + 2):
        for d in (0, 3, table.delta_max, math.inf):
            got = {
                (int(r["src"]), int(r["dst"]))
                for r in tc_query_spark(index_df, edges, k, d).collect()
            }
            assert got == online_query(g, k, d), (k, d)


def test_index_df_partitioned_by_k(spark):
    flat_pdf = triangle_rich_graph(n_cliques=2, clique_size=6, seed=5)
    _table, index_df = build_index_spark(spark.createDataFrame(flat_pdf))
    assert set(index_df.columns) == {"k", "kspan", "src", "dst"}
    # the filter should reach the index without a shuffle: one stage scan
    plan = tc_query_spark(index_df, None, 4, 10)._jdf.queryExecution().executedPlan().toString()
    assert "Exchange" not in plan.split("InMemoryTableScan")[0]


def test_tc_query_spark_rejects_bad_query(spark):
    """NaN δ, non-integral k and infinite k raise before any job runs, as
    on TC and DC; ints, numpy ints and δ = inf are accepted."""
    flat_pdf = triangle_rich_graph(n_cliques=3, clique_size=7, n_timestamps=30, seed=4)
    flat = spark.createDataFrame(flat_pdf)
    table, index_df = build_index_spark(flat)
    edges = pack_flat(flat).select("src", "dst")
    for k, d in ((4, math.nan), (3.5, 10), (math.inf, 10)):
        with pytest.raises(ValueError):
            tc_query_spark(index_df, edges, k, d)
    want = TCIndex(table)
    for k, d in ((np.int64(4), np.int64(10)), (4, math.inf)):
        got = {(int(r["src"]), int(r["dst"])) for r in tc_query_spark(index_df, edges, k, d).collect()}
        assert got == want.query(int(k), d), (k, d)
