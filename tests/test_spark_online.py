"""Distributed Online-Query (the paper's index-free baseline) ≡ local."""
import math

import numpy as np
import pytest

from repro.core.model import TemporalGraph
from repro.core.online import online_query, online_query_spark
from repro.tgraph.generators import random_temporal_graph, triangle_rich_graph
from repro.tgraph.schema import pack_flat
from repro.triangles.enumerate import enumerate_triangles


def _spark_inputs(spark, flat_pdf):
    packed = pack_flat(spark.createDataFrame(flat_pdf))
    edges = packed.select("src", "dst")
    tris = enumerate_triangles(packed)
    return edges, tris


@pytest.mark.parametrize("k,delta", [(3, 2), (4, 5), (4, math.inf), (5, 0)])
def test_online_spark_matches_local(spark, k, delta):
    flat_pdf = triangle_rich_graph(n_cliques=2, clique_size=7, n_timestamps=12, seed=1)
    edges, tris = _spark_inputs(spark, flat_pdf)
    got = {(int(r["src"]), int(r["dst"])) for r in online_query_spark(edges, tris, k, delta).collect()}
    g = TemporalGraph.from_flat(flat_pdf)
    assert got == online_query(g, k, delta)


def test_online_spark_random_graph(spark):
    flat_pdf = random_temporal_graph(n_vertices=15, n_edges=60, n_timestamps=10, seed=4)
    edges, tris = _spark_inputs(spark, flat_pdf)
    g = TemporalGraph.from_flat(flat_pdf)
    for k, d in [(3, 4), (4, 8)]:
        got = {
            (int(r["src"]), int(r["dst"]))
            for r in online_query_spark(edges, tris, k, d).collect()
        }
        assert got == online_query(g, k, d), (k, d)


def test_online_spark_k2(spark):
    flat_pdf = random_temporal_graph(n_vertices=8, n_edges=16, seed=0)
    edges, tris = _spark_inputs(spark, flat_pdf)
    assert online_query_spark(edges, tris, 2, 0).count() == edges.count()


def test_bad_query_input_rejected(spark):
    """NaN δ and non-integral k raise before any job runs; ints, numpy ints
    and inf are accepted and match the local Online-Query."""
    flat_pdf = random_temporal_graph(n_vertices=10, n_edges=30, n_timestamps=8, seed=2)
    edges, tris = _spark_inputs(spark, flat_pdf)
    for k, d in ((3, math.nan), (3.5, 10), (np.float64(4.2), 0), (math.inf, 3)):
        with pytest.raises(ValueError):
            online_query_spark(edges, tris, k, d)
    g = TemporalGraph.from_flat(flat_pdf)
    for k, d in ((np.int64(3), np.int64(4)), (4.0, math.inf)):
        got = {(int(r["src"]), int(r["dst"])) for r in online_query_spark(edges, tris, k, d).collect()}
        assert got == online_query(g, int(k), d), (k, d)
