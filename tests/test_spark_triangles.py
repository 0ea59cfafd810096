"""Spark triangle enumeration + mts vs DuckDB oracle and brute force."""
import math

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.tgraph.generators import random_temporal_graph
from repro.tgraph.schema import pack_flat
from repro.triangles.brute import triangles_with_mts
from repro.triangles.enumerate import enumerate_triangles
from tests.helpers import flat_pdf_to_packed_pdf


@pytest.mark.parametrize("seed", range(4))
def test_enumeration_matches_brute(spark, seed):
    flat_pdf = random_temporal_graph(n_vertices=16, n_edges=60, n_timestamps=12, seed=seed)
    packed = pack_flat(spark.createDataFrame(flat_pdf))
    got = [
        (int(r["a"]), int(r["b"]), int(r["c"]), int(r["mts"]))
        for r in enumerate_triangles(packed).collect()
    ]
    expect = triangles_with_mts(flat_pdf)
    assert len(got) == len(expect)  # each triangle emitted exactly once
    assert set(got) == set(expect)


def test_triangle_vertices_against_duckdb_oracle(spark):
    """Static triangle listing (a<b<c) re-expressed in DuckDB SQL."""
    flat_pdf = random_temporal_graph(n_vertices=14, n_edges=55, n_timestamps=8, seed=9)
    packed = pack_flat(spark.createDataFrame(flat_pdf))
    spark_tris = enumerate_triangles(packed).select("a", "b", "c")
    static = flat_pdf[["u", "v"]].drop_duplicates()
    sql = """
        SELECT e1.u AS a, e1.v AS b, e2.v AS c
        FROM static e1
        JOIN static e2 ON e1.u = e2.u AND e1.v < e2.v
        JOIN static e3 ON e3.u = e1.v AND e3.v = e2.v
    """
    assert_equivalent(spark_tris, sql, static=static)


def test_mts_against_duckdb_cross_product(spark):
    """mts per triangle via an all-pairs DuckDB query over the flat table."""
    flat_pdf = random_temporal_graph(n_vertices=12, n_edges=40, n_timestamps=10, seed=3)
    packed = pack_flat(spark.createDataFrame(flat_pdf))
    spark_tris = enumerate_triangles(packed)
    sql = """
        SELECT e1.u AS a, e1.v AS b, e2.v AS c,
               MIN(GREATEST(t1.t, t2.t, t3.t) - LEAST(t1.t, t2.t, t3.t)) AS mts
        FROM (SELECT DISTINCT u, v FROM flat) e1
        JOIN (SELECT DISTINCT u, v FROM flat) e2 ON e1.u = e2.u AND e1.v < e2.v
        JOIN (SELECT DISTINCT u, v FROM flat) e3 ON e3.u = e1.v AND e3.v = e2.v
        JOIN flat t1 ON t1.u = e1.u AND t1.v = e1.v
        JOIN flat t2 ON t2.u = e3.u AND t2.v = e3.v
        JOIN flat t3 ON t3.u = e2.u AND t3.v = e2.v
        GROUP BY 1, 2, 3
    """
    assert_equivalent(spark_tris, sql, flat=flat_pdf)


def test_pack_flat_matches_local_packing(spark):
    flat_pdf = random_temporal_graph(n_vertices=10, n_edges=30, seed=1)
    packed = pack_flat(spark.createDataFrame(flat_pdf)).orderBy("src", "dst").toPandas()
    local = flat_pdf_to_packed_pdf(flat_pdf)
    assert list(map(tuple, packed[["src", "dst"]].values)) == list(
        map(tuple, local[["src", "dst"]].values)
    )
    for a, b in zip(packed["ts"], local["ts"]):
        assert list(a) == list(b)


def test_pack_flat_normalizes(spark):
    raw = spark.createDataFrame(
        pd.DataFrame({"u": [2, 1, 3], "v": [1, 2, 3], "t": [5, 5, 1]})
    )
    packed = pack_flat(raw).collect()
    assert len(packed) == 1  # self-loop dropped, duplicate merged
    assert packed[0]["src"] == 1 and packed[0]["dst"] == 2
    assert list(packed[0]["ts"]) == [5]


@pytest.mark.parametrize("bad", [3.7, float("nan"), float("inf")])
def test_pack_flat_rejects_non_integral_timestamps(spark, bad):
    """Mirrors the local packer: the job reading the frame fails."""
    flat = spark.createDataFrame(pd.DataFrame({"u": [0, 1], "v": [1, 2], "t": [2.0, bad]}))
    with pytest.raises(Exception, match="non-integral or non-finite timestamp"):
        pack_flat(flat).collect()


@pytest.mark.parametrize("col", ["u", "v"])
@pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf"), None])
def test_pack_flat_rejects_non_integral_vertex_ids(spark, col, bad):
    """Mirrors the local packer. A null id fails too, where the self-loop
    filter alone would drop its row."""
    pdf = pd.DataFrame({"u": [0.0, 1.0], "v": [1.0, 2.0], "t": [2, 3]}).astype(object)
    pdf.loc[1, col] = bad
    flat = spark.createDataFrame(pdf, "u double, v double, t long")
    with pytest.raises(Exception, match=f"the {col} column holds a null, non-integral or non-finite vertex id"):
        pack_flat(flat).collect()


def test_pack_flat_accepts_integral_float_and_int32_timestamps(spark):
    """Vertex ids too: float and int32 u, v columns give long src, dst."""
    as_float = pd.DataFrame({"u": [1.0, 1.0, 0.0], "v": [0.0, 2.0, 1.0], "t": [7.0, 2.0, 2.0]})
    as_int32 = as_float.astype(np.int32)
    for flat in (as_float, as_int32):
        packed = pack_flat(spark.createDataFrame(flat)).orderBy("src", "dst").collect()
        assert [(r["src"], r["dst"], list(r["ts"])) for r in packed] == [(0, 1, [2, 7]), (1, 2, [2])]
        assert all(type(r["src"]) is int and type(r["dst"]) is int for r in packed)
