"""Dataset statistics — the columns of the paper's Table I.

|V|, |E|, n, |τ| are single Spark SQL aggregations over the flat/packed
relations (each has a DuckDB-oracle twin in the tests); |∆| comes from the
distributed triangle enumeration; kmax from truss decomposition; δmax is
the largest minimum time span of any triangle.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.decomposition import trussness
from ..core.spark_index import temporal_graph_from_spark
from .schema import pack_flat


def basic_stats(flat: DataFrame) -> dict:
    """|V|, |E|, n, |τ| via Catalyst aggregations."""
    packed = pack_flat(flat)
    row = (
        packed.agg(
            F.count(F.lit(1)).alias("E"),
            F.avg(F.size("ts")).alias("tau"),
        )
        .collect()[0]
    )
    verts = (
        flat.select(F.col("u").alias("x"))
        .unionByName(flat.select(F.col("v").alias("x")))
        .agg(F.countDistinct("x").alias("V"))
        .collect()[0]
    )
    n = flat.agg(F.countDistinct("t").alias("n")).collect()[0]
    return {
        "V": int(verts["V"]),
        "E": int(row["E"]),
        "n": int(n["n"]),
        "tau": float(row["tau"]),
    }


def dataset_stats(spark: SparkSession, flat_pdf: pd.DataFrame) -> dict:
    """All Table I columns for one dataset."""
    flat = spark.createDataFrame(flat_pdf)
    out = basic_stats(flat)
    packed = pack_flat(flat)
    g = temporal_graph_from_spark(packed)  # Spark-enumerated triangles
    tri = g.triangles()
    out["tri"] = int(tri.n)
    trn = trussness(g.m, tri, np.ones(tri.n, bool))
    out["kmax"] = int(trn.max()) if g.m else 2
    out["dmax"] = int(tri.mts.max()) if tri.n else 0
    return out
