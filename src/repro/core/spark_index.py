"""Distributed construction and DataFrame-resident index (DESIGN.md S13).

Division of labour (DESIGN.md §2, "Layering decisions"):

* Spark (Catalyst) does the *data-parallel* work over partitioned temporal
  edges: normalization, triangle enumeration and minimum-time-span
  evaluation — the stages whose cost is driven by |E| and |∆|.
* Static truss decomposition and the MBA δ-sweep are sequential cascades;
  they run in-process over the collected Spark triangle relation (PySpark
  has no GraphX API, and a round per peeling level — or per δ, δmax ≈ 2000
  — would be pure scheduler overhead). The distributed peeling fixpoint is
  :func:`repro.core.online.online_query_spark`, the paper's index-free
  baseline.
* The finished k-span table is published back as a DataFrame partitioned
  by k; TC-Query then *is* a Catalyst filter — the predicate
  ``k = K AND kspan <= δ`` prunes to one partition and scans only rows
  that belong to the answer, mirroring TC-Query's suffix-scan optimality.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..tgraph.schema import pack_flat
from ..triangles.enumerate import enumerate_triangles
from .kspan import KspanTable, check_query
from .mba import mba
from .model import EdgeKeys, TemporalGraph, TriangleStore


def temporal_graph_from_spark(packed: DataFrame) -> TemporalGraph:
    """Driver model whose triangle store was computed *by Spark*.

    Collects the packed edges and the Spark-enumerated triangle relation,
    then builds the TriangleStore from them (no local re-enumeration).
    """
    edges_pdf = packed.orderBy("src", "dst").toPandas()
    tri_pdf = enumerate_triangles(packed).toPandas()
    edges = list(zip(edges_pdf["src"].astype(int), edges_pdf["dst"].astype(int)))
    times = [np.asarray(sorted(ts), dtype=np.int64) for ts in edges_pdf["ts"]]
    g = TemporalGraph(edges, times)
    if len(tri_pdf):
        # one labelling of the edges' and the triangles' vertex ids, so that
        # a pair that is not an edge misses instead of aliasing one
        ids = [np.array(edges, dtype=np.int64).ravel()]
        ids += [tri_pdf[x].to_numpy(dtype=np.int64) for x in "abc"]
        verts, lab = np.unique(np.concatenate(ids), return_inverse=True)
        uv, a, b, c = np.split(lab.ravel(), np.cumsum([len(x) for x in ids[:-1]]))
        keys = EdgeKeys(uv[0::2], uv[1::2], len(verts))
        tri_e = np.stack([keys.find(a, b), keys.find(b, c), keys.find(a, c)], axis=1)
        if (tri_e < 0).any():
            raise RuntimeError("Spark listed a triangle over a pair that is not a packed edge")
        mts = tri_pdf["mts"].to_numpy(dtype=np.int64)
    else:
        tri_e = np.zeros((0, 3), dtype=np.int64)
        mts = np.zeros(0, dtype=np.int64)
    g._tri = TriangleStore.build(tri_e, mts, g.m)
    return g


def build_index_spark(flat: DataFrame) -> tuple[KspanTable, DataFrame]:
    """Hybrid distributed index construction.

    flat (u, v, t) → packed edges (Catalyst) → triangles + mts (Catalyst)
    → MBA δ-sweep on the driver, its level bands on every driver core →
    k-span table DataFrame partitioned by k.
    """
    packed = pack_flat(flat)
    g = temporal_graph_from_spark(packed)
    table = mba(g)
    return table, kspan_table_to_df(flat.sparkSession, table)


def kspan_table_to_df(spark: SparkSession, table: KspanTable) -> DataFrame:
    """Publish the k-span table as DataFrame(k, kspan, src, dst), hash-
    partitioned by k so a TC-Query scan touches a single partition group."""
    levels = list(range(3, table.kmax + 1))
    ids = [np.flatnonzero(table.spans[k] >= 0) for k in levels]
    counts = [len(i) for i in ids]
    if not sum(counts):
        return spark.createDataFrame([], "k long, kspan long, src long, dst long")
    ends = np.array(table.edges, dtype=np.int64)[np.concatenate(ids)]
    pdf = pd.DataFrame({
        "k": np.repeat(np.array(levels, dtype=np.int64), counts),
        "kspan": np.concatenate([table.spans[k][i] for k, i in zip(levels, ids)]),
        "src": ends[:, 0],
        "dst": ends[:, 1],
    })
    df = spark.createDataFrame(pdf)
    return df.repartition("k").sortWithinPartitions(F.desc("kspan")).cache()


def tc_query_spark(index_df: DataFrame, edges: DataFrame, k: int, delta: float) -> DataFrame:
    """TC-Query as a Catalyst filter on the DataFrame-resident index.

    ``edges`` (src, dst) is needed only for the k ≤ 2 degenerate case
    (the whole graph, which the index does not store). A non-integral k or
    a NaN δ raises ``ValueError``, as on TC and DC: Spark orders NaN above
    every number, so ``kspan <= NaN`` would return the static k-truss.
    """
    check_query(k, delta)
    if k <= 2:
        return edges.select("src", "dst")
    return index_df.where(
        (F.col("k") == F.lit(k)) & (F.col("kspan") <= F.lit(delta))
    ).select("src", "dst")
