"""Index-free (k, δ)-truss query (paper §III, "Online-Query").

Two implementations:

* :func:`online_query` — the paper's algorithm on the driver: compute each
  edge's δ-support, then cascade-peel edges below k−2. For a *fixed* (k, δ)
  the priority queue of the full decomposition degenerates to a stack — the
  result is the unique maximal fixpoint either way.
* :func:`online_query_spark` — the same fixpoint in pure DataFrame algebra
  over a pre-enumerated triangle relation: each round recomputes supports
  with joins/aggregations and drops *all* deficient edges simultaneously
  (equivalent to one-at-a-time peeling; see DESIGN.md §6.1), iterating to
  convergence. This is the distributed baseline the indexes are compared
  against.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .decomposition import peel_to_truss, support
from .model import TemporalGraph


def online_query(g: TemporalGraph, k: int, delta: float) -> set[tuple[int, int]]:
    """Edge set of T_{k,δ} by direct peeling (driver-local, exact)."""
    if k <= 2:
        return set(g.edges)
    tri = g.triangles()
    tri_ok = tri.mts <= delta
    sup_arr = support(g.m, tri.tri_e, tri_ok)
    alive = [True] * g.m
    peel_to_truss(
        alive=alive,
        sup=sup_arr.tolist(),
        tri_edges=tri.tri_edges,
        tri_alive=tri_ok.tolist(),
        edge_tris=tri.edge_tris,
        threshold=k - 2,
        seeds=np.flatnonzero(sup_arr < k - 2).tolist(),
    )
    return {e for e, a in zip(g.edges, alive) if a}


def online_query_spark(
    edges: DataFrame, triangles: DataFrame, k: int, delta: float, *, max_rounds: int = 10_000
) -> DataFrame:
    """Distributed Online-Query.

    Parameters
    ----------
    edges : DataFrame(src, dst)  — static edges, src < dst.
    triangles : DataFrame(a, b, c, mts) — output of
        :func:`repro.triangles.enumerate.enumerate_triangles`; (a,b), (b,c),
        (a,c) are the triangle's edges with a < b < c.
    Returns the surviving edges as DataFrame(src, dst).

    Each round: count, per edge, the valid triangles whose three edges are
    all alive; anti-join away edges with count < k−2; stop when no edge was
    dropped. ``localCheckpoint`` truncates the growing lineage.
    """
    if k <= 2:
        return edges.select("src", "dst")
    alive = edges.select("src", "dst").localCheckpoint()
    tri = (
        triangles.where(F.col("mts") <= F.lit(delta))
        .select("a", "b", "c")
        .localCheckpoint()
    )
    n_alive = alive.count()
    for _ in range(max_rounds):
        if n_alive == 0:
            return alive
        e = alive
        t = (
            tri.join(e.select(F.col("src").alias("a"), F.col("dst").alias("b")), ["a", "b"], "left_semi")
            .join(e.select(F.col("src").alias("b"), F.col("dst").alias("c")), ["b", "c"], "left_semi")
            .join(e.select(F.col("src").alias("a"), F.col("dst").alias("c")), ["a", "c"], "left_semi")
        )
        sup = (
            t.select(
                F.explode(
                    F.array(
                        F.struct(F.col("a").alias("src"), F.col("b").alias("dst")),
                        F.struct(F.col("b").alias("src"), F.col("c").alias("dst")),
                        F.struct(F.col("a").alias("src"), F.col("c").alias("dst")),
                    )
                ).alias("e")
            )
            .select("e.src", "e.dst")
            .groupBy("src", "dst")
            .agg(F.count(F.lit(1)).alias("sup"))
        )
        keep = sup.where(F.col("sup") >= F.lit(k - 2)).select("src", "dst")
        alive = alive.join(keep, ["src", "dst"], "left_semi").localCheckpoint()
        n_after = alive.count()
        if n_after == n_alive:
            return alive
        n_alive = n_after
        # restrict the triangle relation to surviving edges for later rounds
        tri = t.join(
            keep.select(F.col("src").alias("a"), F.col("dst").alias("b")), ["a", "b"], "left_semi"
        ).localCheckpoint()
    raise RuntimeError("online_query_spark did not converge")
