"""Canonical temporal-graph schema and normalization.

A temporal graph is exchanged between components in one of two layouts:

* **flat**: one row per interaction, columns ``(u, v, t)`` — the on-disk /
  generator layout, and the layout the DuckDB oracle queries run over;
* **packed**: one row per static edge, columns ``(src, dst, ts)`` where
  ``src < dst`` and ``ts`` is the sorted array of *distinct* timestamps —
  the layout the triangle enumerator and all indexes consume.

Normalization maps flat → packed: orient every edge so ``src < dst``, drop
self-loops, and deduplicate + sort timestamps per edge. Timestamps are
integers (the paper uses consecutive naturals 0..n).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def normalize_flat_pdf(pdf: pd.DataFrame) -> pd.DataFrame:
    """Normalize a flat pandas frame: orient u<v, drop self-loops, dedup rows.

    Returns a flat frame with columns ``(u, v, t)``, ``u < v``, no duplicate
    (u, v, t) rows, deterministic row order.
    """
    u = pdf["u"].to_numpy()
    v = pdf["v"].to_numpy()
    lo, hi = u.copy(), v.copy()
    swap = u > v
    lo[swap], hi[swap] = v[swap], u[swap]
    out = pd.DataFrame({"u": lo, "v": hi, "t": pdf["t"].to_numpy()})
    out = out[out["u"] != out["v"]]
    return (
        out.drop_duplicates()
        .sort_values(["u", "v", "t"])
        .reset_index(drop=True)
        .astype({"u": "int64", "v": "int64", "t": "int64"})
    )


def pack_flat(flat: DataFrame) -> DataFrame:
    """Flat Spark frame → packed Spark frame (src<dst, sorted distinct ts).

    Pure DataFrame ops so Catalyst plans the whole normalization: orient,
    filter self-loops, and aggregate timestamps with ``sort_array(collect_set)``.
    """
    lo = F.least("u", "v").alias("src")
    hi = F.greatest("u", "v").alias("dst")
    return (
        flat.where(F.col("u") != F.col("v"))
        .select(lo, hi, F.col("t").cast("long").alias("t"))
        .groupBy("src", "dst")
        .agg(F.sort_array(F.collect_set("t")).alias("ts"))
    )


def pack_flat_pdf(pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Driver-local flat → packed conversion, on arrays (mirrors :func:`pack_flat`).

    Returns ``(src, dst, ts)``: the oriented static edges in ``(src, dst)``
    order and, per edge, its sorted distinct timestamps (views into one
    int64 array). A float ``t`` column must hold only finite integral
    values, or ``ValueError`` is raised; int columns are taken as they are.
    """
    t = pdf["t"].to_numpy()
    if t.dtype.kind == "f" and not (np.isfinite(t).all() and (t % 1 == 0).all()):
        raise ValueError("the t column holds a non-integral or non-finite timestamp")
    u = pdf["u"].to_numpy(dtype=np.int64)
    v = pdf["v"].to_numpy(dtype=np.int64)
    t = t.astype(np.int64, copy=False)
    keep = u != v
    lo, hi, t = np.minimum(u, v)[keep], np.maximum(u, v)[keep], t[keep]
    order = np.lexsort((t, hi, lo))
    lo, hi, t = lo[order], hi[order], t[order]
    # first row of each (src, dst) run, then of each (src, dst, t) run
    new_edge = np.ones(len(t), dtype=bool)
    new_edge[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    new_row = new_edge.copy()
    new_row[1:] |= t[1:] != t[:-1]
    lo, hi, t, new_edge = lo[new_row], hi[new_row], t[new_row], new_edge[new_row]
    starts = np.flatnonzero(new_edge)
    bounds = starts.tolist() + [len(t)]
    return lo[starts], hi[starts], [t[a:b] for a, b in zip(bounds, bounds[1:])]
