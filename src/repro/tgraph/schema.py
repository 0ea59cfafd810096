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

    Returns a flat int64 frame with columns ``(u, v, t)``, ``u < v``, no
    duplicate (u, v, t) rows, sorted by (u, v, t). A null, non-finite or
    non-integral ``u``, ``v`` or ``t`` raises ``ValueError``, as in
    :func:`pack_flat_pdf`.
    """
    u, v, t, _ = _canonical_rows(pdf)
    return pd.DataFrame({"u": u, "v": v, "t": t})


def _whole(name: str, what: str):
    """Column ``name`` cast to long, or a job failure on a null, non-finite
    or non-integral value (t − floor(t) is NaN for ±inf and NaN, and
    non-zero for a fraction)."""
    c = F.col(name)
    bad = c.isNull() | (c - F.floor(c) != 0)
    msg = F.lit(f"the {name} column holds a null, non-integral or non-finite {what}")
    return F.when(bad, F.raise_error(msg)).otherwise(c.cast("long")).alias(name)


def pack_flat(flat: DataFrame) -> DataFrame:
    """Flat Spark frame → packed Spark frame (src<dst, sorted distinct ts).

    Pure DataFrame ops so Catalyst plans the whole normalization: orient,
    filter self-loops, and aggregate timestamps with ``sort_array(collect_set)``.
    A null, non-finite or non-integral ``u``, ``v`` or ``t`` fails the job
    that first reads the frame (as :func:`pack_flat_pdf` raises
    ``ValueError``): the check sits in the projection, so it costs no job of
    its own.
    """
    checked = flat.select(_whole("u", "vertex id"), _whole("v", "vertex id"), _whole("t", "timestamp"))
    return (
        checked.where(F.col("u") != F.col("v"))
        .select(F.least("u", "v").alias("src"), F.greatest("u", "v").alias("dst"), "t")
        .groupBy("src", "dst")
        .agg(F.sort_array(F.collect_set("t")).alias("ts"))
    )


def _whole_pdf(pdf: pd.DataFrame, name: str, what: str) -> np.ndarray:
    """Column ``name`` as int64; ``ValueError`` if it is a float column with
    a non-finite or non-integral value."""
    x = pdf[name].to_numpy()
    if x.dtype.kind == "f" and not (np.isfinite(x).all() and (x % 1 == 0).all()):
        raise ValueError(f"the {name} column holds a non-integral or non-finite {what}")
    return x.astype(np.int64, copy=False)


def _canonical_rows(pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of ``pdf`` oriented u < v, self-loops dropped,
    sorted by (u, v, t), as int64 columns ``(u, v, t)``, and a mask of the
    rows that start a new (u, v) edge."""
    u = _whole_pdf(pdf, "u", "vertex id")
    v = _whole_pdf(pdf, "v", "vertex id")
    t = _whole_pdf(pdf, "t", "timestamp")
    keep = u != v
    lo, hi, t = np.minimum(u, v)[keep], np.maximum(u, v)[keep], t[keep]
    order = np.lexsort((t, hi, lo))
    lo, hi, t = lo[order], hi[order], t[order]
    # first row of each (u, v) run, then of each (u, v, t) run
    new_edge = np.ones(len(t), dtype=bool)
    new_edge[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    new_row = new_edge.copy()
    new_row[1:] |= t[1:] != t[:-1]
    return lo[new_row], hi[new_row], t[new_row], new_edge[new_row]


def pack_flat_pdf(pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Driver-local flat → packed conversion, on arrays (mirrors :func:`pack_flat`).

    Returns ``(src, dst, ts)``: the oriented static edges in ``(src, dst)``
    order and, per edge, its sorted distinct timestamps (views into one
    int64 array). A float ``u``, ``v`` or ``t`` column must hold only finite
    integral values (a null is NaN there), or ``ValueError`` is raised; int
    columns are taken as they are.
    """
    lo, hi, t, new_edge = _canonical_rows(pdf)
    starts = np.flatnonzero(new_edge)
    bounds = starts.tolist() + [len(t)]
    return lo[starts], hi[starts], [t[a:b] for a, b in zip(bounds, bounds[1:])]

