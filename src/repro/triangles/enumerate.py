"""Distributed triangle enumeration with minimum time span.

The classic two-self-join formulation over the oriented edge relation,
entirely in DataFrame algebra so Catalyst plans it (shuffle-hash/sort-merge
joins — the conftest disables broadcast):

1. wedges: edges (a,b) ⋈ edges (a,c) on the shared endpoint a, with b < c;
2. closure: ⋈ edges on (b,c);
3. mts: an Arrow pandas UDF evaluates each batch with
   :func:`repro.triangles.mts.mts_batch` (``max − min`` for all-singleton
   triangles, a blocked numpy successor search for the rest).

Each triangle a < b < c is emitted exactly once.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import LongType

from .mts import mts_batch


@F.pandas_udf(LongType())
def _mts_udf(ab: pd.Series, bc: pd.Series, ac: pd.Series) -> pd.Series:
    """Vectorized (per-batch) minimum time span over three array columns."""
    n = len(ab)
    tri = np.arange(3 * n).reshape(3, n).T
    return pd.Series(mts_batch([*ab, *bc, *ac], tri), dtype="int64")


def enumerate_triangles(packed: DataFrame) -> DataFrame:
    """Packed edges (src, dst, ts) → triangles (a, b, c, mts), a < b < c."""
    e_ab = packed.select(
        F.col("src").alias("a"), F.col("dst").alias("b"), F.col("ts").alias("ts_ab")
    )
    e_ac = packed.select(
        F.col("src").alias("a"), F.col("dst").alias("c"), F.col("ts").alias("ts_ac")
    )
    e_bc = packed.select(
        F.col("src").alias("b"), F.col("dst").alias("c"), F.col("ts").alias("ts_bc")
    )
    wedges = e_ab.join(e_ac, "a").where(F.col("b") < F.col("c"))
    closed = wedges.join(e_bc, ["b", "c"])
    return closed.select(
        "a", "b", "c", _mts_udf("ts_ab", "ts_bc", "ts_ac").alias("mts")
    )

