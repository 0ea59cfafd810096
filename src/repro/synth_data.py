"""Flat temporal-edge tables as Spark DataFrames.

The paper evaluates on temporal graphs: one row per interaction
``(u, v, t)``. These wrappers expose the synthetic analogs of its eight
evaluation datasets (``repro.tgraph.generators``) and unstructured random
temporal graphs to Spark, at the usual scale-factor convention (tests
SF≈0.01–0.1, benches SF=1). Generators are deterministic in ``seed`` so the
DuckDB oracle and the local (pandas) path see identical input.
"""
from pyspark.sql import DataFrame, SparkSession


def temporal_edges(spark: SparkSession, *, name: str = "email", sf: float = 1.0, seed: int = 7) -> DataFrame:
    """Flat temporal-edge table (u, v, t) for one paper-dataset analog."""
    from .tgraph.generators import analog

    return spark.createDataFrame(analog(name, sf=sf, seed=seed))


def temporal_edges_random(
    spark: SparkSession, *, n_vertices: int, n_edges: int, n_timestamps: int = 32,
    tau: float = 2.0, seed: int = 0,
) -> DataFrame:
    """Flat temporal-edge table for an unstructured random temporal graph."""
    from .tgraph.generators import random_temporal_graph

    return spark.createDataFrame(
        random_temporal_graph(
            n_vertices=n_vertices, n_edges=n_edges,
            n_timestamps=n_timestamps, tau=tau, seed=seed,
        )
    )
