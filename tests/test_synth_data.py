"""synth_data: flat temporal-edge tables as Spark DataFrames."""
from repro import synth_data


def test_temporal_edges_analog(spark):
    df = synth_data.temporal_edges(spark, name="email", sf=0.05, seed=7)
    assert set(df.columns) == {"u", "v", "t"}
    assert df.count() > 0


def test_temporal_edges_random(spark):
    df = synth_data.temporal_edges_random(spark, n_vertices=20, n_edges=40, seed=1)
    assert set(df.columns) == {"u", "v", "t"}
    rows = df.collect()
    assert all(r["u"] < r["v"] for r in rows)
