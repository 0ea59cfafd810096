"""Fig. 10 shape — query latency: Online-Query vs TC-Query vs DC-Query.

Paper claim: the index-based queries answer in interactive time, 2–4 orders
of magnitude faster than the index-free Online-Query, at the default
parameters k = 30%·kmax, δ = 60%·δmax. Every path is timed under one output
contract: an owned int64 edge-id array.
"""
import numpy as np
import pytest

from repro.tables.perf import default_params, index_ids, online_ids

BENCH = [("email", 1.0), ("youtube", 0.5), ("wikitalk", 0.5), ("stackoverflow", 0.3)]
IDS = [f"{n}@{sf}" for n, sf in BENCH]


@pytest.mark.parametrize("name,sf", BENCH, ids=IDS)
def test_online_query(benchmark, built, name, sf):
    g, table, _tc, _dc = built(name, sf)
    k, d = default_params(table)
    result = benchmark.pedantic(lambda: online_ids(g, k, d), rounds=3, iterations=1)
    assert len(result) == table.truss_size(k, d)


@pytest.mark.parametrize("name,sf", BENCH, ids=IDS)
def test_tc_query(benchmark, built, name, sf):
    _g, table, tc, _dc = built(name, sf)
    k, d = default_params(table)
    result = benchmark(lambda: index_ids(tc, k, d))
    assert len(result) == table.truss_size(k, d)


@pytest.mark.parametrize("name,sf", BENCH, ids=IDS)
def test_dc_query(benchmark, built, name, sf):
    _g, table, tc, dc = built(name, sf)
    k, d = default_params(table)
    result = benchmark(lambda: index_ids(dc, k, d))
    assert np.array_equal(np.sort(result), np.sort(index_ids(tc, k, d)))
