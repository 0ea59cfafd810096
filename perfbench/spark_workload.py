"""The `spark` workload: Spark build, Spark Online-Query and the DataFrame
TC scan on email@0.5 in a local[4] session.

BENCHMARK.json does not list it: a run takes about a minute, and across
seeds its `build_s` and `ops_per_s` spread 0.15–0.26 (interquartile range
over median), at or above the widest bound the benchmark may set. It is run
by hand (``--workload spark``, or ``all``) for work on the Spark path.

The session comes from ``repro.sparkutil.get_session``; the settings that
must be fixed before the JVM starts (master, driver memory, scratch
directories inside the checkout, no console progress bars) are passed
through ``PYSPARK_SUBMIT_ARGS``. Each timed Spark call runs under its own
job group, and its jobs, stages and shuffle bytes are read afterwards from
the status tracker and the status store, outside the timer.
"""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro import sparkutil
from repro.core import spark_index
from repro.core.dc_index import DCIndex
from repro.core.online import online_query_spark
from repro.core.spark_index import build_index_spark, tc_query_spark
from repro.core.tc_index import TCIndex
from repro.tgraph.generators import analog
from repro.tgraph.schema import pack_flat
from repro.triangles.enumerate import enumerate_triangles
from spans import NullTracer
from workloads import (GRAPH_SEED, Queries, build_index, now, pct, record_index,
                       record_layers, tc_ids)

ONLINE_DEFAULT_K = 0.3  # the paper's defaults: k = 30 %·kmax, δ = 60 %·δmax
ONLINE_DEFAULT_DELTA = 0.6
SCANS_PER_PASS = 3
WARMUP_PASSES = 2  # Spark calls still speed up after the first pass
QUERIES_PER_CALL = 300  # local TC/DC queries on the Spark-built table after each Spark call
SPAN = {"build": "spark_index.build", "online": "spark.online_query", "scan": "spark.scan"}


def _configure_jvm(out: Path) -> None:
    tmp = out / "tmp"
    local = out / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["SPARK_MASTER"] = "local[4]"
    # 8 shuffle partitions for 4 cores and ~20k rows (get_session's default
    # of 64 spends most of each stage scheduling near-empty tasks)
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = "8"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[4] --driver-memory 1g "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={local} "
        f"--conf spark.sql.warehouse.dir={out / 'warehouse'} "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        "pyspark-shell"
    )
    # Python workers import repro from the checkout's sources.
    src = str(out.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p)


class JobGroups:
    """Job groups for timed calls, and what the jobs in a group did."""

    def __init__(self, sc):
        self.sc = sc
        self.n = 0

    def start(self, label: str) -> str:
        gid = f"{label}-{self.n}"
        self.n += 1
        self.sc.setJobGroup(gid, label)
        return gid

    def account(self, gid: str) -> tuple[int, int, int]:
        """(jobs, stages run, shuffle read + write bytes) of one group."""
        sc = self.sc
        sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)
        tracker = sc.statusTracker()
        store = sc._jsc.sc().statusStore()
        jobs = tracker.getJobIdsForGroup(gid)
        stages, shuffle = 0, 0
        no_status = sc._jvm.java.util.ArrayList()
        no_quantiles = sc._gateway.new_array(sc._jvm.double, 0)
        for j in jobs:
            info = tracker.getJobInfo(j)
            for sid in info.stageIds if info else ():
                it = store.stageData(sid, False, no_status, False, no_quantiles).iterator()
                while it.hasNext():
                    d = it.next()
                    if d.status().toString() == "SKIPPED":
                        continue
                    stages += 1
                    shuffle += d.shuffleReadBytes() + d.shuffleWriteBytes()
        return len(jobs), stages, shuffle


def _stop(spark) -> None:
    """Stop the session and wait until the JVM it started has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


def _count(built):
    """Materialise the index DataFrame ``build_index_spark`` returns."""
    built[1].count()
    return built


def _rows_to_ids(rows, eid) -> np.ndarray:
    return np.fromiter((eid[(r[0], r[1])] for r in rows), dtype=np.int64, count=len(rows))


def spark(run) -> None:
    _configure_jvm(run.out)
    tr = run.tracer
    tr.wrap(spark_index, "temporal_graph_from_spark", "spark_index.graph_from_spark")
    tr.wrap(spark_index, "mba", "spark_index.mba")
    tr.wrap(spark_index, "kspan_table_to_df", "spark_index.table_to_df")
    sf = 0.5 * run.scale
    run.meta.update(analog="email", sf=sf, graph_seed=GRAPH_SEED, master="local[4]")

    t_setup = now()
    with tr.span("sparkutil.session"):
        session = sparkutil.get_session("perfbench")
    try:
        sc = session.sparkContext
        sc.setLogLevel("ERROR")
        groups = JobGroups(sc)
        flat = analog("email", sf=sf, seed=GRAPH_SEED)
        flat = flat.iloc[np.random.default_rng(run.seed).permutation(len(flat))]
        flat_df = session.createDataFrame(flat).cache()
        packed = pack_flat(flat_df).cache()
        edges = packed.select("src", "dst").cache()
        tris = enumerate_triangles(packed).cache()
        tris.count(), edges.count()

        # local reference for the correctness gate (not part of setup_s)
        t_ref = now()
        _g, ref_table, ref_tc, _dc = build_index(flat, NullTracer())
        t_ref = now() - t_ref
        k = max(3, round(ONLINE_DEFAULT_K * ref_table.kmax))
        d = round(ONLINE_DEFAULT_DELTA * ref_table.delta_max)
        want = np.sort(tc_ids(ref_tc, k, d))
        eid = {e: i for i, e in enumerate(ref_table.edges)}

        acct = {"build": [], "online": [], "scan": []}
        lat = {"build": [], "online": [], "scan": []}
        queries = Queries(run, 3)
        local = []  # TC-Index and DC-Index of the latest Spark-built table

        def timed_call(label: str, timed: bool, fn):
            """Run ``fn`` under a job group and return (result, seconds).

            Timed calls record latency and Spark accounting, then take a
            slice of the local queries, all outside the timer."""
            gid = groups.start(label)
            # warm-up spans get their own names: they stay out of the means
            with tr.span(SPAN[label] if timed else f"warmup.{label}"):
                t0 = now()
                out = fn()
                dt = now() - t0
            if timed:
                lat[label].append(dt)
                acct[label].append(groups.account(gid))
                if label == "build":
                    table = out[0]
                    local[:] = [table, TCIndex(table), DCIndex(table)]
                queries.ask(*local, QUERIES_PER_CALL)
            return out, dt

        def one_pass(timed: bool):
            """Build, Online-Query and scans once; returns (busy s, table)."""
            with tr.span("spark.pass"):
                (table, index_df), busy = timed_call(
                    "build", timed, lambda: _count(build_index_spark(flat_df)))
                ok = table.equal(ref_table)
                got, dt = timed_call("online", timed, lambda: _rows_to_ids(
                    online_query_spark(edges, tris, k, d).collect(), eid))
                busy += dt
                ok = ok and np.array_equal(np.sort(got), want)
                for _ in range(SCANS_PER_PASS):
                    got, dt = timed_call("scan", timed, lambda: _rows_to_ids(
                        tc_query_spark(index_df, edges, k, d).collect(), eid))
                    busy += dt
                    ok = ok and np.array_equal(np.sort(got), want)
                index_df.unpersist()
            if timed:
                run.op(ok)
            elif not ok:
                raise RuntimeError("warm-up pass disagrees with the local reference")
            return busy, table

        for _ in range(WARMUP_PASSES):  # JIT, Python workers, cached inputs
            one_pass(timed=False)
        setup_s = now() - t_setup - t_ref

        busy = []
        end = now() + run.seconds
        while now() < end or not busy:
            b, table = one_pass(timed=True)
            busy.append(b)
    finally:
        _stop(session)
        tr.restore()

    run.e2e["setup_s"] = (setup_s, "s", 1)
    run.e2e["build_s"] = (pct(lat["build"], 50), "s", len(lat["build"]))
    run.e2e["ops_per_s"] = (len(busy) / sum(busy), "1/s", len(busy))
    run.extra["query_online_p50_ms"] = (pct(lat["online"], 50) * 1e3, "ms", len(lat["online"]))
    run.extra["query_scan_p50_ms"] = (pct(lat["scan"], 50) * 1e3, "ms", len(lat["scan"]))
    queries.record()
    record_index(run, *local[1:])
    if tr.enabled:
        record_layers(run, ("spark_index.graph_from_spark", "spark_index.mba",
                            "spark_index.table_to_df"), parent="spark_index.build")
        record_layers(run, ("spark.online_query", "spark.scan", "sparkutil.session"))
        for label, cols in (("build", ("", "build_stages_n", "build_shuffle_bytes")),
                            ("online", ("online_jobs_n", "online_stages_n", "online_shuffle_bytes")),
                            ("scan", ("", "scan_stages_n", ""))):
            means = np.mean(np.asarray(acct[label], dtype=np.float64), axis=0)
            for col, value in zip(cols, means):
                if col:
                    run.layers[f"spark.{col}"] = float(value)
