"""The local workloads (build, query, maintain) and what they share.

Every workload is a closed loop with one client: the next operation starts
after the previous one returned and its answer was checked. Checks run
outside the timers; a wrong answer counts as a failed operation.

Graphs are the repository's synthetic analogs at one fixed generator seed
(``GRAPH_SEED``), and the rows ``maintain`` removes and reinserts are fixed
with them, so that a run's figures do not move with the graph. The workload
seed (``--seed``) makes the rest of the input: the arrival order of the rows
on ``build`` and ``spark``, the (k, δ) streams, and the reinsertion order on
``maintain``.

A query is timed until it returns a materialised int64 edge-id array that
the caller owns: a copy for TC and DC, whose results can be views into the
index, and the Online edge set converted through ``g.eid``.

The machine the benchmark runs on may be shared, and its speed drifts over
seconds, so query samples are taken between a workload's own operations
throughout the run rather than in one burst.
"""
from __future__ import annotations

import bisect
import time

import numpy as np

from repro.core import maintainers as maintainers_mod
from repro.core import mba as mba_mod
from repro.core import online as online_mod
from repro.core.dc_index import DCIndex
from repro.core.kspan import KspanTable
from repro.core.maintainers import DCMaintainer, TCMaintainer
from repro.core.model import TemporalGraph
from repro.core.tc_index import TCIndex
from repro.tgraph.generators import analog
from spans import NullTracer

GRAPH_SEED = 7
SETUP_REPEATS = 3  # setup_s and, on query/maintain, build_s are medians of these
PROBE_PER_BUILD = 700  # TC/DC queries on each index `build` makes
ONLINE_EVERY = 32  # on `query`, every 32nd request also runs Online-Query
VICTIMS = 12  # rows `maintain` removes and reinserts, once per round
QUERIES_PER_INSERT = 15  # TC/DC queries on the maintained indexes after each insertion

now = time.perf_counter


# -- shared helpers ------------------------------------------------------------
def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tc_ids(tc: TCIndex, k: int, d: int) -> np.ndarray:
    return np.array(tc.query_ids(k, d), dtype=np.int64)


def dc_ids(dc: DCIndex, k: int, d: int) -> np.ndarray:
    return np.array(dc.query_ids(k, d), dtype=np.int64)


def online_ids(g: TemporalGraph, k: int, d: int, tr) -> np.ndarray:
    edges = online_mod.online_query(g, k, d)
    with tr.span("online.to_ids"):
        return np.fromiter((g.eid[e] for e in edges), dtype=np.int64, count=len(edges))


def same_ids(a: np.ndarray, b: np.ndarray) -> bool:
    return len(a) == len(b) and np.array_equal(np.sort(a), np.sort(b))


def draw(rng, table: KspanTable) -> tuple[int, int]:
    """(k, δ) uniform over [3, kmax] × [0, δmax]."""
    return int(rng.integers(3, table.kmax + 1)), int(rng.integers(0, table.delta_max + 1))


class Queries:
    """TC and DC query latencies; every answer is checked against the other
    index and against the k-span table."""

    def __init__(self, run, salt: int):
        self.run = run
        self.rng = np.random.default_rng((run.seed, salt))
        self.tc: list[float] = []
        self.dc: list[float] = []

    def one(self, table: KspanTable, tc: TCIndex, dc: DCIndex):
        """One seeded (k, δ) on both indexes → (k, δ, TC answer, correct)."""
        k, d = draw(self.rng, table)
        t0 = now()
        a = tc_ids(tc, k, d)
        t1 = now()
        b = dc_ids(dc, k, d)
        t2 = now()
        self.tc.append(t1 - t0)
        self.dc.append(t2 - t1)
        return k, d, a, same_ids(a, b) and len(a) == table.truss_size(k, d)

    def ask(self, table: KspanTable, tc: TCIndex, dc: DCIndex, n: int) -> None:
        for _ in range(n):
            self.run.op(self.one(table, tc, dc)[3])

    def record(self) -> None:
        for name, lat in (("tc", self.tc), ("dc", self.dc)):
            self.run.e2e[f"query_{name}_p50_us"] = (pct(lat, 50) * 1e6, "us", len(lat))
            self.run.e2e[f"query_{name}_p99_us"] = (pct(lat, 99) * 1e6, "us", len(lat))


def build_table(flat, tr) -> tuple[TemporalGraph, KspanTable]:
    """Flat (u, v, t) rows → graph with its triangles → k-span table."""
    with tr.span("schema.from_flat"):
        g = TemporalGraph.from_flat(flat)
    with tr.span("model.triangles"):
        g.triangles()
    with tr.span("mba.sweep"):
        table = mba_mod.mba(g)
    return g, table


def build_index(flat, tr):
    """Flat (u, v, t) rows → graph, k-span table, TC-Index and DC-Index."""
    with tr.span("build"):
        g, table = build_table(flat, tr)
        with tr.span("tc_index.build"):
            tc = TCIndex(table)
        with tr.span("dc_index.build"):
            dc = DCIndex(table)
    return g, table, tc, dc


def wrap_build_layers(tr) -> None:
    tr.wrap(mba_mod, "trussness", "decomposition.trussness")


def record_setup(run, setups, builds) -> None:
    run.e2e["setup_s"] = (pct(setups, 50), "s", len(setups))
    run.e2e["build_s"] = (pct(builds, 50), "s", len(builds))


def record_index(run, tc: TCIndex, dc: DCIndex) -> None:
    run.e2e["index_bytes"] = (tc.space_bytes() + dc.space_bytes(), "bytes", 1)
    run.layers.update({
        "tc_index.bytes": tc.space_bytes(),
        "tc_index.total_edges": tc.total_edges(),
        "dc_index.bytes": dc.space_bytes(),
        "dc_index.total_edges": dc.total_edges(),
        "dc_index.nodes_n": len(dc.nodes),
    })


TABLE_LAYERS = ("schema.from_flat", "model.triangles", "decomposition.trussness", "mba.sweep")
BUILD_LAYERS = TABLE_LAYERS + ("tc_index.build", "dc_index.build")


def record_layers(run, names, parent: str | None = None) -> None:
    """Mean self time per call of each traced layer (0.0 when it never ran)."""
    times = run.tracer.self_times(parent)
    for name in names:
        total, n = times.get(name, (0.0, 0))
        run.layers[f"{name}_s"] = total / n if n else 0.0


def graph_counts(run, g: TemporalGraph) -> None:
    """Work counts of the build layers, read from their outputs."""
    tri = g.triangles()
    single = np.fromiter((len(t) == 1 for t in g.times), dtype=bool, count=g.m)
    run.layers["model.triangles_n"] = tri.n
    run.layers["model.singleton_tau_frac"] = (
        float(single[tri.tri_e].all(axis=1).mean()) if tri.n else 0.0
    )
    run.layers["mba.triangles_swept_n"] = int((tri.mts > 0).sum())


# -- workload: build -----------------------------------------------------------
def build(run) -> None:
    """Cold builds of stackoverflow@1: flat rows → TC-Index + DC-Index."""
    sf = 1.0 * run.scale
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        flat = analog("stackoverflow", sf=sf, seed=GRAPH_SEED)
        flat = flat.iloc[np.random.default_rng(run.seed).permutation(len(flat))]
        setups.append(now() - t0)
    run.meta.update(analog="stackoverflow", sf=sf, graph_seed=GRAPH_SEED)

    # A traced run alternates untraced and traced builds, so that the
    # tracing overhead is measured against builds made alongside it.
    tr = run.tracer
    untraced, traced = [], []
    queries = Queries(run, 1)
    ref = None
    end = now() + run.seconds
    while now() < end or not untraced or (tr.enabled and not traced):
        use_trace = tr.enabled and len(traced) < len(untraced)
        if use_trace:
            wrap_build_layers(tr)
        t0 = now()
        g, table, tc, dc = build_index(flat, tr if use_trace else NullTracer())
        dt = now() - t0
        tr.restore()
        (traced if use_trace else untraced).append(dt)
        if ref is None:
            ref = table
        run.op(table.equal(ref))
        queries.ask(table, tc, dc, PROBE_PER_BUILD)
    builds = traced if tr.enabled else untraced
    record_setup(run, setups, builds)
    run.e2e["ops_per_s"] = (len(builds) / sum(builds), "1/s", len(builds))
    queries.record()
    record_index(run, tc, dc)
    if tr.enabled:
        record_layers(run, BUILD_LAYERS)
        graph_counts(run, g)
        run.layers["trace.overhead_frac"] = pct(traced, 50) / pct(untraced, 50) - 1.0


# -- workload: query -----------------------------------------------------------
def query(run) -> None:
    """A seeded (k, δ) stream against TC and DC on email@1; Online on every
    ONLINE_EVERY-th request."""
    tr = run.tracer
    tr.wrap(online_mod, "support", "online.support")
    tr.wrap(online_mod, "peel_to_truss", "online.peel")
    wrap_build_layers(tr)
    sf = 1.0 * run.scale
    setups, builds = [], []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        flat = analog("email", sf=sf, seed=GRAPH_SEED)
        t1 = now()
        g, table, tc, dc = build_index(flat, tr)
        setups.append(now() - t0)
        builds.append(now() - t1)
    run.meta.update(analog="email", sf=sf, graph_seed=GRAPH_SEED)

    queries = Queries(run, 0)
    lat_on, asked, sizes = [], [], []
    end = now() + run.seconds
    while now() < end:
        k, d, a, ok = queries.one(table, tc, dc)
        if len(asked) % ONLINE_EVERY == 0:
            with tr.span("online.query"):
                t0 = now()
                c = online_ids(g, k, d, tr)
                t1 = now()
            lat_on.append(t1 - t0)
            ok = ok and same_ids(a, c)
        run.op(ok)
        asked.append((k, d))
        sizes.append(len(a))
    tr.restore()

    record_setup(run, setups, builds)
    queries.record()
    # Online-Query, the index-free baseline, stays out of the throughput: its
    # cost spans three orders of magnitude over the (k, δ) domain
    busy = sum(queries.tc) + sum(queries.dc)
    run.e2e["ops_per_s"] = (len(asked) / busy, "1/s", len(asked))
    run.extra["query_online_p50_ms"] = (pct(lat_on, 50) * 1e3, "ms", len(lat_on))
    run.extra["query_online_p90_ms"] = (pct(lat_on, 90) * 1e3, "ms", len(lat_on))
    record_index(run, tc, dc)
    if tr.enabled:
        record_layers(run, BUILD_LAYERS + ("online.support", "online.peel", "online.to_ids"))
        graph_counts(run, g)
        run.layers["query.result_edges_mean"] = float(np.mean(sizes))
        path = [dc_path_nodes(dc, k, d) for k, d in asked]
        run.layers["dc_index.path_nodes_mean"] = float(np.mean(path))
        run.layers["dc_index.path_nodes_max"] = max(path)


def dc_path_nodes(dc: DCIndex, k: int, d: int) -> int:
    """Tree nodes on the root path a DC-Query for (k, δ) walks."""
    starts, reps = dc.rows[k]
    key = reps[bisect.bisect_right(starts, min(d, dc.delta_max)) - 1]
    n = 0
    while key is not None:
        n += 1
        key = dc.nodes[key].parent
    return n


# -- workload: maintain ----------------------------------------------------------
def copy_table(t: KspanTable) -> KspanTable:
    return KspanTable(list(t.edges), t.trn.copy(), t.kmax, t.delta_max,
                      {k: s.copy() for k, s in t.spans.items()})


def maintain(run) -> None:
    """VICTIMS rows of mathoverflow@0.5 are removed and TC-IM and DC-IM are
    built on the rest. Each round reinserts the rows, in a seeded order,
    into fresh copies of both; every insertion is followed by queries on the
    index it maintained. An insertion's latency runs from the ``insert``
    call until the first query's answer is back."""
    tr = run.tracer
    wrap_build_layers(tr)

    def count_delta(delta):
        tr.count("model.mts_recomputed_n", len(delta["changed"]))
        tr.count("model.new_tris_n", len(delta["new_tris"]))

    tr.wrap(TemporalGraph, "insert", "model.insert", after=count_delta)
    tr.wrap(maintainers_mod, "update_kspan_table", "maintenance.update", after=lambda st: st.kind)
    tr.wrap(TCIndex, "refresh", "tc_index.refresh")
    tr.wrap(maintainers_mod, "DCIndex", "dc_index.rebuild")
    sf = 0.5 * run.scale
    setups, builds = [], []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        flat = analog("mathoverflow", sf=sf, seed=GRAPH_SEED)
        pick = np.random.default_rng(GRAPH_SEED).choice(len(flat), size=VICTIMS, replace=False)
        victims = flat.iloc[np.sort(pick)]
        rest = flat.drop(index=victims.index)
        t1 = now()
        with tr.span("build"):
            g0, table0 = build_table(rest, tr)
            tcm = TCMaintainer(g0.copy(), copy_table(table0))
            dcm = DCMaintainer(g0.copy(), copy_table(table0))
        setups.append(now() - t0)
        builds.append(now() - t1)
    run.meta.update(analog="mathoverflow", sf=sf, graph_seed=GRAPH_SEED, victims=VICTIMS)

    rows = [tuple(int(x) for x in r) for r in victims.itertuples(index=False)]
    order_rng = np.random.default_rng(run.seed)
    queries = Queries(run, 2)
    lat = {"tc": [], "dc": []}
    kinds, after, stats = [], [], []
    end = now() + run.seconds
    rounds = 0
    while now() < end or not rounds:
        if rounds:  # fresh copies of the state the setup built
            tcm = TCMaintainer(g0.copy(), copy_table(table0))
            dcm = DCMaintainer(g0.copy(), copy_table(table0))
        for i in order_rng.permutation(len(rows)):
            u, v, t = rows[i]
            k, d = draw(queries.rng, tcm.table)
            ids, sts = {}, {}
            for name, m in (("tc", tcm), ("dc", dcm)):
                with tr.span(f"maintainers.{name}_insert"):
                    t0 = now()
                    sts[name] = m.insert(u, v, t)
                    t1 = now()
                    ids[name] = (tc_ids if name == "tc" else dc_ids)(m.index, k, d)
                    t2 = now()
                lat[name].append(t2 - t0)
                after.append(t2 - t1)
            kinds.append(sts["tc"].kind)
            stats.append(sts["tc"])
            run.op(
                sts["tc"].kind == sts["dc"].kind
                and same_ids(ids["tc"], ids["dc"])
                and len(ids["tc"]) == tcm.table.truss_size(k, d)
            )
            queries.ask(tcm.table, tcm.index, dcm.index, QUERIES_PER_INSERT)
        # maintenance ≡ rebuild: MBA on a fresh graph with the same edge ids
        fresh = mba_mod.mba(TemporalGraph(list(tcm.g.edges), [ts.copy() for ts in tcm.g.times]))
        run.op(tcm.g.edges == dcm.g.edges and tcm.table.equal(fresh) and dcm.table.equal(fresh))
        rounds += 1
    tr.restore()

    record_setup(run, setups, builds)
    n = len(kinds)
    run.e2e["ops_per_s"] = (n / (sum(lat["tc"]) + sum(lat["dc"])), "1/s", n)
    for name in ("tc", "dc"):
        run.extra[f"insert_{name}_p50_ms"] = (pct(lat[name], 50) * 1e3, "ms", n)
        run.extra[f"insert_{name}_p90_ms"] = (pct(lat[name], 90) * 1e3, "ms", n)
    queries.record()
    record_index(run, tcm.index, dcm.index)
    if tr.enabled:
        maintain_layers(run, lat, kinds, after, stats)


def maintain_layers(run, lat, kinds, after, stats) -> None:
    tr = run.tracer
    record_layers(run, TABLE_LAYERS + ("model.insert", "maintenance.update_ts",
                                       "maintenance.update_edge", "tc_index.refresh"))
    record_layers(run, ("dc_index.rebuild",), parent="maintainers.dc_insert")
    for name in ("model.mts_recomputed_n", "model.new_tris_n"):
        run.layers[name] = tr.mean_count(name)
    kinds = np.asarray(kinds)
    for name in ("tc", "dc"):
        arr = np.asarray(lat[name]) * 1e3
        for kind in ("ts", "edge"):
            sel = arr[kinds == kind]
            run.layers[f"maintainers.{name}_{kind}_p50_ms"] = pct(sel, 50) if len(sel) else 0.0
    run.layers["maintainers.query_after_insert_us"] = pct(after, 50) * 1e6
    run.layers["maintenance.ts_n"] = int((kinds == "ts").sum())
    run.layers["maintenance.edge_n"] = int((kinds == "edge").sum())
    width = sum(st.k_range[1] - 2 for st in stats if st.k_range)
    region = [r for st in stats for r in st.region_sizes.values()]
    run.layers["maintenance.k_pass_frac"] = (
        sum(len(st.touched_ks) for st in stats) / width if width else 0.0)
    run.layers["maintenance.region_edges_mean"] = float(np.mean(region)) if region else 0.0
    run.layers["maintenance.useful_frac"] = (
        sum(sum(st.changed.values()) for st in stats) / sum(region) if region else 0.0)
    run.layers["maintenance.promoted_n"] = sum(sum(st.promoted.values()) for st in stats)
