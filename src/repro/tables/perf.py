"""Performance harnesses for the paper's Figs. 10–16 headline claims.

Figures are out of scope; these produce the *numbers behind the shapes*:
Online vs TC vs DC query latency (Figs. 10–13), DBA vs MBA construction
time (Fig. 14), TC vs DC size under coarsened time granularity (Fig. 15),
and per-insertion maintenance vs rebuild (Fig. 16). The jobs/ scripts are
thin wrappers around these; perfbench/ is the timing harness.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pandas as pd

from ..core.dc_index import DCIndex
from ..core.kspan import dba
from ..core.maintainers import DCMaintainer, TCMaintainer
from ..core.mba import mba
from ..core.model import TemporalGraph
from ..core.online import online_query
from ..core.tc_index import TCIndex
from ..tgraph.generators import analog, coarsen_time


def default_params(table) -> tuple[int, int]:
    """The paper's defaults: k = 30%·kmax, δ = 60%·δmax."""
    k = max(3, round(0.3 * table.kmax))
    d = round(0.6 * table.delta_max)
    return k, d


def build_all(name: str, *, sf: float = 1.0, seed: int = 7):
    """Graph + k-span table + both indexes for one analog."""
    g = TemporalGraph.from_flat(analog(name, sf=sf, seed=seed))
    table = mba(g)
    return g, table, TCIndex(table), DCIndex(table)


def online_ids(g: TemporalGraph, k: int, delta: float) -> np.ndarray:
    """Online-Query under the shared output contract: int64 edge ids."""
    edges = online_query(g, k, delta)
    return np.fromiter((g.eid[e] for e in edges), dtype=np.int64, count=len(edges))


def index_ids(index, k: int, delta: float) -> np.ndarray:
    """TC/DC-Query under the shared output contract: an owned int64 copy."""
    return np.array(index.query_ids(k, delta), dtype=np.int64)


def _time(fn, reps: int) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def query_latency(
    name: str, *, sf: float = 1.0, seed: int = 7, reps: int = 20, online_reps: int = 3
) -> dict:
    """Fig. 10 row: Online vs TC vs DC at the default (k, δ), each timed to
    an owned int64 edge-id array."""
    g, table, tc, dc = build_all(name, sf=sf, seed=seed)
    k, d = default_params(table)
    return {
        "dataset": name,
        "k": k,
        "delta": d,
        "truss_edges": table.truss_size(k, d),
        "online_s": _time(lambda: online_ids(g, k, d), online_reps),
        "tc_s": _time(lambda: index_ids(tc, k, d), reps),
        "dc_s": _time(lambda: index_ids(dc, k, d), reps),
    }


def query_sweep(name: str, *, sf: float = 1.0, seed: int = 7, reps: int = 10) -> pd.DataFrame:
    """Figs. 11–13: latency as k and δ sweep over 10%…100% of their max."""
    g, table, tc, dc = build_all(name, sf=sf, seed=seed)
    rows = []
    fracs = [i / 10 for i in range(1, 11)]
    for kf in fracs:
        k = max(3, round(kf * table.kmax))
        d = round(0.6 * table.delta_max)
        rows.append(
            dict(sweep="k", frac=kf, k=k, delta=d,
                 online_s=_time(lambda: online_ids(g, k, d), 1),
                 tc_s=_time(lambda: index_ids(tc, k, d), reps),
                 dc_s=_time(lambda: index_ids(dc, k, d), reps))
        )
    for df_ in fracs:
        k = max(3, round(0.3 * table.kmax))
        d = round(df_ * table.delta_max)
        rows.append(
            dict(sweep="delta", frac=df_, k=k, delta=d,
                 online_s=_time(lambda: online_ids(g, k, d), 1),
                 tc_s=_time(lambda: index_ids(tc, k, d), reps),
                 dc_s=_time(lambda: index_ids(dc, k, d), reps))
        )
    return pd.DataFrame(rows)


def construction_times(name: str, *, sf: float = 1.0, seed: int = 7) -> dict:
    """Fig. 14 row: DBA vs MBA wall time."""
    g = TemporalGraph.from_flat(analog(name, sf=sf, seed=seed))
    g.triangles()
    t0 = time.perf_counter()
    dba(g)
    t_dba = time.perf_counter() - t0
    t0 = time.perf_counter()
    mba(g)
    t_mba = time.perf_counter() - t0
    return {"dataset": name, "dba_s": t_dba, "mba_s": t_mba}


def granularity_comparison(
    name: str = "email", *, sf: float = 1.0, seed: int = 7, merges=(1, 20, 25, 30, 35, 40)
) -> pd.DataFrame:
    """Fig. 15: TC vs DC total stored edges as timestamps are coarsened."""
    flat = analog(name, sf=sf, seed=seed)
    rows = []
    for m in merges:
        g = TemporalGraph.from_flat(coarsen_time(flat, m) if m > 1 else flat)
        table = mba(g)
        rows.append(
            {
                "merge": m,
                "delta_max": table.delta_max,
                "tc_total": TCIndex(table).total_edges(),
                "dc_total": DCIndex(table).total_edges(),
            }
        )
    df = pd.DataFrame(rows)
    df["saving_pct"] = 100.0 * (df["tc_total"] - df["dc_total"]) / df["tc_total"]
    return df


def maintenance_times(
    name: str, *, sf: float = 1.0, seed: int = 7, n_updates: int = 50, rebuilds: int = 3
) -> dict:
    """Fig. 16 row: avg per-insertion TC-IM / DC-IM vs rebuild-from-scratch,
    plus the TC-IM latency distribution per insertion kind.

    Workload as in the paper: remove ``n_updates`` random temporal edges
    from the analog, build the index on the remainder, then time the
    reinsertions. Fig. 16(b) is a distribution, so for timestamp (``ts``)
    and edge insertions separately the row also carries the count and the
    TC-IM p50/p90 (``{kind}_n``, ``{kind}_tc_p50_s``, ``{kind}_tc_p90_s``;
    NaN latencies when the stream holds no insertion of that kind).
    """
    flat = analog(name, sf=sf, seed=seed)
    rng = np.random.default_rng(seed)
    victims_idx = rng.choice(len(flat), size=min(n_updates, len(flat) // 10), replace=False)
    victims = flat.iloc[sorted(victims_idx)]
    rest = flat.drop(index=victims.index)

    def stream(maintainer_cls) -> tuple[list[float], list[str]]:
        g = TemporalGraph.from_flat(rest)
        g.triangles()
        m = maintainer_cls(g)
        lat, kinds = [], []
        for u, v, t in victims.itertuples(index=False):
            t0 = time.perf_counter()
            kinds.append(m.insert(int(u), int(v), int(t)).kind)
            lat.append(time.perf_counter() - t0)
        return lat, kinds

    tc_lat, kinds = stream(TCMaintainer)
    dc_lat, _ = stream(DCMaintainer)
    # rebuild baseline: full MBA (incl. triangle enumeration) per insertion
    t0 = time.perf_counter()
    for _ in range(rebuilds):
        fresh = TemporalGraph.from_flat(flat)
        mba(fresh)
    rebuild_s = (time.perf_counter() - t0) / rebuilds
    row = {
        "dataset": name,
        "updates": int(len(victims)),
        "tc_im_s": float(np.mean(tc_lat)),
        "dc_im_s": float(np.mean(dc_lat)),
        "rebuild_s": rebuild_s,
    }
    for kind in ("ts", "edge"):
        sel = [x for x, k in zip(tc_lat, kinds) if k == kind]
        row[f"{kind}_n"] = len(sel)
        for q in (50, 90):
            row[f"{kind}_tc_p{q}_s"] = float(np.percentile(sel, q)) if sel else math.nan
    return row
