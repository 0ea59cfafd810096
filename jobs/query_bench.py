"""Query-latency harness (Figs. 10–13 shape): Online vs TC vs DC.

Usage: python jobs/query_bench.py [--sf 1.0] [--datasets ...] [--sweep]
"""
import argparse

import pandas as pd

from repro.tables.perf import query_latency, query_sweep
from repro.tgraph.generators import DATASETS


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--datasets", type=str, default="")
    ap.add_argument("--sweep", action="store_true")
    args = ap.parse_args()
    names = [d for d in args.datasets.split(",") if d] or sorted(DATASETS)

    rows = [query_latency(n, sf=args.sf, seed=args.seed) for n in names]
    df = pd.DataFrame(rows)
    df["online/tc"] = df["online_s"] / df["tc_s"]
    df["online/dc"] = df["online_s"] / df["dc_s"]
    print("== Fig. 10 shape: query latency at k=30%·kmax, δ=60%·δmax ==")
    print(df.to_string(index=False, float_format=lambda x: f"{x:.3g}"))

    if args.sweep:
        print("\n== Figs. 11–12 shape: sweeps on", names[0], "==")
        print(query_sweep(names[0], sf=args.sf, seed=args.seed).to_string(index=False, float_format=lambda x: f"{x:.3g}"))


if __name__ == "__main__":
    main()
