"""Index-construction harness (Fig. 14 shape): DBA vs MBA per dataset, both
on one core, and MBA with its level bands on every core.

Usage: python jobs/construction_bench.py [--sf 1.0] [--datasets ...]
"""
import argparse

import pandas as pd

from repro.tables.perf import construction_times
from repro.tgraph.generators import DATASETS


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--datasets", type=str, default="")
    args = ap.parse_args()
    names = [d for d in args.datasets.split(",") if d] or sorted(DATASETS)
    df = pd.DataFrame([construction_times(n, sf=args.sf, seed=args.seed) for n in names])
    df["mba_speedup"] = df["dba_s"] / df["mba_s"]
    df["par_speedup"] = df["mba_s"] / df["mba_par_s"]
    print("== Fig. 14 shape: construction time (s) ==")
    print(df.to_string(index=False, float_format=lambda x: f"{x:.3g}"))


if __name__ == "__main__":
    main()
