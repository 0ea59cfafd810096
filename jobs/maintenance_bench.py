"""Index-maintenance harness (Fig. 16 shape): TC-IM / DC-IM vs rebuild,
then the TC-IM latency distribution per insertion kind (timestamp / edge).

Usage: python jobs/maintenance_bench.py [--sf 1.0] [--datasets ...]
[--updates 100]
"""
import argparse

import pandas as pd

from repro.tables.perf import maintenance_times


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--datasets", type=str, default="mathoverflow,askubuntu,superuser,wikitalk")
    ap.add_argument("--updates", type=int, default=100)
    args = ap.parse_args()
    names = [d for d in args.datasets.split(",") if d]
    rows = [
        maintenance_times(n, sf=args.sf, seed=args.seed, n_updates=args.updates)
        for n in names
    ]
    df = pd.DataFrame(rows)
    df["speedup_tc"] = df["rebuild_s"] / df["tc_im_s"]
    df["speedup_dc"] = df["rebuild_s"] / df["dc_im_s"]
    mean_cols = ["dataset", "updates", "tc_im_s", "dc_im_s", "rebuild_s", "speedup_tc", "speedup_dc"]
    kind_cols = ["dataset"] + [
        f"{kind}_{col}" for kind in ("ts", "edge") for col in ("n", "tc_p50_s", "tc_p90_s")
    ]
    for title, cols in (
        ("Fig. 16 shape: avg per-insertion update time (s)", mean_cols),
        ("Fig. 16(b) shape: TC-IM per-insertion time (s) by insertion kind", kind_cols),
    ):
        print(f"== {title} ==")
        print(df[cols].to_string(index=False, float_format=lambda x: f"{x:.4g}"))


if __name__ == "__main__":
    main()
