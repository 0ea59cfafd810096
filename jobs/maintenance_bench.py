"""Index-maintenance harness (Fig. 16 shape): TC-IM / DC-IM vs rebuild and
the DC-IM/TC-IM ratio, then the TC-IM and DC-IM latency distributions per
insertion kind (timestamp / edge).

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
    df["dc_tc_ratio"] = df["dc_im_s"] / df["tc_im_s"]
    mean_cols = [
        "dataset", "updates", "tc_im_s", "dc_im_s", "rebuild_s", "speedup_tc", "speedup_dc",
        "dc_tc_ratio",
    ]
    kind_cols = {
        kind: ["dataset", f"{kind}_n"] + [
            f"{kind}_{im}_p{q}_s" for im in ("tc", "dc") for q in (50, 90)
        ]
        for kind in ("ts", "edge")
    }
    for title, cols in (
        ("Fig. 16 shape: avg per-insertion update time (s)", mean_cols),
        ("Fig. 16(b) shape: timestamp insertions, TC-IM / DC-IM time (s)", kind_cols["ts"]),
        ("Fig. 16(b) shape: edge insertions, TC-IM / DC-IM time (s)", kind_cols["edge"]),
    ):
        print(f"== {title} ==")
        print(df[cols].to_string(index=False, float_format=lambda x: f"{x:.4g}"))


if __name__ == "__main__":
    main()
