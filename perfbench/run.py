"""Benchmark of the (k, δ)-truss system: build, query, maintain and Spark.

Run from the repository root:

    python3 perfbench/run.py --workload query --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload in this one process (peak RSS is then
process-wide). ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same workload with spans around every layer and reports the
per-layer metrics. Metric names and units come from ``BENCHMARK.json``,
which lists the workloads steady enough to bound; ``spark`` is not among
them and is run by hand. METRICS.md beside this file says what each metric
measures and which end-to-end metric each layer should move.

Human-readable lines (run metadata, every metric with its unit and sample
count) go first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("build", "query", "maintain", "spark")


class Run:
    """What one workload measured: metrics, operation counts and metadata."""

    out = OUT  # traces and Spark scratch space, inside the checkout

    def __init__(self, workload: str, seed: int, seconds: float, scale: float, tracer):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.tracer = tracer
        self.e2e: dict[str, tuple[float, str, int]] = {}
        # end-to-end quantities that only this workload measures; printed in
        # the report, outside BENCHMARK.json's bounded list
        self.extra: dict[str, tuple[float, str, int]] = {}
        self.layers: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.meta: dict = {}

    def op(self, ok: bool) -> None:
        """Count one operation; a wrong answer counts as a failed one."""
        self.attempted += 1
        if not ok:
            self.failed += 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _mem_total_gb() -> float:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return round(int(line.split()[1]) / 2**20, 2)
    except OSError:
        pass
    return 0.0


def _versions() -> dict:
    import numpy
    import pandas

    out = {"python": platform.python_version(), "numpy": numpy.__version__, "pandas": pandas.__version__}
    try:
        import pyspark

        out["pyspark"] = pyspark.__version__
    except ImportError:
        out["pyspark"] = "absent"
    return out


def _run_one(workload: str, args, trace: bool) -> Run:
    tracer = Tracer() if trace else NullTracer()
    run = Run(workload, args.seed, args.seconds, args.scale, tracer)
    # the workload modules import repro, which main() put on sys.path
    if workload == "spark":
        from spark_workload import spark

        spark(run)
    else:
        import workloads

        getattr(workloads, workload)(run)
    run.e2e["peak_rss_mb"] = (_peak_rss_mb(), "MB", 1)
    run.meta.update(
        workload=workload, workload_seed=args.seed, seconds=args.seconds,
        scale=args.scale, trace=int(trace), git_sha=_git_sha(), nproc=os.cpu_count(),
        mem_total_gb=_mem_total_gb(), **_versions(),
    )
    if trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"meta": run.meta, "layers": run.layers, "spans": tracer.dump()}))
    return run


def _metrics(run: Run, spec: dict, trace: bool) -> dict:
    """The JSON line's metric block: every name BENCHMARK.json lists."""
    if trace:
        return {
            m["name"]: {"value": float(run.layers.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    out = {}
    for m in spec["end_to_end"]:
        value, unit, _n = run.e2e[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit} != {m['unit']}")
        out[m["name"]] = {"value": float(value), "unit": unit}
    return out


def _report(run: Run, trace: bool) -> None:
    print(f"# {run.workload}: meta {json.dumps(run.meta, sort_keys=True)}")
    if trace:  # every layer, also those BENCHMARK.json does not list
        for name, value in sorted(run.layers.items()):
            print(f"# {run.workload}: {name} = {value:.6g}")
        return
    for name, (value, unit, n) in list(run.e2e.items()) + list(run.extra.items()):
        print(f"# {run.workload}: {name} = {value:.6g} {unit} (n={n})")
    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"# {run.workload}: failed_frac = {frac:.6g} (n={run.attempted})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplies every workload's analog sf (the smoke test uses a tiny one)",
    )
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "core").is_dir():
        print(f"perfbench: the program's sources ({src}/repro) are missing", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        t0 = time.perf_counter()
        try:
            run = _run_one(name, args, trace)
            metrics = _metrics(run, spec, trace)
        except Exception:
            traceback.print_exc()
            print(f"perfbench: workload {name} failed", file=sys.stderr)
            return 1
        _report(run, trace)
        print(f"# {name}: wall {time.perf_counter() - t0:.1f} s")
        results[name] = (run, metrics)

    if len(results) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{n}.{k}": v for n, (_r, m) in results.items() for k, v in m.items()}
    attempted = sum(r.attempted for r, _m in results.values())
    failed = sum(r.failed for r, _m in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
