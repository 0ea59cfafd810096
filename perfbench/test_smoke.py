"""Smoke test of the benchmark at a tiny scale; it never checks timings.

Run from the repository root (the Spark workload starts a local JVM, so the
whole file takes a few minutes):

    python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in SPEC["workloads"]]
WORKLOADS = LISTED + ["spark"]  # `--workload all` also runs spark
SPARK_LAYERS = (
    "spark_index.graph_from_spark_s", "spark_index.mba_s", "spark_index.table_to_df_s",
    "spark.online_query_s", "spark.scan_s", "spark.build_stages_n", "spark.build_shuffle_bytes",
    "spark.online_jobs_n", "spark.online_stages_n", "spark.online_shuffle_bytes",
    "spark.scan_stages_n", "sparkutil.session_s",
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def _result(trace: int) -> tuple[dict, str]:
    p = _run("--workload", "all", "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--scale", "0.05")
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]), p.stdout


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + LISTED
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.fixture(scope="module")
def untraced():
    return _result(0)


@pytest.fixture(scope="module")
def traced():
    return _result(1)


def test_end_to_end_metrics(untraced):
    res, stdout = untraced
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    for w in WORKLOADS:
        assert f"# {w}: failed_frac = 0 " in stdout


def test_per_layer_metrics(traced):
    res, stdout = traced
    assert res["correct"] is True and res["failed"] == 0
    want = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    # every timed layer runs on at least one listed workload
    for m in SPEC["per_layer"]:
        if m["unit"] == "s":
            assert any(res["metrics"][f"{w}.{m['name']}"]["value"] > 0 for w in LISTED), m
    # the spark workload's own layers are in its report
    for name in SPARK_LAYERS:
        line = re.search(rf"^# spark: {re.escape(name)} = (\S+)$", stdout, re.M)
        assert line and float(line.group(1)) > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("--workload", LISTED[0], "--seed", "1", "--seconds", "1", "--trace", "0",
             cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
