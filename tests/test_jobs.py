"""Smoke tests for the jobs/ entrypoints (argparse + printing paths).

The Spark-session-creating job (table1) is exercised via its underlying
harness in other tests — calling its main() here would getOrCreate-then-stop
the session-scoped fixture's SparkSession.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"jobs_{name}", JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run(monkeypatch, capsys, name: str, argv: list[str]) -> str:
    mod = _load(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"] + argv)
    mod.main()
    return capsys.readouterr().out


def test_case_study_job(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "case_study", ["--sf", "0.2"])
    assert "case-study table" in out and "paper (Email, k = 16)" in out


def test_table2_job_local(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "table2", ["--local", "--sf", "0.15", "--datasets", "email"])
    assert "Table II (measured)" in out and "Table II (paper)" in out
    assert "email" in out


def test_construction_job(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "construction_bench", ["--sf", "0.2", "--datasets", "email"])
    assert "mba_speedup" in out


def test_granularity_job(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "granularity", ["--sf", "0.2", "--datasets", "email"])
    assert "Fig. 15 shape: email" in out and "saving_pct" in out


def test_maintenance_job(monkeypatch, capsys):
    out = _run(
        monkeypatch, capsys, "maintenance_bench",
        ["--sf", "0.2", "--datasets", "askubuntu", "--updates", "5"],
    )
    assert "speedup_tc" in out
    assert "ts_tc_p90_s" in out and "edge_tc_p90_s" in out


def test_query_bench_job(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "query_bench", ["--sf", "0.25", "--datasets", "email"])
    assert "online/tc" in out
