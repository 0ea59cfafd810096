"""SparkSession builder for standalone jobs.

Tests use the ``spark`` fixture from conftest.py; the jobs/ entrypoints run
under ``spark-submit`` or plain ``python`` and build their own session with
the same reproduction-relevant settings (broadcast joins disabled so the
shuffle path is exercised; Arrow on for the pandas UDFs). Console progress
bars are off, so a job's stderr holds only what the job itself reports.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_session(app: str = "repro-job") -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .getOrCreate()
    )
