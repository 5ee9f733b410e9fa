"""Shared bootstrap for spark-submit entrypoints.

Jobs run standalone (not under pytest), so they build their own local
session with the same knobs the test fixture uses.  Inside pytest, always
use the ``spark`` fixture instead.
"""
from __future__ import annotations

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .master("local[*]")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.adaptive.coalescePartitions.parallelismFirst", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )

