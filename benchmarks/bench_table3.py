"""Benchmark + report for Table 3 — the overall five-algorithm comparison
on the full synthetic suite (k=5, s,t in V', TL=30 s, 2 queries per graph)."""
from __future__ import annotations

from pathlib import Path

from repro.exp.experiments import (
    RESULTS_DIR,
    overall_experiment,
    save_stats,
    table3_report,
)


def test_table3(spark, benchmark):
    stats = benchmark.pedantic(
        lambda: overall_experiment(spark), rounds=1, iterations=1
    )
    save_stats("table3", stats)
    report = table3_report(stats)
    Path(RESULTS_DIR / "table3.md").write_text(report + "\n")
    print("\n" + report)
    # shape assertions: the reproduction must preserve the paper's ordering
    idx = [s for s in stats if s.algo == "IDX-DFS"]
    bc = [s for s in stats if s.algo == "BC-DFS"]
    assert sum(s.edges_accessed for s in idx) <= sum(s.edges_accessed for s in bc)
