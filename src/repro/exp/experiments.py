"""Paper-table experiment drivers, shared by jobs/ and benchmarks/.

Scale parameters (bench defaults) are the DESIGN.md §4 substitutions for
the paper's setup: k=5 instead of 6 (graphs are ~1e3x smaller), a 30 s
time limit instead of 120 s, 2 queries per set instead of 1,000, and
response time measured at the first 100 results instead of 1,000.  The
"<60s" / ">120s" thresholds of Tables 4/5 scale to TL/2 and TL.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from pyspark.sql import SparkSession

from repro.exp import tables as T
from repro.exp.harness import (  # noqa: F401  (RESPONSE_BAR, ROW_CAP re-exported)
    ALGOS,
    RESPONSE_BAR,
    ROW_CAP,
    TIMEOUT_S,
    QueryStats,
    run_query_set,
)
from repro.graphs import generators as G
from repro.graphs.queries import generate_queries

RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"

#: bench-scale defaults (see DESIGN.md §4).  k=5 is the calibrated point
#: where intermediate-tuple work dominates Spark's fixed per-job overhead,
#: so the wall-time contrast between BC-* and IDX-* becomes visible (at
#: k=4 every method finishes within seconds of preprocessing time).  The
#: time limit TIMEOUT_S, ROW_CAP and RESPONSE_BAR are the harness's defaults.
T_SHORT_S = TIMEOUT_S / 2
K_DEFAULT = 5
N_QUERIES = 2
SWEEP_GRAPHS = ("ep_s", "gg_s")
SWEEP_KS = (2, 3, 4, 5)


def save_stats(name: str, stats: list[QueryStats]) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    p = RESULTS_DIR / f"{name}.json"
    p.write_text(json.dumps([s.to_dict() for s in stats], indent=1))
    return p


def load_stats(name: str) -> list[QueryStats]:
    rows = json.loads((RESULTS_DIR / f"{name}.json").read_text())
    return [QueryStats(**r) for r in rows]


def suite_stats() -> list[dict]:
    """Table 2 rows: properties of every suite graph."""
    out = []
    for cfg in G.SUITE:
        st = G.graph_stats(cfg.build_pdf())
        out.append(
            {"name": cfg.name, "emulates": cfg.emulates, "category": cfg.category, **st}
        )
    return out


def table2_experiment() -> str:
    headers, rows = T.table2_rows(suite_stats())
    return T.render(headers, rows, title="Table 2 — dataset properties (synthetic suite)")


@dataclass
class OverallConfig:
    """Table 3 workload configuration (paper: k=6, s,t in V', 1000 queries)."""

    graphs: tuple[str, ...] = tuple(c.name for c in G.SUITE)
    k: int = K_DEFAULT
    n_queries: int = N_QUERIES
    timeout_s: float = TIMEOUT_S
    setting: str = "hh"            # paper default: s,t in V'
    algos: tuple[str, ...] = ALGOS


def overall_experiment(spark: SparkSession, cfg: OverallConfig | None = None) -> list[QueryStats]:
    """Table 3 workload: every algorithm on every suite graph."""
    cfg = cfg or OverallConfig()
    stats: list[QueryStats] = []
    for name in cfg.graphs:
        gcfg = G.suite_by_name(name)
        pdf = gcfg.build_pdf()
        queries = generate_queries(
            pdf, k=cfg.k, n_queries=cfg.n_queries, setting=cfg.setting, seed=gcfg.seed
        )
        edges = G.to_spark(spark, pdf).persist()
        edges.count()
        stats += run_query_set(
            spark,
            edges,
            name,
            queries,
            cfg.algos,
            timeout_s=cfg.timeout_s,
        )
        edges.unpersist()
    return stats


def table3_report(stats: list[QueryStats]) -> str:
    headers, rows = T.table3_rows(stats, ALGOS)
    return T.render(
        headers, rows, title="Table 3 — overall comparison (k=%d, s,t in V')" % stats[0].k
    )


@dataclass
class SweepConfig:
    graphs: tuple[str, ...] = SWEEP_GRAPHS
    ks: tuple[int, ...] = SWEEP_KS
    n_queries: int = N_QUERIES
    timeout_s: float = TIMEOUT_S
    algos: tuple[str, ...] = ("BC-DFS", "IDX-DFS", "IDX-JOIN")


def ksweep_experiment(spark: SparkSession, cfg: SweepConfig | None = None) -> list[QueryStats]:
    """The k-sweep behind Tables 4, 5, 6 and 7 (ep-like and gg-like)."""
    cfg = cfg or SweepConfig()
    stats: list[QueryStats] = []
    for name in cfg.graphs:
        gcfg = G.suite_by_name(name)
        pdf = gcfg.build_pdf()
        edges = G.to_spark(spark, pdf).persist()
        edges.count()
        for k in cfg.ks:
            queries = generate_queries(
                pdf, k=k, n_queries=cfg.n_queries, setting="hh", seed=gcfg.seed
            )
            stats += run_query_set(
                spark,
                edges,
                name,
                queries,
                cfg.algos,
                timeout_s=cfg.timeout_s,
            )
        edges.unpersist()
    return stats


def table4_report(stats: list[QueryStats], timeout_s: float = TIMEOUT_S) -> str:
    headers, rows = T.table4_rows(stats, t_short_s=timeout_s / 2, t_long_s=timeout_s * 0.99)
    return T.render(
        headers,
        rows,
        title=f"Table 4 — query-time distribution (<{timeout_s/2:.0f}s / >{timeout_s:.0f}s)",
    )


def table5_report(stats: list[QueryStats], timeout_s: float = TIMEOUT_S) -> str:
    k_max = max(s.k for s in stats)
    ep_like = [s for s in stats if s.graph == SWEEP_GRAPHS[0] and s.k == k_max]
    headers, rows = T.table5_rows(ep_like, t_short_s=timeout_s / 2)
    return T.render(
        headers, rows, title=f"Table 5 — short vs long queries ({SWEEP_GRAPHS[0]}, k={k_max})"
    )


def table6_report(stats: list[QueryStats]) -> str:
    headers, rows = T.table6_rows(stats)
    return T.render(headers, rows, title="Table 6 — avg/max #results per k")


def table7_report(stats: list[QueryStats]) -> str:
    headers, rows = T.table7_rows(stats)
    return T.render(headers, rows, title="Table 7 — max memory (MB): index vs IDX-JOIN partials")
