"""Shared test fixtures/utilities: small deterministic graphs, a paper
running example, and a memoised QueryContext cache (contexts are pure
functions of (edges, s, t, k), so parametrised tests reuse them)."""
from __future__ import annotations

import uuid

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.context import QueryContext, build_context
from repro.graphs import generators

# Figure-1-style running example: q(s=0, t=1, 4) on a small digraph with
# hubs, dead ends and a vertex (7) outside every path.
#   s=0, t=1, v0=2, v1=3, v2=4, v3=5, v4=6, v6=8, v5=9, v7=7
PAPER_EDGES: list[tuple[int, int]] = [
    (0, 2),   # s -> v0
    (2, 1),   # v0 -> t
    (2, 3),   # v0 -> v1
    (2, 8),   # v0 -> v6
    (3, 4),   # v1 -> v2
    (4, 1),   # v2 -> t
    (8, 2),   # v6 -> v0
    (8, 1),   # v6 -> t
    (6, 9),   # v4 -> v5
    (9, 1),   # v5 -> t
    (0, 6),   # s -> v4
    (6, 1),   # v4 -> t
    (3, 5),   # v1 -> v3
    (7, 7 + 100),  # v7 dangling (vertex far from both s and t)
]

DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]  # two 2-hop paths 0->3
LINE = [(0, 1), (1, 2), (2, 3), (3, 4)]
CYCLE6 = [(i, (i + 1) % 6) for i in range(6)]


def edges_pdf(edges: list[tuple[int, int]]) -> pd.DataFrame:
    return pd.DataFrame(edges, columns=["src", "dst"]).astype("int64")


def edges_df(spark: SparkSession, edges: list[tuple[int, int]]) -> DataFrame:
    return spark.createDataFrame(edges_pdf(edges))


def random_graph(n: int, avg_deg: float, seed: int, kind: str = "powerlaw") -> pd.DataFrame:
    if kind == "powerlaw":
        return generators.powerlaw_graph_pdf(n=n, avg_deg=avg_deg, alpha=0.9, seed=seed)
    return generators.uniform_graph_pdf(n=n, avg_deg=avg_deg, seed=seed)


def random_query(n: int, avg_deg: float, seed: int) -> tuple[list[tuple[int, int]], int, int]:
    """A power-law test graph with s = its first source and t = the first
    target from the middle of the sorted edge list on that is not s."""
    pdf = random_graph(n, avg_deg, seed)
    s = int(pdf.src.iloc[0])
    t = next(int(d) for d in pdf.dst.iloc[len(pdf) // 2 :] if d != s)
    return list(pdf.itertuples(index=False, name=None)), s, t


def py_bfs(
    edges: list[tuple[int, int]],
    root: int,
    *,
    excluded: int | None = None,
    reverse: bool = False,
    max_depth: int = 10**9,
) -> dict[int, int]:
    """Reference bounded BFS with reach-but-never-expand exclusion."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        if reverse:
            u, v = v, u
        adj.setdefault(u, []).append(v)
    dist = {root: 0}
    frontier = [root]
    d = 0
    while frontier and d < max_depth:
        d += 1
        nxt = []
        for v in frontier:
            if v == excluded:
                continue
            for w in adj.get(v, ()):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def table_rows(table: pd.DataFrame) -> list[dict]:
    """A distance table's rows as dicts of Python ints, None for NA."""
    return [
        {c: None if pd.isna(x) else int(x) for c, x in r.items()}
        for r in table.astype(object).to_dict("records")
    ]


_CTX_CACHE: dict[tuple, QueryContext] = {}


def cached_ctx(
    spark: SparkSession, edges: list[tuple[int, int]], s: int, t: int, k: int
) -> QueryContext:
    key = (tuple(sorted(edges)), s, t, k)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = build_context(spark, edges_df(spark, edges), s, t, k)
    return _CTX_CACHE[key]


def jobs_launched(spark: SparkSession, fn) -> int:
    """Number of Spark jobs ``fn()`` launches, counted with a job tag.

    The status store is fed by the listener bus, so the bus is drained
    before the tag's jobs are read.
    """
    sc = spark.sparkContext
    tag = f"jobs-launched-{uuid.uuid4().hex}"
    sc.addJobTag(tag)
    try:
        fn()
    finally:
        sc.removeJobTag(tag)
    jsc = sc._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()
    return len(jsc.statusTracker().getJobIdsForTag(tag))
