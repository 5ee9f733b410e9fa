"""Experiment harness: run query sets through every algorithm and collect
the paper's per-query metrics (§7.1 "Metrics").

Per query we build one :class:`QueryContext` and charge each algorithm the
preprocessing wall time it pays: ``bfs_s + index_s`` (the ``ds``/``dt``
BFS and the index build) for the IDX-* / PathEnum family, ``barrier_s``
for BC-* — its own ``dsf``/``dtf`` BFS plus the barrier build, run the
first time a BC-* plan reads ``ctx.barrier_edges``.  Query time, throughput
and response time then follow the paper's definitions:

* query time   = preprocessing + optimisation + enumeration.  The time
  limit covers all three: the enumerator gets what preprocessing and
  optimisation left of it, and its Spark jobs are cancelled when it runs
  out (``core.expand.TimeLimit``).  A query that runs out of time keeps
  the paths found so far and its query time is set to the limit (§7.1);
* throughput   = #results found / query time at termination;
* response time = time from query start to the first ``response_bar``
  results — reported for the DFS methods only (the join methods must
  finish both halves first, exactly the paper's argument for Table 3).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

from pyspark.sql import DataFrame, SparkSession

from repro.core.baselines import bc_dfs, bc_join
from repro.core.context import build_context
from repro.core.enumerate import idx_dfs, idx_join
from repro.core.estimator import full_estimate
from repro.core.index import INDEX_EDGE_BYTES
from repro.core.optimizer import path_enum, pathenum_cut
from repro.graphs.queries import Query

ALGOS = ("BC-DFS", "BC-JOIN", "IDX-DFS", "IDX-JOIN", "PathEnum")
TIMEOUT_S = 30.0  # per-query time limit (the paper's 120 s, scaled; DESIGN.md §4)
ROW_CAP = 2_000_000  # partial results per frontier before a query is cut off
RESPONSE_BAR = 100  # response time = time to the first RESPONSE_BAR results
DFS_ALGOS = ("BC-DFS", "IDX-DFS")  # the ones with a meaningful response time


@dataclass
class QueryStats:
    """One (query, algorithm) measurement — a row of the raw results."""

    graph: str
    qid: int
    s: int
    t: int
    k: int
    algo: str
    prep_s: float
    opt_s: float
    enum_s: float
    query_s: float
    n_results: int
    throughput: float
    response_s: float | None
    timed_out: bool
    edges_accessed: int
    n_index_edges: int
    n_barrier_edges: int
    index_mb: float
    partial_mb: float
    method_chosen: str   # PathEnum's pick; == algo otherwise

    def to_dict(self) -> dict:
        return asdict(self)


def run_query_set(
    spark: SparkSession,
    edges: DataFrame,
    graph_name: str,
    queries: list[Query],
    algos: tuple[str, ...] = ALGOS,
    *,
    timeout_s: float = TIMEOUT_S,
    row_cap: int = ROW_CAP,
    response_bar: int = RESPONSE_BAR,
) -> list[QueryStats]:
    """Run every algorithm on every query; one context per query."""
    out: list[QueryStats] = []
    for qid, q in enumerate(queries):
        ctx = build_context(spark, edges, q.s, q.t, q.k)
        for algo in algos:
            out.append(
                _run_one(
                    ctx,
                    graph_name,
                    qid,
                    algo,
                    timeout_s=timeout_s,
                    row_cap=row_cap,
                    response_bar=response_bar,
                )
            )
        ctx.unpersist()
    return out


def _run_one(
    ctx,
    graph_name: str,
    qid: int,
    algo: str,
    *,
    timeout_s: float,
    row_cap: int,
    response_bar: int,
) -> QueryStats:
    if algo in ("IDX-DFS", "IDX-JOIN", "PathEnum"):
        prep_s = ctx.bfs_s + ctx.index_s
    else:
        ctx.barrier_edges  # built on first use: BC-* pays its own BFS and barrier build
        prep_s = ctx.barrier_s
    opt_s = 0.0
    method_chosen = algo
    enum_budget = timeout_s - prep_s

    if algo == "IDX-DFS":
        res = idx_dfs(ctx, timeout_s=enum_budget, row_cap=row_cap, response_bar=response_bar)
    elif algo == "BC-DFS":
        res = bc_dfs(ctx, timeout_s=enum_budget, row_cap=row_cap, response_bar=response_bar)
    elif algo == "BC-JOIN":
        res = bc_join(ctx, timeout_s=enum_budget, row_cap=row_cap)
    elif algo == "IDX-JOIN":
        est = full_estimate(ctx)
        opt_s = est.opt_s
        res = idx_join(
            ctx, pathenum_cut(est, ctx.k), timeout_s=enum_budget - opt_s, row_cap=row_cap
        )
    elif algo == "PathEnum":
        res, decision = path_enum(
            ctx,
            timeout_s=enum_budget,
            row_cap=row_cap,
            response_bar=response_bar,
        )
        opt_s = decision.opt_s
        method_chosen = decision.method
    else:
        raise ValueError(f"unknown algorithm {algo!r}")

    query_s = prep_s + opt_s + res.enum_s
    timed_out = res.timed_out
    if timed_out:
        query_s = max(query_s, timeout_s)  # paper: clamp to the time limit
    response_s = None
    if res.response_s is not None and not timed_out:
        response_s = prep_s + opt_s + res.response_s
    elif algo in DFS_ALGOS and res.response_s is not None:
        # a timed-out DFS query may still have reached the bar early.
        response_s = prep_s + opt_s + res.response_s
    return QueryStats(
        graph=graph_name,
        qid=qid,
        s=ctx.s,
        t=ctx.t,
        k=ctx.k,
        algo=algo,
        prep_s=prep_s,
        opt_s=opt_s,
        enum_s=res.enum_s,
        query_s=query_s,
        n_results=res.n_results,
        throughput=res.n_results / query_s if query_s > 0 else 0.0,
        response_s=response_s,
        timed_out=timed_out,
        edges_accessed=res.edges_accessed,
        n_index_edges=ctx.n_index_edges,
        n_barrier_edges=ctx.n_barrier_edges,
        index_mb=ctx.n_index_edges * INDEX_EDGE_BYTES / 2**20,
        partial_mb=res.partial_mb,
        method_chosen=method_chosen,
    )
