"""Per-query context: distances, index edges and barrier edges for q(s,t,k).

Every enumerator (IDX-DFS, IDX-JOIN, BC-DFS, BC-JOIN, PathEnum) consumes a
:class:`QueryContext`.  The four BFS distance fields are computed once in
a single multi-tag loop and shared; the experiment harness charges each
algorithm the measured preprocessing wall-time it would have paid on its
own (``bfs_s`` for everyone, plus ``index_s`` for IDX-* / ``barrier_s``
for BC-*) — see DESIGN.md §7.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.core.index import build_index_edges
from repro.graphs.bfs import distance_table

if TYPE_CHECKING:
    from repro.core.estimator import IndexArrays


@dataclass
class QueryContext:
    """Everything downstream operators need for one HcPE query."""

    spark: SparkSession
    s: int
    t: int
    k: int
    dist: DataFrame           # (v, ds, dt, dsf, dtf) — NULL = beyond k hops
    index_edges: DataFrame    # Algorithm 3's H as edges (see core.index)
    barrier_edges: DataFrame  # BC-* pruned edges (full-graph distances)
    n_index_edges: int
    n_barrier_edges: int
    bfs_s: float              # wall time of the shared 4-tag BFS
    index_s: float            # wall time to materialise index edges
    barrier_s: float          # wall time to materialise barrier edges
    gamma: list[float] = field(default_factory=list)  # cached Eq.5 stats
    index_arrays: IndexArrays | None = None  # the planner's copy of the index

    def unpersist(self) -> None:
        for df in (self.dist, self.index_edges, self.barrier_edges):
            df.unpersist()


def build_barrier_edges(edges: DataFrame, dist: DataFrame, k: int) -> DataFrame:
    """Baseline pruning (Peng et al., Appendix D): keep edges whose both
    endpoints satisfy S(s,v|G) + S(v,t|G) <= k.  Coarser than the index:
    no per-budget bucketing, and full-graph distances ignore the interior
    s/t exclusion, so BC-* touches strictly more candidates per step."""
    src_d = dist.select(
        F.col("v").alias("src"),
        F.col("dsf").alias("dsf_src"),
        F.col("dtf").alias("dtf_src"),
    )
    dst_d = dist.select(
        F.col("v").alias("dst"),
        F.col("dsf").alias("dsf_dst"),
        F.col("dtf").alias("dtf_dst"),
    )
    extras = [c for c in edges.columns if c not in ("src", "dst")]
    return (
        edges.join(src_d, "src")
        .join(dst_d, "dst")
        .where(
            (F.col("dsf_src") + F.col("dtf_src") <= k)
            & (F.col("dsf_dst") + F.col("dtf_dst") <= k)
        )
        .select("src", "dst", "dsf_src", "dtf_src", "dsf_dst", "dtf_dst", *extras)
    )


def build_context(
    spark: SparkSession,
    edges: DataFrame,
    s: int,
    t: int,
    k: int,
) -> QueryContext:
    """Run the BFS phase and materialise both pruned edge sets."""
    t0 = time.perf_counter()
    dist = distance_table(spark, edges, s, t, k).persist()
    dist.count()
    bfs_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    idx = build_index_edges(edges, dist, s, t, k).persist()
    n_idx = idx.count()
    index_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    bar = build_barrier_edges(edges, dist, k).persist()
    n_bar = bar.count()
    barrier_s = time.perf_counter() - t0

    return QueryContext(
        spark=spark,
        s=s,
        t=t,
        k=k,
        dist=dist,
        index_edges=idx,
        barrier_edges=bar,
        n_index_edges=n_idx,
        n_barrier_edges=n_bar,
        bfs_s=bfs_s,
        index_s=index_s,
        barrier_s=barrier_s,
    )
