"""Per-query context: distances, index edges and barrier edges for q(s,t,k).

Every enumerator (IDX-DFS, IDX-JOIN, BC-DFS, BC-JOIN, PathEnum) consumes a
:class:`QueryContext`.  :func:`build_context` runs the two-tag ``ds``/``dt``
BFS (one Spark job per level) and builds the index from it; the context
keeps the distance table both as a Spark view and as the driver-side
frame it was made from, which the planner reads.  The BC-* baselines'
state (the full-graph ``dsf``/``dtf`` BFS and the barrier edges built
from it) is built by :func:`build_barrier_edges` the first time a BC-*
plan reads ``barrier_edges``, so PathEnum never pays for it.
The experiment harness charges each algorithm the measured preprocessing
wall time it pays: ``bfs_s + index_s`` for IDX-* / PathEnum,
``barrier_s`` (its own BFS plus the barrier build) for BC-* — see
DESIGN.md §7.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, Observation, SparkSession

from repro.core.index import build_index_edges
from repro.graphs.bfs import distance_table, full_distance_table

if TYPE_CHECKING:
    from repro.core.estimator import IndexArrays


@dataclass
class QueryContext:
    """Everything downstream operators need for one HcPE query."""

    spark: SparkSession
    edges: DataFrame          # the graph the context was built on
    s: int
    t: int
    k: int
    dist: DataFrame           # (v, ds, dt) — NULL = beyond k hops
    dist_table: pd.DataFrame  # the same table on the driver (NA = beyond k hops)
    index_edges: DataFrame    # Algorithm 3's H as edges (see core.index)
    n_index_edges: int
    bfs_s: float              # wall time of the ds/dt BFS
    index_s: float            # wall time to materialise index edges
    n_barrier_edges: int = 0  # 0 until a BC-* plan builds the barrier edges
    barrier_s: float = 0.0    # wall time of the dsf/dtf BFS + barrier edges
    gamma: list[float] = field(default_factory=list)  # cached Eq.5 stats
    index_arrays: IndexArrays | None = None  # the planner's copy of the index
    _barrier_edges: DataFrame | None = field(default=None, init=False, repr=False)

    @property
    def barrier_edges(self) -> DataFrame:
        """BC-* pruned edges (full-graph distances), built on first use."""
        if self._barrier_edges is None:
            t0 = time.perf_counter()
            self._barrier_edges, self.n_barrier_edges = checkpoint_with_count(
                build_barrier_edges(self.spark, self.edges, self.s, self.t, self.k)
            )
            self.barrier_s = time.perf_counter() - t0
        return self._barrier_edges

    def unpersist(self) -> None:
        """Drop the context's reference to the barrier edges, if built.
        They and the index edges are local checkpoints: Spark frees their
        blocks once the frames are dropped (a persisted frame would also
        keep the broadcast distance tables of its plan alive)."""
        self._barrier_edges = None


def checkpoint_with_count(df: DataFrame) -> tuple[DataFrame, int]:
    """``df`` as a local checkpoint and its row count, in one Spark job."""
    size = Observation()
    df = df.observe(size, F.count(F.lit(1)).alias("n")).localCheckpoint(eager=True)
    return df, size.get["n"]


def build_barrier_edges(
    spark: SparkSession, edges: DataFrame, s: int, t: int, k: int
) -> DataFrame:
    """Baseline pruning (Peng et al., Appendix D): keep edges whose both
    endpoints satisfy S(s,v|G) + S(v,t|G) <= k.  Coarser than the index:
    no per-budget bucketing, and full-graph distances ignore the interior
    s/t exclusion, so BC-* touches strictly more candidates per step."""
    dist = full_distance_table(spark, edges, s, t, k)
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
        edges.join(F.broadcast(src_d), "src")
        .join(F.broadcast(dst_d), "dst")
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
    """Run the ds/dt BFS and materialise the index edges."""
    t0 = time.perf_counter()
    dist = distance_table(spark, edges, s, t, k)
    bfs_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    idx, n_idx = checkpoint_with_count(build_index_edges(edges, dist, s, t, k))
    index_s = time.perf_counter() - t0

    return QueryContext(
        spark=spark,
        edges=edges,
        s=s,
        t=t,
        k=k,
        dist=dist,
        dist_table=dist.driver_table,
        index_edges=idx,
        n_index_edges=n_idx,
        bfs_s=bfs_s,
        index_s=index_s,
    )
