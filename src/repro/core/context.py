"""Per-query context: distances, index edges and barrier edges for q(s,t,k).

Every enumerator (IDX-DFS, IDX-JOIN, BC-DFS, BC-JOIN, PathEnum) consumes a
:class:`QueryContext`.  :func:`build_context` runs the two-sided ``ds``/``dt``
BFS (``repro.graphs.bfs``): ⌈k/2⌉ rounds, one Spark job each, collect the
edges around s and t, and the driver computes the distance table from
them.  Those edges hold every index edge, so the index is built from them
on the driver with no further Spark job (``repro.core.index``): the
context keeps it both as the Spark view the enumerators join against and
as the driver arrays the planner reads, so planning launches no Spark job
either.  The BC-* baselines' state (the full-graph ``dsf``/``dtf`` BFS and
the barrier edges built from it by the same function, with one edge scan
of its own) is built the first time a BC-* plan reads ``barrier_edges``,
so PathEnum never pays for it.  The experiment harness charges each
algorithm the measured preprocessing wall time it pays: ``bfs_s +
index_s`` for IDX-* / PathEnum, ``barrier_s`` (its own BFS plus the
barrier build) for BC-* — see DESIGN.md §7.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.index import IndexArrays, build_edge_set
from repro.graphs.bfs import distance_table, full_distance_table


@dataclass
class QueryContext:
    """Everything downstream operators need for one HcPE query."""

    spark: SparkSession
    edges: DataFrame          # the graph the context was built on
    s: int
    t: int
    k: int
    dist: pd.DataFrame        # (v, ds, dt) sorted by v: ds+dt <= k, and s, t
    index_edges: DataFrame    # Algorithm 3's H as edges (see core.index)
    index: IndexArrays        # the same edges on the driver, read by the planner
    bfs_s: float              # wall time of the ds/dt BFS and its edge rounds
    index_s: float            # wall time of the index build
    n_barrier_edges: int = 0  # 0 until a BC-* plan builds the barrier edges
    barrier_s: float = 0.0    # wall time of the dsf/dtf BFS + barrier edges
    _barrier_edges: DataFrame | None = field(default=None, init=False, repr=False)

    @property
    def n_index_edges(self) -> int:
        return len(self.index.src)

    @property
    def barrier_edges(self) -> DataFrame:
        """BC-* pruned edges (full-graph distances), built on first use.

        Coarser than the index: no per-budget bucketing, and full-graph
        distances ignore the interior s/t exclusion, so BC-* touches
        strictly more candidates per step."""
        if self._barrier_edges is None:
            t0 = time.perf_counter()
            table = full_distance_table(self.edges, self.s, self.t, self.k)
            self._barrier_edges, arrays = build_edge_set(
                self.edges, table, self.s, self.t, self.k, barrier=True
            )
            self.n_barrier_edges = len(arrays.src)
            self.barrier_s = time.perf_counter() - t0
        return self._barrier_edges

    def unpersist(self) -> None:
        """Drop the context's reference to the barrier edges, if built.
        Both edge views are local relations made on the driver and hold
        no cached blocks: Spark frees them once the frames are dropped."""
        self._barrier_edges = None


def build_context(
    spark: SparkSession,
    edges: DataFrame,
    s: int,
    t: int,
    k: int,
) -> QueryContext:
    """Run the ds/dt BFS and build the index edges from the edge rows it
    collected: ⌈k/2⌉ Spark jobs at most."""
    t0 = time.perf_counter()
    dist, rows = distance_table(edges, s, t, k)
    bfs_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    index_edges, index = build_edge_set(edges, dist, s, t, k, rows=rows)
    index_s = time.perf_counter() - t0

    return QueryContext(
        spark=spark,
        edges=edges,
        s=s,
        t=t,
        k=k,
        dist=dist,
        index_edges=index_edges,
        index=index,
        bfs_s=bfs_s,
        index_s=index_s,
    )
