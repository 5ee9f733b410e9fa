"""Light-weight per-query index (paper §4.2, Algorithm 3) as DataFrames.

The sequential implementation stores, per vertex, a neighbor array sorted
by distance-to-t with per-budget offsets so ``I_t(v, b)`` is an O(1)
slice.  The relational equivalent is one **index-edge DataFrame**

    (src, dst, ds_src, dt_src, ds_dst, dt_dst)

holding exactly the edges Algorithm 3 would keep in ``H``:

* ``src`` is in the partition table X:  ``ds_src + dt_src <= k``;
* the neighbor passes the budget screen:  ``ds_src + 1 + dt_dst <= k``;
* edges out of ``t`` and into ``s`` are dropped — mirroring the relation
  construction of §3.1 (``R_i`` over ``E(G - {s})`` with ``v != t``): no
  s-t path re-enters s or leaves t.

``I_t(v, b)`` then becomes an equi-join on ``src`` with the pushed-down
filter ``dt_dst <= b`` — same pruning, Catalyst-native.  The vertex
partitions ``C_i`` (paper ``I(i)``) come from the distance table.
"""
from __future__ import annotations

import pyspark.sql.functions as F
from pyspark.sql import Column, DataFrame

#: estimated in-memory row width of an index edge (6 numeric fields).
INDEX_EDGE_BYTES = 6 * 8


def build_index_edges(edges: DataFrame, dist: DataFrame, s: int, t: int, k: int) -> DataFrame:
    """Join the edge list with the broadcast distance table and keep index edges.

    ``dist`` is the output of :func:`repro.graphs.bfs.distance_table`;
    NULL distances mean "not within k hops" and fail every comparison, so
    unreachable vertices drop out exactly as in the paper.
    """
    src_d = dist.select(
        F.col("v").alias("src"),
        F.col("ds").alias("ds_src"),
        F.col("dt").alias("dt_src"),
    )
    dst_d = dist.select(
        F.col("v").alias("dst"),
        F.col("ds").alias("ds_dst"),
        F.col("dt").alias("dt_dst"),
    )
    extras = [c for c in edges.columns if c not in ("src", "dst")]
    return (
        edges.join(F.broadcast(src_d), "src")
        .join(F.broadcast(dst_d), "dst")
        .where(
            (F.col("ds_src") + F.col("dt_src") <= k)
            & (F.col("ds_src") + 1 + F.col("dt_dst") <= k)
            & (F.col("src") != F.lit(t))
            & (F.col("dst") != F.lit(s))
        )
        .select("src", "dst", "ds_src", "dt_src", "ds_dst", "dt_dst", *extras)
    )


def c_i_condition(i: int, k: int) -> Column:
    """Membership predicate for C_i = I(i) over the distance table."""
    return (F.col("ds") <= i) & (F.col("dt") <= k - i)


def c_i(dist: DataFrame, i: int, k: int) -> DataFrame:
    """The vertex partition C_i (paper lookup ``I(i)``)."""
    return dist.where(c_i_condition(i, k)).select("v")


def index_size_bytes(n_index_edges: int) -> int:
    """Table-7-style index memory estimate from the edge count."""
    return n_index_edges * INDEX_EDGE_BYTES
