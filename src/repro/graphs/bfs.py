"""Bounded multi-source BFS as iterative DataFrame joins.

PathEnum's index needs two distance fields per query (Algorithm 3):

* ``ds``  = S(s, v | G-{t})  — forward from s, never expanding through t
* ``dt``  = S(v, t | G-{s})  — reverse from t, never expanding through s

and the BC-* baselines' barrier pruning needs two more, built only when a
BC-* plan asks for them (``repro.core.context``):

* ``dsf`` = S(s, v | G)      — forward from s
* ``dtf`` = S(v, t | G)      — reverse from t

Each table's BFSs run in ONE iterative loop: each BFS is a *tag*, the
tagged edge sets are unioned and persisted, and every iteration expands
every tag's frontier with a single join (Pregel-style, Catalyst-native —
the PySpark stand-in for GraphX).  "G-{x}" is realised as
*reach-but-never-expand*: the tag's edges out of the excluded vertex are
filtered away once, up front, so the vertex may receive a distance (t is
the endpoint of every path, s the start) but no path through its interior
is counted.

Per level the frontier is broadcast into the join with the persisted
tagged edges, so the graph is never re-shuffled.  The reached vertices
are folded into the one ``visited`` frame ``(v, <tag>...)`` by a
per-vertex minimum (a vertex keeps the first level that reached it),
which is re-checkpointed; an observation on that checkpoint counts the
level's new vertices in the same job, and the loop ends at the first
level with none.  Depth is bounded by the hop constraint ``k`` —
distances larger than k are useless to the index and are never
computed.
"""
from __future__ import annotations

from dataclasses import dataclass

import pyspark.sql.functions as F
from pyspark.sql import DataFrame, Observation, SparkSession


@dataclass(frozen=True)
class BfsSpec:
    """One BFS instance: tag name, root vertex, optional non-expandable
    vertex, and direction (reverse walks the transposed graph)."""

    tag: str
    root: int
    excluded: int | None = None
    reverse: bool = False


def bounded_bfs(
    spark: SparkSession,
    edges: DataFrame,
    specs: list[BfsSpec],
    max_depth: int,
) -> DataFrame:
    """Run all ``specs`` simultaneously, bounded at ``max_depth`` hops.

    Returns a checkpointed DataFrame ``(v: long, <tag>: int, ...)``, one
    distance column per spec, with a row for every vertex within
    ``max_depth`` of some spec's root (roots at dist 0); a distance is
    NULL where its tag did not reach the vertex.  The loop stops at the
    first level that reaches no new vertex.
    """
    tags = [sp.tag for sp in specs]
    tagged = None
    for sp in specs:
        e = edges.select(F.col("dst").alias("src"), F.col("src").alias("dst")) if sp.reverse else edges.select("src", "dst")
        if sp.excluded is not None:
            e = e.where(F.col("src") != F.lit(sp.excluded))
        e = e.withColumn("tag", F.lit(sp.tag))
        tagged = e if tagged is None else tagged.unionByName(e)
    tagged = tagged.persist()

    roots: dict[int, list[int | None]] = {}
    for i, sp in enumerate(specs):
        roots.setdefault(sp.root, [None] * len(specs))[i] = 0
    visited = spark.createDataFrame(
        [(v, *d) for v, d in roots.items()],
        schema=", ".join(["v long", *(f"{tag} int" for tag in tags)]),
    ).localCheckpoint(eager=True)
    for depth in range(1, max_depth + 1):
        frontier = None
        for tag in tags:
            f = visited.where(F.col(tag) == depth - 1).select(
                F.lit(tag).alias("tag"), F.col("v").alias("src")
            )
            frontier = f if frontier is None else frontier.unionByName(f)
        reached = tagged.join(F.broadcast(frontier), on=["tag", "src"]).select(
            F.col("dst").alias("v"),
            *(F.when(F.col("tag") == tag, F.lit(depth)).alias(tag) for tag in tags),
        )
        level = Observation()
        visited = (
            visited.unionByName(reached)
            .groupBy("v")
            .agg(*(F.min(tag).alias(tag) for tag in tags))
            .observe(level, F.count_if(F.array_contains(F.array(*tags), depth)).alias("n"))
            .localCheckpoint(eager=True)
        )
        if not level.get["n"]:
            break

    tagged.unpersist()
    return visited


def distance_table(
    spark: SparkSession,
    edges: DataFrame,
    s: int,
    t: int,
    k: int,
) -> DataFrame:
    """The index's distance table ``(v, ds, dt)`` for q(s,t,k).

    Missing distances (unreachable within k hops) are NULL; downstream
    index filters treat NULL as "outside the index", which is exactly the
    paper's pruning semantics.
    """
    specs = [
        BfsSpec("ds", s, excluded=t, reverse=False),
        BfsSpec("dt", t, excluded=s, reverse=True),
    ]
    return bounded_bfs(spark, edges, specs, k)


def full_distance_table(
    spark: SparkSession,
    edges: DataFrame,
    s: int,
    t: int,
    k: int,
) -> DataFrame:
    """The barrier baseline's full-graph distance table ``(v, dsf, dtf)``
    for q(s,t,k); NULL as in :func:`distance_table`."""
    specs = [
        BfsSpec("dsf", s, excluded=None, reverse=False),
        BfsSpec("dtf", t, excluded=None, reverse=True),
    ]
    return bounded_bfs(spark, edges, specs, k)
