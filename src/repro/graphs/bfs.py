"""Bounded multi-source BFS with the frontier on the driver.

PathEnum's index needs two distance fields per query (Algorithm 3):

* ``ds``  = S(s, v | G-{t})  — forward from s, never expanding through t
* ``dt``  = S(v, t | G-{s})  — reverse from t, never expanding through s

and the BC-* baselines' barrier pruning needs two more, built only when a
BC-* plan asks for them (``repro.core.context``):

* ``dsf`` = S(s, v | G)      — forward from s
* ``dtf`` = S(v, t | G)      — reverse from t

Each table's BFSs run in ONE level loop, each BFS a *tag*.  The
distances and frontiers are driver-side NumPy arrays; only the edge scan
runs in Spark.  Per level, every tag whose frontier is not empty scans
the cached edge list with one ``IN`` predicate over its frontier (on
``src``, or on ``dst`` for a reverse tag — Catalyst turns the list into a
hash ``InSet``); the scans are unioned and collected in ONE Spark job,
and each tag's new vertices (those it has not reached before) are taken
in NumPy, so a vertex keeps the first level that reached it.  "G-{x}" is
realised as *reach-but-never-expand*: the excluded vertex receives a
distance (t is the endpoint of every path, s the start) but never enters
its tag's frontier, so no path through its interior is counted.  The
loop ends at the first level that reaches no new vertex, or at the hop
constraint ``k`` — distances larger than k are useless to the index and
are never computed.

The finished table is a pandas frame on the driver, sorted by ``v``;
nothing downstream needs it in Spark: the index build
(``repro.core.index``) looks distances up in it with ``searchsorted``.

Scale limit (DESIGN.md §7): the ``IN`` list holds one level's newly
reached vertices, at most |V| (2,500 in perfbench).  A frontier of
millions of ids at the paper's scale would have to be broadcast instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame


@dataclass(frozen=True)
class BfsSpec:
    """One BFS instance: tag name, root vertex, optional non-expandable
    vertex, and direction (reverse walks the transposed graph)."""

    tag: str
    root: int
    excluded: int | None = None
    reverse: bool = False


def bounded_bfs(
    edges: DataFrame,
    specs: list[BfsSpec],
    max_depth: int,
) -> pd.DataFrame:
    """Run all ``specs`` simultaneously, bounded at ``max_depth`` hops.

    Returns a pandas frame ``(v: int64, <tag>: Int32, ...)`` sorted by
    ``v``, one distance column per spec, with a row for every vertex
    within ``max_depth`` of some spec's root (roots at dist 0); a
    distance is NA where its tag did not reach the vertex.  Each level
    launches one Spark job; the loop stops at the first level that
    reaches no new vertex.
    """
    # levels[i][d]: the vertices tag i reached first at distance d.
    levels = [[np.array([sp.root], dtype=np.int64)] for sp in specs]
    seen = [lv[0] for lv in levels]
    for _ in range(max_depth):
        scans = []
        for i, sp in enumerate(specs):
            frontier = levels[i][-1]
            if sp.excluded is not None:
                frontier = frontier[frontier != sp.excluded]
            if len(frontier):
                key, out = ("dst", "src") if sp.reverse else ("src", "dst")
                ids = ",".join(map(str, frontier.tolist()))
                scans.append(
                    edges.where(f"{key} IN ({ids})").select(
                        F.lit(i).alias("tag"), F.col(out).alias("v")
                    )
                )
        if not scans:
            break
        rows = reduce(DataFrame.unionByName, scans).toPandas()
        tag, v = rows["tag"].to_numpy(), rows["v"].to_numpy(dtype=np.int64)
        for i in range(len(specs)):
            new = np.setdiff1d(v[tag == i], seen[i])
            levels[i].append(new)
            seen[i] = np.union1d(seen[i], new)

    ids = reduce(np.union1d, seen)
    table = pd.DataFrame({"v": ids})
    for sp, lv in zip(specs, levels):
        dist = np.zeros(len(ids), dtype=np.int32)
        missing = np.ones(len(ids), dtype=bool)
        for d, vs in enumerate(lv):
            at = np.searchsorted(ids, vs)
            dist[at], missing[at] = d, False
        table[sp.tag] = pd.arrays.IntegerArray(dist, missing)
    return table


def distance_table(
    edges: DataFrame,
    s: int,
    t: int,
    k: int,
) -> pd.DataFrame:
    """The index's distance table ``(v, ds, dt)`` for q(s,t,k).

    Missing distances (unreachable within k hops) are NA; the index
    build reads NA as "outside the index", which is exactly the paper's
    pruning semantics.
    """
    specs = [
        BfsSpec("ds", s, excluded=t, reverse=False),
        BfsSpec("dt", t, excluded=s, reverse=True),
    ]
    return bounded_bfs(edges, specs, k)


def full_distance_table(
    edges: DataFrame,
    s: int,
    t: int,
    k: int,
) -> pd.DataFrame:
    """The barrier baseline's full-graph distance table ``(v, dsf, dtf)``
    for q(s,t,k); NA as in :func:`distance_table`."""
    specs = [
        BfsSpec("dsf", s, excluded=None, reverse=False),
        BfsSpec("dtf", t, excluded=None, reverse=True),
    ]
    return bounded_bfs(edges, specs, k)
