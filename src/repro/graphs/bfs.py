"""Bounded two-sided BFS: ⌈k/2⌉ rounds of edge collection in Spark, the
distances on the driver.

PathEnum's index needs two distance fields per query (Algorithm 3):

* ``ds``  = S(s, v | G-{t})  — forward from s, never expanding through t
* ``dt``  = S(v, t | G-{s})  — reverse from t, never expanding through s

and the BC-* baselines' barrier pruning needs two more, built only when a
BC-* plan asks for them (``repro.core.context``):

* ``dsf`` = S(s, v | G)      — forward from s
* ``dtf`` = S(v, t | G)      — reverse from t

"G-{x}" is realised as *reach-but-never-expand*: the excluded vertex
receives a distance (t is the endpoint of every path, s the start) but is
never expanded, so no path through its interior is counted.

**Why ⌈k/2⌉ rounds hold every edge the index keeps.**  Algorithm 3 keeps
the edges ``u→w`` with ``ds(u) + 1 + dt(w) <= k``, so ``ds(u) < ⌈k/2⌉`` or
``dt(w) < ⌊k/2⌋``.  :func:`collect_edges` therefore scans the out-edges of
every vertex the forward BFS reaches at depth 0..⌈k/2⌉−1 and the in-edges
of every vertex the reverse BFS reaches at depth 0..⌊k/2⌋−1.  Round r is
ONE Spark job: a ``src IN (F_r)`` scan of the cached edges (``F_r``: the
forward vertices first reached at depth r, minus the excluded one)
unioned with a ``dst IN (B_r)`` scan (``B_r`` likewise for the reverse
side; Catalyst turns each list into a hash ``InSet``), collected whole —
extra edge columns such as labels or weights come along — with
``toPandas()``.  The same argument holds for every edge of a shortest
path that fixes ``ds`` or ``dt`` of a vertex with ``ds + dt <= k``: a
forward path edge ``u_i→u_{i+1}`` with ``i >= ⌈k/2⌉`` has
``dt(u_{i+1}) <= ⌊k/2⌋ − 1``, and symmetrically.  So :func:`bounded_bfs`
over the collected edges gives the exact distances of exactly those
vertices, and larger (or no) distances elsewhere: the table keeps the
vertices with ``ds + dt <= k``, plus s and t.

An edge can be collected twice, forward from its ``src`` and reverse into
its ``dst``; a reverse row is dropped when its ``src`` was scanned
forward (that scan returned all of its out-edges), which keeps real
duplicate edge rows as often as the graph holds them.

Scale limit (DESIGN.md §7): the rows collected are at most the rows the
k-level BFS scanned, and each ``IN`` list holds one round's new vertices,
at most |V| (2,500 in perfbench).  A frontier of millions of ids at the
paper's scale would have to be broadcast instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

#: the column that tells a collected row's side (0 forward, 1 reverse).
_SIDE = "_side"


@dataclass(frozen=True)
class BfsSpec:
    """One BFS instance: tag name, root vertex, optional non-expandable
    vertex, and direction (reverse walks the transposed graph)."""

    tag: str
    root: int
    excluded: int | None = None
    reverse: bool = False

    def expandable(self, vs: np.ndarray) -> np.ndarray:
        """``vs`` without the excluded vertex."""
        return vs if self.excluded is None else vs[vs != self.excluded]


def bounded_bfs(
    src: np.ndarray,
    dst: np.ndarray,
    specs: list[BfsSpec],
    max_depth: int,
) -> pd.DataFrame:
    """Run all ``specs`` over the edge list ``src[i] → dst[i]`` on the
    driver, bounded at ``max_depth`` hops.

    Returns a pandas frame ``(v: int64, <tag>: Int32, ...)`` sorted by
    ``v``, one distance column per spec, with a row for every vertex
    within ``max_depth`` of some spec's root (roots at dist 0); a
    distance is NA where its tag did not reach the vertex.  A tag stops
    at the first level that reaches no new vertex.
    """
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    # levels[i][d]: the vertices tag i reached first at distance d.
    levels = []
    for sp in specs:
        key, out = (dst, src) if sp.reverse else (src, dst)
        lv = [np.array([sp.root], dtype=np.int64)]
        seen = lv[0]
        for _ in range(max_depth):
            new = np.setdiff1d(out[np.isin(key, sp.expandable(lv[-1]))], seen)
            if not len(new):
                break
            lv.append(new)
            seen = np.union1d(seen, new)
        levels.append(lv)

    ids = np.unique(np.concatenate([v for lv in levels for v in lv]))
    table = pd.DataFrame({"v": ids})
    for sp, lv in zip(specs, levels):
        dist = np.zeros(len(ids), dtype=np.int32)
        missing = np.ones(len(ids), dtype=bool)
        for d, vs in enumerate(lv):
            at = np.searchsorted(ids, vs)
            dist[at], missing[at] = d, False
        table[sp.tag] = pd.arrays.IntegerArray(dist, missing)
    return table


def collect_edges(edges: DataFrame, fwd: BfsSpec, rev: BfsSpec, k: int) -> pd.DataFrame:
    """The edge rows of the ⌈k/2⌉ two-sided rounds (module docstring):
    the out-edges of the ``fwd`` BFS's vertices at depth < ⌈k/2⌉ and the
    in-edges of the ``rev`` BFS's vertices at depth < ⌊k/2⌋, each edge
    row as often as ``edges`` holds it.  One Spark job per round; the
    rounds stop early once neither side has a vertex left to scan."""
    sides = ((fwd, "src", "dst", (k + 1) // 2), (rev, "dst", "src", k // 2))
    frontier = [sp.expandable(np.array([sp.root], dtype=np.int64)) for sp, *_ in sides]
    seen = [np.array([sp.root], dtype=np.int64) for sp, *_ in sides]
    scanned_fwd, frames = [], []
    for r in range((k + 1) // 2):
        scans = []
        for i, (_, key, _, depth) in enumerate(sides):
            if r < depth and len(frontier[i]):
                ids = ",".join(map(str, frontier[i].tolist()))
                scans.append(edges.where(f"{key} IN ({ids})").withColumn(_SIDE, F.lit(i)))
        if not scans:
            break
        scanned_fwd.append(frontier[0])  # the forward side scans every round
        rows = reduce(DataFrame.unionByName, scans).toPandas()
        frames.append(rows)
        for i, (sp, _, out, _) in enumerate(sides):
            reached = rows[out].to_numpy(dtype=np.int64)[rows[_SIDE].to_numpy() == i]
            new = np.setdiff1d(reached, seen[i])
            seen[i] = np.union1d(seen[i], new)
            frontier[i] = sp.expandable(new)
    if not frames:
        return edges.where("false").toPandas()
    rows = pd.concat(frames, ignore_index=True)
    scanned = np.concatenate(scanned_fwd)
    dup = (rows[_SIDE].to_numpy() == 1) & np.isin(rows["src"].to_numpy(dtype=np.int64), scanned)
    return rows[~dup].drop(columns=_SIDE).reset_index(drop=True)


def _two_sided_table(
    edges: DataFrame, fwd: BfsSpec, rev: BfsSpec, k: int
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """``(table, rows)``: the rows of :func:`collect_edges` and the table
    of the vertices with ``<fwd> + <rev> <= k`` plus both roots, exact
    there (module docstring)."""
    rows = collect_edges(edges, fwd, rev, k)
    table = bounded_bfs(rows["src"].to_numpy(), rows["dst"].to_numpy(), [fwd, rev], k)
    near = (table[fwd.tag] + table[rev.tag] <= k).fillna(False).to_numpy(dtype=bool)
    near |= table["v"].isin([fwd.root, rev.root]).to_numpy()
    return table[near].reset_index(drop=True), rows


def distance_table(
    edges: DataFrame,
    s: int,
    t: int,
    k: int,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """The index's distance table ``(v, ds, dt)`` for q(s,t,k), and the
    edge rows collected on the way; ⌈k/2⌉ Spark jobs at most.

    The table holds exactly the vertices with ``ds + dt <= k``, plus s
    and t; a distance beyond k hops is NA, which the index build reads
    as "outside the index" — exactly the paper's pruning semantics.  The
    rows hold every edge Algorithm 3 keeps (``repro.core.index``).
    """
    return _two_sided_table(
        edges,
        BfsSpec("ds", s, excluded=t, reverse=False),
        BfsSpec("dt", t, excluded=s, reverse=True),
        k,
    )


def full_distance_table(
    edges: DataFrame,
    s: int,
    t: int,
    k: int,
) -> pd.DataFrame:
    """The barrier baseline's full-graph distance table ``(v, dsf, dtf)``
    for q(s,t,k), as in :func:`distance_table` but without the s/t
    exclusion; the barrier build scans the edges it needs itself."""
    table, _ = _two_sided_table(
        edges,
        BfsSpec("dsf", s, excluded=None, reverse=False),
        BfsSpec("dtf", t, excluded=None, reverse=True),
        k,
    )
    return table
