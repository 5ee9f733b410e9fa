"""Light-weight per-query index (paper §4.2, Algorithm 3), built on the driver.

The sequential implementation stores, per vertex, a neighbor array sorted
by distance-to-t with per-budget offsets so ``I_t(v, b)`` is an O(1)
slice.  The relational equivalent is one **index-edge DataFrame**

    (src, dst, ds_src, dt_src, dt_dst)

holding exactly the edges Algorithm 3 would keep in ``H``:

* ``src`` is in the partition table X:  ``ds_src + dt_src <= k``, ``src != t``;
* the neighbor passes the budget screen:  ``ds_src + 1 + dt_dst <= k``;
* edges into ``s`` are dropped — mirroring the relation construction of
  §3.1 (``R_i`` over ``E(G - {s})`` with ``v != t``): no s-t path
  re-enters s or leaves t.

``I_t(v, b)`` then becomes an equi-join on ``src`` with the pushed-down
filter ``dt_dst <= b`` — same pruning, Catalyst-native.  The vertex
partitions ``C_i`` (paper ``I(i)``) come from the distance table.

:func:`build_edge_set` builds the index, and the BC-* baselines' barrier
edges (Peng et al., Appendix D: both endpoints satisfy
``S(s,v|G) + S(v,t|G) <= k``), from a distance table and edge rows on
the driver.  For the index, the rows are the ones the context's
two-sided BFS rounds collected (``repro.graphs.bfs``): they hold every
edge the rules keep, so the index costs no Spark job.  The barrier
edges need a scan of their own — an edge whose endpoints both lie deep
in X satisfies the barrier rule without being collected — ONE Spark
job: the edges with ``src IN (X)``, collected with ``toPandas()``.  Both endpoints' distances are looked up in the table
with ``searchsorted`` and the rules run in NumPy.  The same arrays give
the planner's :class:`IndexArrays` and the Spark view the enumerators
join against: ``createDataFrame`` over an Arrow table with an explicit
schema, a local relation whatever the session's Arrow setting and for
zero rows too.  An empty pandas frame takes Spark's row path instead: a
Python RDD, against which a broadcast join and checkpoint took 2.7 s the
first time and 0.4 s after, against 0.6 and 0.05 s over Arrow (perfbench
session, local[4] on 4 vCPUs; perfbench's k = 1 warm-up query has an
empty index).

Scale limit (DESIGN.md §7): the barrier's X holds at most |V| ids, the
same ``IN`` list limit as the BFS rounds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql.types import IntegerType, StructField, StructType

#: estimated in-memory row width of an index edge (5 numeric fields).
INDEX_EDGE_BYTES = 5 * 8


@dataclass(frozen=True)
class IndexArrays:
    """A per-query edge set on the driver, over dense vertex ids 0..n-1.

    ``ids[i]`` is dense vertex i's graph id.  Distances the table does
    not hold (beyond k hops) read ``k + 1``.
    """

    ids: np.ndarray     # per vertex, sorted
    ds: np.ndarray
    dt: np.ndarray
    src: np.ndarray     # per edge
    dst: np.ndarray
    ds_src: np.ndarray
    dt_src: np.ndarray
    dt_dst: np.ndarray
    s: int
    t: int


def build_edge_set(
    edges: DataFrame,
    table: pd.DataFrame,
    s: int,
    t: int,
    k: int,
    *,
    barrier: bool = False,
    rows: pd.DataFrame | None = None,
) -> tuple[DataFrame, IndexArrays]:
    """The index (``table`` is ``(v, ds, dt)``) or, with ``barrier``, the
    barrier edges (``table`` is ``(v, dsf, dtf)``) of q(s,t,k), as a
    Spark view and as driver arrays.

    * index:   X = {v : ds+dt <= k, v != t}; keep ``src`` in X,
      ``ds_src + 1 + dt_dst <= k`` and ``dst != s``;
    * barrier: X = {v : dsf+dtf <= k}; keep ``src`` and ``dst`` in X.

    ``rows`` are edge rows of ``edges`` that hold every kept edge as often
    as ``edges`` does; without them, one Spark job scans ``src IN (X)``.
    The view's columns are ``src, dst, <ds>_src, <dt>_src, <dt>_dst`` and
    the edges' other columns.
    """
    d_s, d_t = ("dsf", "dtf") if barrier else ("ds", "dt")
    far = k + 1
    ids = table["v"].to_numpy(dtype=np.int64)
    ds = table[d_s].to_numpy(dtype=np.int64, na_value=far)
    dt = table[d_t].to_numpy(dtype=np.int64, na_value=far)
    in_x = ds + dt <= k
    if not barrier:
        in_x &= ids != t
    if rows is None:
        x = ",".join(map(str, ids[in_x].tolist()))
        rows = edges.where(f"src IN ({x})" if x else "false").toPandas()

    src, src_known = _lookup(ids, rows["src"].to_numpy(dtype=np.int64))
    dst_id = rows["dst"].to_numpy(dtype=np.int64)
    dst, dst_known = _lookup(ids, dst_id)
    keep = src_known & dst_known & in_x[src]
    if barrier:
        keep &= in_x[dst]
    else:
        keep &= (ds[src] + 1 + dt[dst] <= k) & (dst_id != s)

    src, dst, rows = src[keep], dst[keep], rows[keep]
    arrays = IndexArrays(
        ids=ids,
        ds=ds,
        dt=dt,
        src=src,
        dst=dst,
        ds_src=ds[src],
        dt_src=dt[src],
        dt_dst=dt[dst],
        s=int(np.searchsorted(ids, s)),
        t=int(np.searchsorted(ids, t)),
    )
    dist = {
        f"{d_s}_src": arrays.ds_src,
        f"{d_t}_src": arrays.dt_src,
        f"{d_t}_dst": arrays.dt_dst,
    }
    extras = [c for c in rows.columns if c not in ("src", "dst")]
    columns = pa.table(
        {
            "src": ids[src],
            "dst": ids[dst],
            **{c: v.astype(np.int32) for c, v in dist.items()},
            **{c: rows[c].to_numpy() for c in extras},
        }
    )
    schema = StructType(
        [
            edges.schema["src"],
            edges.schema["dst"],
            *(StructField(c, IntegerType(), False) for c in dist),
            *(edges.schema[c] for c in extras),
        ]
    )
    view = edges.sparkSession.createDataFrame(columns, schema=schema)
    return view, arrays


def _lookup(ids: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``vs`` in the sorted ``ids`` and whether each is there."""
    at = np.searchsorted(ids, vs).clip(max=len(ids) - 1)
    return at, ids[at] == vs


def c_i(ix: IndexArrays, i, k: int) -> np.ndarray:
    """Membership mask of C_i = I(i) over the dense vertices (paper
    lookup ``I(i)``); ``i`` may be an array to get one row per position."""
    return (ix.ds <= i) & (ix.dt <= k - i)


def index_size_bytes(n_index_edges: int) -> int:
    """Table-7-style index memory estimate from the edge count."""
    return n_index_edges * INDEX_EDGE_BYTES
