"""Cardinality estimation and join-order optimisation (paper §6, Alg. 5).

Both estimators are O(k·|index|) arithmetic, so they run on the driver in
NumPy over one collect of the per-query index (:func:`index_arrays`): the
index edges and the distance table.  The index is small by construction
(at most 5.9 MB at the paper's scale, Table 7), and a query launches at
most two Spark jobs for planning whichever estimators run.

* :func:`preliminary_estimate` (Eq. 5) — per-position average branching
  factors ``gamma_j`` over the index, multiplied out.  Cheap; used to gate
  the full estimator.
* :func:`full_estimate` (Eq. 6/7, Algorithm 5) — exact *walk*-count
  dynamic programming on the index: forward counts ``f_i(v)`` (walks
  s->v arriving at position i) and backward counts ``w_i(v)`` (walks
  v->t within budget k-i).  From these: per-cut sizes ``A[i]=|Q[0:i]|``
  and ``B[i]=|Q[i:k]|``, the optimal cut ``i* = argmin(A[i]+B[i])`` and
  the plan costs ``T_DFS`` / ``T_JOIN`` of the Eq. 1 cost model.

Counts follow the (t,t)-padded join model: a walk that reaches t early
keeps counting as a padded tuple, which equals exactly what the join
method materialises (early results + R_a) — see DESIGN.md §2.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pyspark.sql.functions as F

from repro.core.context import QueryContext


@dataclass(frozen=True)
class IndexArrays:
    """The per-query index on the driver, over dense vertex ids 0..n-1.

    Distances the table does not hold (beyond k hops) read ``k + 1``.
    """

    src: np.ndarray     # per index edge
    dst: np.ndarray
    ds_src: np.ndarray
    dt_src: np.ndarray
    dt_dst: np.ndarray
    ds: np.ndarray      # per vertex
    dt: np.ndarray
    s: int
    t: int


def index_arrays(ctx: QueryContext) -> IndexArrays:
    """Collect the index edges and the distance table once per query
    (two Spark jobs) and cache them on the context."""
    if ctx.index_arrays is None:
        far = F.lit(ctx.k + 1)
        edges = ctx.index_edges.select("src", "dst", "ds_src", "dt_src", "dt_dst").toPandas()
        dist = ctx.dist.select(
            "v", F.coalesce("ds", far).alias("ds"), F.coalesce("dt", far).alias("dt")
        ).toPandas()
        e = {c: edges[c].to_numpy(dtype=np.int64) for c in edges.columns}
        d = {c: dist[c].to_numpy(dtype=np.int64) for c in dist.columns}
        ids = np.unique(np.concatenate([d["v"], e["src"], e["dst"], [ctx.s, ctx.t]]))
        ds = np.full(len(ids), ctx.k + 1, dtype=np.int64)
        dt = ds.copy()
        at = np.searchsorted(ids, d["v"])
        ds[at], dt[at] = d["ds"], d["dt"]
        ctx.index_arrays = IndexArrays(
            src=np.searchsorted(ids, e["src"]),
            dst=np.searchsorted(ids, e["dst"]),
            ds_src=e["ds_src"],
            dt_src=e["dt_src"],
            dt_dst=e["dt_dst"],
            ds=ds,
            dt=dt,
            s=int(np.searchsorted(ids, ctx.s)),
            t=int(np.searchsorted(ids, ctx.t)),
        )
    return ctx.index_arrays


def preliminary_estimate(ctx: QueryContext) -> float:
    """Eq. 5: rough search-space size from per-position branching stats.

    gamma_j = (1/|C_j|) * sum_{v in C_j} |I_t(v, k-j-1)|;
    T_hat   = sum_{i<k} prod_{j<=i} gamma_j.
    Stats are cached on the context (the paper collects them while
    building the index).
    """
    k = ctx.k
    if not ctx.gamma:
        ix = index_arrays(ctx)
        j = np.arange(k)[:, None]
        cnt = np.count_nonzero(
            (ix.ds_src <= j) & (ix.dt_src <= k - j) & (ix.dt_dst <= k - j - 1), axis=1
        )
        size = np.count_nonzero((ix.ds <= j) & (ix.dt <= k - j), axis=1)
        gamma = np.divide(cnt, size, out=np.zeros(k), where=size > 0)
        ctx.gamma = gamma.tolist()
    t_hat, prod = 0.0, 1.0
    for g in ctx.gamma:
        prod *= g
        t_hat += prod
    return t_hat


@dataclass
class FullEstimate:
    """Outcome of Algorithm 5 over the index."""

    a: list[float]        # A[i] = |Q[0:i]|, i = 0..k (padded prefix counts)
    b: list[float]        # B[i] = |Q[i:k]|, i = 0..k (suffix walk counts)
    ended: list[float]    # walks s->t finishing exactly at position i
    walks: float          # |Q| = total walks within k
    i_star: int           # argmin_i (A[i] + B[i])
    t_dfs: float          # Eq. 1 cost of the left-deep plan
    t_join: float         # Eq. 1 cost of the bushy plan cut at i_star
    opt_s: float          # wall time of the optimisation


def full_estimate(ctx: QueryContext) -> FullEstimate:
    """Run the forward/backward walk-count DP and pick the cut position.

    Position i -> i+1 follows the index edges whose ``dt_dst <= k-i-1``;
    each step is one ``np.bincount`` over them.
    """
    t0 = time.perf_counter()
    ix = index_arrays(ctx)
    s, t, k = ix.s, ix.t, ctx.k
    n = len(ix.ds)

    def step(frm: np.ndarray, to: np.ndarray, c: np.ndarray, i: int) -> np.ndarray:
        keep = ix.dt_dst <= k - i - 1
        return np.bincount(to[keep], weights=c[frm[keep]], minlength=n)

    # Backward: w_i(v) = #walks v->t of length <= k-i through the index;
    # B[i] sums it over the vertices a walk from s can reach by position i.
    w = np.zeros(n)
    w[t] = 1.0
    b_sums: list[float] = [0.0] * (k + 1)
    for i in range(k, -1, -1):
        if i < k:
            w = step(ix.dst, ix.src, w, i)
            w[t] += 1.0
        b_sums[i] = float(w[ix.ds <= i].sum())

    # Forward: f_i(v) = #walks s->v arriving exactly at position i (t stops).
    f = np.zeros(n)
    f[s] = 1.0
    ended: list[float] = [0.0] * (k + 1)
    a_sums: list[float] = [0.0] * (k + 1)
    a_sums[0] = 1.0  # Q[0:0] is the single tuple (s)
    cum_ended = 0.0
    for i in range(1, k + 1):
        f = step(ix.src, ix.dst, f, i - 1)
        ended[i] = float(f[t])
        cum_ended += ended[i]
        a_sums[i] = (float(f.sum()) - ended[i]) + cum_ended
        f[t] = 0.0

    walks = cum_ended
    i_star = min(range(k + 1), key=lambda i: a_sums[i] + b_sums[i])
    t_dfs = sum(a_sums[1:])
    t_join = walks + sum(a_sums[1 : i_star + 1]) + sum(b_sums[i_star:])
    return FullEstimate(
        a=a_sums,
        b=b_sums,
        ended=ended,
        walks=walks,
        i_star=i_star,
        t_dfs=t_dfs,
        t_join=t_join,
        opt_s=time.perf_counter() - t0,
    )
