"""Cardinality estimation and join-order optimisation (paper §6, Alg. 5).

Both estimators are O(k·|index|) arithmetic, so they run on the driver in
NumPy over the index arrays the context already holds
(``QueryContext.index``, built with the index in ``repro.core.index``).
The index is small by construction (at most 5.9 MB at the paper's scale,
Table 7), and planning launches no Spark job whichever estimators run.

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

from repro.core.context import QueryContext
from repro.core.index import c_i


def preliminary_estimate(ctx: QueryContext) -> float:
    """Eq. 5: rough search-space size from per-position branching stats.

    gamma_j = (1/|C_j|) * sum_{v in C_j} |I_t(v, k-j-1)|;
    T_hat   = sum_{i<k} prod_{j<=i} gamma_j.
    """
    ix, k = ctx.index, ctx.k
    j = np.arange(k)[:, None]
    cnt = np.count_nonzero(
        (ix.ds_src <= j) & (ix.dt_src <= k - j) & (ix.dt_dst <= k - j - 1), axis=1
    )
    size = np.count_nonzero(c_i(ix, j, k), axis=1)
    gamma = np.divide(cnt, size, out=np.zeros(k), where=size > 0)
    return float(np.cumprod(gamma).sum())


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
    ix = ctx.index
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
