"""Cardinality estimators vs. exact references.

The full-fledged DP counts *walks* on the index (Eq. 6/7): on graphs
small enough to enumerate, its total must equal the exact walk count from
the independent Python reference — the paper's claim that the estimator
is exact when delta_P ~= delta_W and optimistic otherwise.
"""
from __future__ import annotations

import functools

import pytest

from repro import pathoracle as po
from repro.core.context import build_context
from repro.core.estimator import full_estimate, preliminary_estimate
from tests.helpers import (
    CYCLE6,
    DIAMOND,
    LINE,
    PAPER_EDGES,
    cached_ctx,
    edges_df,
    jobs_launched,
    py_bfs,
    random_query,
    table_rows,
)

CASES = [
    ("paper", PAPER_EDGES, 0, 1, 4),
    ("diamond", DIAMOND, 0, 3, 3),
    ("line", LINE, 0, 4, 4),
    ("cycle", CYCLE6, 0, 3, 6),
]
CASES += [(f"rand{seed}", *random_query(30, 2.5, seed), 4) for seed in range(4)]


@pytest.mark.parametrize("name,edges,s,t,k", CASES, ids=[c[0] for c in CASES])
def test_walk_count_exact(spark, name, edges, s, t, k):
    ctx = cached_ctx(spark, edges, s, t, k)
    est = full_estimate(ctx)
    exact = len(po.python_walks(edges, s, t, k))
    assert est.walks == pytest.approx(exact)


@pytest.mark.parametrize("name,edges,s,t,k", CASES[:4], ids=[c[0] for c in CASES[:4]])
def test_b0_equals_total_walks(spark, name, edges, s, t, k):
    est = full_estimate(cached_ctx(spark, edges, s, t, k))
    assert est.b[0] == pytest.approx(est.walks)


def test_ended_histogram(spark):
    """ended[i] = #walks finishing exactly at length i."""
    est = full_estimate(cached_ctx(spark, PAPER_EDGES, 0, 1, 4))
    hist: dict[int, int] = {}
    for w in po.python_walks(PAPER_EDGES, 0, 1, 4):
        hist[w.count("-")] = hist.get(w.count("-"), 0) + 1
    for i in range(1, 5):
        assert est.ended[i] == pytest.approx(hist.get(i, 0))


def test_a0_is_one(spark):
    est = full_estimate(cached_ctx(spark, PAPER_EDGES, 0, 1, 4))
    assert est.a[0] == 1.0


@pytest.mark.parametrize("name,edges,s,t,k", CASES, ids=[c[0] for c in CASES])
def test_a_matches_padded_prefix_counts(spark, name, edges, s, t, k):
    """A[i] equals the number of (t,t)-padded prefixes of length i: live
    partials at position i plus all walks already finished."""
    est = full_estimate(cached_ctx(spark, edges, s, t, k))
    walks = po.python_walks(edges, s, t, k)
    # live partials at position i = distinct walk prefixes of length i that
    # have not yet hit t... enumerate via the relaxed search directly:
    adj: dict[int, list[int]] = {}
    dt = py_bfs(edges, t, excluded=s, reverse=True, max_depth=k)
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    live = {0: {(s,)}}
    for i in range(1, k + 1):
        nxt = set()
        for m in live[i - 1]:
            v = m[-1]
            for w_ in adj.get(v, ()):
                if w_ == s or v == t:
                    continue
                if dt.get(w_, 10**9) <= k - i:
                    nxt.add(m + (w_,))
        live[i] = nxt
    for i in range(1, k + 1):
        n_live = sum(1 for m in live[i] if m[-1] != t)
        n_done = sum(1 for w in walks if w.count("-") <= i)
        assert est.a[i] == pytest.approx(n_live + n_done), f"A[{i}]"


@pytest.mark.parametrize("name,edges,s,t,k", CASES, ids=[c[0] for c in CASES])
def test_b_matches_suffix_walk_counts(spark, name, edges, s, t, k):
    """B[i] equals the number of walks to t within budget k-i that start at
    a vertex s reaches by position i, never enter s and stop at t."""
    est = full_estimate(cached_ctx(spark, edges, s, t, k))
    ds = py_bfs(edges, s, excluded=t, max_depth=k)
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        if u != t and v != s:
            adj.setdefault(u, []).append(v)

    @functools.cache
    def to_t(v: int, budget: int) -> int:
        if v == t:
            return 1
        return sum(to_t(u, budget - 1) for u in adj.get(v, ())) if budget else 0

    for i in range(k + 1):
        want = sum(to_t(v, k - i) for v, d in ds.items() if d <= i)
        assert est.b[i] == pytest.approx(want), f"B[{i}]"


def test_cut_minimises_a_plus_b(spark):
    est = full_estimate(cached_ctx(spark, PAPER_EDGES, 0, 1, 4))
    sums = [est.a[i] + est.b[i] for i in range(5)]
    assert sums[est.i_star] == min(sums)


def test_costs_formulas(spark):
    est = full_estimate(cached_ctx(spark, PAPER_EDGES, 0, 1, 4))
    assert est.t_dfs == pytest.approx(sum(est.a[1:]))
    want = est.walks + sum(est.a[1 : est.i_star + 1]) + sum(est.b[est.i_star :])
    assert est.t_join == pytest.approx(want)
    assert est.opt_s > 0


def test_preliminary_positive_when_results_exist(spark):
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    t_hat = preliminary_estimate(ctx)
    assert t_hat > 0


def test_preliminary_cached(spark):
    """Eq. 5 reads the context's index arrays: a repeat call is equal and
    no call launches a Spark job."""
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    out = []
    assert jobs_launched(spark, lambda: out.append(preliminary_estimate(ctx))) == 0
    assert preliminary_estimate(ctx) == out[0]


def test_preliminary_matches_reference(spark):
    """Eq. 5 recomputed in Python from the index edge list."""
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    k = ctx.k
    idx = ctx.index_edges.collect()
    dist = {r["v"]: r for r in table_rows(ctx.dist)}
    t_hat_ref, prod = 0.0, 1.0
    for j in range(k):
        cj = [
            v
            for v, r in dist.items()
            if r["ds"] is not None and r["dt"] is not None and r["ds"] <= j and r["dt"] <= k - j
        ]
        cnt = sum(
            1
            for r in idx
            if r["ds_src"] <= j and r["dt_src"] <= k - j and r["dt_dst"] <= k - j - 1
        )
        gamma = cnt / len(cj) if cj else 0.0
        prod *= gamma
        t_hat_ref += prod
    assert preliminary_estimate(ctx) == pytest.approx(t_hat_ref)


def test_line_estimates(spark):
    """On a plain line the DP is trivially exact everywhere."""
    est = full_estimate(cached_ctx(spark, LINE, 0, 4, 4))
    assert est.walks == 1.0
    assert est.a == [1.0, 1.0, 1.0, 1.0, 1.0]
    assert est.b == [1.0, 1.0, 1.0, 1.0, 1.0]


def test_no_result_graph(spark):
    est = full_estimate(cached_ctx(spark, LINE, 4, 0, 4))
    assert est.walks == 0.0
    assert est.t_dfs == pytest.approx(sum(est.a[1:]))


def test_planning_collects_the_index_once(spark):
    """Both estimators read the index arrays the context built with the
    index: no Spark job, even on a fresh context."""
    ctx = build_context(spark, edges_df(spark, PAPER_EDGES), 0, 1, 4)

    def plan():
        preliminary_estimate(ctx)
        full_estimate(ctx)

    assert jobs_launched(spark, plan) == 0
    ctx.unpersist()
