"""Micro-benchmarks for the individual techniques (the timings behind the
paper's Figure 7 / Figure 17 narrative): BFS + index construction, the two
estimators, and the two enumeration methods on one representative query."""
from __future__ import annotations

import pytest

from repro.core.context import build_context
from repro.core.enumerate import idx_dfs, idx_join
from repro.core.estimator import full_estimate, preliminary_estimate
from repro.graphs import generators as G
from repro.graphs.queries import generate_queries


@pytest.fixture(scope="module")
def gg(spark):
    cfg = G.suite_by_name("gg_s")
    pdf = cfg.build_pdf()
    edges = G.to_spark(spark, pdf).persist()
    edges.count()
    q = generate_queries(pdf, k=4, n_queries=1, setting="hh", seed=cfg.seed)[0]
    yield spark, edges, q
    edges.unpersist()


@pytest.fixture(scope="module")
def gg_ctx(gg):
    spark, edges, q = gg
    ctx = build_context(spark, edges, q.s, q.t, q.k)
    yield ctx
    ctx.unpersist()


def test_bench_context_build(gg, benchmark):
    spark, edges, q = gg

    def run():
        ctx = build_context(spark, edges, q.s, q.t, q.k)
        ctx.unpersist()
        return ctx.n_index_edges

    n = benchmark.pedantic(run, rounds=3, iterations=1)
    assert n > 0


def test_bench_preliminary_estimator(gg_ctx, benchmark):
    t_hat = benchmark.pedantic(lambda: preliminary_estimate(gg_ctx), rounds=3, iterations=1)
    assert t_hat >= 0


def test_bench_full_estimator(gg_ctx, benchmark):
    est = benchmark.pedantic(lambda: full_estimate(gg_ctx), rounds=2, iterations=1)
    assert est.walks >= 0


def test_bench_idx_dfs(gg_ctx, benchmark):
    res = benchmark.pedantic(lambda: idx_dfs(gg_ctx), rounds=2, iterations=1)
    assert not res.timed_out


def test_bench_idx_join(gg_ctx, benchmark):
    cut = max(1, gg_ctx.k // 2)
    res = benchmark.pedantic(lambda: idx_join(gg_ctx, cut), rounds=2, iterations=1)
    assert not res.timed_out
