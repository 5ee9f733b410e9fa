"""End-to-end smoke: every enumerator agrees with the DuckDB oracle on
the running example.  If this file is red, start here before the rest."""
from __future__ import annotations

import pytest

from repro import pathoracle
from repro.core.baselines import bc_dfs, bc_join
from repro.core.context import build_context
from repro.core.enumerate import idx_dfs, idx_join, paths_to_strings
from repro.core.optimizer import path_enum
from repro.oracle import assert_equivalent
from tests.helpers import PAPER_EDGES, cached_ctx, edges_df, edges_pdf


@pytest.fixture(scope="module")
def ctx(spark):
    return cached_ctx(spark, PAPER_EDGES, 0, 1, 4)


def _check(res, k=4):
    sql = pathoracle.duckdb_path_sql(0, 1, k)
    assert_equivalent(paths_to_strings(res.paths), sql, edges=edges_pdf(PAPER_EDGES))
    expected = pathoracle.python_paths(PAPER_EDGES, 0, 1, k)
    assert res.n_results == len(expected)


def test_smoke_idx_dfs(ctx):
    _check(idx_dfs(ctx))


def test_smoke_idx_join(ctx):
    _check(idx_join(ctx, 2))


def test_smoke_bc_dfs(ctx):
    _check(bc_dfs(ctx))


def test_smoke_bc_join(ctx):
    _check(bc_join(ctx))


def test_smoke_path_enum(ctx):
    res, decision = path_enum(ctx)
    _check(res)
    assert decision.method in ("IDX-DFS", "IDX-JOIN")


def test_smoke_index_smaller_than_barrier(ctx):
    n_barrier = ctx.barrier_edges.count()  # built on first use
    assert ctx.n_index_edges <= n_barrier == ctx.n_barrier_edges
    assert ctx.n_index_edges > 0


def test_smoke_arrow_off(spark):
    """No frame the program hands to Spark needs Arrow: with it off, the
    context builds and PathEnum, IDX-JOIN and BC-DFS equal the oracle."""
    key = "spark.sql.execution.arrow.pyspark.enabled"
    before = spark.conf.get(key)
    spark.conf.set(key, "false")
    try:
        ctx = build_context(spark, edges_df(spark, PAPER_EDGES), 0, 1, 4)
        _check(path_enum(ctx)[0])
        _check(idx_join(ctx, 2))
        _check(bc_dfs(ctx))
        ctx.unpersist()
    finally:
        spark.conf.set(key, before)
