"""IDX-DFS (Alg. 4) and IDX-JOIN (Alg. 6) vs. the DuckDB oracle, across
graphs, hop constraints and every cut position."""
from __future__ import annotations

import pytest

from repro import pathoracle as po
from repro.core.enumerate import idx_dfs, idx_join, paths_to_strings
from repro.oracle import assert_equivalent
from tests.helpers import (
    CYCLE6,
    DIAMOND,
    LINE,
    PAPER_EDGES,
    cached_ctx,
    edges_pdf,
    random_query,
)

CASES = [
    ("paper-k2", PAPER_EDGES, 0, 1, 2),
    ("paper-k3", PAPER_EDGES, 0, 1, 3),
    ("paper-k4", PAPER_EDGES, 0, 1, 4),
    ("diamond", DIAMOND, 0, 3, 3),
    ("line", LINE, 0, 4, 4),
    ("cycle", CYCLE6, 0, 3, 6),
    ("no-result", LINE, 4, 0, 4),
]


RAND_CASES = [(f"rand{seed}", *random_query(35, 2.5, seed), 4) for seed in range(6)]
ALL_CASES = CASES + RAND_CASES


@pytest.mark.parametrize("name,edges,s,t,k", ALL_CASES, ids=[c[0] for c in ALL_CASES])
def test_idx_dfs_matches_oracle(spark, name, edges, s, t, k):
    ctx = cached_ctx(spark, edges, s, t, k)
    res = idx_dfs(ctx)
    assert_equivalent(
        paths_to_strings(res.paths), po.duckdb_path_sql(s, t, k), edges=edges_pdf(edges)
    )
    assert res.n_results == len(po.python_paths(edges, s, t, k))
    assert not res.timed_out


@pytest.mark.parametrize("name,edges,s,t,k", ALL_CASES, ids=[c[0] for c in ALL_CASES])
def test_idx_join_matches_oracle_mid_cut(spark, name, edges, s, t, k):
    ctx = cached_ctx(spark, edges, s, t, k)
    res = idx_join(ctx, (k + 1) // 2)
    assert_equivalent(
        paths_to_strings(res.paths), po.duckdb_path_sql(s, t, k), edges=edges_pdf(edges)
    )
    assert res.n_results == len(po.python_paths(edges, s, t, k))


@pytest.mark.parametrize("cut", [0, 1, 2, 3, 4, 7])
def test_idx_join_every_cut_position(spark, cut):
    """Any cut (clamped into [0, k-1]) must give identical results."""
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    res = idx_join(ctx, cut)
    got = {po.path_str(r["path"]) for r in res.paths.collect()}
    assert got == po.python_paths(PAPER_EDGES, 0, 1, 4)


def test_idx_dfs_result_paths_are_simple(spark):
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    for r in idx_dfs(ctx).paths.collect():
        p = list(r["path"])
        assert len(p) == len(set(p))
        assert p[0] == 0 and p[-1] == 1
        assert len(p) - 1 <= 4


def test_idx_dfs_no_duplicates(spark):
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    rows = [tuple(r["path"]) for r in idx_dfs(ctx).paths.collect()]
    assert len(rows) == len(set(rows))


def test_idx_join_no_duplicates(spark):
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    rows = [tuple(r["path"]) for r in idx_join(ctx, 2).paths.collect()]
    assert len(rows) == len(set(rows))


def test_idx_join_detail_counts(spark):
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    res = idx_join(ctx, 2)
    d = res.detail
    assert d["cut"] == 2
    assert (d["n_ra"], d["n_rb"]) == (3, 4)
    assert res.n_results == d["n_joined"] + sum(
        1 for p in po.python_paths(PAPER_EDGES, 0, 1, 4) if p.count("-") <= 2
    )


def test_idx_join_timeout(spark):
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    res = idx_join(ctx, 2, timeout_s=0.0)
    assert res.timed_out


def test_idx_dfs_timeout(spark):
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    res = idx_dfs(ctx, timeout_s=0.0)
    assert res.timed_out
    assert res.n_results == 0


def test_idx_dfs_response_bar(spark):
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    res = idx_dfs(ctx, response_bar=1)
    assert res.response_s is not None and res.response_s <= res.enum_s


def test_edges_accessed_positive(spark):
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    assert idx_dfs(ctx).edges_accessed > 0


def test_k1_direct_edge(spark):
    ctx = cached_ctx(spark, [(0, 1), (0, 2), (2, 1)], 0, 1, 1)
    res = idx_dfs(ctx)
    assert {po.path_str(r["path"]) for r in res.paths.collect()} == {"0-1"}
    res_j = idx_join(ctx, 1)
    assert {po.path_str(r["path"]) for r in res_j.paths.collect()} == {"0-1"}
    assert (res_j.detail["cut"], res_j.detail["n_ra"], res_j.detail["n_rb"]) == (0, 1, 1)


def test_paths_to_strings_format(spark):
    ctx = cached_ctx(spark, DIAMOND, 0, 3, 2)
    got = {r["path"] for r in paths_to_strings(idx_dfs(ctx).paths).collect()}
    assert got == {"0-1-3", "0-2-3"}
