"""IDX-DFS (Alg. 4) and IDX-JOIN (Alg. 6) vs. the DuckDB oracle, across
graphs, hop constraints and every cut position, and the pinned work of
every plan of the one enumerator."""
from __future__ import annotations

import pytest

from repro import pathoracle as po
from repro.core.baselines import bc_dfs, bc_join
from repro.core.context import build_context
from repro.core.enumerate import idx_dfs, idx_join, paths_to_strings
from repro.oracle import assert_equivalent
from tests.helpers import (
    CYCLE6,
    DIAMOND,
    LINE,
    PAPER_EDGES,
    cached_ctx,
    edges_df,
    edges_pdf,
    jobs_launched,
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


# (n_results, edges_accessed, partial_cells) of IDX-DFS, IDX-JOIN at the
# mid cut, BC-DFS and BC-JOIN per case.  The plans share one enumerator,
# so a change to its shape must leave each plan's work as it is.
PINNED_WORK = {
    "paper-k2": ((2, 4, 4), (2, 4, 12), (2, 4, 4), (2, 4, 12)),
    "paper-k3": ((4, 8, 6), (4, 8, 16), (4, 9, 6), (4, 9, 16)),
    "paper-k4": ((5, 12, 9), (5, 13, 30), (5, 12, 9), (5, 15, 30)),
    "diamond": ((2, 4, 4), (2, 4, 4), (2, 4, 4), (2, 4, 4)),
    "line": ((1, 4, 4), (1, 4, 10), (1, 4, 4), (1, 4, 10)),
    "cycle": ((1, 3, 3), (1, 3, 3), (1, 3, 3), (1, 3, 3)),
    "no-result": ((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
    "rand0": ((26, 68, 60), (26, 50, 141), (26, 130, 60), (26, 82, 141)),
    "rand1": ((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
    "rand2": ((7, 22, 15), (7, 19, 39), (7, 97, 51), (7, 68, 111)),
    "rand3": ((10, 33, 28), (10, 22, 63), (10, 53, 28), (10, 36, 63)),
    "rand4": ((10, 27, 20), (10, 19, 48), (10, 64, 30), (10, 47, 72)),
    "rand5": ((15, 48, 40), (15, 34, 99), (15, 125, 40), (15, 79, 99)),
}


@pytest.mark.parametrize("name,edges,s,t,k", ALL_CASES, ids=[c[0] for c in ALL_CASES])
def test_plans_do_pinned_work(spark, name, edges, s, t, k):
    ctx = cached_ctx(spark, edges, s, t, k)
    plans = (idx_dfs(ctx), idx_join(ctx, (k + 1) // 2), bc_dfs(ctx), bc_join(ctx))
    got = tuple((r.n_results, r.edges_accessed, r.partial_cells) for r in plans)
    assert got == PINNED_WORK[name]
    assert not any(r.timed_out for r in plans)
    # a DFS is the cut-k plan: no suffix ever runs.
    assert [(r.detail["cut"], r.detail["n_rb"]) for r in plans[::2]] == [(k, 0), (k, 0)]
    # without a response bar only the join plans report a first-X time.
    assert [r.response_s is None for r in plans] == [True, False, True, False]


@pytest.mark.parametrize(
    "plan,jobs",
    [
        (lambda ctx: idx_dfs(ctx), 8),
        (lambda ctx: idx_join(ctx, 2), 14),
        (lambda ctx: bc_dfs(ctx), 8),
        (lambda ctx: bc_join(ctx), 14),
        (lambda ctx: idx_dfs(ctx, timeout_s=0.0), 0),
    ],
    ids=["IDX-DFS", "IDX-JOIN", "BC-DFS", "BC-JOIN", "IDX-DFS-timeout-0"],
)
def test_plan_spark_jobs(spark, plan, jobs):
    """Spark jobs per plan on the paper example: the left-deep plan runs
    no suffix and no join, and a spent limit launches nothing."""
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    ctx.barrier_edges  # the BC state is built on first use; count the plan alone
    assert jobs_launched(spark, lambda: plan(ctx)) == jobs


def test_build_context_spark_jobs(spark):
    """The context runs the ds/dt BFS and the index build only: no
    dsf/dtf BFS and no barrier build until a BC-* plan asks for it."""
    edges = edges_df(spark, PAPER_EDGES)
    box = []
    assert jobs_launched(spark, lambda: box.append(build_context(spark, edges, 0, 1, 4))) == 17
    ctx = box[0]
    try:
        assert (ctx.n_barrier_edges, ctx.barrier_s) == (0, 0.0)
        assert jobs_launched(spark, lambda: ctx.barrier_edges) == 18
        assert ctx.n_barrier_edges == 12 and ctx.barrier_s > 0
        assert jobs_launched(spark, lambda: ctx.barrier_edges) == 0
    finally:
        ctx.unpersist()
