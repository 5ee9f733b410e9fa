"""Unit tests for the shared expansion engine (timeouts, row caps,
response bar, metrics)."""
from __future__ import annotations

import pytest

from repro import pathoracle as po
from repro.core.expand import TimeLimit, expand, make_frontier
from tests.helpers import CYCLE6, DIAMOND, PAPER_EDGES, cached_ctx


@pytest.fixture(scope="module")
def ctx(spark):
    return cached_ctx(spark, PAPER_EDGES, 0, 1, 4)


def _run(ctx, **kw):
    frontier = make_frontier(ctx.spark, [ctx.s])
    defaults = dict(
        t=ctx.t,
        k=ctx.k,
        start_pos=0,
        end_pos=ctx.k,
        budget_col="dt_dst",
        pre=True,
    )
    defaults.update(kw)
    return expand(ctx.spark, frontier, ctx.index_edges, **defaults)


def test_results_match_reference(ctx):
    res, _, stats = _run(ctx)
    got = {po.path_str(r["path"]) for r in res.collect()}
    assert got == po.python_paths(PAPER_EDGES, 0, 1, 4)
    assert stats.total_emitted == len(got)


def test_depth_stats_shape(ctx):
    _, _, stats = _run(ctx)
    assert [d.pos for d in stats.depth_stats] == list(range(1, len(stats.depth_stats) + 1))
    assert all(d.accessed >= d.emitted + d.frontier for d in stats.depth_stats)
    assert stats.elapsed_s > 0
    assert not stats.timed_out


def test_emitted_per_depth_matches_length_histogram(ctx):
    _, _, stats = _run(ctx)
    by_len = {}
    for p in po.python_paths(PAPER_EDGES, 0, 1, 4):
        by_len[p.count("-")] = by_len.get(p.count("-"), 0) + 1
    for d in stats.depth_stats:
        assert d.emitted == by_len.get(d.pos, 0)


def test_timeout_flag(ctx):
    with TimeLimit(ctx.spark.sparkContext, 0.0) as limit:
        _, _, stats = _run(ctx, limit=limit)
    assert stats.timed_out
    assert stats.depth_stats == []


def test_row_cap(ctx):
    _, _, stats = _run(ctx, row_cap=0)
    assert stats.row_capped and stats.timed_out
    assert len(stats.depth_stats) == 1


def test_response_bar_hit(ctx):
    _, _, stats = _run(ctx, response_bar=1)
    assert stats.response_s is not None
    assert stats.response_s <= stats.elapsed_s


def test_response_bar_larger_than_total(ctx):
    _, _, stats = _run(ctx, response_bar=10**9)
    # fewer results than the bar: response = completion time
    assert stats.response_s == stats.elapsed_s


def test_forbid_vertex(spark):
    ctx = cached_ctx(spark, DIAMOND, 0, 3, 2)
    frontier = make_frontier(spark, [0])
    res, _, _ = expand(
        spark,
        frontier,
        ctx.index_edges,
        t=3,
        k=2,
        start_pos=0,
        end_pos=2,
        budget_col="dt_dst",
        forbid=1,
    )
    got = {po.path_str(r["path"]) for r in res.collect()}
    assert got == {"0-2-3"}


def test_partial_frontier_returned(spark):
    ctx = cached_ctx(spark, CYCLE6, 0, 3, 6)
    frontier = make_frontier(spark, [0])
    res, final, stats = expand(
        spark,
        frontier,
        ctx.index_edges,
        t=3,
        k=6,
        start_pos=0,
        end_pos=2,
        budget_col="dt_dst",
    )
    rows = final.collect()
    assert [list(r["path"]) for r in rows] == [[0, 1, 2]]
    assert res.count() == 0  # path needs 3 hops, none emitted by pos 2


def test_empty_frontier_empty_results(spark):
    ctx = cached_ctx(spark, DIAMOND, 0, 3, 2)
    frontier = make_frontier(spark, [3])  # start at t: no expansion from t? pos loop runs
    res, final, stats = expand(
        spark,
        frontier,
        ctx.index_edges,
        t=3,
        k=2,
        start_pos=0,
        end_pos=2,
        budget_col="dt_dst",
    )
    # vertex 3 = t has no outgoing index edges
    assert res.count() == 0
    assert stats.total_emitted == 0


def test_max_frontier_cells(ctx):
    _, _, stats = _run(ctx)
    want = max((d.frontier * (d.pos + 1) for d in stats.depth_stats), default=0)
    assert stats.max_frontier_cells == want


@pytest.mark.parametrize("end_pos", [1, 2, 3])
def test_last_vertices_of_the_final_frontier(ctx, end_pos):
    """The depth at ``end_pos`` collects the distinct last vertices of
    the frontier it leaves; a run that stops earlier (here the row cap,
    after depth 1) collects none."""
    _, frontier, stats = _run(ctx, end_pos=end_pos)
    assert stats.last_vertices == sorted({r["last"] for r in frontier.collect()})
    _, _, stopped = _run(ctx, end_pos=end_pos, row_cap=0)
    assert stopped.row_capped
    assert (stopped.last_vertices is None) == (end_pos > 1)
