"""Distributed bounded BFS vs. the pure-Python reference."""
from __future__ import annotations

import pytest

from repro.core.context import build_context
from repro.graphs import generators
from repro.graphs.bfs import BfsSpec, bounded_bfs, distance_table, full_distance_table
from repro.graphs.queries import generate_queries
from tests.helpers import (
    CYCLE6,
    LINE,
    PAPER_EDGES,
    edges_df,
    jobs_launched,
    py_bfs,
    random_graph,
    random_query,
)


def _spark_dists(spark, edges, spec: BfsSpec, depth: int) -> dict[int, int]:
    out = bounded_bfs(spark, edges_df(spark, edges), [spec], depth)
    return {r["v"]: r[spec.tag] for r in out.collect()}


def test_line_forward(spark):
    d = _spark_dists(spark, LINE, BfsSpec("x", 0), 10)
    assert d == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_line_reverse(spark):
    d = _spark_dists(spark, LINE, BfsSpec("x", 4, reverse=True), 10)
    assert d == {4: 0, 3: 1, 2: 2, 1: 3, 0: 4}


def test_depth_bound(spark):
    d = _spark_dists(spark, LINE, BfsSpec("x", 0), 2)
    assert d == {0: 0, 1: 1, 2: 2}


def test_cycle(spark):
    d = _spark_dists(spark, CYCLE6, BfsSpec("x", 0), 10)
    assert d == {i: i for i in range(6)}


def test_excluded_reach_but_not_expand(spark):
    # 0->1->2 and 0->3->2; excluding 1 must still reach 1 (dist 1) but 2
    # only via 3 (dist 2).
    edges = [(0, 1), (1, 2), (0, 3), (3, 2)]
    d = _spark_dists(spark, edges, BfsSpec("x", 0, excluded=1), 5)
    assert d == {0: 0, 1: 1, 3: 1, 2: 2}
    # now excluding 3: 2 is reached through 1 (same dist here)
    edges2 = [(0, 1), (1, 4), (4, 2), (0, 3), (3, 2)]
    d2 = _spark_dists(spark, edges2, BfsSpec("x", 0, excluded=3), 5)
    assert d2 == {0: 0, 1: 1, 3: 1, 4: 2, 2: 3}


def test_unreachable_absent(spark):
    edges = [(0, 1), (2, 3)]
    d = _spark_dists(spark, edges, BfsSpec("x", 0), 5)
    assert d == {0: 0, 1: 1}


def test_multi_tag_independent(spark):
    edges = [(0, 1), (1, 2), (2, 0)]
    out = bounded_bfs(
        spark,
        edges_df(spark, edges),
        [BfsSpec("a", 0), BfsSpec("b", 2, reverse=True)],
        5,
    )
    rows = {(tag, r["v"]): r[tag] for r in out.collect() for tag in ("a", "b")}
    assert rows[("a", 0)] == 0 and rows[("a", 2)] == 2
    assert rows[("b", 2)] == 0 and rows[("b", 0)] == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("reverse", [False, True])
def test_random_graph_matches_reference(spark, seed, reverse):
    pdf = random_graph(60, 3.0, seed)
    edges = list(pdf.itertuples(index=False, name=None))
    root = int(pdf.src.iloc[0])
    got = _spark_dists(spark, edges, BfsSpec("x", root, reverse=reverse), 4)
    want = py_bfs(edges, root, reverse=reverse, max_depth=4)
    assert got == want


@pytest.mark.parametrize("seed", [3, 4])
def test_random_graph_excluded_matches_reference(spark, seed):
    pdf = random_graph(50, 3.0, seed)
    edges = list(pdf.itertuples(index=False, name=None))
    root = int(pdf.src.iloc[0])
    excl = int(pdf.dst.iloc[0])
    got = _spark_dists(spark, edges, BfsSpec("x", root, excluded=excl), 4)
    want = py_bfs(edges, root, excluded=excl, max_depth=4)
    assert got == want


def test_level_loop_stops_on_empty_level(spark):
    # LINE from 0 reaches a new vertex at levels 1-4; level 5 is empty.
    edges = edges_df(spark, LINE)
    spec = [BfsSpec("x", 0)]
    jobs = {
        d: jobs_launched(spark, lambda d=d: bounded_bfs(spark, edges, spec, d))
        for d in (4, 5, 50)
    }
    assert jobs[5] == jobs[50] > jobs[4]
    rows = {d: sorted(bounded_bfs(spark, edges, spec, d).collect()) for d in (5, 50)}
    assert rows[50] == rows[5]


def test_distance_table_columns_and_semantics(spark):
    edges = edges_df(spark, PAPER_EDGES)
    dt = distance_table(spark, edges, 0, 1, 4)
    rows = {r["v"]: r for r in dt.collect()}
    assert set(dt.columns) == {"v", "ds", "dt"}
    assert set(full_distance_table(spark, edges, 0, 1, 4).columns) == {"v", "dsf", "dtf"}
    # reference: ds excludes expanding through t=1, dt reverse excludes s=0
    ds_ref = py_bfs(PAPER_EDGES, 0, excluded=1, max_depth=4)
    dt_ref = py_bfs(PAPER_EDGES, 1, excluded=0, reverse=True, max_depth=4)
    for v, r in rows.items():
        assert r["ds"] == ds_ref.get(v)
        assert r["dt"] == dt_ref.get(v)
    assert rows[0]["ds"] == 0 and rows[1]["dt"] == 0


def test_distance_table_full_vs_restricted(spark):
    # with the exclusion, some distances can only grow
    edges = [(0, 2), (2, 1), (0, 1), (1, 3), (3, 2)]
    e = edges_df(spark, edges)
    rows = {r["v"]: r for r in distance_table(spark, e, 0, 1, 4).collect()}
    full = {r["v"]: r for r in full_distance_table(spark, e, 0, 1, 4).collect()}
    for v, r in rows.items():
        f = full.get(v)
        if r["ds"] is not None and f is not None and f["dsf"] is not None:
            assert r["ds"] >= f["dsf"]
        if r["dt"] is not None and f is not None and f["dtf"] is not None:
            assert r["dt"] >= f["dtf"]


def _suite_case(name: str, k: int):
    pdf = generators.suite_by_name(name).build_pdf()
    q = generate_queries(pdf, k=k, n_queries=1, seed=0)[0]
    return list(pdf.itertuples(index=False, name=None)), q.s, q.t, k


def _random_case(seed: int):
    edges, s, t = random_query(60, 3.0, seed)
    return edges, s, t, 4


DIST_CASES = {
    "paper": lambda: (PAPER_EDGES, 0, 1, 4),
    "line": lambda: (LINE, 0, 4, 4),
    "cycle": lambda: (CYCLE6, 0, 3, 5),
    "rand0": lambda: _random_case(0),
    "rand1": lambda: _random_case(1),
    "rand2": lambda: _random_case(2),
    "gg_s-k4": lambda: _suite_case("gg_s", 4),
    "sl_s-k5": lambda: _suite_case("sl_s", 5),
}


@pytest.mark.parametrize("case", sorted(DIST_CASES))
def test_all_four_distances_match_reference(spark, case):
    """``ds``/``dt`` of the context and ``dsf``/``dtf`` of the BC build
    (with and without the s/t exclusion) equal the Python BFS."""
    edges, s, t, k = DIST_CASES[case]()
    want = {
        "ds": py_bfs(edges, s, excluded=t, max_depth=k),
        "dt": py_bfs(edges, t, excluded=s, reverse=True, max_depth=k),
        "dsf": py_bfs(edges, s, max_depth=k),
        "dtf": py_bfs(edges, t, reverse=True, max_depth=k),
    }
    e = edges_df(spark, edges)
    ctx = build_context(spark, e, s, t, k)
    try:
        rows = ctx.dist.collect()
        full = full_distance_table(spark, e, s, t, k).collect()
        got = {c: {r["v"]: r[c] for r in rows if r[c] is not None} for c in ("ds", "dt")}
        got |= {c: {r["v"]: r[c] for r in full if r[c] is not None} for c in ("dsf", "dtf")}
        assert got == want
        # the barrier edges carry the same full-graph distances.
        for r in ctx.barrier_edges.collect():
            for end in ("src", "dst"):
                assert r[f"dsf_{end}"] == want["dsf"][r[end]]
                assert r[f"dtf_{end}"] == want["dtf"][r[end]]
    finally:
        ctx.unpersist()
