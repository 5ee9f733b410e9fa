"""The two-sided BFS: the driver BFS against the pure-Python reference
over whole graphs, and the context's distance table — exact on the
vertices with ds + dt <= k, plus s and t — against the same reference."""
from __future__ import annotations

import numpy as np
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
    table_rows,
)


def _bfs(edges, specs: list[BfsSpec], depth: int):
    src, dst = (np.array([e[i] for e in edges], dtype=np.int64) for i in (0, 1))
    return bounded_bfs(src, dst, specs, depth)


def _dists(edges, spec: BfsSpec, depth: int) -> dict[int, int]:
    return {r["v"]: r[spec.tag] for r in table_rows(_bfs(edges, [spec], depth))}


def test_line_forward():
    d = _dists(LINE, BfsSpec("x", 0), 10)
    assert d == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_line_reverse():
    d = _dists(LINE, BfsSpec("x", 4, reverse=True), 10)
    assert d == {4: 0, 3: 1, 2: 2, 1: 3, 0: 4}


def test_depth_bound():
    d = _dists(LINE, BfsSpec("x", 0), 2)
    assert d == {0: 0, 1: 1, 2: 2}


def test_cycle():
    d = _dists(CYCLE6, BfsSpec("x", 0), 10)
    assert d == {i: i for i in range(6)}


def test_excluded_reach_but_not_expand():
    # 0->1->2 and 0->3->2; excluding 1 must still reach 1 (dist 1) but 2
    # only via 3 (dist 2).
    edges = [(0, 1), (1, 2), (0, 3), (3, 2)]
    d = _dists(edges, BfsSpec("x", 0, excluded=1), 5)
    assert d == {0: 0, 1: 1, 3: 1, 2: 2}
    # now excluding 3: 2 is reached through 1 (same dist here)
    edges2 = [(0, 1), (1, 4), (4, 2), (0, 3), (3, 2)]
    d2 = _dists(edges2, BfsSpec("x", 0, excluded=3), 5)
    assert d2 == {0: 0, 1: 1, 3: 1, 4: 2, 2: 3}


def test_unreachable_absent():
    edges = [(0, 1), (2, 3)]
    d = _dists(edges, BfsSpec("x", 0), 5)
    assert d == {0: 0, 1: 1}


def test_multi_tag_independent():
    edges = [(0, 1), (1, 2), (2, 0)]
    out = _bfs(edges, [BfsSpec("a", 0), BfsSpec("b", 2, reverse=True)], 5)
    rows = {(tag, r["v"]): r[tag] for r in table_rows(out) for tag in ("a", "b")}
    assert rows[("a", 0)] == 0 and rows[("a", 2)] == 2
    assert rows[("b", 2)] == 0 and rows[("b", 0)] == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("reverse", [False, True])
def test_random_graph_matches_reference(seed, reverse):
    pdf = random_graph(60, 3.0, seed)
    edges = list(pdf.itertuples(index=False, name=None))
    root = int(pdf.src.iloc[0])
    got = _dists(edges, BfsSpec("x", root, reverse=reverse), 4)
    want = py_bfs(edges, root, reverse=reverse, max_depth=4)
    assert got == want


@pytest.mark.parametrize("seed", [3, 4])
def test_random_graph_excluded_matches_reference(seed):
    pdf = random_graph(50, 3.0, seed)
    edges = list(pdf.itertuples(index=False, name=None))
    root = int(pdf.src.iloc[0])
    excl = int(pdf.dst.iloc[0])
    got = _dists(edges, BfsSpec("x", root, excluded=excl), 4)
    want = py_bfs(edges, root, excluded=excl, max_depth=4)
    assert got == want


def test_one_spark_job_per_round(spark):
    """``build_context`` runs ⌈k/2⌉ rounds, one Spark job each, while a
    side has vertices to scan (the paper example at k = 1..6), and the
    index build launches none."""
    edges = edges_df(spark, PAPER_EDGES)
    for k in range(1, 7):
        box = []
        jobs = jobs_launched(spark, lambda: box.append(build_context(spark, edges, 0, 1, k)))
        assert jobs == (k + 1) // 2
        box[0].unpersist()


def test_rounds_stop_when_no_side_has_vertices(spark):
    """On LINE (s = 0, t = 4) the forward side reaches only t and the
    reverse side only s at depth 4, so from k = 9 on (⌈k/2⌉ >= 5) the
    rounds stop after 4 jobs, and every such k gives the same table."""
    edges = edges_df(spark, LINE)
    for k, want in ((7, 4), (8, 4), (9, 4), (50, 4)):
        assert jobs_launched(spark, lambda: distance_table(edges, 0, 4, k)) == want
    rows = {k: table_rows(distance_table(edges, 0, 4, k)[0]) for k in (9, 50)}
    assert rows[50] == rows[9]


def test_table_sorted_with_na():
    """The table is a pandas frame sorted by vertex, NA where a tag did
    not reach the vertex."""
    table = _bfs([(0, 1), (1, 2), (3, 2)], [BfsSpec("a", 0), BfsSpec("b", 3)], 5)
    assert list(table.columns) == ["v", "a", "b"]
    assert table["v"].is_monotonic_increasing
    got = [tuple(r.values()) for r in table_rows(table)]
    assert got == [(0, 0, None), (1, 1, None), (2, 2, 1), (3, None, 0)]


def test_distance_table_columns_and_semantics(spark):
    edges = edges_df(spark, PAPER_EDGES)
    dt, _ = distance_table(edges, 0, 1, 4)
    rows = {r["v"]: r for r in table_rows(dt)}
    assert set(dt.columns) == {"v", "ds", "dt"}
    assert set(full_distance_table(edges, 0, 1, 4).columns) == {"v", "dsf", "dtf"}
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
    rows = {r["v"]: r for r in table_rows(distance_table(e, 0, 1, 4)[0])}
    full = {r["v"]: r for r in table_rows(full_distance_table(e, 0, 1, 4))}
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
    (with and without the s/t exclusion) equal the Python BFS on every
    vertex with ``ds + dt <= k`` (``dsf + dtf <= k``) and on s and t,
    and each table holds exactly those vertices."""
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
        for table, (a, b) in (
            (ctx.dist, ("ds", "dt")),
            (full_distance_table(e, s, t, k), ("dsf", "dtf")),
        ):
            near = {v for v, d in want[a].items() if d + want[b].get(v, k + 1) <= k}
            near |= {s, t}
            rows = table_rows(table)
            assert [r["v"] for r in rows] == sorted(near)
            for c in (a, b):
                assert {r["v"]: r[c] for r in rows} == {v: want[c].get(v) for v in near}
        # the barrier edges carry the same full-graph distances.
        for r in ctx.barrier_edges.collect():
            assert r["dsf_src"] == want["dsf"][r["src"]]
            assert r["dtf_src"] == want["dtf"][r["src"]]
            assert r["dtf_dst"] == want["dtf"][r["dst"]]
    finally:
        ctx.unpersist()
