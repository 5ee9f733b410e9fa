"""Integration: the experiment harness + table builders at tiny scale."""
from __future__ import annotations

import math

import pytest

from repro import pathoracle as po
from repro.exp import tables as T
from repro.exp.harness import ALGOS, _run_one, run_query_set
from repro.graphs import generators as G
from repro.graphs.queries import Query, generate_queries
from tests.helpers import PAPER_EDGES, cached_ctx, edges_df, edges_pdf, random_graph


@pytest.fixture(scope="module")
def stats(spark):
    pdf = random_graph(80, 4.0, seed=5)
    queries = generate_queries(pdf, k=3, n_queries=2, seed=0)
    return (
        run_query_set(
            spark,
            edges_df(spark, list(pdf.itertuples(index=False, name=None))),
            "tiny",
            queries,
            ALGOS,
            timeout_s=60.0,
            response_bar=5,
        ),
        pdf,
        queries,
    )


def test_one_row_per_query_algo(stats):
    rows, _, queries = stats
    assert len(rows) == len(queries) * len(ALGOS)
    assert {r.algo for r in rows} == set(ALGOS)


def test_all_algos_agree_on_counts(stats):
    rows, pdf, queries = stats
    edges = list(pdf.itertuples(index=False, name=None))
    for qid, q in enumerate(queries):
        want = len(po.python_paths(edges, q.s, q.t, q.k))
        for r in rows:
            if r.qid == qid:
                assert r.n_results == want, f"{r.algo} on q{qid}"


def test_metric_sanity(stats):
    rows, _, _ = stats
    for r in rows:
        assert r.query_s >= r.enum_s > 0
        assert r.prep_s > 0
        assert not r.timed_out
        assert r.throughput == pytest.approx(r.n_results / r.query_s)
        assert r.index_mb >= 0 and r.partial_mb >= 0
        assert r.n_index_edges <= r.n_barrier_edges
        if r.algo in ("BC-DFS", "IDX-DFS", "PathEnum"):
            assert r.response_s is not None
            assert r.response_s <= r.query_s + 1e-6


def test_pathenum_records_choice(stats):
    rows, _, _ = stats
    pe = [r for r in rows if r.algo == "PathEnum"]
    assert all(r.method_chosen in ("IDX-DFS", "IDX-JOIN") for r in pe)


def test_idx_join_opt_time_recorded(stats):
    rows, _, _ = stats
    ij = [r for r in rows if r.algo == "IDX-JOIN"]
    assert all(r.opt_s > 0 for r in ij)


# ------------------------------------------------------------ tables
def test_table2_rows():
    suite_stats = []
    for cfg in G.SUITE[:3]:
        st = G.graph_stats(cfg.build_pdf())
        suite_stats.append(
            {"name": cfg.name, "emulates": cfg.emulates, "category": cfg.category, **st}
        )
    headers, rows = T.table2_rows(suite_stats)
    assert headers[0] == "Name"
    assert len(rows) == 3
    assert all(len(r) == len(headers) for r in rows)


def test_table3_rows(stats):
    rows_raw, _, _ = stats
    headers, rows = T.table3_rows(rows_raw, ALGOS)
    assert len(rows) == 1  # one graph
    assert rows[0][0] == "tiny"
    assert len(rows[0]) == len(headers)
    # query-time cells are scientific notation
    assert "e" in rows[0][1]


def test_table4_rows(stats):
    rows_raw, _, _ = stats
    headers, rows = T.table4_rows(rows_raw, t_short_s=1e9, t_long_s=1e9)
    assert rows[0][:2] == ["tiny", "3"]
    # nothing timed out and everything under the huge threshold
    assert rows[0][2] == "1.000" and rows[0][3] == "0.000"


def test_table5_rows(stats):
    rows_raw, _, _ = stats
    headers, rows = T.table5_rows(rows_raw, t_short_s=1e9)
    assert [r[0] for r in rows] == ["BC-DFS", "IDX-DFS"]
    assert rows[1][2] == "-"  # no timed-out queries -> no "long" bucket


def test_table6_rows(stats):
    rows_raw, pdf, queries = stats
    edges = list(pdf.itertuples(index=False, name=None))
    headers, rows = T.table6_rows(rows_raw)
    counts = [len(po.python_paths(edges, q.s, q.t, q.k)) for q in queries]
    avg = sum(counts) / len(counts)
    assert rows[0][2] == f"{avg:.2e}"
    assert rows[0][3] == f"{max(counts):.2e}"


def test_table7_rows(stats):
    rows_raw, _, _ = stats
    headers, rows = T.table7_rows(rows_raw)
    assert len(rows) == 1
    assert float(rows[0][2]) > 0


def test_render_table():
    out = T.render(["a", "bb"], [["1", "2"], ["333", "4"]], title="X")
    lines = out.splitlines()
    assert lines[0] == "### X"
    assert "| a " in lines[1]
    assert len(lines) == 5


def test_sci_and_mean_helpers():
    assert T._sci(None) == "-"
    assert T._sci(float("nan")) == "-"
    assert T._sci(1234.5) == "1.23e+03"
    assert math.isnan(T._mean([]))
    assert T._mean([1.0, 3.0]) == 2.0


def test_timed_out_dfs_keeps_its_response_time(spark):
    """A DFS cut off by the row cap after reaching the response bar reports
    its response time, run alone or chosen by PathEnum."""
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    rows = {
        algo: _run_one(ctx, "paper", 0, algo, timeout_s=60.0, row_cap=2, response_bar=1)
        for algo in ("IDX-DFS", "PathEnum")
    }
    assert rows["PathEnum"].method_chosen == "IDX-DFS"
    for r in rows.values():
        assert r.timed_out
        assert r.response_s is not None and r.response_s <= r.query_s
