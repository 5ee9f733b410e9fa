"""Validate the oracles against each other (the oracle must itself be
trustworthy before it can judge the Spark enumerators)."""
from __future__ import annotations

import pyspark.sql.functions as F
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import pathoracle as po
from repro.oracle import assert_equivalent
from tests.helpers import CYCLE6, DIAMOND, LINE, PAPER_EDGES, edges_df, edges_pdf


def test_diamond_paths():
    assert po.python_paths(DIAMOND, 0, 3, 2) == {"0-1-3", "0-2-3"}
    assert po.python_paths(DIAMOND, 0, 3, 1) == set()


def test_line_needs_enough_hops():
    assert po.python_paths(LINE, 0, 4, 3) == set()
    assert po.python_paths(LINE, 0, 4, 4) == {"0-1-2-3-4"}
    assert po.python_paths(LINE, 0, 4, 9) == {"0-1-2-3-4"}


def test_cycle_single_path():
    assert po.python_paths(CYCLE6, 0, 3, 6) == {"0-1-2-3"}
    assert po.python_paths(CYCLE6, 0, 3, 2) == set()


def test_no_interior_revisit_of_t():
    # 0->1->2, 1 is t: the path must stop at t, 0-1 only.
    edges = [(0, 1), (1, 2), (2, 1)]
    assert po.python_paths(edges, 0, 1, 5) == {"0-1"}


def test_walks_superset_of_paths():
    w = po.python_walks(PAPER_EDGES, 0, 1, 4)
    p = po.python_paths(PAPER_EDGES, 0, 1, 4)
    assert p <= w


def test_walks_allow_revisits():
    # s->a->b->a->t is a walk but not a path.
    edges = [(0, 2), (2, 3), (3, 2), (2, 1)]
    w = po.python_walks(edges, 0, 1, 4)
    assert "0-2-3-2-1" in w
    assert po.python_paths(edges, 0, 1, 4) == {"0-2-1"}


def test_walks_ban_interior_s_t():
    edges = [(0, 2), (2, 0), (2, 1), (1, 2)]
    w = po.python_walks(edges, 0, 1, 6)
    for walk in w:
        inner = walk.split("-")[1:-1]
        assert "0" not in inner and "1" not in inner


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_duckdb_matches_python_paper_graph(k):
    assert po.duckdb_paths(edges_pdf(PAPER_EDGES), 0, 1, k) == po.python_paths(
        PAPER_EDGES, 0, 1, k
    )


@pytest.mark.parametrize("edges,s,t,k", [
    (DIAMOND, 0, 3, 2),
    (LINE, 0, 4, 4),
    (CYCLE6, 0, 3, 6),
    ([(0, 1)], 0, 1, 1),
    ([(0, 1)], 1, 0, 3),   # no path
])
def test_duckdb_matches_python_small(edges, s, t, k):
    assert po.duckdb_paths(edges_pdf(edges), s, t, k) == po.python_paths(edges, s, t, k)


@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=24,
        unique=True,
    ),
    k=st.integers(1, 5),
)
def test_duckdb_matches_python_random(edges, k):
    """The two oracle implementations agree on random digraphs."""
    assert po.duckdb_paths(edges_pdf(edges), 0, 7, k) == po.python_paths(edges, 0, 7, k)


@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=20,
        unique=True,
    ),
    k=st.integers(1, 5),
)
def test_paths_are_simple_and_bounded(edges, k):
    for p in po.python_paths(edges, 0, 6, k):
        vs = p.split("-")
        assert len(vs) == len(set(vs))
        assert len(vs) - 1 <= k
        assert vs[0] == "0" and vs[-1] == "6"


def test_path_str():
    assert po.path_str([3, 1, 2]) == "3-1-2"


def test_weighted_sql_oracle():
    import duckdb
    import pandas as pd

    pdf = pd.DataFrame(
        {"src": [0, 0, 1, 2], "dst": [1, 2, 3, 3], "weight": [1.0, 5.0, 1.0, 5.0]}
    )
    sql = po.duckdb_path_sql(0, 3, 3, weight_filter="acc >= 6")
    con = duckdb.connect()
    con.register("edges", pdf)
    got = {r[0] for r in con.execute(sql).fetchall()}
    con.close()
    assert got == {"0-2-3"}  # 0-1-3 has acc=2 < 6


# --- the DuckDB result-equality checker (repro.oracle) -------------------

_OUT_DEGREE_SQL = "SELECT src, count(*) AS n, sum(dst) AS d FROM edges GROUP BY src"


def test_oracle_agreement_on_aggregate(spark):
    edges = edges_df(spark, PAPER_EDGES)
    got = edges.groupBy("src").agg(F.count("*").alias("n"), F.sum("dst").alias("d"))
    assert_equivalent(got, _OUT_DEGREE_SQL, edges=edges)


def test_oracle_catches_wrong_result(spark):
    edges = edges_df(spark, PAPER_EDGES)
    wrong = edges.groupBy("src").agg(
        (F.count("*") + 1).alias("n"), F.sum("dst").alias("d")
    )
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, _OUT_DEGREE_SQL, edges=edges)


def test_oracle_catches_column_mismatch(spark):
    edges = edges_df(spark, PAPER_EDGES)
    got = edges.select(F.col("src").alias("wrong_name")).limit(1)
    with pytest.raises(AssertionError):
        assert_equivalent(got, "SELECT src FROM edges LIMIT 1", edges=edges)
