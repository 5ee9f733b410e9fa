"""PathEnum's two-phase optimizer: tau gating, cost-based method choice,
and end-to-end correctness whichever plan it picks."""
from __future__ import annotations

import pytest

from repro import pathoracle as po
from repro.core.constraints import AutomatonConstraint, Constraints
from repro.core.enumerate import paths_to_strings
from repro.core import optimizer
from repro.core.optimizer import path_enum
from repro.oracle import assert_equivalent
from tests.helpers import PAPER_EDGES, cached_ctx, edges_pdf
from tests.test_enumerate import ALL_CASES


@pytest.mark.parametrize("name,edges,s,t,k", ALL_CASES, ids=[c[0] for c in ALL_CASES])
def test_path_enum_matches_oracle(spark, name, edges, s, t, k):
    ctx = cached_ctx(spark, edges, s, t, k)
    res, decision = path_enum(ctx)
    assert_equivalent(
        paths_to_strings(res.paths), po.duckdb_path_sql(s, t, k), edges=edges_pdf(edges)
    )
    assert res.n_results == len(po.python_paths(edges, s, t, k))
    assert decision.method in ("IDX-DFS", "IDX-JOIN")


def test_low_tau_forces_full_estimation(spark, monkeypatch):
    monkeypatch.setattr(optimizer, "TAU", 0.0)
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    res, decision = path_enum(ctx)
    assert decision.used_full
    assert decision.estimate is not None
    assert {po.path_str(r["path"]) for r in res.paths.collect()} == po.python_paths(
        PAPER_EDGES, 0, 1, 4
    )


def test_high_tau_skips_full_estimation(spark, monkeypatch):
    monkeypatch.setattr(optimizer, "TAU", 1e12)
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    res, decision = path_enum(ctx)
    assert not decision.used_full
    assert decision.method == "IDX-DFS"
    assert decision.estimate is None


def test_full_path_choice_follows_costs(spark, monkeypatch):
    monkeypatch.setattr(optimizer, "TAU", 0.0)
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    _, decision = path_enum(ctx)
    est = decision.estimate
    if est.t_dfs < est.t_join:
        assert decision.method == "IDX-DFS"
    else:
        assert decision.method == "IDX-JOIN"
        assert 1 <= decision.cut <= ctx.k - 1


def test_automaton_forces_dfs(spark, monkeypatch):
    import pyspark.sql.functions as F

    from repro.core.context import build_context
    from tests.helpers import edges_df

    labelled = edges_df(spark, PAPER_EDGES).withColumn("label", F.lit("a"))
    ctx = build_context(spark, labelled, 0, 1, 4)
    aut = AutomatonConstraint(
        start="q0", transitions=(("q0", "a", "q0"),), accepts=frozenset({"q0"})
    )
    monkeypatch.setattr(optimizer, "TAU", 0.0)
    res, decision = path_enum(ctx, constraints=Constraints(automaton=aut))
    assert decision.method == "IDX-DFS"  # join path refused for automata
    # a self-accepting one-state DFA over a uniform label accepts all paths
    assert res.n_results == len(po.python_paths(PAPER_EDGES, 0, 1, 4))
    ctx.unpersist()


def test_decision_records_t_hat_and_time(spark):
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    _, decision = path_enum(ctx)
    assert decision.t_hat >= 0
    assert decision.opt_s > 0
