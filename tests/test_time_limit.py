"""Wall-clock time limits: an enumeration's Spark jobs are cancelled at the
limit and the paths found so far are reported (paper §7.1)."""
from __future__ import annotations

import time

import pytest

from repro import pathoracle as po
from repro.core.baselines import bc_dfs, bc_join
from repro.core.context import build_context
from repro.core.enumerate import idx_dfs, idx_join
from repro.core.estimator import full_estimate
from repro.core.expand import TimeLimit
from repro.core.optimizer import path_enum
from repro.graphs import generators as G
from repro.graphs.queries import generate_queries
from tests.helpers import PAPER_EDGES, cached_ctx

_INTERRUPT_KEY = "spark.job.interruptOnCancel"


def _sleep_job(spark, ms: int):
    """A one-task job that sleeps ``ms`` ms (``id +`` keeps the call out of
    constant folding, so it runs in a task, not on the driver)."""
    return spark.range(1).selectExpr(f"reflect('java.lang.Thread', 'sleep', id + {ms}) AS r")


def _local_state(sc):
    return sc.getJobTags(), sc.getLocalProperty(_INTERRUPT_KEY)


@pytest.fixture(scope="module")
def heavy(spark):
    """ye_s, k=6, first hh query: ~9.9e6 walks, far more than 2 s of
    IDX-DFS or IDX-JOIN (at k=5, ~2.8e5 walks, both plans finish in about
    2 s, so a 2 s limit would not reliably cut them).

    A limit cannot stop the driver-side planning of a job, and the first
    plan of each shape in a JVM compiles its generated code; a small query
    plans those shapes first, so the limit below is measured on a session
    in use rather than on code generation.
    """
    small = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    idx_dfs(small)
    idx_join(small, 2)
    cfg = G.suite_by_name("ye_s")
    pdf = cfg.build_pdf()
    q = generate_queries(pdf, k=6, n_queries=1, setting="hh", seed=cfg.seed)[0]
    edges = G.to_spark(spark, pdf).persist()
    ctx = build_context(spark, edges, q.s, q.t, q.k)
    yield ctx, set(pdf.itertuples(index=False, name=None))
    ctx.unpersist()
    edges.unpersist()


@pytest.mark.parametrize("method", ["IDX-DFS", "IDX-JOIN"])
def test_heavy_query_is_cut_at_the_limit(spark, heavy, method):
    ctx, edge_set = heavy
    est = full_estimate(ctx)
    assert est.walks > 1e6  # far beyond what 2 s of expansion depths reach
    sc = spark.sparkContext
    before = _local_state(sc)
    if method == "IDX-DFS":
        res = idx_dfs(ctx, timeout_s=2.0)
    else:
        res = idx_join(ctx, max(1, min(est.i_star, ctx.k - 1)), timeout_s=2.0)
    assert _local_state(sc) == before
    assert res.timed_out
    assert res.enum_s <= 2.5
    paths = [tuple(r["path"]) for r in res.paths.collect()]
    assert len(paths) == res.n_results == len(set(paths))
    for p in paths:  # each a simple s->t path of <= k hops: in the oracle's answer
        assert p[0] == ctx.s and p[-1] == ctx.t
        assert len(set(p)) == len(p) <= ctx.k + 1
        assert all(e in edge_set for e in zip(p, p[1:]))

    # The session stays usable: a later query is answered in full.
    small = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    want = po.python_paths(PAPER_EDGES, 0, 1, 4)
    for r in (idx_dfs(small, timeout_s=60.0), idx_join(small, 2, timeout_s=60.0)):
        assert not r.timed_out
        assert {po.path_str(row["path"]) for row in r.paths.collect()} == want


def test_running_job_is_cancelled_at_the_limit(spark):
    t0 = time.perf_counter()
    with TimeLimit(spark.sparkContext, 0.5) as limit:
        with pytest.raises(Exception, match="(?i)cancel"):
            _sleep_job(spark, 30_000).collect()
        assert limit.expired
    assert time.perf_counter() - t0 < 1.5


def test_limit_holds_between_jobs(spark):
    """A job launched after the limit passed, with none running when it
    passed, is cancelled too (a one-shot cancel would let it run)."""
    with TimeLimit(spark.sparkContext, 0.2) as limit:
        time.sleep(0.5)
        assert limit.expired
        t0 = time.perf_counter()
        with pytest.raises(Exception, match="(?i)cancel"):
            _sleep_job(spark, 30_000).collect()
        assert time.perf_counter() - t0 < 1.0
    # Outside the scope jobs run normally.
    assert len(_sleep_job(spark, 100).collect()) == 1


def test_no_limit_adds_no_tag(spark):
    sc = spark.sparkContext
    before = _local_state(sc)
    with TimeLimit(sc, None) as limit:
        assert _local_state(sc) == before
        assert not limit.expired
    assert _local_state(sc) == before


_ENUMERATORS = {
    "IDX-DFS": idx_dfs,
    "IDX-JOIN": lambda ctx, **kw: idx_join(ctx, 2, **kw),
    "BC-DFS": bc_dfs,
    "BC-JOIN": bc_join,
    "PathEnum": path_enum,
}


@pytest.mark.parametrize("timeout_s", [None, 60.0, 0.0])
@pytest.mark.parametrize("method", list(_ENUMERATORS))
def test_no_leaked_job_tags(spark, method, timeout_s):
    """The caller's job tags and interrupt setting survive an enumeration,
    finished or timed out."""
    ctx = cached_ctx(spark, PAPER_EDGES, 0, 1, 4)
    sc = spark.sparkContext
    sc.addJobTag("caller-tag")
    try:
        before = _local_state(sc)
        _ENUMERATORS[method](ctx, timeout_s=timeout_s)
        assert _local_state(sc) == before
    finally:
        sc.removeJobTag("caller-tag")
