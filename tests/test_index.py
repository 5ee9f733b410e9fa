"""Light-weight index tests: Algorithm 3 semantics, Proposition 4.3, the
Appendix-B pruning-power comparison against the full reducer, and the
barrier edge set used by the baselines."""
from __future__ import annotations

import pyspark.sql.functions as F
import pytest

from repro import pathoracle as po
from repro.core import relations as R
from repro.core.index import c_i, index_size_bytes
from repro.core.context import build_context
from tests.test_bfs import DIST_CASES
from tests.test_enumerate import ALL_CASES
from tests.helpers import (
    PAPER_EDGES,
    cached_ctx,
    edges_df,
    py_bfs,
    random_graph,
    random_query,
)


def _c_i(ctx, i: int) -> set[int]:
    return set(ctx.index.ids[c_i(ctx.index, i, ctx.k)].tolist())


@pytest.fixture(scope="module")
def ctx(spark):
    return cached_ctx(spark, PAPER_EDGES, 0, 1, 4)


def _idx_edges(ctx) -> set[tuple[int, int]]:
    return {(r["src"], r["dst"]) for r in ctx.index_edges.collect()}


def test_index_edges_subset_of_graph(ctx):
    assert _idx_edges(ctx) <= set(PAPER_EDGES)


def test_index_excludes_t_sources_and_s_targets(ctx):
    for u, v in _idx_edges(ctx):
        assert u != ctx.t and v != ctx.s


def test_index_edge_rule(ctx):
    """Every index edge satisfies ds(src) + 1 + dt(dst) <= k (Alg. 3's H
    condition) and src in X (ds+dt <= k)."""
    k = ctx.k
    for r in ctx.index_edges.collect():
        assert r["ds_src"] + 1 + r["dt_dst"] <= k
        assert r["ds_src"] + r["dt_src"] <= k


def test_index_distances_match_reference(ctx):
    ds_ref = py_bfs(PAPER_EDGES, 0, excluded=1, max_depth=4)
    dt_ref = py_bfs(PAPER_EDGES, 1, excluded=0, reverse=True, max_depth=4)
    for r in ctx.index_edges.collect():
        assert r["ds_src"] == ds_ref[r["src"]]
        assert r["dt_dst"] == dt_ref[r["dst"]]


def test_proposition_4_3(ctx):
    """Every vertex at position i of a valid path is in C_i."""
    k = ctx.k
    paths = po.python_paths(PAPER_EDGES, 0, 1, k)
    parts = [_c_i(ctx, i) for i in range(k + 1)]
    for p in paths:
        vs = [int(x) for x in p.split("-")]
        for i, v in enumerate(vs):
            assert v in parts[i], f"vertex {v} at position {i} of {p} not in C_{i}"


def test_every_path_edge_in_index(ctx):
    """Completeness: the index keeps every edge of every valid path."""
    idx = _idx_edges(ctx)
    for p in po.python_paths(PAPER_EDGES, 0, 1, 4):
        vs = [int(x) for x in p.split("-")]
        for uv in zip(vs, vs[1:]):
            assert uv in idx


def test_c0_and_ck(ctx):
    k = ctx.k
    assert _c_i(ctx, 0) == {ctx.s}
    assert _c_i(ctx, k) == {ctx.t}


def test_dangling_vertex_excluded(ctx):
    """Vertex 7 (and 107) are disconnected from s/t — never indexed."""
    vs = {r["src"] for r in ctx.index_edges.collect()} | {
        r["dst"] for r in ctx.index_edges.collect()
    }
    assert 7 not in vs and 107 not in vs


def test_index_vs_full_reducer_pruning_power(spark, ctx):
    """Appendix B: the index keeps every edge the reduced relations keep
    (union over positions), i.e. competitive pruning power."""
    rels = R.full_reducer(R.build_relations(edges_df(spark, PAPER_EDGES), 0, 1, 4))
    reduced_edges = set()
    for rel in rels:
        for r in rel.collect():
            if r["src"] != 1:  # skip the (t,t) padding
                reduced_edges.add((r["src"], r["dst"]))
    assert reduced_edges <= _idx_edges(ctx)


@pytest.mark.parametrize("seed", [0, 1])
def test_index_vs_full_reducer_random(spark, seed):
    pdf = random_graph(40, 2.5, seed)
    edges = list(pdf.itertuples(index=False, name=None))
    s, t = int(pdf.src.iloc[0]), int(pdf.dst.iloc[-1])
    if s == t:
        pytest.skip("degenerate")
    k = 4
    ctx = cached_ctx(spark, edges, s, t, k)
    rels = R.full_reducer(R.build_relations(edges_df(spark, edges), s, t, k))
    reduced = set()
    for rel in rels:
        for r in rel.collect():
            if r["src"] != t:
                reduced.add((r["src"], r["dst"]))
    assert reduced <= _idx_edges(ctx)


def test_barrier_superset_of_index(ctx):
    bar = {(r["src"], r["dst"]) for r in ctx.barrier_edges.collect()}
    # barrier keeps edges out of t / into s; ignore those for comparison
    assert _idx_edges(ctx) <= bar


def test_barrier_rule(ctx):
    k = ctx.k
    dsf = py_bfs(PAPER_EDGES, 0, max_depth=k)
    dtf = py_bfs(PAPER_EDGES, 1, reverse=True, max_depth=k)
    for r in ctx.barrier_edges.collect():
        assert r["dsf_src"] + r["dtf_src"] <= k
        assert dsf[r["dst"]] + r["dtf_dst"] <= k


def test_index_size_accounting(ctx):
    assert index_size_bytes(ctx.n_index_edges) == ctx.n_index_edges * 40
    assert ctx.n_index_edges == len(_idx_edges(ctx))


def test_extra_columns_pass_through(spark):
    e = edges_df(spark, PAPER_EDGES).withColumn("weight", F.lit(1.5))
    ctx2 = build_context(spark, e, 0, 1, 4)
    assert "weight" in ctx2.index_edges.columns
    assert "weight" in ctx2.barrier_edges.columns
    ctx2.unpersist()


@pytest.mark.parametrize("name,edges,s,t,k", ALL_CASES, ids=[c[0] for c in ALL_CASES])
def test_view_rows_are_the_arrays(spark, name, edges, s, t, k):
    """The Spark view the enumerators join against and the arrays the
    planner reads hold the same edges with the same distances.  The view
    is a local relation, also when it is empty (an empty pandas frame
    would become a Python RDD)."""
    ctx = cached_ctx(spark, edges, s, t, k)
    ix = ctx.index
    assert ctx.index_edges.isLocal()
    cols = ("src", "dst", "ds_src", "dt_src", "dt_dst")
    got = sorted(tuple(r) for r in ctx.index_edges.select(*cols).collect())
    want = sorted(
        zip(
            ix.ids[ix.src].tolist(),
            ix.ids[ix.dst].tolist(),
            ix.ds_src.tolist(),
            ix.dt_src.tolist(),
            ix.dt_dst.tolist(),
        )
    )
    assert got == want
    assert ctx.n_index_edges == len(want)


def _algorithm_3(edges, s: int, t: int, k: int):
    """Algorithm 3 from the whole-graph Python BFS: the vertices with
    ``ds + dt <= k`` plus s and t with their distances, and the index
    rows ``(src, dst, ds_src, dt_src, dt_dst)``, one per edge row."""
    far = k + 1
    ds = py_bfs(edges, s, excluded=t, max_depth=k)
    dt = py_bfs(edges, t, excluded=s, reverse=True, max_depth=k)
    near = sorted({v for v, d in ds.items() if d + dt.get(v, far) <= k} | {s, t})
    dists = [(v, ds.get(v, far), dt.get(v, far)) for v in near]
    rows = sorted(
        (u, w, ds[u], dt[u], dt[w])
        for u, w in edges
        if u != t and u in ds and u in dt and ds[u] + dt[u] <= k
        and w != s and w in dt and ds[u] + 1 + dt[w] <= k
    )
    return dists, rows


def _index_cases():
    for name in sorted(DIST_CASES):
        yield pytest.param(DIST_CASES[name], id=name)
    for seed in (0, 1, 2):
        for k in range(1, 7):
            yield pytest.param(
                lambda seed=seed, k=k: (*random_query(60, 3.0, seed), k), id=f"rand{seed}-k{k}"
            )
    # (2, 1) is collected forward and reverse, (3, 4) reverse only.
    yield pytest.param(
        lambda: (PAPER_EDGES + [(2, 1), (3, 4)], 0, 1, 4), id="paper-duplicate-rows"
    )


@pytest.mark.parametrize("case", _index_cases())
def test_index_is_algorithm_3(spark, case):
    """The index built from the two-sided rounds' edge rows equals
    Algorithm 3 over the whole graph: the same vertices and distances in
    the arrays, and the same edge rows, duplicates included, in the
    arrays and in the Spark view."""
    edges, s, t, k = case()
    want_dists, want_rows = _algorithm_3(edges, s, t, k)
    ctx = build_context(spark, edges_df(spark, edges), s, t, k)
    ix = ctx.index
    assert list(zip(ix.ids.tolist(), ix.ds.tolist(), ix.dt.tolist())) == want_dists
    arrays = zip(
        ix.ids[ix.src].tolist(),
        ix.ids[ix.dst].tolist(),
        ix.ds_src.tolist(),
        ix.dt_src.tolist(),
        ix.dt_dst.tolist(),
    )
    assert sorted(arrays) == want_rows
    cols = ("src", "dst", "ds_src", "dt_src", "dt_dst")
    assert sorted(tuple(r) for r in ctx.index_edges.select(*cols).collect()) == want_rows
