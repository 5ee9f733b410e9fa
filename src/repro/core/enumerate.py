"""Index-based enumeration: IDX-DFS (Algorithm 4) and IDX-JOIN (Algorithm 6)
as two plans of one join enumerator.

A query is the chain join ``Q = R_1 ⋈ … ⋈ R_k`` (paper §3.1), and a plan
is a cut position.  The enumerator expands the prefix Q[0:cut] from s;
when the prefix leaves partial results, it expands the suffix Q[cut:k]
from their distinct cut vertices (collected by the prefix's last depth,
so no job of their own), hash-joins the two halves on the cut
vertex and filters non-simple tuples.  Results shorter than the cut
surface directly from the prefix (they correspond to ``(t,t)``-padded
tuples in the join model).

* ``idx_dfs`` is the left-deep plan, the cut at k: one expansion from s
  to t, budgets pushed into every join (paper cost
  ``T_DFS = sum_i |Q[0:i]|``).  Only t has ``dt = 0``, so the depth-k
  frontier is always empty and no suffix or final join runs.
* ``idx_join`` is the bushy plan cut in ``[0, k-1]`` (paper cost
  ``T_JOIN = |Q| + T(Q[0:cut]) + T(Q[cut:k])``).

The enumerator is parameterised over the edge set and budget mode so the
BC-* baselines (``repro.core.baselines``) reuse it verbatim.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import pyspark.sql.functions as F
from pyspark.sql import DataFrame, Observation

from repro.core.constraints import NO_CONSTRAINTS, Constraints
from repro.core.context import QueryContext
from repro.core.expand import CELL_BYTES, SPARK_ERRORS, TimeLimit, expand, make_frontier


@dataclass
class EnumResult:
    """Outcome of one enumeration run, with the paper's per-query metrics."""

    method: str
    paths: DataFrame              # (path array<long> [, acc, state])
    n_results: int
    enum_s: float                 # enumeration wall time
    timed_out: bool
    response_s: float | None      # time to first `response_bar` results
    edges_accessed: int           # Figure-6 "#Edges" metric
    partial_cells: int            # peak materialised partial-result cells
    detail: dict = field(default_factory=dict)  # cut, n_ra, n_rb, n_joined

    @property
    def partial_mb(self) -> float:
        return self.partial_cells * CELL_BYTES / 2**20


def paths_to_strings(paths: DataFrame) -> DataFrame:
    """One ``path`` string column ('-'-joined ids) for the DuckDB oracle."""
    return paths.select(F.array_join(F.col("path"), "-").alias("path"))


def _join_cut(ctx: QueryContext, cut: int) -> int:
    """A bushy plan's cut, clamped to ``[0, k-1]`` (cut k is IDX-DFS)."""
    return max(0, min(cut, ctx.k - 1))


def idx_dfs(
    ctx: QueryContext,
    *,
    timeout_s: float | None = None,
    row_cap: int | None = None,
    response_bar: int | None = None,
    constraints: Constraints = NO_CONSTRAINTS,
) -> EnumResult:
    """Algorithm 4: depth-first (left-deep) search on the index."""
    return _run_plan(
        ctx,
        ctx.index_edges,
        ctx.k,
        budget_col="dt_dst",
        pre=True,
        method="IDX-DFS",
        timeout_s=timeout_s,
        row_cap=row_cap,
        response_bar=response_bar,
        constraints=constraints,
    )


def idx_join(
    ctx: QueryContext,
    cut: int,
    *,
    timeout_s: float | None = None,
    row_cap: int | None = None,
    constraints: Constraints = NO_CONSTRAINTS,
) -> EnumResult:
    """Algorithm 6: evaluate Q[0:cut] and Q[cut:k] then hash-join."""
    return _run_plan(
        ctx,
        ctx.index_edges,
        _join_cut(ctx, cut),
        budget_col="dt_dst",
        pre=True,
        method="IDX-JOIN",
        timeout_s=timeout_s,
        row_cap=row_cap,
        constraints=constraints,
    )


def _run_plan(
    ctx: QueryContext,
    edges: DataFrame,
    cut: int,
    *,
    budget_col: str,
    pre: bool,
    method: str,
    timeout_s: float | None,
    row_cap: int | None,
    response_bar: int | None = None,
    constraints: Constraints = NO_CONSTRAINTS,
) -> EnumResult:
    """Evaluate the plan cut at ``cut`` (``k``: left-deep, else bushy)."""
    spark, s, t, k = ctx.spark, ctx.s, ctx.t, ctx.k
    if cut < k and constraints.automaton is not None:
        raise ValueError(
            "join-based enumeration does not support automaton constraints; "
            "use the DFS method (paper Appendix E: the DFS terminates "
            "invalid label sequences earlier)"
        )
    acc_c = constraints.accumulative
    t0 = time.perf_counter()
    n_rb = n_joined = join_cells = 0
    # One time limit covers the prefix, the suffix and the final join.
    with TimeLimit(spark.sparkContext, timeout_s) as limit:
        # Prefix Q[0:cut] — paths of length <= cut surface as results.
        paths, ra, st_a = expand(
            spark,
            make_frontier(spark, [s], constraints),
            edges,
            t=t,
            k=k,
            start_pos=0,
            end_pos=cut,
            budget_col=budget_col,
            pre=pre,
            limit=limit,
            row_cap=row_cap,
            response_bar=response_bar,
            constraints=constraints,
        )
        stats = [st_a]
        n_early = st_a.total_emitted
        # |R_a| is the last depth's frontier; before depth 1 it is {s}.
        n_ra = st_a.depth_stats[-1].frontier if st_a.depth_stats else 1
        timed_out = st_a.timed_out
        if not timed_out and n_ra:
            # suffix-local accumulative state: emit-filter only after the join,
            # on the combined value — so no emit/prune predicates here.
            sfx_constraints = Constraints(accumulative=None) if acc_c is None else Constraints(
                accumulative=type(acc_c)(
                    emit_pred="acc IS NOT NULL", weight_col=acc_c.weight_col, init=0.0
                )
            )
            # Suffix Q[cut:k] from each distinct cut vertex (Alg 6 l.3-5),
            # collected by the prefix's last depth; before depth 1 it is s.
            sfx, _, st_b = expand(
                spark,
                make_frontier(spark, st_a.last_vertices if cut else [s], sfx_constraints),
                edges,
                t=t,
                k=k,
                start_pos=cut,
                end_pos=k,
                budget_col=budget_col,
                pre=pre,
                forbid=s,
                limit=limit,
                row_cap=row_cap,
                constraints=sfx_constraints,
            )
            stats.append(st_b)
            n_rb = st_b.total_emitted
            join_cells = n_ra * (cut + 1) + n_rb * (k - cut + 1)

            # Hash join on the cut vertex + simple-path filter (Alg 6 l.6-8).
            pre_cols = [ra["path"].alias("a_path"), ra["last"].alias("a_last")]
            if acc_c:
                pre_cols.append(ra["acc"].alias("a_acc"))
            a = ra.select(*pre_cols)
            sfx_cols = [
                sfx["path"].alias("b_path"),
                F.element_at(sfx["path"], 1).alias("b_first"),
            ]
            if acc_c:
                sfx_cols.append(sfx["acc"].alias("b_acc"))
            b = sfx.select(*sfx_cols)
            tail = F.slice(F.col("b_path"), 2, F.size(F.col("b_path")) - 1)
            joined = (
                a.join(b, F.col("a_last") == F.col("b_first"), "inner")
                .where(~F.arrays_overlap(F.col("a_path"), tail))
                .select(
                    F.concat(F.col("a_path"), tail).alias("path"),
                    *([(F.col("a_acc") + F.col("b_acc")).alias("acc")] if acc_c else []),
                )
            )
            if acc_c:
                joined = joined.where(acc_c.emit_pred)
            timed_out = st_b.timed_out or limit.expired
            if not timed_out:
                # the join's rows and their count, in one Spark job.
                size = Observation()
                joined = joined.observe(size, F.count(F.lit(1)).alias("n"))
                try:
                    joined = joined.localCheckpoint(eager=True)
                    n_joined = size.get["n"]
                except SPARK_ERRORS:
                    if not limit.expired:
                        raise
                    timed_out = True  # the join's job was cancelled
            if n_joined:
                paths = paths.unionByName(joined) if n_early else joined

    enum_s = time.perf_counter() - t0
    return EnumResult(
        method=method,
        paths=paths,
        n_results=n_early + n_joined,
        enum_s=enum_s,
        timed_out=timed_out,
        # a join has no early results: its first-X time is its total time.
        response_s=st_a.response_s if cut == k else (None if timed_out else enum_s),
        edges_accessed=sum(st.total_accessed for st in stats),
        partial_cells=max(st.max_frontier_cells for st in stats) + join_cells,
        detail={"cut": cut, "n_ra": n_ra, "n_rb": n_rb, "n_joined": n_joined},
    )
