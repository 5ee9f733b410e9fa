"""BC-DFS and BC-JOIN baselines (Peng et al. VLDB'20, paper §2.2 / §7).

The paper's strongest competitor maintains per-vertex *barriers* — lower
bounds on the distance to t — and prunes partial results with them during
a backtracking search.  Its dataflow image (Appendix D's characterisation)
is:

* **graph reduction**: keep only edges whose endpoints satisfy
  ``S(s,v|G) + S(v,t|G) <= k`` (the barrier initialisation);
* **per-step check**: expand over *all* remaining neighbours, then test
  ``L(M) + 1 + B(v') <= k`` — i.e. the distance filter runs *after*
  candidate generation, so every neighbour in the reduced graph is
  touched (higher per-step cost α, the trade-off §D analyses).

Both run on the plan enumerator of ``repro.core.enumerate``: BC-DFS is
the cut-k (left-deep) plan, and BC-JOIN the mid-point variant: prefix to
position ceil(k/2), suffix from the cut vertices, hash-join —
structurally Algorithm 6 with a fixed cut and no index.
"""
from __future__ import annotations

from repro.core.constraints import NO_CONSTRAINTS, Constraints
from repro.core.context import QueryContext
from repro.core.enumerate import EnumResult, _join_cut, _run_plan


def bc_dfs(
    ctx: QueryContext,
    *,
    timeout_s: float | None = None,
    row_cap: int | None = None,
    response_bar: int | None = None,
    constraints: Constraints = NO_CONSTRAINTS,
) -> EnumResult:
    """Barrier-pruned backtracking search (post-join distance check)."""
    return _run_plan(
        ctx,
        ctx.barrier_edges,
        ctx.k,
        budget_col="dtf_dst",
        pre=False,
        method="BC-DFS",
        timeout_s=timeout_s,
        row_cap=row_cap,
        response_bar=response_bar,
        constraints=constraints,
    )


def bc_join(
    ctx: QueryContext,
    *,
    timeout_s: float | None = None,
    row_cap: int | None = None,
    constraints: Constraints = NO_CONSTRAINTS,
) -> EnumResult:
    """Mid-point join over the barrier-pruned graph (fixed cut ceil(k/2))."""
    return _run_plan(
        ctx,
        ctx.barrier_edges,
        _join_cut(ctx, (ctx.k + 1) // 2),
        budget_col="dtf_dst",
        pre=False,
        method="BC-JOIN",
        timeout_s=timeout_s,
        row_cap=row_cap,
        constraints=constraints,
    )
