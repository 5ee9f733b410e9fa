"""PathEnum's cost-based query optimizer (paper §3.2 / §6).

Per query: (1) run the O(k^2)-ish preliminary estimator; if the search
space looks small (T_hat <= tau) dispatch straight to IDX-DFS — the
optimisation time would dominate short queries.  (2) Otherwise run the
full-fledged DP, compare the Eq. 1 costs of the left-deep plan (T_DFS)
and the bushy plan cut at i* (T_JOIN), and execute the cheaper one.

tau = 1e6 came from the paper's calibration procedure (§3.2: "test tau
from 10, 100, … until finding tau results takes longer than join-plan
optimisation") when the full estimator ran as Spark jobs costing seconds
and enumeration streamed ~1e5–1e6 rows/s (the paper's C++ substrate lands
at 1e5 the same way).  Both estimators now run on the driver over one
collect of the index (at most two Spark jobs per query) and tau is kept
unchanged; re-deriving it with the §3.2 procedure for the cheaper
optimiser is an open item in ROADMAP.md.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.constraints import NO_CONSTRAINTS, Constraints
from repro.core.context import QueryContext
from repro.core.enumerate import EnumResult, idx_dfs, idx_join
from repro.core.estimator import FullEstimate, full_estimate, preliminary_estimate

DEFAULT_TAU = 1e6


@dataclass
class Decision:
    """What the optimizer saw and chose for one query."""

    t_hat: float
    used_full: bool
    method: str                       # "IDX-DFS" | "IDX-JOIN"
    cut: int | None
    estimate: FullEstimate | None
    opt_s: float                      # total optimisation wall time


def path_enum(
    ctx: QueryContext,
    *,
    tau: float = DEFAULT_TAU,
    timeout_s: float | None = None,
    row_cap: int | None = None,
    response_bar: int | None = None,
    constraints: Constraints = NO_CONSTRAINTS,
) -> tuple[EnumResult, Decision]:
    """Full PathEnum: estimate, choose a plan, enumerate."""
    t0 = time.perf_counter()
    t_hat = preliminary_estimate(ctx)
    # Automaton constraints are DFS-only (Appendix E): the DFS kills
    # invalid label sequences early, the join cannot.
    if t_hat <= tau or constraints.automaton is not None:
        decision = Decision(
            t_hat=t_hat,
            used_full=False,
            method="IDX-DFS",
            cut=None,
            estimate=None,
            opt_s=time.perf_counter() - t0,
        )
        res = idx_dfs(
            ctx,
            timeout_s=timeout_s,
            row_cap=row_cap,
            response_bar=response_bar,
            constraints=constraints,
        )
        return res, decision

    est = full_estimate(ctx)
    if est.t_dfs < est.t_join:
        method, cut = "IDX-DFS", None
    else:
        method, cut = "IDX-JOIN", max(1, min(est.i_star, ctx.k - 1))
    decision = Decision(
        t_hat=t_hat,
        used_full=True,
        method=method,
        cut=cut,
        estimate=est,
        opt_s=time.perf_counter() - t0,
    )
    if method == "IDX-DFS":
        res = idx_dfs(
            ctx,
            timeout_s=timeout_s,
            row_cap=row_cap,
            response_bar=response_bar,
            constraints=constraints,
        )
    else:
        res = idx_join(
            ctx,
            cut,
            timeout_s=timeout_s,
            row_cap=row_cap,
            constraints=constraints,
        )
    return res, decision
