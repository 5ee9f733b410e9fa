"""PathEnum's cost-based query optimizer (paper §3.2 / §6).

Per query: (1) run the O(k^2)-ish preliminary estimator; if the search
space looks small (T_hat <= TAU) dispatch straight to IDX-DFS — the
optimisation time would dominate short queries.  (2) Otherwise run the
full-fledged DP, compare the Eq. 1 costs of the left-deep plan (T_DFS)
and the bushy plan cut at i* (T_JOIN), and execute the cheaper one.

``TAU = 1e6`` is a constant of the method, not a parameter.  It came
from the paper's calibration procedure (§3.2: "test tau from 10, 100, …
until finding tau results takes longer than join-plan optimisation")
when the full estimator ran as Spark jobs costing seconds.  Both
estimators now run on the driver over one collect of the index (at most
two Spark jobs per query), so the gate saves about a millisecond of
planning; it stays because it keeps light queries off the join plan.
A probe without the gate (perfbench mixed-k4 seeds 1–3, the first 4
timed queries of each, warm session, 2 reps) had Eq. 1 pick IDX-JOIN
for 7 of 12 queries; those joins launched 31 enumeration jobs against
IDX-DFS's 26, were faster on both reps for only 1 of the 7, and returned
the same ``n_results`` as IDX-DFS every time.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.constraints import NO_CONSTRAINTS, Constraints
from repro.core.context import QueryContext
from repro.core.enumerate import EnumResult, idx_dfs, idx_join
from repro.core.estimator import FullEstimate, full_estimate, preliminary_estimate

TAU = 1e6


@dataclass
class Decision:
    """What the optimizer saw and chose for one query."""

    t_hat: float
    used_full: bool
    method: str                       # "IDX-DFS" | "IDX-JOIN"
    cut: int | None
    estimate: FullEstimate | None
    opt_s: float                      # total optimisation wall time


def pathenum_cut(est: FullEstimate, k: int) -> int:
    """The cut PathEnum's bushy plan runs: the estimator's i*, kept in
    ``[1, k-1]`` (``idx_join`` clamps to ``[0, k-1]`` on its own)."""
    return max(1, min(est.i_star, k - 1))


def path_enum(
    ctx: QueryContext,
    *,
    timeout_s: float | None = None,
    row_cap: int | None = None,
    response_bar: int | None = None,
    constraints: Constraints = NO_CONSTRAINTS,
) -> tuple[EnumResult, Decision]:
    """Full PathEnum: estimate, choose a plan, enumerate.

    ``timeout_s`` covers planning and enumeration: the enumerator gets
    what is left of it after the estimators.
    """
    t0 = time.perf_counter()
    t_hat = preliminary_estimate(ctx)
    est, method, cut = None, "IDX-DFS", None
    # Automaton constraints are DFS-only (Appendix E): the DFS kills
    # invalid label sequences early, the join cannot.
    if t_hat > TAU and constraints.automaton is None:
        est = full_estimate(ctx)
        if est.t_dfs >= est.t_join:
            method, cut = "IDX-JOIN", pathenum_cut(est, ctx.k)
    opt_s = time.perf_counter() - t0
    decision = Decision(
        t_hat=t_hat,
        used_full=est is not None,
        method=method,
        cut=cut,
        estimate=est,
        opt_s=opt_s,
    )
    remaining = None if timeout_s is None else timeout_s - opt_s
    if method == "IDX-DFS":
        res = idx_dfs(
            ctx,
            timeout_s=remaining,
            row_cap=row_cap,
            response_bar=response_bar,
            constraints=constraints,
        )
    else:
        res = idx_join(
            ctx,
            cut,
            timeout_s=remaining,
            row_cap=row_cap,
            constraints=constraints,
        )
    return res, decision
