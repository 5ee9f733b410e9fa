"""Frontier-at-a-time path expansion — the shared engine of all four
enumerators (IDX-DFS, IDX-JOIN, BC-DFS, BC-JOIN).

One call expands a frontier of partial results from position
``start_pos`` to ``end_pos`` over an edge DataFrame.  A *partial result*
row is ``(path: array<long>, last: long [, acc, state])`` — the dataflow
image of the paper's ``M``.  Each loop iteration performs exactly one
recursion level of Algorithm 1/4:

* **index mode** (``pre=True``) — the per-step budget filter
  ``dt(dst) <= k - pos`` is pushed into the join against the pre-bucketed
  index edges, so only qualifying neighbours are ever touched: the
  dataflow analogue of the O(1) ``I_t(v,b)`` slice.  The filtered edge
  side is broadcast into the join, so the frontier is never shuffled.
* **barrier mode** (``pre=False``) — the join runs against the coarser
  barrier-pruned edge set and the distance check happens *after*
  candidate materialisation, reproducing the baseline's higher per-step
  cost α (Appendix D).  ``accessed`` counts candidates before the check.

Rows reaching ``t`` are emitted and never extended (Definition 2.1 bans
interior s/t); the simple-path check is ``NOT array_contains(path,dst)``.
Each level materialises exactly one eagerly localCheckpoint-ed candidate
frame classified by a ``_cls`` column (emit / continue / pruned); an
observation on that checkpoint counts each class in the same job, so a
level costs the edge side's broadcast plus that one job, and still gives
the per-depth counters the paper's response-time and Figure-6/Table-7
metrics need.

**Time limit.**  An enumeration runs inside one :class:`TimeLimit`: its
Spark jobs carry a job tag of their own, and once the limit has passed a
watcher thread cancels that tag every 0.1 s until the scope closes (a
single cancel would miss a job launched after it).  ``expand`` stops
before a depth once the limit has passed, and when a depth's job is
cancelled it returns the depths that completed with ``timed_out`` set —
the paper's §7.1 semantics: stop at the limit, report what was found.
"""
from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

import pyspark.sql.functions as F
from py4j.protocol import Py4JJavaError
from pyspark.errors.exceptions.captured import CapturedException
from pyspark.sql import DataFrame, Observation, SparkSession

from repro.core.constraints import NO_CONSTRAINTS, Constraints

#: in-memory bytes per path cell (one vertex id) for Table-7 accounting.
CELL_BYTES = 8

_PRUNED, _EMIT, _CONTINUE = 0, 1, 2

#: how often an expired limit re-cancels its tag.
_RECANCEL_S = 0.1
_INTERRUPT_KEY = "spark.job.interruptOnCancel"
_tag_ids = itertools.count()
#: what a Spark action raises, a cancelled job included.
SPARK_ERRORS = (Py4JJavaError, CapturedException)


class TimeLimit:
    """Wall-clock limit on the Spark jobs started inside a ``with`` block.

    ``timeout_s=None`` means no limit: no tag, no thread.  Otherwise the
    block's jobs carry a unique tag with interrupt-on-cancel, and from
    ``timeout_s`` after entry on, a watcher cancels the tag every
    ``_RECANCEL_S`` until exit, so a job launched after the limit is
    stopped as well.  Exit removes the tag and restores the thread's
    interrupt-on-cancel setting.
    """

    def __init__(self, sc, timeout_s: float | None) -> None:
        self._sc = sc
        self.timeout_s = timeout_s
        self.tag = f"repro-time-limit-{next(_tag_ids)}"
        self._done = threading.Event()
        self._fired = False

    def __enter__(self) -> TimeLimit:
        self._t0 = time.perf_counter()
        if self.timeout_s is not None:
            self._interrupt = self._sc.getLocalProperty(_INTERRUPT_KEY)
            self._sc.addJobTag(self.tag)
            self._sc.setInterruptOnCancel(True)
            self._watcher = threading.Thread(target=self._watch, daemon=True)
            self._watcher.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.timeout_s is not None:
            self._done.set()
            self._watcher.join()
            self._sc.removeJobTag(self.tag)
            self._sc.setLocalProperty(_INTERRUPT_KEY, self._interrupt)

    @property
    def expired(self) -> bool:
        return self.timeout_s is not None and (
            self._fired or time.perf_counter() - self._t0 >= self.timeout_s
        )

    def _watch(self) -> None:
        if self._done.wait(max(0.0, self.timeout_s)):
            return
        self._fired = True
        while True:
            self._sc.cancelJobsWithTag(self.tag)
            if self._done.wait(_RECANCEL_S):
                return


@dataclass
class DepthStat:
    """Counters for one expansion level (extension to position ``pos``)."""

    pos: int
    accessed: int      # candidate edges touched (paper's "#Edges")
    emitted: int       # results completed at this level
    frontier: int      # surviving partial results
    elapsed_s: float


@dataclass
class ExpandStats:
    depth_stats: list[DepthStat] = field(default_factory=list)
    timed_out: bool = False
    row_capped: bool = False
    response_s: float | None = None   # time to first ``response_bar`` results
    elapsed_s: float = 0.0

    @property
    def total_accessed(self) -> int:
        return sum(d.accessed for d in self.depth_stats)

    @property
    def total_emitted(self) -> int:
        return sum(d.emitted for d in self.depth_stats)

    @property
    def max_frontier_cells(self) -> int:
        return max((d.frontier * (d.pos + 1) for d in self.depth_stats), default=0)


def make_frontier(
    spark: SparkSession,
    vertices: list[int],
    constraints: Constraints = NO_CONSTRAINTS,
) -> DataFrame:
    """Initial frontier: one single-vertex partial result per vertex."""
    df = spark.createDataFrame([(int(v),) for v in vertices], schema="last long").select(
        F.array(F.col("last")).alias("path"), "last"
    )
    return constraints.init_frontier(df)


def expand(
    spark: SparkSession,
    frontier: DataFrame,
    edges: DataFrame,
    *,
    t: int,
    k: int,
    start_pos: int,
    end_pos: int,
    budget_col: str | None,
    pre: bool = True,
    dedupe: bool = True,
    forbid: int | None = None,
    limit: TimeLimit | None = None,
    row_cap: int | None = None,
    response_bar: int | None = None,
    constraints: Constraints = NO_CONSTRAINTS,
) -> tuple[DataFrame, DataFrame, ExpandStats]:
    """Expand ``frontier`` (at ``start_pos``) through ``end_pos``.

    Returns ``(results, final_frontier, stats)``: ``results`` are paths
    that reached ``t`` (with constraint columns if any), ``final_frontier``
    the un-emitted partial results at ``end_pos`` (the join methods' R_a).
    A passed ``limit`` (or a cancelled depth under it) and ``row_cap``
    turn a runaway query into a flagged partial answer: the results and
    frontier of the depths that completed, with ``stats.timed_out`` set.
    """
    t_lit = F.lit(int(t))
    stats = ExpandStats()
    t_start = time.perf_counter()
    acc_c = constraints.accumulative
    aut_c = constraints.automaton
    trans = aut_c.transition_df(spark) if aut_c else None

    results: list[DataFrame] = []
    cum_emitted = 0
    extra_cols = constraints.frontier_cols

    for pos in range(start_pos + 1, end_pos + 1):
        if limit is not None and limit.expired:
            stats.timed_out = True
            break
        t_depth = time.perf_counter()
        budget = k - pos

        e = edges
        if pre and budget_col is not None:
            e = e.where(F.col(budget_col) <= budget)
        e = F.broadcast(e)
        cand = frontier.join(e, frontier["last"] == e["src"], "inner")
        if aut_c:
            cand = cand.join(
                trans,
                (cand["state"] == trans["a_state"]) & (cand[aut_c.label_col] == trans["a_label"]),
                "inner",
            )

        # Step 1: new partial-result columns + raw flags from parent cols.
        flags = [
            (e["dst"] == t_lit).alias("_is_t"),
            (
                (F.col(budget_col) <= budget) if (not pre and budget_col is not None) else F.lit(True)
            ).alias("_valid"),
            (
                ~F.array_contains(cand["path"], e["dst"]) if dedupe else F.lit(True)
            ).alias("_fresh"),
            (
                (e["dst"] != F.lit(int(forbid))) if forbid is not None else F.lit(True)
            ).alias("_allowed"),
        ]
        proj = [
            F.concat(cand["path"], F.array(e["dst"])).alias("path"),
            e["dst"].alias("last"),
        ]
        if acc_c:
            proj.append((cand["acc"] + F.col(acc_c.weight_col)).alias("acc"))
        if aut_c:
            proj.append(trans["a_next"].alias("state"))
        cand = cand.select(*proj, *flags)

        # Step 2: classify (may reference the new acc/state columns).
        emit_ok = F.col("_is_t") & F.col("_valid")
        if acc_c:
            emit_ok = emit_ok & F.expr(acc_c.emit_pred)
        if aut_c:
            emit_ok = emit_ok & F.col("state").isin(list(aut_c.accepts))
        cont_ok = (
            ~F.col("_is_t") & F.col("_valid") & F.col("_fresh") & F.col("_allowed")
        )
        if acc_c and acc_c.prune_pred:
            cont_ok = cont_ok & F.expr(acc_c.prune_pred)
        cand = cand.withColumn(
            "_cls",
            F.when(emit_ok, F.lit(_EMIT))
            .when(cont_ok, F.lit(_CONTINUE))
            .otherwise(F.lit(_PRUNED)),
        ).drop("_is_t", "_valid", "_fresh", "_allowed")
        counts = Observation()
        cand = cand.observe(
            counts,
            F.count(F.lit(1)).alias("accessed"),
            F.count_if(F.col("_cls") == _EMIT).alias("emitted"),
            F.count_if(F.col("_cls") == _CONTINUE).alias("frontier"),
        )
        try:
            cand = cand.localCheckpoint(eager=True)
        except SPARK_ERRORS:
            if limit is None or not limit.expired:
                raise
            stats.timed_out = True  # this depth's job was cancelled
            break
        # read only now: the metrics of a cancelled job never arrive.
        cnts = counts.get
        accessed, n_emit, n_frontier = cnts["accessed"], cnts["emitted"], cnts["frontier"]

        if n_emit:
            results.append(
                cand.where(F.col("_cls") == _EMIT).select("path", *extra_cols)
            )
        cum_emitted += n_emit
        if (
            response_bar is not None
            and stats.response_s is None
            and cum_emitted >= response_bar
        ):
            stats.response_s = time.perf_counter() - t_start

        frontier = cand.where(F.col("_cls") == _CONTINUE).drop("_cls")
        stats.depth_stats.append(
            DepthStat(pos, accessed, n_emit, n_frontier, time.perf_counter() - t_depth)
        )
        if row_cap is not None and n_frontier > row_cap:
            stats.row_capped = True
            stats.timed_out = True
            break
        if n_frontier == 0:
            break

    stats.elapsed_s = time.perf_counter() - t_start
    if (
        response_bar is not None
        and stats.response_s is None
        and not stats.timed_out
    ):
        # fewer than ``bar`` results exist; first-bar time = completion time.
        stats.response_s = stats.elapsed_s

    if results:
        out = results[0]
        for r in results[1:]:
            out = out.unionByName(r)
    else:
        # zero rows with the results' schema; needs no local relation.
        out = frontier.select("path", *extra_cols).limit(0)
    return out, frontier, stats
