"""Closed-loop PathEnum query benchmark.

    python3 perfbench/run.py --workload mixed-k4 --seed 1 --seconds 10 --trace 0

One client sends the workload's queries one after another, the next when
the previous one has returned, for at least ``--seconds`` seconds (and at
least one query).  Each query takes the path a user takes:
``build_context`` -> ``path_enum`` (120 s limit, ``row_cap = ROW_CAP``) ->
``ctx.unpersist()``.  Graph and queries come from ``--seed`` alone
(``perfbench/inputs.py``); every answer of the timed loop is checked
against the NumPy reference (``perfbench/reference.py``) after the loop.
Input generation is not part of ``setup_s``; its time is printed apart.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` rebinds each
layer's public function in this process (``perfbench/trace.py``), prints
the per-layer metrics and writes the spans to ``.perfbench-run/``.  The
last line of standard output is one JSON object; a wrong answer exits
with status 1 and prints no result.
"""
from __future__ import annotations

import time

_T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench-run"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.inputs import (  # noqa: E402
    SETTINGS, Inputs, Query, Workload, make_inputs, query_hash,
)

WORKLOADS = {
    # gg_s-like web graph, all four settings; light queries whose fixed
    # Spark cost dominates.
    "mixed-k4": Workload(
        "mixed-k4", n=2500, avg_deg=9.0, alpha=0.75, k=4, settings=SETTINGS,
        walks=(950, 1400), paths=(950, 1000),
    ),
    # sl_s-like social graph, hub pairs with ~6e6 walks: the preliminary
    # estimate crosses tau, so PathEnum runs the full estimator and then
    # IDX-JOIN over ~5.7e6 paths.  No answer-size band: the reference takes
    # seconds per pair here, and the narrow walk band already bounds it.
    "hubs-k5-xl": Workload(
        "hubs-k5-xl", n=1000, avg_deg=18.0, alpha=0.95, k=5, settings=("hh",),
        walks=(5.8e6, 6.2e6),
    ),
}

TIME_LIMIT_S = 120.0  # the paper's §7.1 limit
THREADS = 4
DRIVER_MEMORY = "3g"
# The session knobs of jobs/_common.get_spark, identical on both sides of
# every comparison.
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "8",
    "spark.sql.adaptive.coalescePartitions.parallelismFirst": "false",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.driver.host": "127.0.0.1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_s_p50": "s",
    "queries_per_s": "1/s",
    "results_per_s": "paths/s",
    "spark_jobs_per_query": "jobs",
    "live_heap_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[1]
    if leaf.endswith("_s") or leaf == "s_per_depth":
        return "s"
    if "jobs" in leaf:
        return "jobs"
    if leaf in ("calls", "depths"):
        return "count"
    if leaf in ("results", "emitted"):
        return "paths"
    if "edges" in leaf or leaf == "accessed":
        return "edges"
    return "ratio"


class WrongAnswer(Exception):
    pass


@dataclass
class Outcome:
    """One query of the closed loop."""

    qid: int
    query: Query
    query_s: float = 0.0      # build_context call -> path_enum return
    unpersist_s: float = 0.0
    jobs: int = 0
    n_results: int = 0
    edges_accessed: int = 0
    method: str = ""
    failed: bool = False      # raised, timed out or row-capped
    answer: tuple[int, int] | None = None  # answer_fingerprint, checked after the loop
    live_heap_mb: float = 0.0  # driver heap after a full GC, query still held


def start_spark():
    """Local-mode session with a fixed thread count and driver memory; all
    of Spark's scratch files stay under ``.perfbench-run/``."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)  # pyspark's gateway hand-shake file
    java_tmp = shlex.quote(f"spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp}")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{THREADS}] --driver-memory {DRIVER_MEMORY} "
        f"--conf {java_tmp} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench").config("spark.local.dir", str(tmp))
    for key, value in SESSION_CONF.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait until the driver JVM has exited."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    gateway.proc.stdin.close()  # the JVM exits when its stdin closes
    gateway.proc.wait(timeout=120)


def run_query(spark, edges, q: Query, qid: int, time_limit: float = TIME_LIMIT_S) -> Outcome:
    """Send one query through the user's path and record what it cost."""
    import repro.core.context as context_mod
    import repro.core.optimizer as optimizer_mod
    from repro.exp.experiments import ROW_CAP

    from perfbench.trace import jobs_for_tag

    sc = spark.sparkContext
    out = Outcome(qid, q)
    tag = f"perfbench-query-{qid}"
    ctx = None
    sc.addJobTag(tag)
    t0 = time.perf_counter()
    try:
        ctx = context_mod.build_context(spark, edges, q.s, q.t, q.k)
        res, decision = optimizer_mod.path_enum(ctx, timeout_s=time_limit, row_cap=ROW_CAP)
    except Exception:  # a query that raises counts as failed; the loop goes on
        traceback.print_exc()
        out.failed = True
    else:
        out.n_results, out.edges_accessed = res.n_results, res.edges_accessed
        out.method, out.failed = decision.method, res.timed_out
    finally:
        out.query_s = time.perf_counter() - t0
        sc.removeJobTag(tag)
    out.live_heap_mb = live_heap_mb(sc)
    if ctx is not None and not out.failed:
        # Only the fingerprint is kept, so no answer outlives its query.
        out.answer = answer_fingerprint(res.paths)
    t1 = time.perf_counter()
    if ctx is not None:
        ctx.unpersist()
    out.unpersist_s = time.perf_counter() - t1
    out.jobs = jobs_for_tag(sc, tag)
    return out


def answer_fingerprint(paths) -> tuple[int, int]:
    """(#paths, sum of path_hash over the paths) of an answer, in Spark."""
    import pyspark.sql.functions as F

    from perfbench.reference import HASH_BASE, HASH_MOD

    h = F.aggregate(
        "path", F.lit(0).cast("long"), lambda acc, v: (acc * HASH_BASE + v + 1) % HASH_MOD
    )
    row = paths.agg(F.count(F.lit(1)).alias("n"), F.sum(h).alias("h")).collect()[0]
    return int(row["n"]), int(row["h"] or 0)


def check_answers(inputs: Inputs, outcomes: list[Outcome]) -> None:
    """Compare every answered query with the reference; raise on the
    first mismatch."""
    from perfbench.reference import answer_fingerprint as reference

    n = inputs.workload.n
    for o in outcomes:
        if o.failed:
            continue
        got = o.answer
        want = reference(inputs.src, inputs.dst, n, o.query.s, o.query.t, o.query.k)
        if got != want or o.n_results != want[0]:
            raise WrongAnswer(
                f"query {o.qid} {o.query}: program {got} (n_results {o.n_results}), "
                f"reference {want}"
            )


def live_heap_mb(sc) -> float:
    """Driver JVM heap in use after a full collection.

    The resident set size of the JVM depends on when the collector chose
    to grow the heap: it moved by 20% between runs of one seed.  The heap
    that survives a full collection is what the program holds (edge cache,
    index, distance and barrier tables, checkpointed frontiers, answers).
    Blocks of DataFrames the program has dropped are freed by Spark's
    cleaner thread after a collection finds them unreachable, so the heap
    is collected, the cleaner given time, and collected again: without the
    second pass the figure moved by 30% between runs of one seed, with it
    by 1-2%.
    """
    gc.collect()  # drop Python-side handles, so the JVM objects are unreachable
    system = sc._jvm.java.lang.System
    system.gc()
    time.sleep(0.5)
    system.gc()
    usage = sc._jvm.java.lang.management.ManagementFactory.getMemoryMXBean().getHeapMemoryUsage()
    return usage.getUsed() / 2**20


def end_to_end(timed: list[Outcome], setup_s: float) -> dict[str, float]:
    query_s = sum(o.query_s for o in timed)
    # The loop's own wall time also holds the job counting, the heap reading
    # and the answer fingerprint between queries, which a user would not
    # wait for.
    loop_s = sum(o.query_s + o.unpersist_s for o in timed)
    return {
        "setup_s": setup_s,
        "query_s_p50": statistics.median(o.query_s for o in timed),
        "queries_per_s": len(timed) / loop_s,
        "results_per_s": sum(o.n_results for o in timed) / query_s,
        "spark_jobs_per_query": statistics.mean(o.jobs for o in timed),
        "live_heap_mb": statistics.median(o.live_heap_mb for o in timed),
    }


def measure(spark, wl: Workload, seed: int, seconds: float, trace: bool):
    """Set up, warm up, run the timed loop and check it.

    Returns ``(report, timed)``: ``report`` maps each metric to
    ``(value, unit)``, end-to-end ones without ``trace``, per-layer ones
    with it.
    """
    import pandas as pd

    from perfbench.trace import Tracer, run_layers

    t_inputs = time.perf_counter()
    inputs = make_inputs(wl, seed)
    inputs_s = time.perf_counter() - t_inputs
    print(f"inputs {wl.name} seed={seed} edges={len(inputs.src)} "
          f"edge_hash={inputs.edge_hash()} generated_in={inputs_s:.3f}s")
    edges = spark.createDataFrame(pd.DataFrame({"src": inputs.src, "dst": inputs.dst}))
    edges = edges.persist()
    edges.count()

    tracer = Tracer(spark.sparkContext) if trace else None
    if tracer:
        tracer.install()
    for i, q in enumerate(inputs.warmup):
        if tracer:
            tracer.qid = -1 - i
        run_query(spark, edges, q, -1 - i)
    setup_s = time.perf_counter() - _T_PROCESS - inputs_s

    timed: list[Outcome] = []
    t_loop = time.perf_counter()
    for i, q in enumerate(inputs.queries):
        if timed and time.perf_counter() - t_loop >= seconds:
            break
        if tracer:
            tracer.qid = i
        timed.append(run_query(spark, edges, q, i))
    if tracer:
        tracer.uninstall()

    for o in timed:
        print(f"query {o.qid} {o.query.setting} s={o.query.s} t={o.query.t} k={o.query.k} "
              f"method={o.method} n_results={o.n_results} "
              f"edges_accessed={o.edges_accessed} jobs={o.jobs} "
              f"query_s={o.query_s:.3f} failed={o.failed}")
    print(f"query_hash={query_hash(inputs.warmup + [o.query for o in timed])}")
    check_answers(inputs, timed)
    answered = [o for o in timed if not o.failed] or timed
    metrics = end_to_end(answered, setup_s)
    if not tracer:
        return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, timed

    for o in answered:
        span_jobs = sum(
            s.jobs for s in tracer.spans if s.qid == o.qid and s.parent is None
        )
        if span_jobs != o.jobs:
            raise WrongAnswer(f"query {o.qid}: spans count {span_jobs} jobs, the query tag {o.jobs}")
    tracer.dump(WORK / f"trace-{wl.name}-seed{seed}.json")
    layers = run_layers(tracer.spans, [o.qid for o in answered])
    layers["trace.query_s"] = metrics["query_s_p50"]
    layers["trace.jobs_per_query"] = metrics["spark_jobs_per_query"]
    return {k: (v, per_layer_unit(k)) for k, v in layers.items()}, timed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import repro.core.optimizer  # noqa: F401  (fail before Spark starts if the program is missing)

    spark = start_spark()
    try:
        report, timed = measure(
            spark, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except WrongAnswer as e:
        print(f"WRONG: {e}", file=sys.stderr)
        return 1
    finally:
        stop_spark(spark)
        shutil.rmtree(WORK / "tmp", ignore_errors=True)

    for k, (v, unit) in report.items():
        print(f"metric {k} = {v:.6g} {unit}")
    failed = sum(o.failed for o in timed)
    print(f"samples: {len(timed)} timed queries, {failed} failed")
    print(json.dumps({
        "correct": True,
        "attempted": len(timed),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
