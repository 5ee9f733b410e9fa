"""Run one HcPE query with a chosen algorithm.

    spark-submit jobs/run_query.py --graph ep_s --setting hh --k 4 \
        --algo PathEnum [--qid 0]
"""
from __future__ import annotations

import argparse

from _common import get_spark

from repro.exp.harness import ALGOS, TIMEOUT_S, run_query_set
from repro.graphs import generators as G
from repro.graphs.queries import generate_queries


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--graph", default="gg_s", choices=[c.name for c in G.SUITE])
    ap.add_argument("--setting", default="hh")
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--qid", type=int, default=0)
    ap.add_argument("--algo", default="PathEnum", choices=list(ALGOS))
    ap.add_argument("--timeout", type=float, default=TIMEOUT_S)
    args = ap.parse_args()

    spark = get_spark(f"run_query-{args.graph}")
    cfg = G.suite_by_name(args.graph)
    pdf = cfg.build_pdf()
    queries = generate_queries(
        pdf, k=args.k, n_queries=args.qid + 1, setting=args.setting, seed=cfg.seed
    )
    edges = G.to_spark(spark, pdf)
    stats = run_query_set(
        spark, edges, args.graph, [queries[args.qid]], (args.algo,), timeout_s=args.timeout
    )
    for st in stats:
        print(st.to_dict())
    spark.stop()


if __name__ == "__main__":
    main()
