"""Run and print one paper table at the experiment defaults.

    python jobs/tables.py --table N        # N in 2..7

Table 2 describes the synthetic suite and needs no Spark.  Table 3 runs
the overall comparison at ``OverallConfig()``'s defaults (``K_DEFAULT``,
``N_QUERIES``, ``TIMEOUT_S``) and saves its raw stats to
``results/table3.json``.  Tables 4–7 reuse ``results/ksweep.json``, or
run the k-sweep and save it first.
"""
from __future__ import annotations

import argparse

from _common import get_spark

from repro.exp import experiments as X

SWEEP_REPORTS = {
    4: X.table4_report,
    5: X.table5_report,
    6: X.table6_report,
    7: X.table7_report,
}


def sweep_stats(spark):
    """Load the cached k-sweep (Tables 4–7) or run it."""
    try:
        return X.load_stats("ksweep")
    except FileNotFoundError:
        stats = X.ksweep_experiment(spark)
        X.save_stats("ksweep", stats)
        return stats


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--table", type=int, required=True, choices=range(2, 8))
    args = ap.parse_args()
    if args.table == 2:
        print(X.table2_experiment())
        return
    spark = get_spark(f"table{args.table}")
    if args.table == 3:
        stats = X.overall_experiment(spark)
        X.save_stats("table3", stats)
        print(X.table3_report(stats))
    else:
        print(SWEEP_REPORTS[args.table](sweep_stats(spark)))
    spark.stop()


if __name__ == "__main__":
    main()
