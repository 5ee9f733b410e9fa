"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q -p no:cacheprovider

The Spark tests use the session fixture of the root ``conftest.py``.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.inputs import Query, powerlaw_graph
from perfbench.reference import answer_fingerprint, fingerprint_of_strings
from perfbench.run import END_TO_END_UNITS, WORKLOADS, per_layer_unit, run_query
from perfbench.trace import Tracer, query_layers
from repro.pathoracle import python_paths

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tiny(spark):
    """A 40-vertex graph, its edge DataFrame and a query with answers."""
    import pandas as pd

    spark.conf.set("spark.sql.shuffle.partitions", "8")
    src, dst = powerlaw_graph(np.random.default_rng(3), 40, 4.0, 0.8)
    q = next(
        Query(s, t, 4, "hh")
        for s in range(40)
        for t in range(40)
        if s != t and answer_fingerprint(src, dst, 40, s, t, 4)[0] >= 5
    )
    edges = spark.createDataFrame(pd.DataFrame({"src": src, "dst": dst})).persist()
    yield src, dst, edges, q
    edges.unpersist()


def _fingerprint_in_subprocess(hashseed: str) -> str:
    code = (
        "import itertools; from perfbench.run import WORKLOADS; "
        "from perfbench.inputs import make_inputs, query_hash; "
        "i = make_inputs(WORKLOADS['mixed-k4'], 7); "
        "print(i.edge_hash(), query_hash(i.warmup + list(itertools.islice(i.queries, 3))))"
    )
    env = {**os.environ, "PYTHONHASHSEED": hashseed}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1]


def test_same_seed_gives_same_inputs_in_two_processes():
    a = _fingerprint_in_subprocess("1")
    b = _fingerprint_in_subprocess("2")
    assert a == b
    assert len(a.split()) == 2


@pytest.mark.parametrize("seed", range(8))
def test_reference_matches_python_oracle(seed):
    rng = np.random.default_rng(seed)
    src, dst = powerlaw_graph(rng, 30, 4.0, 0.8)
    edge_list = list(zip(src.tolist(), dst.tolist()))
    for s, t in rng.integers(0, 30, size=(6, 2)):
        if s == t:
            continue
        want = fingerprint_of_strings(python_paths(edge_list, int(s), int(t), 4))
        assert answer_fingerprint(src, dst, 30, int(s), int(t), 4) == want


def test_program_answer_matches_reference(spark, tiny):
    src, dst, edges, q = tiny
    out = run_query(spark, edges, q, qid=0)
    assert not out.failed
    assert out.jobs > 0
    want = answer_fingerprint(src, dst, 40, q.s, q.t, q.k)
    assert out.answer == want
    assert out.n_results == want[0]


def test_tiny_time_limit_counts_as_failed(spark, tiny):
    _, _, edges, q = tiny
    out = run_query(spark, edges, q, qid=1, time_limit=1e-9)
    assert out.failed


def test_traced_jobs_add_up_to_the_query_total(spark, tiny):
    import repro.core.context as context_mod

    _, _, edges, q = tiny
    original = context_mod.build_context
    tracer = Tracer(spark.sparkContext)
    tracer.install()
    try:
        tracer.qid = 2
        out = run_query(spark, edges, q, qid=2)
    finally:
        tracer.uninstall()
    assert context_mod.build_context is original
    top = [s for s in tracer.spans if s.parent is None]
    assert sorted(s.name for s in top) == ["context", "optimizer"]
    assert sum(s.jobs for s in top) == out.jobs
    layers = query_layers(tracer.spans)
    assert layers["enumerate.dfs.results"] == out.n_results
    assert layers["context.jobs"] == layers["bfs.jobs"] + layers["context.self_jobs"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    layer_names = list(query_layers([])) + ["trace.query_s", "trace.jobs_per_query"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert all(m["unit"] == per_layer_unit(m["name"]) for m in spec["per_layer"])
