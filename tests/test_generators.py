"""Unit tests for the synthetic graph generators (Table 2 substrate)."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pandas as pd
import pytest

from repro.graphs import generators as G


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_powerlaw_deterministic(seed):
    a = G.powerlaw_graph_pdf(n=200, avg_deg=5, seed=seed)
    b = G.powerlaw_graph_pdf(n=200, avg_deg=5, seed=seed)
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_uniform_deterministic(seed):
    a = G.uniform_graph_pdf(n=200, avg_deg=5, seed=seed)
    b = G.uniform_graph_pdf(n=200, avg_deg=5, seed=seed)
    pd.testing.assert_frame_equal(a, b)


def test_powerlaw_identical_across_processes():
    """Python salts str hashes per process; the graph must not depend on it."""
    code = (
        "from repro.graphs.generators import powerlaw_graph_pdf; import pandas as pd; "
        "print(pd.util.hash_pandas_object(powerlaw_graph_pdf(n=300, avg_deg=5, seed=3)).sum())"
    )
    src = str(Path(G.__file__).resolve().parents[2])
    digests = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(digests) == 1


def test_different_seeds_differ():
    a = G.powerlaw_graph_pdf(n=200, avg_deg=5, seed=0)
    b = G.powerlaw_graph_pdf(n=200, avg_deg=5, seed=1)
    assert not a.equals(b)


@pytest.mark.parametrize("kind", ["powerlaw", "uniform"])
def test_no_self_loops_or_duplicates(kind):
    fn = G.powerlaw_graph_pdf if kind == "powerlaw" else G.uniform_graph_pdf
    kw = {"alpha": 1.0} if kind == "powerlaw" else {}
    pdf = fn(n=300, avg_deg=8, seed=7, **kw)
    assert (pdf.src != pdf.dst).all()
    assert not pdf.duplicated().any()


@pytest.mark.parametrize("kind", ["powerlaw", "uniform"])
def test_ids_in_range(kind):
    fn = G.powerlaw_graph_pdf if kind == "powerlaw" else G.uniform_graph_pdf
    pdf = fn(n=150, avg_deg=4, seed=3)
    assert pdf.src.between(0, 149).all()
    assert pdf.dst.between(0, 149).all()
    assert pdf.dtypes.src == "int64" and pdf.dtypes.dst == "int64"


def test_avg_degree_close_to_target():
    pdf = G.uniform_graph_pdf(n=1000, avg_deg=10, seed=0)
    stats = G.graph_stats(pdf)
    assert 7 <= stats["d_avg"] <= 11.5


def test_powerlaw_has_hubs():
    """Zipf endpoints must concentrate degree: the top vertex should carry
    far more than the average degree."""
    pdf = G.powerlaw_graph_pdf(n=500, avg_deg=6, alpha=1.0, seed=0)
    deg = pd.concat([pdf.src, pdf.dst]).value_counts()
    assert deg.iloc[0] > 8 * deg.mean()


def test_uniform_has_no_extreme_hubs():
    pdf = G.uniform_graph_pdf(n=500, avg_deg=6, seed=0)
    deg = pd.concat([pdf.src, pdf.dst]).value_counts()
    assert deg.iloc[0] < 4 * deg.mean()


@pytest.mark.parametrize("cfg", G.SUITE, ids=lambda c: c.name)
def test_suite_builds_and_matches_class(cfg):
    pdf = cfg.build_pdf()
    stats = G.graph_stats(pdf)
    assert stats["V"] <= cfg.n
    assert stats["V"] >= cfg.n * 0.5
    # density lands in the intended class (generous band: dedup loses edges)
    assert stats["d_avg"] >= cfg.avg_deg * 0.35
    assert stats["d_avg"] <= cfg.avg_deg * 1.6


def test_suite_names_unique():
    names = [c.name for c in G.SUITE]
    assert len(names) == len(set(names))
    assert G.suite_by_name("ep_s").emulates.startswith("ep")
    with pytest.raises(KeyError):
        G.suite_by_name("nope")


def test_graph_stats_counts():
    pdf = pd.DataFrame({"src": [0, 0, 1], "dst": [1, 2, 2]}).astype("int64")
    st = G.graph_stats(pdf)
    assert st == {"V": 3, "E": 3, "d_avg": 1.0}


def test_to_spark_schema(spark):
    df = G.to_spark(spark, G.uniform_graph_pdf(n=50, avg_deg=3, seed=1))
    assert [f.name for f in df.schema.fields] == ["src", "dst"]
    assert df.count() > 0


def test_bad_kind_raises():
    cfg = G.GraphConfig("x", "x", "weird", 10, 2.0, 1.0, 0, "T")
    with pytest.raises(ValueError):
        cfg.build_pdf()
