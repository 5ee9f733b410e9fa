"""Synthetic directed-graph generators and the scaled-down dataset suite.

The paper evaluates on 15 real-world graphs (Table 2) ranging from 6K to
52M vertices.  This container has no network access, so we substitute a
deterministic synthetic suite that preserves the property HcPE cost
actually depends on: the degree distribution (hub-heavy power-law vs.
dense uniform) and the average density.  Each suite entry names the paper
dataset it emulates; see DESIGN.md §4 for the substitution argument.

All generators are deterministic in ``seed`` and return edge lists with
columns ``src``/``dst`` (int64), no self-loops, no duplicate edges.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

EDGE_COLS = ["src", "dst"]
_PERM_STREAM = 0x7065726D  # "perm": keeps the id permutation apart from the edge draws


def _finalise(src: np.ndarray, dst: np.ndarray) -> pd.DataFrame:
    pdf = pd.DataFrame({"src": src.astype("int64"), "dst": dst.astype("int64")})
    pdf = pdf[pdf.src != pdf.dst].drop_duplicates(ignore_index=True)
    return pdf.sort_values(EDGE_COLS, ignore_index=True)


def _zipf_ids(g: np.random.Generator, n: int, m: int, alpha: float) -> np.ndarray:
    """Draw ``m`` vertex ids from 0..n-1 with Zipf(alpha) rank weights.

    Vertex ids are shuffled ranks (seeded by ``n`` alone, so every process
    draws the same permutation), so hub ids are spread over the id space
    rather than clustered at 0 — queries sampling "top 10% by degree" then
    exercise the hash-partitioned path, not a range artifact.
    """
    ranks = np.arange(1, n + 1, dtype="float64")
    w = ranks ** (-alpha)
    w /= w.sum()
    perm = np.random.default_rng([n, _PERM_STREAM]).permutation(n)
    return perm[g.choice(n, size=m, p=w)]


def powerlaw_graph_pdf(*, n: int, avg_deg: float, alpha: float = 1.0, seed: int = 0) -> pd.DataFrame:
    """Hub-heavy directed graph: both endpoints Zipf-distributed.

    Emulates social/web graphs (ep, gg, sl, ...): a few high-degree hubs
    carry most walks, so queries between hub vertices (the paper's V'xV'
    setting) have exploding result counts.
    """
    g = np.random.default_rng(seed)
    m = int(n * avg_deg * 1.25)  # headroom for dedup/self-loop loss
    src = _zipf_ids(g, n, m, alpha)
    dst = _zipf_ids(g, n, m, alpha)
    return _finalise(src, dst)


def uniform_graph_pdf(*, n: int, avg_deg: float, seed: int = 0) -> pd.DataFrame:
    """Erdős–Rényi-style directed graph: uniform endpoints.

    Emulates the dense near-regular graphs (ye, da): walk counts grow as
    ``avg_deg**k`` uniformly, the worst case for enumeration volume.
    """
    g = np.random.default_rng(seed)
    m = int(n * avg_deg * 1.1)
    src = g.integers(0, n, m)
    dst = g.integers(0, n, m)
    return _finalise(src, dst)


def to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Edge list as a Spark DataFrame (src, dst int64)."""
    return spark.createDataFrame(pdf[EDGE_COLS])


@dataclass(frozen=True)
class GraphConfig:
    """One suite entry: a scaled synthetic stand-in for a paper dataset."""

    name: str
    emulates: str       # paper dataset short name (Table 2)
    kind: str           # "powerlaw" | "uniform"
    n: int
    avg_deg: float
    alpha: float        # zipf exponent (powerlaw only)
    seed: int
    category: str       # paper's "Type" column

    def build_pdf(self) -> pd.DataFrame:
        if self.kind == "powerlaw":
            return powerlaw_graph_pdf(n=self.n, avg_deg=self.avg_deg, alpha=self.alpha, seed=self.seed)
        if self.kind == "uniform":
            return uniform_graph_pdf(n=self.n, avg_deg=self.avg_deg, seed=self.seed)
        raise ValueError(f"unknown graph kind {self.kind!r}")

    def build(self, spark: SparkSession) -> DataFrame:
        return to_spark(spark, self.build_pdf())


# Scaled-down stand-ins for the paper's Table 2 datasets.  |V| is scaled by
# ~1e3x; densities keep each graph in the same class (sparse citation-like,
# web-like with hubs, dense social, very dense bio/recommendation).
SUITE: tuple[GraphConfig, ...] = (
    GraphConfig("up_s", "up (US Patents)", "powerlaw", 3000, 6.0, 0.55, 101, "Citation"),
    GraphConfig("gg_s", "gg (Web-google)", "powerlaw", 2500, 9.0, 0.75, 102, "Web"),
    GraphConfig("tw_s", "tw (Twitter-social)", "powerlaw", 2500, 3.6, 0.85, 103, "Miscellaneous"),
    GraphConfig("st_s", "st (Web-stanford)", "powerlaw", 2000, 12.0, 0.80, 104, "Web"),
    GraphConfig("ep_s", "ep (Soc-Epinions1)", "powerlaw", 1200, 13.0, 1.00, 105, "Social"),
    GraphConfig("sl_s", "sl (Soc-Slashdot0922)", "powerlaw", 1000, 18.0, 0.95, 106, "Social"),
    GraphConfig("ye_s", "ye (Bio-grid-yeast)", "uniform", 300, 35.0, 0.0, 107, "Biological"),
)


def suite_by_name(name: str) -> GraphConfig:
    for c in SUITE:
        if c.name == name:
            return c
    raise KeyError(name)


def graph_stats(pdf: pd.DataFrame) -> dict:
    """|V|, |E|, d_avg for a generated edge list (Table 2 columns)."""
    n_v = int(pd.concat([pdf.src, pdf.dst]).nunique())
    n_e = int(len(pdf))
    return {"V": n_v, "E": n_e, "d_avg": round(n_e / max(n_v, 1), 1)}
