"""Query workload generation (paper §7.1 "Queries").

The paper splits V(G) into V' (top 10% by degree, descending) and V''
(the rest), then builds four 1,000-query sets from the settings
{V',V''} x {V',V''}, requiring dist(s,t) <= 3 so every query has at
least one result and is non-trivial.  The default reported set is
s,t in V' — the hard one, since hub pairs have the most paths.

We reproduce the generator exactly (degree split, settings, distance
guarantee, uniform sampling, deterministic seed) but emit fewer queries
per set — the experiments run 2 queries per set (``N_QUERIES`` in
``repro.exp.experiments``; DESIGN.md §4).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import pandas as pd

SETTINGS = ("hh", "hl", "lh", "ll")  # (s-side, t-side): h = V', l = V''


@dataclass(frozen=True)
class Query:
    s: int
    t: int
    k: int


def degree_split(edges_pdf: pd.DataFrame, top_frac: float = 0.10) -> tuple[np.ndarray, np.ndarray]:
    """(V', V'') — vertex ids split at the top ``top_frac`` by total degree."""
    deg = pd.concat([edges_pdf.src, edges_pdf.dst]).value_counts()
    n_top = max(1, int(len(deg) * top_frac))
    ids = deg.index.to_numpy()
    return ids[:n_top].copy(), ids[n_top:].copy()


def _bounded_dist(adj: dict[int, list[int]], s: int, t: int, bound: int) -> int | None:
    """BFS distance s->t if <= bound else None (driver-side; used only to
    enforce the paper's dist(s,t) <= 3 workload guarantee)."""
    if s == t:
        return 0
    seen = {s}
    frontier = deque([s])
    for d in range(1, bound + 1):
        nxt: deque[int] = deque()
        while frontier:
            v = frontier.popleft()
            for w in adj.get(v, ()):
                if w == t:
                    return d
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return None


def adjacency(edges_pdf: pd.DataFrame) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges_pdf.itertuples(index=False):
        adj.setdefault(int(u), []).append(int(v))
    return adj


def generate_queries(
    edges_pdf: pd.DataFrame,
    *,
    k: int,
    n_queries: int,
    setting: str = "hh",
    seed: int = 0,
    max_dist: int = 3,
    max_tries: int = 20000,
) -> list[Query]:
    """Sample ``n_queries`` distinct (s,t) pairs for one setting.

    s and t are drawn uniformly from their side's vertex pool; pairs with
    s == t or dist(s,t) > ``max_dist`` are rejected, mirroring the paper's
    guarantee that a BFS would not trivially answer the query.
    """
    if setting not in SETTINGS:
        raise ValueError(f"setting must be one of {SETTINGS}")
    hi, lo = degree_split(edges_pdf)
    pool = {"h": hi, "l": lo}
    s_pool, t_pool = pool[setting[0]], pool[setting[1]]
    adj = adjacency(edges_pdf)
    g = np.random.default_rng(seed)
    out: list[Query] = []
    seen: set[tuple[int, int]] = set()
    for _ in range(max_tries):
        if len(out) >= n_queries:
            break
        s = int(g.choice(s_pool))
        t = int(g.choice(t_pool))
        if s == t or (s, t) in seen:
            continue
        d = _bounded_dist(adj, s, t, max_dist)
        if d is None or d == 0:
            continue
        seen.add((s, t))
        out.append(Query(s, t, k))
    if len(out) < n_queries:
        raise RuntimeError(
            f"could not find {n_queries} queries (got {len(out)}) for setting "
            f"{setting!r} — graph too sparse for max_dist={max_dist}"
        )
    return out
