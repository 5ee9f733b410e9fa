"""Reference answers: every simple s->t path of at most k edges, in NumPy.

The benchmark checks each answer of the program against this reference by
its size and by the sum of :func:`path_hash` over its paths.  It
shares no code with the program: the pruning is a plain reverse BFS (a
vertex more than ``b`` hops from t, avoiding s, cannot start a suffix of
length ``b``) and the expansion is a frontier of path rows, one NumPy
gather per hop.  ``perfbench/test_perfbench.py`` checks it against
``repro.pathoracle.python_paths``.
"""
from __future__ import annotations

import numpy as np

_UNREACHED = np.iinfo("int64").max // 2
# path_hash folds the vertex ids of a path in order.  Every intermediate
# value stays below 2**52 and a sum over 1e7 hashes below 2**55, so the
# same arithmetic is exact in NumPy int64 and in Spark's (ANSI) longs.
HASH_BASE = 1_000_003
HASH_MOD = 2**31 - 1


def path_hash(path) -> int:
    """Order-sensitive hash of one path's vertex ids."""
    acc = 0
    for v in path:
        acc = (acc * HASH_BASE + v + 1) % HASH_MOD
    return acc


def _dist_to(src: np.ndarray, dst: np.ndarray, n: int, t: int, avoid: int, bound: int):
    """Hops from each vertex to ``t`` in G - {avoid}, up to ``bound``."""
    d = np.full(n, _UNREACHED, dtype="int64")
    d[t] = 0
    ok = (src != avoid) & (dst != avoid)
    s_ok, d_ok = src[ok], dst[ok]
    for h in range(1, bound + 1):
        on = d[d_ok] == h - 1
        prev = np.unique(s_ok[on])
        prev = prev[d[prev] == _UNREACHED]
        if not len(prev):
            break
        d[prev] = h
    return d


def simple_paths(src, dst, n: int, s: int, t: int, k: int) -> list[np.ndarray]:
    """All simple s->t paths with at most ``k`` edges.

    Returns one int64 matrix per path length ``L`` (shape ``(count, L+1)``,
    possibly empty), for ``L = 1..k``.  Paths never pass through ``t``.
    """
    dt = _dist_to(src, dst, n, t, s, k)
    keep = (src != t) & (dst != s) & (dt[dst] <= k - 1)
    # CSR over the kept edges with each neighbour list sorted by dt, so the
    # neighbours within budget b are a prefix of the list.
    e_src, e_dst = src[keep], dst[keep]
    order = np.lexsort((dt[e_dst], e_src))
    e_src, e_dst = e_src[order], e_dst[order]
    start = np.searchsorted(e_src, np.arange(n + 1))
    within = np.zeros((k, n), dtype="int64")  # within[b, v] = #nbrs with dt <= b
    for b in range(k):
        within[b] = np.bincount(e_src[dt[e_dst] <= b], minlength=n)

    out = [np.empty((0, L + 1), dtype="int64") for L in range(1, k + 1)]
    paths = np.array([[s]], dtype="int64")
    for pos in range(1, k + 1):
        last = paths[:, -1]
        cnt = within[k - pos, last]
        total = int(cnt.sum())
        if total == 0:
            break
        row = np.repeat(np.arange(len(paths)), cnt)
        first = np.repeat(np.cumsum(cnt) - cnt, cnt)
        nbr = e_dst[np.repeat(start[last], cnt) + np.arange(total) - first]
        fresh = ~(paths[row] == nbr[:, None]).any(axis=1)
        row, nbr = row[fresh], nbr[fresh]
        nxt = np.concatenate([paths[row], nbr[:, None]], axis=1)
        at_t = nbr == t
        out[pos - 1] = nxt[at_t]
        paths = nxt[~at_t]
        if not len(paths):
            break
    return out


def _hash_sum(rows: np.ndarray) -> int:
    """Sum of :func:`path_hash` over the rows of one path-length block."""
    acc = np.zeros(len(rows), dtype="int64")
    for col in rows.T:
        acc = (acc * HASH_BASE + col + 1) % HASH_MOD
    return int(acc.sum())


def answer_fingerprint(src, dst, n: int, s: int, t: int, k: int) -> tuple[int, int]:
    """``(#paths, sum of path_hash over the paths)`` for q(s, t, k)."""
    blocks = simple_paths(src, dst, n, s, t, k)
    return sum(len(b) for b in blocks), sum(_hash_sum(b) for b in blocks)


def fingerprint_of_strings(paths) -> tuple[int, int]:
    """The same fingerprint over path strings such as ``'3-17-4'``."""
    paths = list(paths)
    return len(paths), sum(path_hash(int(v) for v in p.split("-")) for p in paths)
