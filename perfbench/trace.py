"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` rebinds the public functions of each layer in the
modules that call them, in this process only, so every call is timed and
its Spark jobs counted without touching the program.  Each span holds its
name, start, end, parent span and query id, its Spark job count and the
row counts read from the object the call returned.  Spans stay in memory
until :meth:`Tracer.dump`.

Jobs are counted with nested job tags: a job carries every tag open
around it, so a span's own jobs are its total minus its children's.  The
counts are read when the span ends (after the listener bus has drained),
because the status store keeps only the last ``spark.ui.retainedJobs``
jobs.  Tracing launches no Spark job of its own.
"""
from __future__ import annotations

import itertools
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import repro.core.context as context_mod
import repro.core.enumerate as enumerate_mod
import repro.core.optimizer as optimizer_mod


@dataclass
class Span:
    id: int
    name: str
    qid: int | None
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    jobs: int = 0
    rows: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _context_rows(ctx) -> dict:
    return {"index_edges": ctx.n_index_edges, "barrier_edges": ctx.n_barrier_edges}


def _optimizer_rows(out) -> dict:
    res, decision = out
    return {"join": int(decision.method == "IDX-JOIN"), "accessed": res.edges_accessed}


def _enum_rows(res) -> dict:
    return {"results": res.n_results, "edges_accessed": res.edges_accessed}


def _expand_rows(out) -> dict:
    stats = out[2]
    return {
        "depths": len(stats.depth_stats),
        "accessed": stats.total_accessed,
        "emitted": stats.total_emitted,
    }


# (span name, module, attribute, rows of the returned object)
LAYERS = (
    ("context", context_mod, "build_context", _context_rows),
    ("bfs", context_mod, "distance_table", None),
    ("optimizer", optimizer_mod, "path_enum", _optimizer_rows),
    ("estimator.prelim", optimizer_mod, "preliminary_estimate", lambda t_hat: {"t_hat": t_hat}),
    ("estimator.full", optimizer_mod, "full_estimate", lambda est: {"walks": est.walks}),
    ("enumerate.dfs", optimizer_mod, "idx_dfs", _enum_rows),
    ("enumerate.join", optimizer_mod, "idx_join", _enum_rows),
    ("expand", enumerate_mod, "expand", _expand_rows),
)


def jobs_for_tag(sc, tag: str) -> int:
    """Spark jobs that carried ``tag``, once every job event has arrived.

    The status store is fed asynchronously by the listener bus, so the bus
    is drained first; without that the last job of a call can be missed.
    """
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc._jsc.sc().statusTracker().getJobIdsForTag(tag))


class Tracer:
    """Records a span around every call of the functions in ``LAYERS``."""

    def __init__(self, sc) -> None:
        self._sc = sc
        self._saved: list[tuple] = []
        self._ids = itertools.count()
        self._open: list[Span] = []
        self.spans: list[Span] = []
        self.qid: int | None = None

    def install(self) -> None:
        for name, module, attr, rows in LAYERS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, rows))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, rows):
        def traced(*args, **kwargs):
            span = Span(
                id=next(self._ids),
                name=name,
                qid=self.qid,
                parent=self._open[-1].id if self._open else None,
            )
            tag = f"perfbench-span-{span.id}"
            self._open.append(span)
            self._sc.addJobTag(tag)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._sc.removeJobTag(tag)
                self._open.pop()
            span.jobs = jobs_for_tag(self._sc, tag)
            if rows is not None:
                span.rows = rows(out)
            self.spans.append(span)
            return out

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans], indent=1))


def _self(span: Span, children: list[Span]) -> tuple[float, int]:
    """(self seconds, self jobs): the span minus its direct children."""
    kids = [c for c in children if c.parent == span.id]
    return (
        span.wall_s - sum(c.wall_s for c in kids),
        span.jobs - sum(c.jobs for c in kids),
    )


def query_layers(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one query, from its spans."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def total(name, attr):
        return sum(getattr(s, attr) for s in by.get(name, []))

    def rows(name, key):
        return sum(s.rows.get(key, 0) for s in by.get(name, []))

    def self_of(name):
        pairs = [_self(s, spans) for s in by.get(name, [])]
        return sum(p[0] for p in pairs), sum(p[1] for p in pairs)

    ctx_self_s, ctx_self_jobs = self_of("context")
    opt_self_s, _ = self_of("optimizer")
    accessed = rows("optimizer", "accessed")
    results = rows("enumerate.dfs", "results") + rows("enumerate.join", "results")
    out = {
        "context.wall_s": total("context", "wall_s"),
        "context.self_s": ctx_self_s,
        "context.jobs": total("context", "jobs"),
        "context.self_jobs": ctx_self_jobs,
        "context.index_edges": rows("context", "index_edges"),
        "context.barrier_edges": rows("context", "barrier_edges"),
        "bfs.wall_s": total("bfs", "wall_s"),
        "bfs.jobs": total("bfs", "jobs"),
        "estimator.prelim.wall_s": total("estimator.prelim", "wall_s"),
        "estimator.prelim.jobs": total("estimator.prelim", "jobs"),
        "estimator.prelim.t_hat_per_accessed": rows("estimator.prelim", "t_hat") / max(accessed, 1),
        "estimator.full.calls": len(by.get("estimator.full", [])),
        "estimator.full.wall_s": total("estimator.full", "wall_s"),
        "estimator.full.jobs": total("estimator.full", "jobs"),
        "estimator.full.walks_per_result": rows("estimator.full", "walks") / max(results, 1),
        "optimizer.self_s": opt_self_s,
        "optimizer.join_share": rows("optimizer", "join") / max(len(by.get("optimizer", [])), 1),
    }
    for layer in ("enumerate.dfs", "enumerate.join"):
        s_self, _ = self_of(layer)
        out.update({
            f"{layer}.calls": len(by.get(layer, [])),
            f"{layer}.wall_s": total(layer, "wall_s"),
            f"{layer}.self_s": s_self,
            f"{layer}.jobs": total(layer, "jobs"),
            f"{layer}.results": rows(layer, "results"),
            f"{layer}.edges_accessed": rows(layer, "edges_accessed"),
        })
    depths = rows("expand", "depths")
    exp_accessed = rows("expand", "accessed")
    out.update({
        "expand.calls": len(by.get("expand", [])),
        "expand.depths": depths,
        "expand.wall_s": total("expand", "wall_s"),
        "expand.jobs": total("expand", "jobs"),
        "expand.s_per_depth": total("expand", "wall_s") / max(depths, 1),
        "expand.jobs_per_depth": total("expand", "jobs") / max(depths, 1),
        "expand.accessed": exp_accessed,
        "expand.emitted": rows("expand", "emitted"),
        "expand.yield": rows("expand", "emitted") / max(exp_accessed, 1),
    })
    return out


def run_layers(spans: list[Span], qids: list[int]) -> dict[str, float]:
    """Median over the given queries of each per-layer figure."""
    per_query = [query_layers([s for s in spans if s.qid == q]) for q in qids]
    return {name: statistics.median(q[name] for q in per_query) for name in per_query[0]}
