"""Per-layer attribution for the traced run.

The engine's own spans (``TiltEngine(trace=...)``) cover sessions, planning,
dispatch, emission and the service loop.  :func:`instrument` adds spans
around the public entry points they do not cover — source ``poll`` and
``horizon``, ``KernelRuntime.eval_times`` (the evaluation grid),
``CompiledKernel.run`` and ``QueryService.ingest`` — for the duration of one
traced pass only.  :func:`layer_metrics` folds the recorded span tree into
the per-layer metrics named in ``spec.PER_LAYER``; a span's self time is its
duration minus the time its children cover (runs are single-threaded, so
children never overlap).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

from repro.core.codegen.compiled import CompiledKernel
from repro.core.codegen.runtime_support import KernelRuntime
from repro.datagen.sources import QueuedSource, StreamReplaySource
from repro.obs.trace import Tracer
from repro.serve import QueryService


class SpanLog(Tracer):
    """A tracer that keeps every record in memory until the pass ends.

    The service's flight recorder drains the tracer after every step;
    keeping a copy of what it drains means no span is lost to it.
    """

    def __init__(self):
        super().__init__(max_spans_per_thread=1 << 21)
        self._kept: List = []

    def drain(self):
        records = super().drain()
        self._kept.extend(records)
        return records

    def records(self) -> List:
        self.drain()
        return self._kept


def _spanned(tracer, name, fn, attrs=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            out = fn(*args, **kwargs)
            if attrs is not None:
                span.set(**attrs(out))
            return out

    return wrapper


@contextmanager
def instrument(tracer):
    """Time the entry points the engine's spans miss, into ``tracer``."""
    patches = []

    def patch(cls, attr, wrap):
        original = cls.__dict__[attr]
        patches.append((cls, attr, original))
        setattr(cls, attr, wrap(original))

    def count_events(out):
        return {"events": len(out)}

    for cls in (StreamReplaySource, QueuedSource):
        patch(cls, "poll", lambda f: _spanned(tracer, "source.poll", f, count_events))
        patch(cls, "horizon", lambda p: property(_spanned(tracer, "source.horizon", p.fget)))
    patch(
        KernelRuntime,
        "eval_times",
        lambda f: _spanned(tracer, "grid.eval_times", f, lambda ts: {"points": len(ts)}),
    )
    patch(CompiledKernel, "run", lambda f: _spanned(tracer, "kernel.run", f))
    patch(QueryService, "ingest", lambda f: _spanned(tracer, "serve.ingest", f))
    try:
        yield
    finally:
        for cls, attr, original in reversed(patches):
            setattr(cls, attr, original)


def layer_metrics(records, scale: float = 1.0) -> Dict[str, float]:
    """Per-layer times (ms, multiplied by ``scale``) and counts of one
    traced pass."""
    covered: Dict[str, float] = defaultdict(float)
    for r in records:
        if r.parent_id is not None:
            covered[r.parent_id] += r.duration
    m: Dict[str, float] = defaultdict(float)
    for r in records:
        ms = r.duration * 1e3
        self_ms = max(0.0, r.duration - covered[r.span_id]) * 1e3
        a = r.attrs
        name = r.name
        if name == "source.poll":
            m["source.poll_ms"] += ms
            m["source.events"] += a["events"]
        elif name == "source.horizon":
            m["source.poll_ms"] += ms
        elif name == "tick.ingest":
            m["ingest.self_ms"] += self_ms
            m["ingest.events"] += a.get("events", 0)
        elif name == "run.ingest":
            m["ingest.self_ms"] += ms
        elif name == "engine.run":
            m["assemble.ms"] += self_ms
            m["ingest.events"] += a.get("input_events", 0)
            m["plan.partitions"] += a.get("partitions", 0)
        elif name == "run.plan":
            m["plan.ms"] += ms
        elif name == "emit.plan":
            m["plan.ms"] += ms
            m["plan.partitions"] += a.get("partitions", 0)
        elif name in ("executor.dispatch", "emit.incremental"):
            # dispatch and incremental evaluation enclose every kernel call;
            # the grid share is moved out below
            m["kernel.ms"] += ms
        elif name == "kernel.run":
            m["kernel.calls"] += 1
        elif name == "grid.eval_times":
            m["grid.ms"] += ms
            m["grid.points"] += a["points"]
        elif name == "tick.emit":
            m["assemble.ms"] += self_ms
        elif name == "emit.prune":
            m["prune.ms"] += ms
            m["prune.snapshots"] += a.get("pruned", 0)
        elif name == "serve.ingest":
            m["serve.ingest_ms"] += ms
        elif name == "scheduler.select":
            m["serve.select_ms"] += ms
        elif name == "service.step":
            m["serve.step_self_ms"] += self_ms
        elif name == "session.tick":
            m["tick.unattributed_ms"] += self_ms
    m["kernel.ms"] -= m["grid.ms"]
    return {k: v * scale if k.endswith("_ms") or k.endswith(".ms") else v for k, v in m.items()}
