"""What the benchmark measures: its workloads, metrics and bounds.

This module is the single source of the names in ``BENCHMARK.json``;
``python3 perfbench/run.py --write-json`` renders it there.
"""

#: seconds one run measures
RUN_SECONDS = 20

#: workload name -> why it was chosen (one line each)
WORKLOADS = {
    "ysb-ingest": (
        "YSB 10 s count through StreamingSession, replayed at 5k events/tick, "
        "NumPy tier, closed loop: per-event ingest dominates the tick, the kernel is small"
    ),
    "batch-native": (
        "one-shot TiltEngine.run of trading, rsi and normalize over preloaded 200k-event "
        "SSBufs, native tier: the paper's setting; planning, kernel, grid and output assembly only"
    ),
    "lookback-incremental": (
        "incremental MEAN over a 160k-event lookback at 1k events/tick, native tier requested: "
        "small ticks against deep window state, per-tick fixed costs"
    ),
    "service-push": (
        "QueryService with 4 push-fed tenants under one fixed open-loop offered rate, "
        "arriving in 10 ms batches: admission, queues, scheduler and event-to-result latency"
    ),
}

#: (name, unit, better, bound) — reported by every workload with tracing off
END_TO_END = [
    ("events_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
]

#: (name, unit, better) — reported by every workload from the traced run
PER_LAYER = [
    ("source.poll_ms", "ms", "lower"),
    ("source.events", "count", "higher"),
    ("ingest.self_ms", "ms", "lower"),
    ("ingest.events", "count", "higher"),
    ("plan.ms", "ms", "lower"),
    ("plan.partitions", "count", "lower"),
    ("kernel.ms", "ms", "lower"),
    ("kernel.calls", "count", "lower"),
    ("grid.ms", "ms", "lower"),
    ("grid.points", "count", "lower"),
    ("assemble.ms", "ms", "lower"),
    ("output.snapshots", "count", "lower"),
    ("state.snapshots", "count", "lower"),
    ("retained.snapshots", "count", "lower"),
    ("prune.ms", "ms", "lower"),
    ("prune.snapshots", "count", "higher"),
    ("serve.ingest_ms", "ms", "lower"),
    ("serve.select_ms", "ms", "lower"),
    ("serve.step_self_ms", "ms", "lower"),
    ("serve.queue_depth_max", "count", "lower"),
    ("serve.shed_events", "count", "lower"),
    ("serve.failed_tenants", "count", "lower"),
    ("generator.lag_p99_ms", "ms", "lower"),
    ("tick.unattributed_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

#: per-layer counts a traced pass must reproduce exactly on the same input
COUNT_METRICS = [
    "source.events",
    "ingest.events",
    "plan.partitions",
    "kernel.calls",
    "grid.points",
    "output.snapshots",
    "state.snapshots",
    "retained.snapshots",
    "prune.snapshots",
]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
