"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics)::

    python3 perfbench/run.py --workload ysb-ingest --seed 1 --seconds 20 --trace 0

Every workload, both modes, tables only::

    python3 perfbench/run.py

Regenerate ``BENCHMARK.json`` from ``perfbench/spec.py``::

    python3 perfbench/run.py --write-json

A run generates its input from the seed, checks every output against a
reference outside the timed region, prints a table, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program under test is imported from ``src/`` of the checkout the script
sits in; without it the run fails before printing a result.  Scratch files
(native-kernel caches, compiler temporaries) go to ``.perfbench_tmp/`` in
the checkout and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

#: cold set-ups in fresh interpreters, beside the run's own, per run
SETUP_PROBES = 2
#: measuring stops here even when a percentile still lacks samples
MAX_MEASURE_SECONDS = 90.0
#: ``PYTHONHASHSEED`` of every run
HASH_SEED = "0"


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not from {SRC}")


def percentile(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q))


def samples_needed(q: float) -> int:
    """Samples for at least ten beyond the ``q``-th percentile."""
    return math.ceil(10 / (1 - q / 100) - 1e-9)


def windowed_percentile(samples, q: float) -> float:
    """The ``q``-th percentile within consecutive windows of ``samples``,
    averaged over the middle half of the windows.

    Each window holds at least :func:`samples_needed` samples, in the order
    they were taken.  The shared host runs at a few distinct speeds for
    seconds at a time, so the samples of one run form several humps, and
    the percentile of the pooled samples jumps between them from run to
    run; averaging local percentiles moves smoothly with the share of each.
    Leaving out the highest and lowest quarter of the windows keeps a rare
    stretch (a round of the service that fell into big batches, a burst on
    the host) from moving the run's figure.
    """
    import numpy as np

    windows = max(1, len(samples) // samples_needed(q))
    local = sorted(np.percentile(w, q) for w in np.array_split(samples, windows))
    trim = len(local) // 4
    return float(np.mean(local[trim:len(local) - trim]))


# ---------------------------------------------------------------------- #
# passes
# ---------------------------------------------------------------------- #
def one_pass(workload, tracer=None):
    """Run one pass, traced into ``tracer`` if given.

    Returns ``(result, failed, layers, spans)``; a pass that raises counts
    every one of its events as failed and returns no result.
    """
    from layers import instrument, layer_metrics
    from repro.obs.trace import NULL_TRACER

    gc.collect()  # every pass starts from the same collector state
    try:
        if tracer is None:
            result = workload.run_pass()
        else:
            workload.set_tracer(tracer)
            try:
                with instrument(tracer):
                    result = workload.run_pass()
            finally:
                workload.set_tracer(NULL_TRACER)
        layers = spans = None
        if tracer is not None:
            spans = [r for r in tracer.records() if r.start >= result.trace_from]
            layers = {**layer_metrics(spans, result.scale), **result.counts}
        failed = result.check()
        result.check = None  # let the pass's sessions and outputs go
        return result, failed, layers, spans
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, workload.pass_events, None, None


def end_to_end(workload, seconds: float, setups):
    """Untraced passes for ``seconds`` (longer while the tail percentile
    lacks samples); returns the end-to-end metrics."""
    results, attempted, failed = [], 0, 0
    need = samples_needed(workload.tail)
    started = time.perf_counter()
    while True:
        result, bad, _, _ = one_pass(workload)
        attempted += workload.pass_events if result is None else result.events
        failed += bad
        if result is not None:
            results.append(result)
        elapsed = time.perf_counter() - started
        samples = sum(len(r.latencies) for r in results)
        if elapsed >= seconds and (samples >= need or elapsed >= MAX_MEASURE_SECONDS):
            break
    if not results:
        raise RuntimeError(f"{workload.name}: every pass failed")
    latencies = [x for r in results for x in r.latencies]
    metrics = {
        "events_per_s": statistics.median(r.processed / r.seconds for r in results),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latency_p50_ms": windowed_percentile(latencies, 50) * 1e3,
        "latency_tail_ms": windowed_percentile(latencies, workload.tail) * 1e3,
    }
    print(f"# {len(results)} passes, {len(latencies)} latency samples "
          f"(tail = p{workload.tail}, needs {need}), "
          f"set-up samples {[round(s, 4) for s in setups]} s")
    print(f"# host-speed factors of the passes: {[round(r.scale, 3) for r in results]}")
    print("# latency metrics average the percentile over the middle half of windows of "
          f"{samples_needed(50)} (p50) and {need} (tail) consecutive samples")
    print("# pooled latency percentiles (ms): " + "  ".join(
        f"p{q:g} {percentile(latencies, q) * 1e3:.3f}"
        for q in (50, 90, 95, 99) if len(latencies) >= samples_needed(q)))
    print(f"# failed_frac {failed / attempted:.6f} ({failed} of {attempted} events); "
          f"values matching only within tolerance: {workload.inexact_values}")
    return metrics, attempted, failed, failed == 0


def per_layer(workload, seconds: float, spans_out):
    """Alternate untraced and traced passes for ``seconds`` (at least two
    of each); returns the per-layer metrics, medians over traced passes.

    Spans stay in memory while a pass runs; ``spans_out`` receives the
    last traced pass's as a Chrome trace.
    """
    from layers import SpanLog

    untraced, traced_busy, traced, attempted, failed, spans = [], [], [], 0, 0, []
    started = time.perf_counter()
    while True:
        for tracer in (None, SpanLog()):
            result, bad, layers, records = one_pass(workload, tracer)
            attempted += workload.pass_events if result is None else result.events
            failed += bad
            if result is None:
                continue
            if tracer is None:
                untraced.append(result.busy)
            else:
                traced_busy.append(result.busy)
                traced.append(layers)
                spans = records
        elapsed = time.perf_counter() - started
        if (elapsed >= seconds and len(traced) >= 2) or elapsed >= MAX_MEASURE_SECONDS:
            break
    if not traced or not untraced:
        raise RuntimeError(f"{workload.name}: every traced or untraced pass failed")
    overhead = statistics.median(traced_busy) / statistics.median(untraced)
    metrics = {n: statistics.median(t.get(n, 0.0) for t in traced) for n, _, _ in spec.PER_LAYER}
    metrics["trace.overhead_pct"] = (overhead - 1.0) * 100.0
    mismatched = [k for k in workload.repeatable if len({t.get(k, 0.0) for t in traced}) != 1]
    print(f"# {len(traced)} traced and {len(untraced)} untraced passes; "
          f"per-layer values are medians over traced passes")
    if mismatched:
        print(f"# COUNT SELF-CHECK FAILED: {mismatched} differ across passes: "
              f"{[{k: t.get(k) for k in mismatched} for t in traced]}")
    else:
        print(f"# count self-check: {list(workload.repeatable)} repeat exactly")
    if spans_out:
        from repro.obs.export import to_chrome_trace

        with open(spans_out, "w") as fh:
            json.dump(to_chrome_trace(spans), fh)
    return metrics, attempted, failed, failed == 0 and not mismatched


# ---------------------------------------------------------------------- #
# one workload
# ---------------------------------------------------------------------- #
def timed_setup(workload) -> float:
    """Seconds ``workload.setup()`` takes, scaled like every other time."""
    from workloads import host_speed

    before = host_speed()
    t0 = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - t0
    return elapsed * (before + host_speed()) / 2


def probe_setups(name: str, seed: int, workdir: str) -> list:
    """Time ``SETUP_PROBES`` more cold set-ups, each in a fresh interpreter
    with an empty native-kernel cache."""
    samples = []
    for i in range(SETUP_PROBES):
        env = dict(os.environ, REPRO_NATIVE_CACHE=os.path.join(workdir, f"native-probe-{i}"))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            env=env, capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str, spans_out):
    from workloads import WORKLOADS

    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(workdir, "native")
    workload = WORKLOADS[name](seed)
    t0 = time.perf_counter()
    workload.generate()
    generate_s = time.perf_counter() - t0
    gc.collect()
    gc.freeze()  # keep collector passes off the input's heap
    setup_s = timed_setup(workload)
    workload.prepare()
    gc.collect()
    gc.freeze()
    print(f"# workload {name}  seed {seed}  input generation {generate_s:.3f} s  "
          f"{workload.describe()}")

    if trace:
        metrics, attempted, failed, correct = per_layer(workload, seconds, spans_out)
        units = {n: u for n, u, _ in spec.PER_LAYER}
    else:
        setups = [setup_s] + probe_setups(name, seed, workdir)
        metrics, attempted, failed, correct = end_to_end(workload, seconds, setups)
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    for metric, value in metrics.items():
        print(f"{name:>22}  {metric:<24} {value:>16.4f} {units[metric]}")
    return {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="write the last traced pass as a Chrome trace")
    parser.add_argument("--write-json", action="store_true", help="write BENCHMARK.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # the same string-hash seed in every run, so that set iteration
        # orders, and whatever the program decides by them, repeat from run
        # to run instead of adding to the spread between runs
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))

    import_program()
    if args.setup_probe:
        from workloads import WORKLOADS

        print(json.dumps({"setup_s": timed_setup(WORKLOADS[args.workload](args.seed))}))
        return 0

    if args.workload is None:
        # every workload in its own interpreter, both modes
        status = 0
        for name in spec.WORKLOADS:
            for trace in (0, 1):
                status |= subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(trace)],
                ).returncode
        return status

    workdir = os.path.join(SCRATCH, f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(os.path.join(workdir, "tmp"))
    # the C compiler's temporaries stay inside the checkout too
    os.environ["TMPDIR"] = os.path.join(workdir, "tmp")
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, args.spans_out
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
