"""The benchmark's four workloads.

Every workload follows the same life cycle, driven by ``run.py``:

``generate()``
    builds the whole input from the seed, before anything is timed;
``setup()``
    constructs the engine and compiles every query (static analysis, code
    generation, native JIT) — the span ``setup_s`` measures;
``prepare()``
    computes the reference outputs the checks compare against;
``run_pass()``
    runs one fixed unit of work and returns a :class:`PassResult` whose
    ``check`` compares the pass's output with its reference, outside the
    timed region, and returns the number of failed operations.

Every duration a pass reports is scaled to the speed of a reference host
by :func:`host_speed`, sampled around each timed segment (raised to a
workload's measured sensitivity where that is not 1).

An operation is one input event: it fails when it is shed, belongs to a
failed tenant, or is part of an output that does not match its reference
(see :meth:`Workload.agrees`).  Everything runs single-threaded in one
process: one worker, the serial executor, no service thread and no
telemetry server.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro import EventStream, QueryService, TiltEngine
from repro.apps import NORMALIZATION, RSI, TREND_TRADING, YSB, get_application, ysb_query
from repro.core.ir import IRBuilder
from repro.core.runtime.ssbuf import SSBuf, ssbuf_from_stream
from repro.datagen import StreamReplaySource
from repro.windowing import MEAN

from spec import COUNT_METRICS


#: seconds :func:`host_speed`'s calibration work takes on the reference
#: host, a shared 2-vCPU Xeon VM at 2.0 GHz with nothing else running
CALIBRATION_SECONDS = 0.0075
_CALIBRATION_INPUT = np.random.default_rng(0).random(50_000)


def host_speed() -> float:
    """How fast the host runs right now, relative to the reference host.

    Times a fixed piece of pure-Python and NumPy work that shares no code
    with the program and returns reference time over measured time.  The
    machine is shared, and its speed swings by a quarter within a minute;
    multiplying a duration by the samples taken around it cancels most of
    that swing, while a change in the program's own speed stays in full.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i
    np.sort(_CALIBRATION_INPUT)
    return CALIBRATION_SECONDS / (time.perf_counter() - t0)


def group_scales(speeds: List[float], sensitivity: float = 1.0) -> List[float]:
    """Scale factors of the timed groups that ``speeds`` bracket.

    ``speeds`` holds one :func:`host_speed` sample before the first group
    and one after each group.  A group's factor averages the two samples on
    each side of it, raised to the workload's ``sensitivity``: one sample
    takes a few milliseconds, and the shared host changes speed within
    tenths of a second, so the samples around a group say more together
    than the two that touch it.
    """
    factors = np.asarray(speeds) ** sensitivity
    return [float(factors[max(0, i - 1):i + 3].mean()) for i in range(len(speeds) - 1)]


@dataclass
class PassResult:
    """What one pass did and how long it took."""

    #: operations (input events) the pass attempted
    events: int
    #: events counted in ``events_per_s``
    processed: int
    #: measured time, scaled
    seconds: float
    #: scaled time spent inside the program (differs from ``seconds`` in an
    #: open loop)
    busy: float
    #: latency samples, scaled seconds
    latencies: List[float]
    #: mean host-speed factor over the pass
    scale: float
    #: counts and gauges the benchmark observes itself (merged into the layers)
    counts: Dict[str, float]
    #: compares the output with its reference; returns failed operations
    check: Callable[[], int]
    #: spans that start before this wall-clock time belong to the warm-up
    trace_from: float = 0.0


#: tolerance of session-against-one-shot values: the square root of the
#: float64 machine epsilon, relative above magnitude 1, absolute below it
SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))


def _compact(buf: SSBuf) -> SSBuf:
    """``buf.compact()`` in NumPy: drop every snapshot whose successor holds
    the same validity and, when valid, the same value."""
    same = np.zeros(len(buf.times), dtype=bool)
    same[:-1] = (buf.valid[:-1] == buf.valid[1:]) & (
        ~buf.valid[:-1] | (buf.values[:-1] == buf.values[1:])
    )
    keep = ~same
    return SSBuf(buf.times[keep], buf.values[keep], buf.valid[keep], start_time=buf.start_time)


def _engine(tier: str, *, incremental: bool = False) -> TiltEngine:
    return TiltEngine(
        workers=1,
        executor_kind="serial",
        codegen_tier=tier,
        incremental=incremental,
        trace=False,
    )


class Workload:
    """Life cycle and checks shared by the four workloads."""

    name = ""
    #: the highest percentile of the latency samples that has at least ten
    #: samples beyond it in a run and is steady from run to run
    tail = 99
    #: per-layer counts that must repeat exactly across passes on one input
    repeatable = COUNT_METRICS
    #: the power of :func:`host_speed` in the workload's scale factors: the
    #: slope of log measured time against log calibration time as the
    #: shared host's speed changes
    SENSITIVITY = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        #: checked output values that matched only within the tolerance
        self.inexact_values = 0

    def agrees(self, output, reference, *, exact: bool = False) -> bool:
        """Whether ``output`` matches ``reference``.

        Start time, snapshot times and validity must be bit-identical, and
        so must values when ``exact`` (native tier against NumPy tier).
        Otherwise (session against one-shot run) values may differ by
        ``SQRT_EPS * max(1, |reference|)``: a session's window sums start
        where its carry-over was pruned, so they round differently from the
        one-shot run's; such values are counted in ``inexact_values``.
        """
        if (
            np.float64(output.start_time).tobytes() != np.float64(reference.start_time).tobytes()
            or output.times.tobytes() != reference.times.tobytes()
            or output.valid.tobytes() != reference.valid.tobytes()
        ):
            return False
        a = output.values[output.valid]
        b = reference.values[reference.valid]
        differ = a.view(np.uint64) != b.view(np.uint64)
        if not differ.any():
            return True
        if exact:
            return False
        self.inexact_values += int(differ.sum())
        return bool(np.all(np.abs(a - b) <= SQRT_EPS * np.maximum(1.0, np.abs(b))))

    @property
    def pass_events(self) -> int:
        raise NotImplementedError

    def set_tracer(self, tracer) -> None:
        self.engine.tracer = tracer

    def describe(self) -> str:
        return ""


class YsbIngest(Workload):
    """The YSB query replayed through a StreamingSession, closed loop."""

    name = "ysb-ingest"
    EVENTS = 200_000
    TICK_EVENTS = 5_000
    #: measured ticks between two host-speed samples
    GROUP = 10

    @property
    def pass_events(self) -> int:
        return self.EVENTS

    def generate(self) -> None:
        self.stream = YSB.streams(self.EVENTS, seed=self.seed)["ads"]

    def setup(self) -> None:
        self.engine = _engine("numpy")
        self.query = self.engine.compile_cached(YSB.program())

    def prepare(self) -> None:
        self.reference = self.engine.run(self.query, {"ads": self.stream}).output

    def run_pass(self) -> PassResult:
        source = StreamReplaySource(self.stream, events_per_poll=self.TICK_EVENTS)
        session = self.engine.open_session(self.query, [source], incremental=False)
        groups: List[List[float]] = [[]]
        speeds = [host_speed()]
        snapshots = 0
        while not session.exhausted:
            t0 = time.perf_counter()
            delta = session.tick().delta
            groups[-1].append(time.perf_counter() - t0)
            snapshots += len(delta)
            if len(groups[-1]) == self.GROUP:
                speeds.append(host_speed())
                groups.append([])
        retained = session.retained_snapshots()
        t0 = time.perf_counter()
        snapshots += len(session.close().delta)
        closing = time.perf_counter() - t0
        speeds.append(host_speed())
        scales = group_scales(speeds, self.SENSITIVITY)
        ticks = [t * scale for group, scale in zip(groups, scales) for t in group]
        seconds = sum(ticks) + closing * scales[-1]
        scale = sum(scales) / len(scales)

        def check() -> int:
            return 0 if self.agrees(session.result().output, self.reference) else self.EVENTS

        return PassResult(
            events=self.EVENTS,
            processed=self.EVENTS,
            seconds=seconds,
            busy=seconds,
            latencies=ticks,
            scale=scale,
            counts={
                "output.snapshots": snapshots,
                "retained.snapshots": retained,
                "state.snapshots": session.state_snapshots(),
            },
            check=check,
        )


class BatchNative(Workload):
    """One-shot runs of three windowed apps over preloaded snapshot buffers."""

    name = "batch-native"
    # a pass holds three runs: too few samples in a run for more than the median
    tail = 50
    APPS = ("trading", "rsi", "normalize")
    EVENTS = 200_000

    @property
    def pass_events(self) -> int:
        return self.EVENTS * len(self.APPS)

    def generate(self) -> None:
        self.inputs = {}
        for i, app in enumerate(self.APPS):
            streams = get_application(app).streams(self.EVENTS, seed=self.seed + i)
            self.inputs[app] = {n: ssbuf_from_stream(s) for n, s in streams.items()}

    def setup(self) -> None:
        self.engine = _engine("native")
        self.queries = {
            app: self.engine.compile_cached(get_application(app).program())
            for app in self.APPS
        }

    def prepare(self) -> None:
        numpy_engine = _engine("numpy")
        self.reference = {
            app: numpy_engine.run(
                numpy_engine.compile_cached(get_application(app).program()),
                self.inputs[app],
            ).output
            for app in self.APPS
        }
        numpy_engine.close()

    def describe(self) -> str:
        tiers = {app: sorted(set(q.codegen_tiers.values())) for app, q in self.queries.items()}
        return f"kernel tiers: {tiers}"

    def run_pass(self) -> PassResult:
        outputs, runs = {}, []
        events = snapshots = 0
        speeds = [host_speed()]
        for app in self.APPS:
            t0 = time.perf_counter()
            result = self.engine.run(self.queries[app], self.inputs[app])
            runs.append(time.perf_counter() - t0)
            speeds.append(host_speed())
            outputs[app] = result.output
            events += result.input_events
            snapshots += len(result.output)
        scales = group_scales(speeds, self.SENSITIVITY)
        runs = [t * scale for t, scale in zip(runs, scales)]

        def check() -> int:
            return sum(
                self.EVENTS
                for app in self.APPS
                if not self.agrees(outputs[app], self.reference[app], exact=True)
            )

        return PassResult(
            events=events,
            processed=events,
            seconds=sum(runs),
            busy=sum(runs),
            latencies=runs,
            scale=sum(scales) / len(scales),
            counts={"output.snapshots": snapshots},
            check=check,
        )


class LookbackIncremental(Workload):
    """Small ticks of an incremental MEAN against a deep lookback window."""

    name = "lookback-incremental"
    # host-speed bursts of a few ticks make the p99 of ~1k ticks swing by a
    # quarter between runs; the p90 is the highest steady percentile
    tail = 90
    DEPTH = 160_000
    PERIOD = 0.01
    TICK_EVENTS = 1_000
    TICKS = 600
    #: measured ticks between two host-speed samples
    GROUP = 10
    WARMUP_POLL = 50_000
    #: how much more a tick slows than :func:`host_speed`'s calibration when
    #: the shared host slows: the slope of log tick time against log
    #: calibration time, 1.7 to 1.8 in three fits over 10 to 16 stretches of
    #: 600 ticks (correlation 0.98) on the reference host.  A tick sweeps
    #: megabytes of window state, which a busy neighbour slows more than the
    #: calibration's cache-sized work
    SENSITIVITY = 1.75

    @property
    def pass_events(self) -> int:
        return self.DEPTH + self.TICKS * self.TICK_EVENTS

    def generate(self) -> None:
        n = self.pass_events
        values = np.random.default_rng(self.seed).uniform(0.5, 2.0, n + 1)
        # one event beyond the pass keeps the source open, so the last
        # measured tick emits like every other one
        self.stream = EventStream.from_samples(values, period=self.PERIOD, name="x")
        self.consumed = EventStream(self.stream.events[:n], name="x", check_order=False)
        self._references: Dict[float, object] = {}
        self._result_checked = False

    def setup(self) -> None:
        b = IRBuilder()
        x = b.stream("x")
        b.define(
            "out",
            x.window(-self.DEPTH * self.PERIOD, 0.0).reduce(MEAN),
            precision=self.PERIOD,
        )
        self.engine = _engine("native", incremental=True)
        self.query = self.engine.compile_cached(b.build(output="out"))

    def prepare(self) -> None:
        pass  # the reference depends on the watermark a pass reaches

    def _reference(self, watermark: float):
        if watermark not in self._references:
            self._references[watermark] = self.engine.run(
                self.query, {"x": self.consumed}, t_end=watermark
            ).output
        return self._references[watermark]

    def run_pass(self) -> PassResult:
        session = self.engine.open_session(
            self.query, [StreamReplaySource(self.stream)], incremental=True
        )
        deltas = []
        warm = 0  # fill the lookback in large polls, unmeasured
        while warm < self.DEPTH:
            tick = session.tick(max_events=min(self.WARMUP_POLL, self.DEPTH - warm))
            warm += tick.events_ingested
            deltas.append(tick.delta)
        trace_from = time.time()
        groups: List[List[float]] = []
        speeds = [host_speed()]
        snapshots = 0
        for _ in range(self.TICKS // self.GROUP):
            group = []
            for _ in range(self.GROUP):
                t0 = time.perf_counter()
                delta = session.tick(max_events=self.TICK_EVENTS).delta
                group.append(time.perf_counter() - t0)
                snapshots += len(delta)
                deltas.append(delta)
            groups.append(group)
            speeds.append(host_speed())
        scales = group_scales(speeds, self.SENSITIVITY)
        ticks = [t * scale for group, scale in zip(groups, scales) for t in group]
        counts = {
            "output.snapshots": snapshots,
            "retained.snapshots": session.retained_snapshots(),
            "state.snapshots": session.state_snapshots(),
        }

        def check() -> int:
            reference = self._reference(session.watermark)
            ok = self.agrees(_compact(SSBuf.concat(deltas)), reference)
            if not self._result_checked:
                # the session's own assembly (a per-snapshot loop, seconds
                # long here) once per run; the deltas above on every pass
                self._result_checked = True
                ok = ok and self.agrees(session.result().output, reference)
            session.abort()
            return 0 if ok else self.pass_events

        return PassResult(
            events=self.pass_events,
            processed=self.TICKS * self.TICK_EVENTS,
            seconds=sum(ticks),
            busy=sum(ticks),
            latencies=ticks,
            scale=sum(scales) / len(scales),
            counts=counts,
            check=check,
            trace_from=trace_from,
        )


@dataclass
class _Feed:
    """One push tenant's pre-generated input and its arrival schedule."""

    stream: EventStream
    #: events in each batch after the first, which holds one
    per_batch: int
    #: scaled seconds between two batches
    period: float

    def __post_init__(self):
        self.events = list(self.stream.events)
        self.starts = np.array([e.start for e in self.events])

    def due(self, batch: int) -> int:
        """Events that have arrived once ``batch`` has."""
        return min(len(self.events), batch * self.per_batch + 1)

    def due_time(self, j: int) -> float:
        """When event ``j`` arrives."""
        return -(-j // self.per_batch) * self.period


class ServicePush(Workload):
    """A QueryService fed by four push tenants under fixed open-loop load."""

    name = "service-push"
    # the p99 of one round is bimodal under the fair policy, about 6 ms or
    # about 22 ms, so a run's p99 hangs on how many rounds fall in each
    # mode; it is printed with every run, and the p90 is the highest steady
    # percentile
    tail = 90
    #: offered events/s across the four tenants, a constant: about half the
    #: closed-loop capacity of these tenants, which measured 200k-340k
    #: events/s on a shared 2-vCPU Xeon VM depending on the machine's load
    RATE = 100_000.0
    #: scaled seconds of offered load per pass (a pass is one fresh service)
    ROUND_SECONDS = 1.5
    #: scaled seconds between two arrivals; each brings every tenant the
    #: events due since the last one
    BATCH_SECONDS = 0.01
    #: wall seconds between host-speed samples within a round
    SPEED_EVERY = 0.1
    TENANTS = ("ysb", "trading", "rsi", "normalize")
    # tick boundaries follow wall-clock arrival, so only these repeat exactly
    repeatable = ("source.events", "ingest.events", "serve.shed_events", "serve.failed_tenants")

    @property
    def per_tenant(self) -> int:
        return int(self.RATE / len(self.TENANTS) * self.ROUND_SECONDS)

    @property
    def pass_events(self) -> int:
        return self.per_tenant * len(self.TENANTS)

    def generate(self) -> None:
        apps = {"ysb": YSB, "trading": TREND_TRADING, "rsi": RSI, "normalize": NORMALIZATION}
        self.feeds = {}
        for i, tenant in enumerate(self.TENANTS):
            (stream,) = apps[tenant].streams(self.per_tenant, seed=self.seed + i).values()
            per_batch = int(self.RATE / len(self.TENANTS) * self.BATCH_SECONDS)
            self.feeds[tenant] = _Feed(stream, per_batch, self.BATCH_SECONDS)

    def setup(self) -> None:
        programs = {
            "ysb": ysb_query(1.0).to_program(),
            "trading": TREND_TRADING.program(),
            "rsi": RSI.program(),
            "normalize": NORMALIZATION.program(),
        }
        self.engine = _engine("numpy")
        self.queries = {t: self.engine.compile_cached(p) for t, p in programs.items()}
        self._open_service().close()

    def _open_service(self) -> QueryService:
        service = QueryService(self.engine, policy="fair")
        for tenant in self.TENANTS:
            service.submit(self.queries[tenant], name=tenant)
        return service

    def prepare(self) -> None:
        self.reference = {
            t: self._one_shot(t, self.feeds[t].events) for t in self.TENANTS
        }

    def _one_shot(self, tenant: str, events):
        stream = self.feeds[tenant].stream
        accepted = EventStream(events, name=stream.name, check_order=False)
        return self.engine.run(self.queries[tenant], {stream.name: accepted}).output

    def run_pass(self) -> PassResult:
        """One round of offered load, open loop in scaled time.

        Arrivals follow a fixed schedule on a clock that advances by the
        scaled time the loop takes and jumps ahead while the service is
        idle: on a wall clock, a slow moment of the shared machine batches
        more events into each tick and moves the latencies several times
        more than the machine's speed.  The speed is re-sampled every
        ``SPEED_EVERY`` wall seconds; sampling does not advance the clock.
        Events arrive in batches every ``BATCH_SECONDS``: when each event
        arrived on its own, a step took whatever had trickled in since the
        last one, so step sizes, latencies and the host's speed fed back on
        each other, and run medians of the latency spread by a quarter.
        """
        service = self._open_service()
        feeds = [(t, self.feeds[t]) for t in self.TENANTS]
        lookahead = {t: self.queries[t].boundary.max_lookahead for t in self.TENANTS}
        pos = {t: 0 for t in self.TENANTS}
        accepted: Dict[str, List] = {t: [] for t in self.TENANTS}
        latencies: List[float] = []
        lags: List[float] = []
        shed = pushed = ingested = depth_max = snapshots = 0
        busy = 0.0
        speeds = [host_speed() for _ in range(5)]
        speed = statistics.median(speeds) ** self.SENSITIVITY
        now = 0.0  # scaled seconds since the round began
        mark = sampled = time.perf_counter()
        while True:
            batch = int(now / self.BATCH_SECONDS)  # the newest batch that has arrived
            for tenant, feed in feeds:
                due = feed.due(batch)
                if due <= pos[tenant]:
                    continue
                lags.append(now - feed.due_time(pos[tenant]))
                t0 = time.perf_counter()
                n = service.ingest(tenant, feed.events[pos[tenant]:due])
                busy += (time.perf_counter() - t0) * speed
                accepted[tenant].append((pos[tenant], pos[tenant] + n))
                shed += due - pos[tenant] - n
                pushed += n
                pos[tenant] = due
            depth_max = max(depth_max, pushed - ingested)
            t0 = time.perf_counter()
            tick = service.step()
            busy += (time.perf_counter() - t0) * speed
            now += (time.perf_counter() - mark) * speed
            if time.perf_counter() - sampled > self.SPEED_EVERY:
                speeds = speeds[-4:] + [host_speed()]
                speed = statistics.median(speeds) ** self.SENSITIVITY
                sampled = time.perf_counter()
            mark = time.perf_counter()
            if tick is None:
                if all(pos[t] == len(f.events) for t, f in feeds):
                    break  # every event has arrived and been processed
                now = max(now, (batch + 1) * self.BATCH_SECONDS)  # idle until the next
                continue
            ingested += tick.events_ingested
            if not tick.emitted:
                continue
            for tenant, feed in feeds:
                for r in service.results(tenant):
                    snapshots += len(r.delta)
                    j = int(np.searchsorted(feed.starts, r.t_end + lookahead[tenant], side="right")) - 1
                    latencies.append(now - feed.due_time(j))
        retained = sum(s.retained_snapshots() for s in self.engine.open_sessions())
        # drain: close every input and flush what is left (not measured)
        for tenant in self.TENANTS:
            service.close_input(tenant)
        while service.step() is not None:
            pass
        for tenant in self.TENANTS:
            snapshots += sum(len(r.delta) for r in service.results(tenant))
        states = {t: row["state"] for t, row in service.stats().tenants.items()}
        failed_tenants = [t for t in self.TENANTS if states[t] != "finished"]

        def check() -> int:
            failed = shed
            for tenant in self.TENANTS:
                ranges = accepted[tenant]
                count = sum(hi - lo for lo, hi in ranges)
                if tenant in failed_tenants:
                    failed += count
                    continue
                events = self.feeds[tenant].events
                if count == len(events):
                    reference = self.reference[tenant]
                else:
                    kept = [e for lo, hi in ranges for e in events[lo:hi]]
                    reference = self._one_shot(tenant, kept)
                if not self.agrees(service.result(tenant).output, reference):
                    failed += count
            service.close()
            return failed

        return PassResult(
            events=self.pass_events,
            processed=ingested,
            seconds=now,
            busy=busy,
            latencies=latencies,
            scale=speed,
            counts={
                "output.snapshots": snapshots,
                "retained.snapshots": retained,
                "serve.queue_depth_max": depth_max,
                "serve.shed_events": shed,
                "serve.failed_tenants": len(failed_tenants),
                "generator.lag_p99_ms": float(np.percentile(lags, 99)) * 1e3,
            },
            check=check,
        )


WORKLOADS = {
    w.name: w for w in (YsbIngest, BatchNative, LookbackIncremental, ServicePush)
}
