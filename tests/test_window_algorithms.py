"""Tests for the sliding-window aggregation algorithms."""

from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime.ssbuf import SSBuf, ssbuf_from_stream
from repro.core.runtime.stream import EventStream
from repro.windowing import (
    COUNT,
    MAX,
    MEAN,
    MIN,
    STDDEV,
    SUM,
    SUM_SQUARES,
    VARIANCE,
    AggregateFunction,
    PrefixRangeIndex,
    RangeAggregator,
    RecomputeAggregator,
    SparseTableRMQ,
    SubtractOnEvict,
    TwoStacksAggregator,
    make_online_aggregator,
    range_aggregate,
    snapshot_range_indices,
    streaming_window_aggregate,
    window_aggregate,
    window_grid,
)


def brute_force_window(buf: SSBuf, ws: float, we: float, agg):
    """Reference: fold every valid snapshot overlapping (ws, we]."""
    values = []
    starts = buf.interval_starts
    for i in range(len(buf)):
        if buf.valid[i] and buf.times[i] > ws and starts[i] < we:
            values.append(float(buf.values[i]))
    return agg.fold(values)


class TestSnapshotRangeIndices:
    def test_simple(self, simple_buf):
        lo, hi = snapshot_range_indices(
            simple_buf.times, simple_buf.start_time, np.array([6.0]), np.array([20.0])
        )
        # snapshots overlapping (6, 20]: indices 0 (event a), 1 (gap), 2 (event b)
        assert lo[0] == 0 and hi[0] == 3

    def test_empty_window(self, simple_buf):
        lo, hi = snapshot_range_indices(
            simple_buf.times, simple_buf.start_time, np.array([100.0]), np.array([110.0])
        )
        assert hi[0] <= lo[0]


class TestRangeAggregation:
    @pytest.mark.parametrize("agg", [SUM, MEAN, STDDEV, MAX, MIN])
    def test_matches_brute_force(self, random_walk_buf, agg):
        starts = np.array([10.0, 50.0, 100.0, 200.0, 250.0])
        ends = starts + np.array([20.0, 13.0, 50.0, 1.0, 49.0])
        values, valid = range_aggregate(random_walk_buf, starts, ends, agg)
        for i in range(len(starts)):
            expected, expected_ok = brute_force_window(
                random_walk_buf, starts[i], ends[i], agg
            )
            assert valid[i] == expected_ok
            if expected_ok:
                # prefix-sum decompositions of variance-like aggregates incur
                # floating-point cancellation; allow a small absolute error.
                assert values[i] == pytest.approx(expected, rel=1e-7, abs=1e-4)

    def test_empty_windows_are_phi(self, simple_buf):
        values, valid = range_aggregate(simple_buf, np.array([11.0]), np.array([15.0]), SUM)
        assert not valid[0]

    def test_invalid_snapshots_excluded(self):
        buf = SSBuf([1.0, 2.0, 3.0], [10.0, 99.0, 20.0], [True, False, True], 0.0)
        values, valid = range_aggregate(buf, np.array([0.0]), np.array([3.0]), SUM)
        assert valid[0] and values[0] == 30.0

    def test_generic_path_for_custom_agg(self, random_walk_buf):
        from repro.windowing import custom_aggregate

        median = custom_aggregate(
            "median",
            init=lambda: [],
            acc=lambda s, v: s + [v],
            result=lambda s: float(np.median(s)),
            vector_eval=lambda vals: float(np.median(vals)),
        )
        values, valid = range_aggregate(
            random_walk_buf, np.array([10.0, 40.0]), np.array([30.0, 60.0]), median
        )
        assert valid.all()
        expected0, _ = brute_force_window(random_walk_buf, 10.0, 30.0, median)
        assert values[0] == pytest.approx(expected0)


class TestSparseTable:
    def test_max_and_min_queries(self, random_walk_buf):
        for agg, mode in ((MAX, "max"), (MIN, "min")):
            table = SparseTableRMQ(
                random_walk_buf.times,
                random_walk_buf.start_time,
                random_walk_buf.values,
                random_walk_buf.valid,
                mode=mode,
            )
            starts = np.array([5.0, 17.0, 100.0])
            ends = np.array([25.0, 18.0, 299.0])
            values, valid = table.query(starts, ends)
            for i in range(len(starts)):
                expected, ok = brute_force_window(random_walk_buf, starts[i], ends[i], agg)
                assert valid[i] == ok
                if ok:
                    assert values[i] == pytest.approx(expected)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            SparseTableRMQ(np.array([1.0]), 0.0, np.array([1.0]), np.array([True]), mode="sum")


class TestOnlineAggregators:
    def test_subtract_on_evict(self):
        win = SubtractOnEvict(SUM)
        for v in [1.0, 2.0, 3.0]:
            win.insert(v)
        assert win.query() == (6.0, True)
        win.evict(1.0)
        assert win.query() == (5.0, True)
        win.evict(2.0)
        win.evict(3.0)
        assert win.query() == (0.0, False)

    def test_subtract_on_evict_requires_invertible(self):
        with pytest.raises(ValueError):
            SubtractOnEvict(MAX)

    def test_two_stacks_matches_recompute(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 10, 200)
        two_stacks = TwoStacksAggregator(MAX)
        recompute = RecomputeAggregator(MAX)
        window = []
        for v in values:
            two_stacks.insert(float(v))
            recompute.insert(float(v))
            window.append(float(v))
            if len(window) > 17:
                window.pop(0)
                two_stacks.evict()
                recompute.evict()
            assert two_stacks.query() == pytest.approx(recompute.query())

    def test_two_stacks_empty_evict_raises(self):
        with pytest.raises(IndexError):
            TwoStacksAggregator(SUM).evict()

    def test_make_online_aggregator_selection(self):
        assert isinstance(make_online_aggregator(SUM), SubtractOnEvict)
        assert isinstance(make_online_aggregator(MAX), TwoStacksAggregator)
        from repro.windowing import custom_aggregate

        plain = custom_aggregate("plain", init=lambda: 0.0, acc=lambda s, v: s + v, result=lambda s: s)
        assert isinstance(make_online_aggregator(plain), RecomputeAggregator)


class TestWindowAggregate:
    def test_window_grid(self):
        grid = window_grid(0.0, 20.0, 5.0)
        assert list(grid) == [5.0, 10.0, 15.0, 20.0]
        assert len(window_grid(5.0, 5.0, 1.0)) == 0

    def test_tumbling_counts(self, regular_buf):
        out = window_aggregate(regular_buf, 10.0, 10.0, SUM)
        # values 0..99 at 1 Hz; window (0,10] sums 0..9 = 45
        assert out.value_at(10.0) == (45.0, True)
        assert out.value_at(20.0) == (145.0, True)

    def test_sliding_mean(self, regular_buf):
        out = window_aggregate(regular_buf, 10.0, 5.0, MEAN)
        value, ok = out.value_at(20.0)
        assert ok and value == pytest.approx(np.mean(np.arange(10, 20)))

    def test_vectorized_matches_streaming(self, random_walk_buf):
        for agg in (SUM, MEAN, MAX):
            fast = window_aggregate(random_walk_buf, 15.0, 5.0, agg)
            slow = streaming_window_aggregate(random_walk_buf, 15.0, 5.0, agg)
            assert len(fast) == len(slow)
            assert np.allclose(fast.times, slow.times)
            assert np.array_equal(fast.valid, slow.valid)
            assert np.allclose(fast.values[fast.valid], slow.values[slow.valid])


@st.composite
def buffer_and_windows(draw):
    n = draw(st.integers(min_value=2, max_value=80))
    values = draw(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=n, max_size=n
        )
    )
    stream = EventStream.from_samples(values, period=1.0)
    buf = ssbuf_from_stream(stream)
    num_windows = draw(st.integers(min_value=1, max_value=10))
    starts, ends = [], []
    for _ in range(num_windows):
        s = draw(st.floats(min_value=-5.0, max_value=float(n) + 5.0, allow_nan=False))
        w = draw(st.floats(min_value=0.5, max_value=25.0, allow_nan=False))
        starts.append(s)
        ends.append(s + w)
    return buf, np.array(starts), np.array(ends)


@given(buffer_and_windows(), st.sampled_from([SUM, MEAN, MAX, MIN, STDDEV]))
@settings(max_examples=60, deadline=None)
def test_property_range_aggregate_matches_brute_force(data, agg):
    """The vectorized range indexes agree with a naive per-window fold."""
    buf, starts, ends = data
    values, valid = range_aggregate(buf, starts, ends, agg)
    for i in range(len(starts)):
        expected, ok = brute_force_window(buf, starts[i], ends[i], agg)
        assert valid[i] == ok
        if ok:
            assert values[i] == pytest.approx(expected, rel=1e-7, abs=1e-4)


# ---------------------------------------------------------------------- #
# prefix and sparse-table indexes against the interval-start references
# ---------------------------------------------------------------------- #
# The indexes as they were before the valid-count prefix was built in one
# pass and ``hi`` was derived from ``times`` and ``start_time``: kept
# verbatim (but for the class and function names) as the reference.
def _reference_snapshot_range_indices(
    times: np.ndarray,
    interval_starts: np.ndarray,
    window_starts: np.ndarray,
    window_ends: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Map time windows to contiguous snapshot index ranges.

    A snapshot with interval ``(s_i, t_i]`` overlaps the query window
    ``(ws, we]`` iff ``t_i > ws`` and ``s_i < we``.  Because snapshots are
    ordered and contiguous, the overlapping snapshots form the index range
    ``[lo, hi)`` with::

        lo = first i such that t_i > ws
        hi = first i such that s_i >= we

    Returns ``(lo, hi)`` arrays; empty windows have ``lo >= hi``.
    """
    lo = np.searchsorted(times, window_starts, side="right")
    hi = np.searchsorted(interval_starts, window_ends, side="left")
    return lo, hi


class _ReferencePrefixRangeIndex:
    """Range-aggregate index backed by prefix sums.

    Parameters
    ----------
    times, interval_starts, values, valid:
        Snapshot arrays of the input SSBuf.
    agg:
        An aggregate with ``prefix_arrays`` / ``prefix_result`` hooks.
    """

    def __init__(
        self,
        times: np.ndarray,
        interval_starts: np.ndarray,
        values: np.ndarray,
        valid: np.ndarray,
        agg: AggregateFunction,
    ):
        if agg.prefix_arrays is None or agg.prefix_result is None:
            raise ValueError(f"aggregate {agg.name!r} has no prefix decomposition")
        self.agg = agg
        self.times = np.asarray(times, dtype=np.float64)
        self.interval_starts = np.asarray(interval_starts, dtype=np.float64)
        valid = np.asarray(valid, dtype=bool)
        # Aggregates whose result cancels large prefix components against
        # each other (variance/stddev) accumulate in extended precision:
        # a windowed value is the difference of two potentially huge prefix
        # totals, and float64 cancellation there is what used to make a
        # near-zero windowed variance come out at ~1e-8 (so ~1e-4 stddev
        # after the sqrt amplification).  The component arrays themselves
        # are built in that dtype too — squaring in float64 first would
        # already bake in more rounding error than the longdouble prefixes
        # can cancel.  Everything else (sums, means, counts) stays on fast
        # float64.
        dtype = np.longdouble if agg.prefix_extended_precision else np.float64
        masked = np.where(valid, np.asarray(values, dtype=np.float64), 0.0).astype(
            dtype, copy=False
        )
        components = agg.prefix_arrays(masked)
        # invalid snapshots must contribute nothing to *any* component
        # (e.g. the count component of Mean), hence the explicit masking.
        self._prefixes = []
        self._valid_prefix = np.concatenate(([0.0], np.cumsum(valid.astype(np.float64))))
        for comp in components:
            comp = np.where(valid, comp, 0.0)
            prefix = np.zeros(len(comp) + 1, dtype=dtype)
            np.cumsum(comp, dtype=dtype, out=prefix[1:])
            self._prefixes.append(prefix)

    def query(
        self, window_starts: np.ndarray, window_ends: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregate each window ``(ws_i, we_i]``.

        Returns ``(values, valid)`` where windows containing no valid
        snapshot produce ``valid=False`` (φ).
        """
        window_starts = np.asarray(window_starts, dtype=np.float64)
        window_ends = np.asarray(window_ends, dtype=np.float64)
        lo, hi = _reference_snapshot_range_indices(
            self.times, self.interval_starts, window_starts, window_ends
        )
        hi = np.maximum(hi, lo)
        counts = self._valid_prefix[hi] - self._valid_prefix[lo]
        sums = [p[hi] - p[lo] for p in self._prefixes]
        with np.errstate(invalid="ignore", divide="ignore"):
            results = np.asarray(self.agg.prefix_result(*sums), dtype=np.float64)
        valid = counts > 0
        return np.where(valid, results, 0.0), valid


class _ReferenceSparseTableRMQ:
    """Range max/min query structure over snapshot values.

    Parameters
    ----------
    times, interval_starts:
        Snapshot timing arrays (used to translate time windows to index
        ranges).
    values, valid:
        Snapshot values and validity mask; invalid snapshots never win a
        query.
    mode:
        ``'max'`` or ``'min'``.
    """

    def __init__(
        self,
        times: np.ndarray,
        interval_starts: np.ndarray,
        values: np.ndarray,
        valid: np.ndarray,
        mode: str = "max",
    ):
        if mode not in ("max", "min"):
            raise ValueError("mode must be 'max' or 'min'")
        self.mode = mode
        self.times = np.asarray(times, dtype=np.float64)
        self.interval_starts = np.asarray(interval_starts, dtype=np.float64)
        valid = np.asarray(valid, dtype=bool)
        n = len(self.times)
        fill = -np.inf if mode == "max" else np.inf
        base = np.where(valid, np.asarray(values, dtype=np.float64), fill)
        self._valid_prefix = np.concatenate(([0.0], np.cumsum(valid.astype(np.float64))))
        self._levels = [base]
        self._reduce = np.maximum if mode == "max" else np.minimum
        # level k answers queries over spans of 2**k; level k+1 combines two
        # overlapping level-k entries and has length n - 2**(k+1) + 1.
        span = 1
        while span * 2 <= n:
            prev = self._levels[-1]
            new_len = n - 2 * span + 1
            nxt = self._reduce(prev[:new_len], prev[span : span + new_len])
            self._levels.append(nxt)
            span *= 2

    def query_indices(self, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregate over snapshot index ranges ``[lo, hi)`` (vectorized)."""
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        hi = np.maximum(hi, lo)
        counts = self._valid_prefix[hi] - self._valid_prefix[lo]
        lengths = hi - lo
        results = np.full(len(lo), 0.0)
        nonempty = lengths > 0
        if np.any(nonempty):
            ln = lengths[nonempty]
            k = np.floor(np.log2(ln)).astype(np.int64)
            out = np.empty(len(ln))
            for level in np.unique(k):
                sel = k == level
                span = 1 << int(level)
                table = self._levels[int(level)]
                a = table[lo[nonempty][sel]]
                b = table[hi[nonempty][sel] - span]
                out[sel] = self._reduce(a, b)
            results[nonempty] = out
        valid = counts > 0
        return np.where(valid, results, 0.0), valid

    def query(
        self, window_starts: np.ndarray, window_ends: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Aggregate over time windows ``(ws_i, we_i]`` (vectorized)."""
        lo, hi = _reference_snapshot_range_indices(
            self.times, self.interval_starts, np.asarray(window_starts), np.asarray(window_ends)
        )
        return self.query_indices(lo, hi)


#: a user-defined mean: its own count component, undeclared in
#: ``prefix_counts``, so the index sums it like any other component
_CUSTOM_MEAN = AggregateFunction(
    name="custom_mean",
    init=MEAN.init,
    acc=MEAN.acc,
    result=MEAN.result,
    prefix_arrays=lambda vals: (vals, np.ones_like(vals)),
    prefix_result=lambda s, n: np.divide(s, n, out=np.zeros_like(s), where=n != 0),
)
_PREFIX_AGGS = [SUM, COUNT, MEAN, VARIANCE, STDDEV, SUM_SQUARES, _CUSTOM_MEAN]


@st.composite
def index_cases(draw):
    """A buffer with φ gaps (possibly empty, possibly starting well before
    its first snapshot) and windows before, across and after it."""
    n = draw(st.integers(0, 40))
    steps = draw(st.lists(st.sampled_from([0.25, 1.0, 3.0, 7.5]), min_size=n, max_size=n))
    first = draw(st.sampled_from([0.0, -4.0, 10.0]))
    times = first + np.cumsum(steps)
    values = draw(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=n, max_size=n)
    )
    valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    lead = draw(st.sampled_from([0.0, 0.25, 5.0]))
    start = (float(times[0]) if n else first) - lead
    buf = SSBuf(times, values, valid, start_time=start)
    edge = st.sampled_from([start - 10.0, start, start + 0.25])
    if n:
        edge = st.one_of(edge, st.sampled_from([float(times[-1]), float(times[-1]) + 5.0]))
        edge = st.one_of(edge, st.sampled_from(list(times)))
    ends = np.array(
        draw(st.lists(st.one_of(edge, st.floats(min_value=-30.0, max_value=200.0)), max_size=12)),
        dtype=np.float64,
    )
    widths = np.array(
        draw(
            st.lists(
                st.sampled_from([0.0, 0.25, 1.0, 3.0, 20.0, 500.0]), min_size=len(ends), max_size=len(ends)
            )
        ),
        dtype=np.float64,
    )
    return buf, ends - widths, ends


def _same_bytes(got, want):
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


@given(index_cases())
@settings(max_examples=300, deadline=None)
def test_property_indexes_match_interval_start_references(case):
    buf, starts, ends = case
    istarts = buf.interval_starts
    _same_bytes(
        snapshot_range_indices(buf.times, buf.start_time, starts, ends),
        _reference_snapshot_range_indices(buf.times, istarts, starts, ends),
    )
    for agg in _PREFIX_AGGS:
        _same_bytes(
            PrefixRangeIndex(buf.times, buf.start_time, buf.values, buf.valid, agg).query(starts, ends),
            _ReferencePrefixRangeIndex(buf.times, istarts, buf.values, buf.valid, agg).query(starts, ends),
        )
    for mode in ("max", "min"):
        _same_bytes(
            SparseTableRMQ(buf.times, buf.start_time, buf.values, buf.valid, mode).query(starts, ends),
            _ReferenceSparseTableRMQ(buf.times, istarts, buf.values, buf.valid, mode).query(starts, ends),
        )
