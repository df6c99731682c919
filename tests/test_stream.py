"""Unit tests for the event stream data model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime.stream import Event, EventStream, interleave
from repro.errors import QueryBuildError, StreamOrderError


class TestEvent:
    def test_basic_fields(self):
        e = Event(1.0, 2.0, 5.0)
        assert e.start == 1.0 and e.end == 2.0
        assert e.value() == 5.0
        assert e.duration == 1.0

    def test_invalid_interval_rejected(self):
        with pytest.raises(QueryBuildError):
            Event(2.0, 2.0, 1.0)
        with pytest.raises(QueryBuildError):
            Event(3.0, 2.0, 1.0)

    def test_structured_payload_field_access(self):
        e = Event(0.0, 1.0, {"amount": 12.5, "user": 3.0})
        assert e.field("amount") == 12.5
        assert e.field("user") == 3.0

    def test_scalar_value_on_struct_raises(self):
        e = Event(0.0, 1.0, {"amount": 12.5})
        with pytest.raises(QueryBuildError):
            e.value()

    def test_field_on_scalar_raises(self):
        with pytest.raises(QueryBuildError):
            Event(0.0, 1.0, 3.0).field("x")


class TestEventStream:
    def test_from_arrays(self):
        s = EventStream.from_arrays([0, 1, 2], [1, 2, 3], [10.0, 11.0, 12.0])
        assert len(s) == 3
        assert s[1].value() == 11.0

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(QueryBuildError):
            EventStream.from_arrays([0, 1], [1], [1.0, 2.0])

    def test_from_samples_periods(self):
        s = EventStream.from_samples([1.0, 2.0, 3.0], period=0.5, start=10.0)
        assert s[0].start == 10.0 and s[0].end == 10.5
        assert s[2].start == 11.0 and s[2].end == 11.5

    def test_order_enforced(self):
        events = [Event(5.0, 6.0, 1.0), Event(1.0, 2.0, 2.0)]
        with pytest.raises(StreamOrderError):
            EventStream(events)

    def test_time_range(self, simple_stream):
        assert simple_stream.time_range() == (5.0, 35.0)

    def test_values_and_starts_ends(self, simple_stream):
        assert np.allclose(simple_stream.values(), [1.0, 2.0, 3.0])
        assert np.allclose(simple_stream.starts(), [5.0, 16.0, 30.0])
        assert np.allclose(simple_stream.ends(), [10.0, 23.0, 35.0])

    def test_structured_helpers(self):
        s = EventStream.from_arrays(
            [0, 1], [1, 2], [{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.0}]
        )
        assert s.is_structured
        assert s.fields() == ["a", "b"]
        proj = s.select_field("b")
        assert np.allclose(proj.values(), [2.0, 4.0])
        assert not proj.is_structured

    def test_filter(self, regular_stream):
        evens = regular_stream.filter(lambda e: e.value() % 2 == 0)
        assert len(evens) == 50

    def test_slice_time(self, simple_stream):
        sliced = simple_stream.slice_time(8.0, 20.0)
        assert [e.value() for e in sliced] == [1.0, 2.0]

    def test_partition_by(self):
        s = EventStream.from_arrays(
            [0, 1, 2, 3],
            [1, 2, 3, 4],
            [{"k": 0.0, "v": 1.0}, {"k": 1.0, "v": 2.0}, {"k": 0.0, "v": 3.0}, {"k": 1.0, "v": 4.0}],
        )
        parts = s.partition_by("k")
        assert set(parts.keys()) == {0.0, 1.0}
        assert len(parts[0.0]) == 2

    def test_concat_sorts(self):
        a = EventStream.from_samples([1.0], period=1.0, start=5.0)
        b = EventStream.from_samples([2.0], period=1.0, start=0.0)
        merged = a.concat(b)
        assert merged[0].value() == 2.0

    def test_interleave(self):
        a = EventStream.from_samples([1.0, 1.0], period=2.0, start=0.0)
        b = EventStream.from_samples([2.0], period=1.0, start=1.0)
        merged = interleave([a, b])
        assert len(merged) == 3
        starts = [e.start for e in merged]
        assert starts == sorted(starts)


class TestColumns:
    def test_interval_check_is_vectorized_and_rejects_nan(self):
        with pytest.raises(QueryBuildError, match="end > start"):
            EventStream.from_arrays([0.0, 1.0], [1.0, np.nan], [1.0, 2.0])
        with pytest.raises(QueryBuildError, match="end > start"):
            EventStream.from_arrays([0.0, 1.0], [1.0, 1.0], [1.0, 2.0])
        with pytest.raises(QueryBuildError, match="end > start"):
            EventStream.from_samples([1.0, 2.0], period=0.0)

    def test_event_list_round_trip(self):
        events = [Event(0.0, 1.0, {"a": 1.0, "b": 2.0}), Event(1.0, 2.0, {"a": 3.0, "b": 4.0})]
        s = EventStream(events)
        assert s.fields() == ["a", "b"]
        assert s.values("b").tolist() == [2.0, 4.0]
        assert s.events == events

    def test_slice_is_a_zero_copy_stream(self, regular_stream):
        part = regular_stream[10:20]
        assert isinstance(part, EventStream) and len(part) == 10
        assert np.shares_memory(part.starts(), regular_stream.starts())
        assert part[0].start == 10.0 and part[-1].end == 20.0


def _expected_axis(n, period, start=0.0):
    """The time axis as the per-event formula computes it in Python floats."""
    starts = np.array([start + i * period for i in range(n)])
    ends = np.array([start + (i + 1) * period for i in range(n)])
    return starts, ends


class TestTimeAxis:
    """Sample ``i`` spans ``(start + i*period, start + (i+1)*period]`` bit for
    bit: the end is not ``start_i + period``, which rounds differently."""

    N = 20_000

    @pytest.mark.parametrize("period", [1 / 1000, 1 / 10000])
    @pytest.mark.parametrize("start", [0.0, 3.7])
    def test_from_samples(self, period, start):
        s = EventStream.from_samples(np.zeros(self.N), period=period, start=start)
        starts, ends = _expected_axis(self.N, period, start)
        assert s.starts().tobytes() == starts.tobytes()
        assert s.ends().tobytes() == ends.tobytes()
        # the test can tell the two formulas apart
        assert (starts + period).tobytes() != ends.tobytes()

    @pytest.mark.parametrize("events_per_second", [1000.0, 10000.0])
    def test_ysb_stream(self, events_per_second):
        from repro.datagen import ysb_stream

        s = ysb_stream(self.N, events_per_second=events_per_second)
        starts, ends = _expected_axis(self.N, 1.0 / events_per_second)
        assert s.starts().tobytes() == starts.tobytes()
        assert s.ends().tobytes() == ends.tobytes()
        assert (starts + 1.0 / events_per_second).tobytes() != ends.tobytes()


@st.composite
def gappy_streams(draw):
    """In-order, non-overlapping streams with random gaps (exact quarters),
    scalar or structured, plus random chunk sizes that cover them."""
    n = draw(st.integers(1, 60))
    gaps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    durations = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    values = draw(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n)
    )
    ends = 0.25 * np.cumsum(np.array(gaps) + np.array(durations)) + draw(st.integers(-5, 5))
    starts = ends - 0.25 * np.array(durations)
    structured = draw(st.booleans())
    payload = {"v": values, "w": [-v for v in values]} if structured else values
    chunks = draw(st.lists(st.integers(1, 15), min_size=1, max_size=n))
    return EventStream.from_arrays(starts, ends, payload), chunks, "v" if structured else None


def _loop_change_points(stream, field, buf_start):
    """Per-event reference for the change-point rule."""
    times, values, valid = [], [], []
    prev_end = buf_start
    for e in stream:
        if e.start > prev_end:
            times.append(e.start)
            values.append(0.0)
            valid.append(False)
        times.append(e.end)
        values.append(e.field(field) if field else e.value())
        valid.append(True)
        prev_end = e.end
    return np.array(times), np.array(values), np.array(valid, dtype=bool)


class TestChangePoints:
    @settings(max_examples=100, deadline=None)
    @given(gappy_streams(), st.integers(0, 4))
    def test_from_events_matches_per_event_loop(self, case, lead):
        from repro.core.runtime.ssbuf import SSBuf

        stream, _, field = case
        buf_start = stream.starts()[0] - 0.25 * lead
        buf = SSBuf.from_events(stream, field=field, start_time=buf_start)
        times, values, valid = _loop_change_points(stream, field, buf_start)
        assert buf.times.tobytes() == times.tobytes()
        assert buf.values.tobytes() == values.tobytes()
        assert buf.valid.tobytes() == valid.tobytes()
        assert buf.start_time == buf_start

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=0, max_size=40))
    def test_compact_matches_per_snapshot_loop(self, rows):
        from repro.core.runtime.ssbuf import SSBuf

        values = np.array([float(v) for v, _ in rows])
        valid = np.array([ok for _, ok in rows], dtype=bool)
        buf = SSBuf(np.arange(1.0, len(rows) + 1), values, valid, start_time=0.0)
        keep = np.ones(len(rows), dtype=bool)
        for i in range(len(rows) - 1):
            if valid[i] == valid[i + 1] and (not valid[i] or values[i] == values[i + 1]):
                keep[i] = False
        assert buf.compact().times.tobytes() == buf.times[keep].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(gappy_streams())
    def test_ingest_column_matches_from_events_byte_for_byte(self, case):
        from repro.core.runtime.session import _IngestColumn
        from repro.core.runtime.ssbuf import SSBuf

        stream, chunks, field = case
        col = _IngestColumn("x", field)
        pos, sizes = 0, iter(chunks)
        while pos < len(stream):
            step = next(sizes, len(stream))
            col.extend(stream[pos : pos + step])
            pos = min(pos + step, len(stream))
            got = col.materialize()
            want = SSBuf.from_events(stream[:pos], field=field)
            assert got.times.tobytes() == want.times.tobytes()
            assert got.values.tobytes() == want.values.tobytes()
            assert got.valid.tobytes() == want.valid.tobytes()
            assert np.float64(got.start_time).tobytes() == np.float64(want.start_time).tobytes()
