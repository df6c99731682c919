"""Event streams: the ingress data model.

A data stream is an ordered, unbounded sequence of *events*.  Following the
paper (Section 2), every event carries a payload and a validity interval
``(start, end]``.  Payloads are either a single float or a flat mapping of
field name to float (a "struct" payload).

An :class:`EventStream` is columnar, like TiLT's ``SSBuf``: it holds the
starts and ends as float64 arrays plus either one scalar float64 payload
column or one float64 column per field.  It is the one unit every layer
passes along — generators build it, sources yield zero-copy slices of it,
ingest queues carry chunks of it, and sessions turn it into change points
without touching a single event object.  :class:`Event` exists only at the
API edge: a list of events is converted once when it enters, and events are
built on demand when code iterates or indexes a stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ...errors import QueryBuildError, StreamOrderError

Payload = Union[float, int, Mapping[str, float]]
#: a scalar payload column, or one column per field of a structured payload
Columns = Union[np.ndarray, Dict[str, np.ndarray]]


@dataclass(frozen=True)
class Event:
    """A single stream event.

    Attributes
    ----------
    start:
        Exclusive start of the validity interval.
    end:
        Inclusive end of the validity interval.  ``end`` must be strictly
        greater than ``start``.
    payload:
        Either a scalar (float/int) or a flat mapping of field names to
        scalars for structured streams.
    """

    start: float
    end: float
    payload: Payload

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise QueryBuildError(
                f"event interval must satisfy end > start, got ({self.start}, {self.end}]"
            )

    @property
    def duration(self) -> float:
        """Length of the validity interval."""
        return self.end - self.start

    def field(self, name: str) -> float:
        """Return a named field of a structured payload."""
        if not isinstance(self.payload, Mapping):
            raise QueryBuildError(f"event payload is scalar; field {name!r} does not exist")
        return float(self.payload[name])

    def value(self) -> float:
        """Return the scalar payload value."""
        if isinstance(self.payload, Mapping):
            raise QueryBuildError("event payload is structured; use .field(name)")
        return float(self.payload)


def _payload_columns(values) -> Columns:
    """Float64 payload column(s), copied, from an array, a mapping of field
    columns, or a sequence of scalar or mapping payloads."""
    try:
        if not isinstance(values, (Mapping, np.ndarray)):
            values = list(values)
            if values and isinstance(values[0], Mapping):
                values = {f: [p[f] for p in values] for f in values[0]}
        if isinstance(values, Mapping):
            return {f: np.array(v, dtype=np.float64) for f, v in values.items()}
        return np.array(values, dtype=np.float64)
    except (KeyError, TypeError):
        raise QueryBuildError(
            "payloads must be all scalars, or all carry the fields of the first one"
        ) from None


def _check_intervals(starts: np.ndarray, ends: np.ndarray) -> None:
    """Vectorized ``end > start`` (NaN fails it), with :class:`Event`'s error."""
    bad = ~(ends > starts)
    if bad.any():
        i = int(np.argmax(bad))
        raise QueryBuildError(
            f"event interval must satisfy end > start, got ({float(starts[i])}, {float(ends[i])}]"
        )


class EventStream:
    """An in-order, bounded slice of an event stream, stored as columns.

    ``EventStream(events)`` converts a sequence of :class:`Event` objects
    once (or shares the columns of another stream); :meth:`from_arrays` and
    :meth:`from_samples` build the columns directly.  Iterating, integer
    indexing and :attr:`events` build :class:`Event` objects on demand;
    slicing (``stream[i:j]``) returns a zero-copy sub-stream.
    """

    def __init__(self, events: Iterable[Event], name: str = "stream", *, check_order: bool = True):
        self.name = name
        if isinstance(events, EventStream):
            self._starts, self._ends, self._values = events._starts, events._ends, events._values
        else:
            events = list(events)
            self._starts = np.array([e.start for e in events], dtype=np.float64)
            self._ends = np.array([e.end for e in events], dtype=np.float64)
            self._values = _payload_columns([e.payload for e in events])
        if check_order:
            self._check_order()

    @classmethod
    def _from_columns(
        cls, starts: np.ndarray, ends: np.ndarray, values: Columns, name: str
    ) -> "EventStream":
        """Wrap already-valid columns without copying or checking them."""
        stream = cls.__new__(cls)
        stream.name = name
        stream._starts, stream._ends, stream._values = starts, ends, values
        return stream

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_arrays(
        cls,
        starts: Sequence[float],
        ends: Sequence[float],
        values: Union[Sequence[Payload], np.ndarray, Mapping[str, Sequence[float]]],
        name: str = "stream",
    ) -> "EventStream":
        """Build a stream from parallel columns of starts, ends and payloads.

        ``values`` is a scalar column, a mapping of field name to column, or
        a sequence of payloads.  The columns are copied; intervals and start
        order are checked.
        """
        starts = np.array(starts, dtype=np.float64)
        ends = np.array(ends, dtype=np.float64)
        values = _payload_columns(values)
        columns = values.values() if isinstance(values, dict) else [values]
        if any(len(c) != len(starts) for c in [ends, *columns]):
            raise QueryBuildError("starts, ends and values must have equal length")
        _check_intervals(starts, ends)
        stream = cls._from_columns(starts, ends, values, name)
        stream._check_order()
        return stream

    @classmethod
    def from_samples(
        cls,
        values: Sequence[Payload],
        period: float = 1.0,
        start: float = 0.0,
        name: str = "stream",
    ) -> "EventStream":
        """Build a fixed-frequency signal stream.

        Sample ``i`` becomes an event valid over
        ``(start + i*period, start + (i+1)*period]`` — the representation used
        for the 1000 Hz synthetic signals and the ECG/vibration waveforms in
        the paper's benchmark suite.
        """
        values = _payload_columns(values)
        n = len(next(iter(values.values()), ())) if isinstance(values, dict) else len(values)
        i = np.arange(n, dtype=np.float64)
        starts = start + i * period
        ends = start + (i + 1) * period
        _check_intervals(starts, ends)
        return cls._from_columns(starts, ends, values, name)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return self._take(idx)
        return self._take([idx]).events[0]

    @property
    def events(self) -> List[Event]:
        """The stream as a list of :class:`Event` objects, built on demand."""
        starts, ends = self._starts.tolist(), self._ends.tolist()
        if isinstance(self._values, dict):
            fields = list(self._values)
            rows = zip(*(c.tolist() for c in self._values.values()))
            payloads = [dict(zip(fields, row)) for row in rows]
        else:
            payloads = self._values.tolist()
        return [Event(s, e, p) for s, e, p in zip(starts, ends, payloads)]

    @property
    def is_structured(self) -> bool:
        """True when payloads are field mappings rather than scalars."""
        return len(self) > 0 and isinstance(self._values, dict)

    def fields(self) -> List[str]:
        """Field names of a structured stream (empty for scalar streams)."""
        return list(self._values) if self.is_structured else []

    def time_range(self) -> Tuple[float, float]:
        """Return ``(min start, max end)`` over all events."""
        if not len(self):
            return (0.0, 0.0)
        return (float(self._starts[0]), float(self._ends.max()))

    def starts(self) -> np.ndarray:
        """Event start times as a float64 array (shared; do not mutate)."""
        return self._starts

    def ends(self) -> np.ndarray:
        """Event end times as a float64 array (shared; do not mutate)."""
        return self._ends

    def values(self, field: Optional[str] = None) -> np.ndarray:
        """Scalar payloads (or one field of structured payloads) as float64.

        The column is shared with the stream; do not mutate it.
        """
        if not len(self):
            return np.empty(0)
        if field is None:
            if isinstance(self._values, dict):
                raise QueryBuildError("event payload is structured; use .field(name)")
            return self._values
        if not isinstance(self._values, dict):
            raise QueryBuildError(f"event payload is scalar; field {field!r} does not exist")
        return self._values[field]

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def select_field(self, field: str, name: Optional[str] = None) -> "EventStream":
        """Project a structured stream onto a single scalar field."""
        return EventStream._from_columns(
            self._starts, self._ends, self.values(field), name or f"{self.name}.{field}"
        )

    def filter(self, predicate) -> "EventStream":
        """Return a new stream with only the events satisfying ``predicate``."""
        return self._take(np.array([bool(predicate(e)) for e in self], dtype=bool))

    def slice_time(self, start: float, end: float) -> "EventStream":
        """Events whose interval intersects ``(start, end]``."""
        return self._take((self._ends > start) & (self._starts < end))

    def partition_by(self, key_field: str) -> Dict[float, "EventStream"]:
        """Split a structured stream into per-key sub-streams.

        This models the partitioned-stream parallelism that the paper notes
        is the *only* parallelization option in Trill-like engines.
        """
        keys = self.values(key_field)
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        out: Dict[float, EventStream] = {}
        for k in np.argsort(first, kind="stable"):
            part = self._take(inverse == k)
            part.name = f"{self.name}[{key_field}={float(uniq[k])}]"
            out[float(uniq[k])] = part
        return out

    def concat(self, other: "EventStream") -> "EventStream":
        """Concatenate two streams and re-sort by start time."""
        return interleave([self, other], name=self.name)

    # ------------------------------------------------------------------ #
    # internal helpers
    # ------------------------------------------------------------------ #
    def _take(self, idx) -> "EventStream":
        """Rows selected by a slice (zero-copy), a mask or an index array."""
        values = self._values
        values = {f: c[idx] for f, c in values.items()} if isinstance(values, dict) else values[idx]
        return EventStream._from_columns(self._starts[idx], self._ends[idx], values, self.name)

    def _check_order(self) -> None:
        late = self._starts[1:] < self._starts[:-1]
        if late.any():
            i = int(np.argmax(late)) + 1
            raise StreamOrderError(
                f"stream {self.name!r}: event starting at {float(self._starts[i])} "
                f"arrived after {float(self._starts[i - 1])}"
            )


def _join(parts: Sequence[EventStream], name: str) -> EventStream:
    """Concatenate streams in the given order (zero-copy for one non-empty part)."""
    parts = [p for p in parts if len(p)] or [EventStream([])]
    if len({frozenset(p.fields()) for p in parts}) > 1:
        raise QueryBuildError("cannot join streams with different payload fields")
    head = parts[0]
    if len(parts) == 1:
        return EventStream._from_columns(head._starts, head._ends, head._values, name)
    if head.is_structured:
        values = {f: np.concatenate([p._values[f] for p in parts]) for f in head._values}
    else:
        values = np.concatenate([p._values for p in parts])
    starts = np.concatenate([p._starts for p in parts])
    ends = np.concatenate([p._ends for p in parts])
    return EventStream._from_columns(starts, ends, values, name)


def interleave(streams: Iterable[EventStream], name: str = "interleaved") -> EventStream:
    """Merge several in-order streams into one stream sorted by ``(start, end)``.

    The sort is stable, so events with equal intervals keep their input order.
    """
    merged = _join(list(streams), name)
    order = np.lexsort((merged._ends, merged._starts))
    if np.array_equal(order, np.arange(len(order))):
        return merged
    return merged._take(order)
