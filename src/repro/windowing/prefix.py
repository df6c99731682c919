"""Prefix-sum range-aggregation index.

For invertible / decomposable aggregates (Sum, Count, Mean, Variance,
StdDev, ...), the aggregate over an arbitrary contiguous range of snapshots
can be computed from prefix sums of a few per-snapshot component arrays.
Building the index is O(n); answering *any number* of range queries is a
vectorized O(log n) ``searchsorted`` plus array arithmetic.  This is the
workhorse of the NumPy code-generation backend for window reductions.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .functions import AggregateFunction

__all__ = ["PrefixRangeIndex", "snapshot_range_indices", "valid_count_prefix"]


def snapshot_range_indices(
    times: np.ndarray,
    start_time: float,
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

    The interval starts are ``s_0 = start_time`` and ``s_i = t_{i-1}``, so
    ``hi`` is ``0`` when ``start_time >= we`` and otherwise one past the
    first ``t_j >= we``, capped at ``n``; no interval-start array is built.

    Returns ``(lo, hi)`` arrays; empty windows have ``lo >= hi``.
    """
    window_ends = np.asarray(window_ends)
    lo = np.searchsorted(times, window_starts, side="right")
    hi = np.searchsorted(times, window_ends, side="left")
    if len(times):
        np.minimum(hi, len(times) - 1, out=hi)
        hi += 1
        hi[window_ends <= start_time] = 0
    return lo, hi


def valid_count_prefix(valid: np.ndarray) -> np.ndarray:
    """``[0, cumsum(valid)...]`` as float64, in one pass over ``valid``."""
    prefix = np.empty(len(valid) + 1)
    prefix[0] = 0.0
    np.cumsum(valid, dtype=np.float64, out=prefix[1:])
    return prefix


class PrefixRangeIndex:
    """Range-aggregate index backed by prefix sums.

    Parameters
    ----------
    times, start_time, values, valid:
        Snapshot arrays and start time of the input SSBuf.
    agg:
        An aggregate with ``prefix_arrays`` / ``prefix_result`` hooks.
    """

    def __init__(
        self,
        times: np.ndarray,
        start_time: float,
        values: np.ndarray,
        valid: np.ndarray,
        agg: AggregateFunction,
    ):
        if agg.prefix_arrays is None or agg.prefix_result is None:
            raise ValueError(f"aggregate {agg.name!r} has no prefix decomposition")
        self.agg = agg
        self.times = np.asarray(times, dtype=np.float64)
        self.start_time = float(start_time)
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
        self._valid_prefix = valid_count_prefix(valid)
        counts = agg.prefix_counts
        if counts and all(counts):
            # nothing but counts: the values are never read
            masked = None
            components: Tuple[Optional[np.ndarray], ...] = (None,) * len(counts)
        else:
            masked = np.where(valid, np.asarray(values, dtype=np.float64), 0.0).astype(
                dtype, copy=False
            )
            components = agg.prefix_arrays(masked)
        # invalid snapshots must contribute nothing to *any* component
        # (e.g. the count component of Mean), hence the explicit masking.
        # A count component (one per valid snapshot) is exactly the valid
        # count prefix; the masked values themselves are masked already.
        self._prefixes = []
        for i, comp in enumerate(components):
            if i < len(counts) and counts[i]:
                self._prefixes.append(self._valid_prefix.astype(dtype, copy=False))
                continue
            if comp is not masked:
                comp = np.where(valid, comp, 0.0)
            prefix = np.empty(len(comp) + 1, dtype=dtype)
            prefix[0] = 0.0
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
        lo, hi = snapshot_range_indices(self.times, self.start_time, window_starts, window_ends)
        hi = np.maximum(hi, lo)
        counts = self._valid_prefix[hi] - self._valid_prefix[lo]
        sums = [p[hi] - p[lo] for p in self._prefixes]
        with np.errstate(invalid="ignore", divide="ignore"):
            results = np.asarray(self.agg.prefix_result(*sums), dtype=np.float64)
        valid = counts > 0
        return np.where(valid, results, 0.0), valid
