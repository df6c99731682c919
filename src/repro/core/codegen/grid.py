"""Evaluation-grid computation for temporal expressions.

Section 6.1.3: naively evaluating a temporal expression at every tick of its
time-domain precision is wasteful because the output can only change when one
of its inputs changes.  The code generator therefore advances the loop
counter directly to the next time at which an *enclosing snapshot* of any
input access changes:

* a point access ``~x[t+o]`` changes at ``c - o`` for every change time ``c``
  of ``~x``;
* a window access ``~x[t+a : t+b]`` changes when a snapshot enters
  (``c - b``) or leaves (``c - a``) the window.

When the time domain has a non-zero precision ``p``, candidate times are
snapped *up* to the next multiple of ``p`` (the output is only allowed to
change on the precision grid).  The domain end ``t_end`` is always included
so a materialized buffer covers its whole output interval, which downstream
(un-fused) consumers rely on.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir.nodes import Expr, TDom
from ..lineage.boundary import AccessPattern, collect_accesses
from ..runtime.ssbuf import SSBuf

__all__ = ["evaluation_times", "evaluation_times_for_accesses", "snap_to_precision"]


def snap_to_precision(times: np.ndarray, precision: float) -> np.ndarray:
    """Snap candidate times up to the next multiple of ``precision``.

    Monotone, so a sorted run stays sorted; the ``+ 0.0`` makes times in
    ``(-precision, 0]`` snap to ``+0.0``, never to ``-0.0``.
    """
    if precision <= 0 or len(times) == 0:
        return times
    return np.ceil(times / precision - 1e-9) * precision + 0.0


def _distinct(times: np.ndarray) -> np.ndarray:
    """Drop adjacent repeats from a sorted run (``compress`` beats boolean
    indexing ~3x on the scattered masks of a dense grid)."""
    if len(times) < 2:
        return times
    keep = np.ones(len(times), dtype=bool)
    np.not_equal(times[1:], times[:-1], out=keep[1:])
    return np.compress(keep, times)


def evaluation_times_for_accesses(
    accesses: Mapping[str, AccessPattern],
    env: Mapping[str, SSBuf],
    tdom: TDom,
    t_start: float,
    t_end: float,
) -> np.ndarray:
    """Output timestamps at which an expression with the given access pattern
    must be evaluated over ``(t_start, t_end]``."""
    if t_end <= t_start:
        return np.empty(0)
    runs = [np.array([t_end])]
    for ref, pattern in accesses.items():
        buf = env.get(ref)
        if buf is None or len(buf) == 0:
            continue
        for offset in pattern.boundary_offsets():
            # input changes at time c make the output change at c - offset;
            # the buffer's start_time is an implicit change point (φ → first
            # value), so it is included as well.
            changes = buf.change_times_in(t_start + offset, t_end + offset)
            if len(changes):
                runs.append(changes - offset)
            if t_start + offset < buf.start_time <= t_end + offset:
                runs.append(np.array([buf.start_time - offset]))
    if tdom.precision > 0:
        # run by run, before merging: a dense run shrinks to one point per
        # grid step, and a big run's working set stays in cache
        runs = [_distinct(snap_to_precision(run, tdom.precision)) for run in runs]
    # every run is sorted, so the stable sort (a timsort) is a linear merge
    times = _distinct(np.sort(np.concatenate(runs), kind="stable"))
    if tdom.precision > 0:
        # the value *before* a change must also be materialized on the grid:
        # if the output changes at grid point g, the old value's last holding
        # point g - precision needs an explicit snapshot.
        times = _distinct(np.sort(np.concatenate([times - tdom.precision, times]), kind="stable"))
    lo, hi = np.searchsorted(times, [t_start + 1e-12, t_end + 1e-12], side="right")
    times = times[lo:hi]
    if len(times) == 0 or times[-1] < t_end:
        times = np.append(times, t_end)
    return times


def evaluation_times(
    expr: Expr,
    env: Mapping[str, SSBuf],
    tdom: TDom,
    t_start: float,
    t_end: float,
) -> np.ndarray:
    """Convenience wrapper: derive the access pattern of ``expr`` first."""
    return evaluation_times_for_accesses(collect_accesses(expr), env, tdom, t_start, t_end)
