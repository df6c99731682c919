"""Runtime support objects for generated kernels.

A generated kernel is pure straight-line NumPy code; everything that cannot
be expressed as source text — the aggregate function registry, compiled
element-map functions, the evaluation-grid computation and the snapshot
buffer constructors — is provided through a :class:`KernelRuntime` instance
(`rt` in the generated source).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, MutableMapping, Optional, Tuple

import numpy as np

from ...errors import ExecutionError
from ...windowing.functions import AggregateFunction
from ...windowing.sliding import RangeAggregator
from ..ir.nodes import TDom
from ..lineage.boundary import AccessPattern
from ..runtime.ssbuf import SSBuf, _ssbuf_from_arrays
from .grid import evaluation_times_for_accesses

__all__ = ["KernelRuntime"]


class KernelRuntime:
    """Per-kernel helper object passed to generated code as ``rt``.

    The runtime is **immutable after construction**: it carries only the
    compile-time registries (aggregates, element maps, access patterns), no
    execution state.  Anything that lives for one kernel invocation — today
    the :class:`RangeAggregator` cache — is allocated by the generated
    kernel itself and threaded through the ``rt`` calls, so one compiled
    query can run concurrently over many partitions (threads sharing a
    ``CompiledQuery``, or a process pool's per-process rebuilds) without
    any cross-run interference.  An earlier design kept the aggregator
    cache on the runtime, keyed by ``id(buf)`` and cleared by
    :meth:`eval_times`; that was both a cross-thread stomp (one partition
    wiping another's cache mid-run) and an ``id``-reuse staleness hazard.

    Parameters
    ----------
    accesses:
        Access pattern of the kernel's expression (drives the evaluation
        grid).
    tdom:
        Time domain of the temporal expression (precision snapping).
    aggregates:
        Registry of aggregate functions, indexed by the integers embedded in
        the generated source.
    element_functions:
        Compiled element-map functions (one per registered element source).
    """

    #: exposed so generated code can say ``_np = rt.np``
    np = np

    def __init__(
        self,
        accesses: Mapping[str, AccessPattern],
        tdom: TDom,
        aggregates: List[AggregateFunction],
        element_functions: List,
    ):
        self.accesses = accesses
        self.tdom = tdom
        self.aggregates = aggregates
        self.element_functions = element_functions

    # ------------------------------------------------------------------ #
    # hooks called from generated code
    # ------------------------------------------------------------------ #
    def eval_times(self, env: Mapping[str, SSBuf], t_start: float, t_end: float) -> np.ndarray:
        """Output timestamps for the partition ``(t_start, t_end]``."""
        return evaluation_times_for_accesses(self.accesses, env, self.tdom, t_start, t_end)

    def empty(self, t_start: float) -> SSBuf:
        """Empty output buffer (no evaluation points in the partition)."""
        return SSBuf.empty(t_start)

    def point(
        self, env: Mapping[str, SSBuf], ref: str, offset: float, ts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized point access ``~ref[t + offset]`` at all output times."""
        buf = env.get(ref)
        if buf is None:
            raise ExecutionError(f"unknown temporal object ~{ref}")
        return buf.values_at(ts + offset)

    def reduce(
        self,
        env: Mapping[str, SSBuf],
        ref: str,
        start_offset: float,
        end_offset: float,
        agg_idx: int,
        elem_idx: int,
        ts: np.ndarray,
        cache: MutableMapping[Tuple[str, int, int], RangeAggregator],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized reduction over ``~ref[t+start_offset : t+end_offset]``.

        ``cache`` is the invocation's private aggregator cache (a fresh dict
        per generated-kernel call): several reductions over the same input
        within one invocation share the built :class:`RangeAggregator`
        index, and nothing outlives the run.
        """
        buf = env.get(ref)
        if buf is None:
            raise ExecutionError(f"unknown temporal object ~{ref}")
        aggregator = self._aggregator(buf, ref, agg_idx, elem_idx, cache)
        return aggregator.query(ts + start_offset, ts + end_offset)

    def build(self, ts: np.ndarray, values, valid, t_start: float) -> SSBuf:
        """Assemble the output snapshot buffer from the kernel's arrays.

        ``values``/``valid`` may be scalars (a constant or a statically known
        mask), which are broadcast.  Both are copied, so the output never
        shares memory with an input buffer (sessions compact their ingest
        columns in place).  Taking over arrays the kernel computed instead
        was measured slower on native batch runs: without the copy's free
        of the kernel's array, glibc's dynamic mmap threshold stays low and
        later grid temporaries are page-faulted in afresh.

        The buffer is not compacted: downstream reductions fold one value per
        snapshot, so merging adjacent equal snapshots would change their
        results.
        """
        values = np.broadcast_to(np.asarray(values, dtype=np.float64), ts.shape).copy()
        valid = np.broadcast_to(np.asarray(valid, dtype=bool), ts.shape).copy()
        return SSBuf(ts, values, valid, start_time=t_start)

    # ------------------------------------------------------------------ #
    # internal helpers
    # ------------------------------------------------------------------ #
    def _aggregator(
        self,
        buf: SSBuf,
        ref: str,
        agg_idx: int,
        elem_idx: int,
        cache: MutableMapping[Tuple[str, int, int], RangeAggregator],
    ) -> RangeAggregator:
        # keyed by input *name*, not id(buf): within one invocation the env
        # binding is stable, and names cannot be recycled the way object ids
        # of freed buffers can.
        key = (ref, agg_idx, elem_idx)
        cached = cache.get(key)
        if cached is not None:
            return cached
        agg = self.aggregates[agg_idx]
        target = buf
        if elem_idx >= 0:
            element_fn = self.element_functions[elem_idx]
            mapped_vals, mapped_ok = element_fn(buf.values, self)
            # ``times`` come from an already validated buffer
            target = _ssbuf_from_arrays(
                buf.times,
                mapped_vals,
                buf.valid if mapped_ok is True else buf.valid & mapped_ok,
                buf.start_time,
            )
        aggregator = RangeAggregator(target, agg)
        cache[key] = aggregator
        return aggregator
