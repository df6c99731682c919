"""Tests for the baseline (event-centric) engines and their operators."""

import numpy as np
import pytest

from repro.core.frontend.query import LEFT, PAYLOAD, RIGHT, source
from repro.core.ir.nodes import Var, when
from repro.core.runtime.ssbuf import ssbuf_from_stream
from repro.core.runtime.stream import Event, EventStream
from repro.errors import UnsupportedOperationError
from repro.spe import GrizzlyEngine, LightSaberEngine, StreamBoxEngine, TrillEngine
from repro.spe.common.expreval import eval_event_expr
from repro.spe.common.operators import (
    ChopOperator,
    MergeJoinOperator,
    NestedLoopJoinOperator,
    SelectOperator,
    ShiftOperator,
    WhereOperator,
    WindowAggregateOperator,
    coalesce_events,
)
from repro.spe.common.vectoreval import eval_expr_vectorized
from repro.windowing import COUNT, MEAN, SUM

E = PAYLOAD


# ---------------------------------------------------------------------- #
# shared infrastructure
# ---------------------------------------------------------------------- #
class TestExpressionEvaluation:
    def test_event_expr(self):
        value, ok = eval_event_expr(Var("%payload") * 2.0 + 1.0, {"%payload": (5.0, True)})
        assert ok and value == 11.0

    def test_vectorized_matches_scalar(self):
        expr = when((Var("%payload") % 2.0).eq(0.0), Var("%payload") * 3.0, 0.0)
        values = np.arange(10, dtype=float)
        vec, ok = eval_expr_vectorized(expr, {"%payload": (values, np.ones(10, dtype=bool))}, 10)
        for i, v in enumerate(values):
            sv, sk = eval_event_expr(expr, {"%payload": (float(v), True)})
            assert ok[i] == sk and vec[i] == pytest.approx(sv)


# ---------------------------------------------------------------------- #
# operators
# ---------------------------------------------------------------------- #
class TestOperators:
    def test_select_operator(self, regular_stream):
        out = SelectOperator(E + 100.0).process(regular_stream.events[:5])
        assert [e.value() for e in out] == [100.0, 101.0, 102.0, 103.0, 104.0]

    def test_where_operator(self, regular_stream):
        out = WhereOperator((E % 2.0).eq(0.0)).process(regular_stream.events[:6])
        assert [e.value() for e in out] == [0.0, 2.0, 4.0]

    def test_shift_operator(self):
        out = ShiftOperator(3.0).process([Event(0.0, 1.0, 7.0)])
        assert out[0].start == 3.0 and out[0].end == 4.0

    def test_chop_operator_splits_at_boundaries(self):
        out = ChopOperator(1.0).process([Event(0.5, 2.5, 9.0)])
        assert [(e.start, e.end) for e in out] == [(0.5, 1.0), (1.0, 2.0), (2.0, 2.5)]
        assert all(e.payload == 9.0 for e in out)

    def test_window_aggregate_operator(self, regular_stream):
        op = WindowAggregateOperator(10.0, 10.0, SUM)
        out = op.process(regular_stream.events) + op.flush()
        assert out[0].payload == sum(range(10))
        assert out[0].start == 0.0 and out[0].end == 10.0
        assert len(out) == 10

    def test_window_aggregate_with_element(self, regular_stream):
        op = WindowAggregateOperator(10.0, 10.0, SUM, element=E * E)
        out = op.process(regular_stream.events[:20]) + op.flush()
        assert out[0].payload == sum(i * i for i in range(10))

    def test_merge_join_matches_nested_loop(self):
        rng = np.random.default_rng(0)
        left = EventStream.from_samples(rng.uniform(0, 10, 50), period=1.0)
        right = EventStream.from_samples(rng.uniform(0, 10, 40), period=1.3)
        results = []
        for cls in (MergeJoinOperator, NestedLoopJoinOperator):
            op = cls(LEFT + RIGHT)
            out = op.process_left(left.events) + op.process_right(right.events)
            results.append(sorted((e.start, e.end, round(e.payload, 9)) for e in out))
        assert results[0] == results[1]

    def test_coalesce_events_fills_gaps(self):
        left = [Event(0.0, 2.0, 1.0), Event(5.0, 6.0, 2.0)]
        right = [Event(1.0, 7.0, 9.0)]
        out = coalesce_events(left, right)
        buf = ssbuf_from_stream(EventStream(out, check_order=False))
        assert buf.value_at(1.5) == (1.0, True)    # left wins where present
        assert buf.value_at(3.0) == (9.0, True)    # gap filled from right
        assert buf.value_at(5.5) == (2.0, True)
        assert buf.value_at(6.5) == (9.0, True)


# ---------------------------------------------------------------------- #
# engines
# ---------------------------------------------------------------------- #
def ysb_like_query():
    return source("values").where((E % 2.0).eq(0.0)).window(10, 10).count()


class TestEngines:
    def test_all_engines_agree_on_aggregation_query(self, regular_stream):
        query = ysb_like_query()
        streams = {"values": regular_stream}
        outputs = {}
        outputs["trill"] = TrillEngine(batch_size=16).run(query, streams)
        outputs["streambox"] = StreamBoxEngine(batch_size=16, workers=2).run(query, streams)
        outputs["grizzly"] = GrizzlyEngine(workers=2).run(query, streams)
        outputs["lightsaber"] = LightSaberEngine(workers=2).run(query, streams)
        reference = sorted((e.start, e.end, e.payload) for e in outputs["trill"])
        assert reference  # non-empty
        for name, stream in outputs.items():
            assert sorted((e.start, e.end, e.payload) for e in stream) == reference, name

    def test_trill_join_matches_tilt(self, random_walk_stream):
        from repro import TiltEngine

        query = (
            source("stock").window(5, 1).aggregate(MEAN)
            .join(source("stock").window(15, 1).aggregate(MEAN), LEFT - RIGHT)
            .where(E > 0)
        )
        streams = {"stock": random_walk_stream}
        trill_out = TrillEngine(batch_size=64).run(query, streams)
        tilt_out = TiltEngine(workers=2).run(query.to_program(), streams)
        grid = np.linspace(20.0, 290.0, 250)
        tb = ssbuf_from_stream(trill_out, on_overlap="last")
        bv, bk = tb.values_at(grid)
        tv, tk = tilt_out.output.values_at(grid)
        assert np.array_equal(tk, bk)
        assert np.allclose(tv[tk], bv[bk])

    def test_streambox_uses_nested_loop_join(self):
        assert StreamBoxEngine.join_operator_cls is NestedLoopJoinOperator
        assert TrillEngine.join_operator_cls is MergeJoinOperator

    def test_trill_partitioned_execution(self, regular_stream):
        query = source("values").select(E + 1.0)
        partitions = [
            {"values": regular_stream.slice_time(0.0, 50.0)},
            {"values": regular_stream.slice_time(50.0, 100.0)},
        ]
        out = TrillEngine(workers=2).run_partitioned(query, partitions)
        assert len(out) == 100

    def test_missing_stream_raises(self):
        with pytest.raises(Exception):
            TrillEngine().run(source("ghost").select(E + 1), {})

    def test_grizzly_rejects_join(self, regular_stream):
        query = source("values").join(source("values").shift(1.0), LEFT - RIGHT)
        with pytest.raises(UnsupportedOperationError):
            GrizzlyEngine().run(query, {"values": regular_stream})

    def test_lightsaber_rejects_join_and_shift(self, regular_stream):
        join_query = source("values").join(source("values").shift(1.0), LEFT - RIGHT)
        with pytest.raises(UnsupportedOperationError):
            LightSaberEngine().run(join_query, {"values": regular_stream})
        with pytest.raises(UnsupportedOperationError):
            LightSaberEngine().run(source("values").shift(1.0), {"values": regular_stream})

    def test_grizzly_select_where(self, regular_stream):
        out = GrizzlyEngine().run(source("values").select(E * 2).where(E > 100.0),
                                  {"values": regular_stream})
        assert all(e.value() > 100.0 for e in out)
        assert len(out) == 49

    def test_lightsaber_sliding_window(self, regular_stream):
        out = LightSaberEngine(workers=2).run(source("values").sum(10, 5), {"values": regular_stream})
        trill = TrillEngine().run(source("values").sum(10, 5), {"values": regular_stream})
        assert sorted((e.start, e.end, e.payload) for e in out) == sorted(
            (e.start, e.end, e.payload) for e in trill
        )

    def test_engine_names(self):
        assert TrillEngine().name == "trill"
        assert StreamBoxEngine().name == "streambox"
        assert GrizzlyEngine().name == "grizzly"
        assert LightSaberEngine().name == "lightsaber"

    def test_invalid_batch_size(self):
        with pytest.raises(Exception):
            TrillEngine(batch_size=0)
