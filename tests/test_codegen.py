"""Tests for code generation and the two execution backends.

The central invariant: the compiled (NumPy source-generated) backend produces
exactly the same snapshot buffers as the interpreted reference backend for
any query, and both respect the φ-propagation semantics.
"""

from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codegen import (
    CompiledQuery,
    Interpreter,
    compile_program,
    evaluate_expr_at,
    evaluate_program,
    evaluate_temporal_expr,
    evaluation_times,
    evaluation_times_for_accesses,
    generate_kernel_spec,
    snap_to_precision,
)
from repro.core.frontend.query import LEFT, PAYLOAD, RIGHT, source
from repro.core.codegen.pysource import (
    ELEMENT_FUNCTION_NAME,
    KERNEL_FUNCTION_NAME,
    KernelSpec,
    _Emitter,
    _ExprCompiler,
    _KernelBuilder,
)
from repro.core.ir import (
    BinOp,
    Call,
    Coalesce,
    Const,
    ELEM_VAR,
    Expr,
    IfThenElse,
    IRBuilder,
    IsValid,
    Let,
    Phi,
    Reduce,
    TDom,
    TIndex,
    TRef,
    TWindow,
    TemporalExpr,
    UnaryOp,
    Var,
    when,
)
from repro.core.ir.analysis import estimate_static_cost
from repro.core.lineage.boundary import collect_accesses
from repro.core.ops import (
    NUMPY_BINOP_DOMAIN,
    NUMPY_BINOPS,
    NUMPY_CALL_DOMAIN,
    NUMPY_CALLS,
    NUMPY_UNOP_DOMAIN,
    NUMPY_UNOPS,
)
from repro.core.lineage import AccessPattern, resolve_boundaries
from repro.core.runtime.ssbuf import SSBuf, ssbuf_from_stream
from repro.core.runtime.stream import Event, EventStream
from repro.errors import CompilationError, ExecutionError
from repro.windowing import COUNT, MAX, MEAN, STDDEV, SUM

E = PAYLOAD


# ---------------------------------------------------------------------- #
# scalar interpreter
# ---------------------------------------------------------------------- #
class TestScalarEvaluation:
    def setup_method(self):
        self.env = {"x": SSBuf([1.0, 2.0, 3.0], [10.0, 20.0, 30.0], [True, False, True], 0.0)}

    def test_const_phi_var(self):
        assert evaluate_expr_at(Const(3.0), 0.0, {}) == (3.0, True)
        assert evaluate_expr_at(Phi(), 0.0, {}) == (0.0, False)
        assert evaluate_expr_at(Var("a"), 0.0, {}, {"a": (7.0, True)}) == (7.0, True)
        with pytest.raises(ExecutionError):
            evaluate_expr_at(Var("missing"), 0.0, {})

    def test_point_access(self):
        assert evaluate_expr_at(TIndex("x", 0.0), 0.5, self.env) == (10.0, True)
        assert evaluate_expr_at(TIndex("x", 0.0), 1.5, self.env) == (0.0, False)
        assert evaluate_expr_at(TIndex("x", -2.0), 2.5, self.env) == (10.0, True)

    def test_phi_propagation_through_arithmetic(self):
        expr = TIndex("x", 0.0) + 1.0
        assert evaluate_expr_at(expr, 1.5, self.env) == (0.0, False)

    def test_division_by_zero_is_phi(self):
        expr = Const(1.0) / Const(0.0)
        assert evaluate_expr_at(expr, 0.0, {}) == (0.0, False)

    def test_conditional_and_isvalid(self):
        x = TIndex("x", 0.0)
        assert evaluate_expr_at(when(x > 5.0, x), 0.5, self.env) == (10.0, True)
        assert evaluate_expr_at(when(x > 50.0, x), 0.5, self.env)[1] is False
        assert evaluate_expr_at(IsValid(x), 1.5, self.env) == (0.0, True)
        assert evaluate_expr_at(Coalesce(x, Const(-1.0)), 1.5, self.env) == (-1.0, True)

    def test_let_scoping(self):
        expr = Let((("a", TIndex("x", 0.0)),), Var("a") * 2.0)
        assert evaluate_expr_at(expr, 0.5, self.env) == (20.0, True)

    def test_reduce_over_window(self):
        from repro.core.ir import Reduce, TWindow

        expr = Reduce(SUM, TWindow("x", -3.0, 0.0))
        value, ok = evaluate_expr_at(expr, 3.0, self.env)
        assert ok and value == 40.0  # snapshots 10 and 30 (the φ one is skipped)

    def test_reduce_with_element_map(self):
        from repro.core.ir import Reduce, TWindow

        expr = Reduce(SUM, TWindow("x", -3.0, 0.0), element=Var(ELEM_VAR) * 2.0)
        value, ok = evaluate_expr_at(expr, 3.0, self.env)
        assert ok and value == 80.0

    def test_call(self):
        assert evaluate_expr_at(Call("sqrt", (Const(4.0),)), 0.0, {}) == (2.0, True)


# ---------------------------------------------------------------------- #
# evaluation grid
# ---------------------------------------------------------------------- #
class TestEvaluationGrid:
    def test_snap_to_precision(self):
        snapped = snap_to_precision(np.array([0.3, 1.0, 1.2]), 0.5)
        assert list(snapped) == [0.5, 1.0, 1.5]
        assert list(snap_to_precision(np.array([0.3]), 0.0)) == [0.3]

    def test_times_include_shifted_changes_and_end(self, simple_buf):
        expr = TIndex("simple", -2.0)
        times = evaluation_times(expr, {"simple": simple_buf}, TDom(), 0.0, 50.0)
        # change at 10 shifted by +2 => 12 must be present, and the domain end
        assert 12.0 in times
        assert times[-1] == 50.0

    def test_precision_snapping_in_grid(self, simple_buf):
        expr = TIndex("simple", 0.0)
        times = evaluation_times(expr, {"simple": simple_buf}, TDom(precision=5.0), 0.0, 50.0)
        interior = times[:-1]
        assert np.allclose(np.mod(interior, 5.0), 0.0)

    def test_empty_range(self, simple_buf):
        expr = TIndex("simple", 0.0)
        assert len(evaluation_times(expr, {"simple": simple_buf}, TDom(), 10.0, 10.0)) == 0

    def test_zero_from_below_snaps_to_positive_zero(self):
        # the only candidate that snaps to zero is -5 in (-p, 0); a plain
        # ceil-and-multiply snap yields -0.0 there
        buf = SSBuf([-5.0, 15.0], [1.0, 2.0], start_time=-30.0)
        times = evaluation_times(TIndex("x", 0.0), {"x": buf}, TDom(precision=10.0), -20.0, 15.0)
        assert times.tolist() == [-10.0, 0.0, 10.0, 15.0]
        assert not np.signbit(times[1])


# ---------------------------------------------------------------------- #
# evaluation grid against the unique-of-concatenation reference
# ---------------------------------------------------------------------- #
def _reference_snap(times, precision):
    if precision <= 0 or len(times) == 0:
        return times
    snapped = np.ceil(times / precision - 1e-9) * precision
    return snapped


def _reference_evaluation_times(accesses, env, tdom, t_start, t_end):
    """Reference grid: ``np.unique`` over the concatenated candidates."""
    if t_end <= t_start:
        return np.empty(0)
    candidates = [np.array([t_end])]
    for ref, pattern in accesses.items():
        buf = env.get(ref)
        if buf is None or len(buf) == 0:
            continue
        for offset in pattern.boundary_offsets():
            # input changes at time c make the output change at c - offset;
            # the buffer's start_time is an implicit change point (φ → first
            # value), so it is included as well.
            changes = buf.change_times_in(t_start + offset, t_end + offset)
            pieces = [changes - offset] if len(changes) else []
            if t_start + offset < buf.start_time <= t_end + offset:
                pieces.append(np.array([buf.start_time - offset]))
            candidates.extend(pieces)
    times = np.unique(np.concatenate(candidates))
    times = _reference_snap(times, tdom.precision)
    if tdom.precision > 0:
        # the value *before* a change must also be materialized on the grid:
        # if the output changes at grid point g, the old value's last holding
        # point g - precision needs an explicit snapshot.
        times = np.concatenate([times, times - tdom.precision])
    times = np.unique(times)
    mask = (times > t_start + 1e-12) & (times <= t_end + 1e-12)
    times = times[mask]
    if len(times) == 0 or times[-1] < t_end:
        times = np.append(times, t_end)
    return times


_grid_times = st.one_of(
    st.integers(min_value=-40, max_value=40).map(lambda k: k * 0.25),
    st.floats(min_value=-12.0, max_value=12.0, allow_nan=False),
)
_grid_offsets = st.sampled_from([-10.0, -2.5, -1.0, -0.3, 0.0, 0.001, 1.0, 4.0])


@st.composite
def grid_cases(draw):
    """Buffers with gaps and early ``start_time``s, point and window
    accesses, every precision, and negative, empty or one-point ranges."""
    env, accesses = {}, {}
    for ref in ("a", "b")[: draw(st.integers(1, 2))]:
        times = sorted(set(draw(st.lists(_grid_times, max_size=30))))
        valid = draw(st.lists(st.booleans(), min_size=len(times), max_size=len(times)))
        lead = draw(st.sampled_from([0.0, 0.25, 5.0]))
        start = (times[0] if times else 0.0) - lead
        env[ref] = SSBuf(times, np.arange(len(times), dtype=float), valid, start_time=start)
        points = draw(st.sets(_grid_offsets, max_size=2))
        windows = draw(st.sets(st.tuples(_grid_offsets, _grid_offsets), max_size=2))
        accesses[ref] = AccessPattern(points, {(min(w), max(w)) for w in windows})
    precision = draw(st.sampled_from([0.0, 1e-3, 0.01, 1.0, 10.0]))
    t_start = draw(_grid_times)
    width = draw(
        st.one_of(
            st.sampled_from([0.0, -1.0, 1e-3, 0.01, 1.0, 10.0, precision]),
            st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
        )
    )
    return accesses, env, TDom(precision=precision), t_start, t_start + width


def _positive_zero(times):
    return np.asarray(times) + 0.0


@given(grid_cases())
@settings(max_examples=400, deadline=None)
def test_property_grid_matches_unique_reference(case):
    accesses, env, tdom, t_start, t_end = case
    got = _positive_zero(evaluation_times_for_accesses(accesses, env, tdom, t_start, t_end))
    want = _positive_zero(_reference_evaluation_times(accesses, env, tdom, t_start, t_end))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------- #
# generated kernels
# ---------------------------------------------------------------------- #
class TestKernelGeneration:
    def test_kernel_spec_contents(self):
        b = IRBuilder()
        stock = b.stream("stock")
        b.define("avg", stock.window(-10, 0).reduce(MEAN), precision=1)
        program = b.build()
        spec = generate_kernel_spec(program.exprs[0])
        assert "rt.reduce(env, 'stock'" in spec.source
        assert spec.aggregates == [MEAN]
        assert spec.referenced == ["stock"]
        assert "def _tilt_kernel" in spec.describe()

    def test_element_map_source_generated(self):
        b = IRBuilder()
        stock = b.stream("stock")
        b.define(
            "sumsq",
            stock.window(-10, 0).reduce(SUM, element=Var(ELEM_VAR) * Var(ELEM_VAR)),
            precision=1,
        )
        spec = generate_kernel_spec(b.build().exprs[0])
        assert len(spec.element_sources) == 1
        assert "_tilt_element" in spec.element_sources[0]

    def test_compiled_query_properties(self):
        program = _trend_program()
        compiled = compile_program(program)
        assert isinstance(compiled, CompiledQuery)
        assert compiled.fused
        assert compiled.boundary.lookback("stock") == 20.0
        assert "reduce" in compiled.sources()
        assert compiled.kernel_named(compiled.output).name == compiled.output
        with pytest.raises(KeyError):
            compiled.kernel_named("nope")

    def test_unoptimized_compilation(self):
        program = _trend_program()
        compiled = compile_program(program, optimize=False)
        assert len(compiled.kernels) == 4
        assert not compiled.fused

    def test_missing_input_raises(self):
        compiled = compile_program(_trend_program())
        with pytest.raises(ExecutionError):
            compiled.run({}, 0.0, 10.0)


# ---------------------------------------------------------------------- #
# compiled == interpreted
# ---------------------------------------------------------------------- #
def _trend_program():
    stock = source("stock")
    avg10 = stock.window(10, 1).aggregate(MEAN).named("avg10")
    avg20 = stock.window(20, 1).aggregate(MEAN).named("avg20")
    return avg10.join(avg20, LEFT - RIGHT).where(E > 0).named("trend").to_program()


QUERY_FACTORIES = {
    "select": lambda: source("stock").select(E * 2.0 + 1.0),
    "where": lambda: source("stock").where((E % 2.0).eq(0.0)),
    "window_sum": lambda: source("stock").sum(10, 5),
    "window_std": lambda: source("stock").stddev(8, 2),
    "window_max": lambda: source("stock").max(16, 4),
    "shift_join": lambda: source("stock").join(source("stock").shift(3.0), LEFT - RIGHT),
    "trend": lambda: (
        source("stock").window(10, 1).aggregate(MEAN)
        .join(source("stock").window(20, 1).aggregate(MEAN), LEFT - RIGHT)
        .where(E > 0)
    ),
    "element_map": lambda: source("stock").window(12, 3).aggregate(SUM, element=E * E),
}


@pytest.mark.parametrize("name", sorted(QUERY_FACTORIES))
def test_compiled_matches_interpreted(name, random_walk_stream):
    program = QUERY_FACTORIES[name]().to_program()
    buf = ssbuf_from_stream(random_walk_stream)
    boundary = resolve_boundaries(program)
    interpreted = Interpreter(program, boundary=boundary).run({"stock": buf}, 0.0, 300.0)
    compiled = compile_program(program).run({"stock": buf}, 0.0, 300.0)
    grid = np.linspace(1.0, 300.0, 600)
    iv, ik = interpreted.values_at(grid)
    cv, ck = compiled.values_at(grid)
    assert np.array_equal(ik, ck)
    assert np.allclose(iv[ik], cv[ck], rtol=1e-9, atol=1e-9)


def test_masked_lanes_emit_no_runtime_warnings():
    """Both branches of a conditional (and guarded operands) are evaluated
    eagerly and discarded via the validity mask; the kernel body runs under
    ``errstate`` so those masked-out lanes must not leak NumPy
    ``RuntimeWarning``s (invalid power, divide, overflow, ...)."""
    import warnings

    # domain-hostile query: fractional power of negative values (guarded by
    # the conditional), division whose masked branch divides by zero, and a
    # guarded sqrt/log pair
    x = source("stock")
    query = when(
        E >= 0.0,
        (E ** 0.5) + (1.0 / E),
        (abs(E) ** 0.5) - ((0.0 - E) ** 1.5),
    )
    program = x.select(query).to_program()
    values = [4.0, -9.0, 0.0, 16.0, -2.0, 25.0]
    stream = EventStream.from_samples(values, period=1.0, name="stock")
    buf = ssbuf_from_stream(stream)
    compiled = compile_program(program)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = compiled.run({"stock": buf}, 0.0, float(len(values)))
    # the semantics are unchanged: valid lanes still compute their branch
    assert out.value_at(4.0) == (pytest.approx(4.0 + 1.0 / 16.0), True)
    v, ok = out.value_at(2.0)  # -9.0: else-branch, 3 - 27
    assert ok and v == pytest.approx(3.0 - 27.0)


def test_compiled_output_on_gappy_stream():
    events = [Event(0.0, 1.0, 5.0), Event(4.0, 6.0, 7.0), Event(9.0, 9.5, -2.0)]
    stream = EventStream(events, name="stock")
    program = source("stock").sum(3, 1).to_program()
    buf = ssbuf_from_stream(stream)
    out = compile_program(program).run({"stock": buf}, 0.0, 10.0)
    assert out.value_at(1.0) == (5.0, True)
    value, ok = out.value_at(3.0)
    assert ok and value == 5.0          # event still inside (0, 3]
    assert out.value_at(8.0) == (7.0, True)
    assert out.value_at(5.0)[1]


@given(
    st.lists(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False), min_size=5, max_size=60),
    st.sampled_from(["select", "where", "window_sum", "window_std", "trend", "element_map"]),
)
@settings(max_examples=25, deadline=None)
def test_property_compiled_equals_interpreted(values, query_name):
    """For random regular streams and a family of queries, both backends agree."""
    stream = EventStream.from_samples(values, period=1.0, name="stock")
    buf = ssbuf_from_stream(stream)
    program = QUERY_FACTORIES[query_name]().to_program()
    boundary = resolve_boundaries(program)
    t_end = float(len(values))
    interpreted = Interpreter(program, boundary=boundary).run({"stock": buf}, 0.0, t_end)
    compiled = compile_program(program).run({"stock": buf}, 0.0, t_end)
    grid = np.linspace(0.5, t_end, 77)
    iv, ik = interpreted.values_at(grid)
    cv, ck = compiled.values_at(grid)
    assert np.array_equal(ik, ck)
    assert np.allclose(iv[ik], cv[ck], rtol=1e-7, atol=1e-7)


# ---------------------------------------------------------------------- #
# generated kernels against the materializing lowering
# ---------------------------------------------------------------------- #
class _MaterializingCompiler(_ExprCompiler):
    """The lowering that evaluates every node as an n-length array pair
    (constants via ``_np.full``, masks via ``_TRUE``/``_FALSE``), kept
    verbatim as the reference for scalar constants and folded masks."""

    def compile(self, expr: Expr) -> Tuple[str, str]:
        if isinstance(expr, Const):
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v} = _np.full(_n, {expr.value!r})")
            self.emitter.emit(f"{k} = _TRUE")
            return v, k
        if isinstance(expr, Phi):
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v} = _np.zeros(_n)")
            self.emitter.emit(f"{k} = _FALSE")
            return v, k
        if isinstance(expr, Var):
            if expr.name not in self.scope:
                raise CompilationError(f"unbound variable {expr.name!r} during code generation")
            return self.scope[expr.name]
        if isinstance(expr, (TRef, TIndex)):
            if not self.allow_temporal:
                raise CompilationError("temporal access inside a reduce element expression")
            ref = expr.name if isinstance(expr, TRef) else expr.ref
            offset = 0.0 if isinstance(expr, TRef) else expr.offset
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v}, {k} = rt.point(env, {ref!r}, {offset!r}, _ts)")
            return v, k
        if isinstance(expr, Reduce):
            if not self.allow_temporal:
                raise CompilationError("nested reduction inside a reduce element expression")
            return self._compile_reduce(expr)
        if isinstance(expr, TWindow):
            raise CompilationError("windowed temporal object used outside a reduction")
        if isinstance(expr, BinOp):
            lv, lk = self.compile(expr.lhs)
            rv, rk = self.compile(expr.rhs)
            v, k = self.emitter.fresh()
            template = NUMPY_BINOPS[expr.op]
            self.emitter.emit(f"{v} = " + template.format(a=lv, b=rv))
            mask = f"{lk} & {rk}"
            domain = NUMPY_BINOP_DOMAIN.get(expr.op)
            if domain is not None:
                mask = f"({mask}) & " + domain.format(a=lv, b=rv)
            self.emitter.emit(f"{k} = {mask}")
            return v, k
        if isinstance(expr, UnaryOp):
            ov, ok = self.compile(expr.operand)
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v} = " + NUMPY_UNOPS[expr.op].format(a=ov))
            mask = ok
            domain = NUMPY_UNOP_DOMAIN.get(expr.op)
            if domain is not None:
                mask = f"({ok}) & " + domain.format(a=ov)
            self.emitter.emit(f"{k} = {mask}")
            return v, k
        if isinstance(expr, IfThenElse):
            cv, ck = self.compile(expr.cond)
            tv, tk = self.compile(expr.then)
            ev, ek = self.compile(expr.orelse)
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v} = _np.where({cv} != 0, {tv}, {ev})")
            self.emitter.emit(f"{k} = {ck} & _np.where({cv} != 0, {tk}, {ek})")
            return v, k
        if isinstance(expr, IsValid):
            _, ok = self.compile(expr.operand)
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v} = ({ok}).astype(_np.float64)")
            self.emitter.emit(f"{k} = _TRUE")
            return v, k
        if isinstance(expr, Coalesce):
            ov, ok = self.compile(expr.operand)
            dv, dk = self.compile(expr.default)
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v} = _np.where({ok}, {ov}, {dv})")
            self.emitter.emit(f"{k} = {ok} | {dk}")
            return v, k
        if isinstance(expr, Call):
            arg_pairs = [self.compile(a) for a in expr.args]
            v, k = self.emitter.fresh()
            arg_vals = [p[0] for p in arg_pairs]
            self.emitter.emit(f"{v} = " + NUMPY_CALLS[expr.func].format(*arg_vals))
            mask = " & ".join(p[1] for p in arg_pairs) or "_TRUE"
            domain = NUMPY_CALL_DOMAIN.get(expr.func)
            if domain is not None:
                mask = f"({mask}) & " + domain.format(*arg_vals)
            self.emitter.emit(f"{k} = {mask}")
            return v, k
        if isinstance(expr, Let):
            saved = dict(self.scope)
            for name, value in expr.bindings:
                self.scope[name] = self.compile(value)
            result = self.compile(expr.body)
            self.scope = saved
            return result
        raise CompilationError(f"cannot generate code for node type {type(expr).__name__}")

    # ------------------------------------------------------------------ #
    def _compile_reduce(self, expr: Reduce) -> Tuple[str, str]:
        agg_idx = self.kernel.register_aggregate(expr.agg)
        elem_idx = self.kernel.register_element(expr.element) if expr.element is not None else -1
        window = expr.window
        self.kernel.reduce_sites.append(
            (window.ref, float(window.start_offset), float(window.end_offset), agg_idx, elem_idx)
        )
        v, k = self.emitter.fresh()
        self.emitter.emit(
            f"{v}, {k} = rt.reduce(env, {window.ref!r}, {window.start_offset!r}, "
            f"{window.end_offset!r}, {agg_idx}, {elem_idx}, _ts, _cache)"
        )
        return v, k


class _MaterializingBuilder(_KernelBuilder):
    """Kernel builder over :class:`_MaterializingCompiler` (verbatim but
    for the compiler class)."""

    def _generate_element_source(self, element: Expr) -> str:
        emitter = _Emitter(indent="        ")
        compiler = _MaterializingCompiler(
            emitter, scope={ELEM_VAR: ("_elem_vals", "_elem_ok")}, kernel=self, allow_temporal=False
        )
        out_v, out_k = compiler.compile(element)
        lines = [
            f"def {ELEMENT_FUNCTION_NAME}(elem, rt):",
            "    _np = rt.np",
            "    _n = len(elem)",
            "    _TRUE = _np.ones(_n, dtype=bool)",
            "    _FALSE = _np.zeros(_n, dtype=bool)",
            "    _elem_vals = _np.asarray(elem, dtype=_np.float64)",
            "    _elem_ok = _TRUE",
            # masked-out lanes are evaluated eagerly and discarded via the
            # validity mask; errstate keeps them from emitting RuntimeWarnings
            '    with _np.errstate(all="ignore"):',
            emitter.body(),
            f"    return _np.asarray({out_v}, dtype=_np.float64), _np.asarray({out_k}, dtype=bool)",
        ]
        return "\n".join(line for line in lines if line.strip() or line == "")

    def generate(self) -> KernelSpec:
        emitter = _Emitter(indent="        ")
        compiler = _MaterializingCompiler(emitter, scope={}, kernel=self, allow_temporal=True)
        out_v, out_k = compiler.compile(self.te.expr)
        lines = [
            f"def {KERNEL_FUNCTION_NAME}(env, t_start, t_end, rt):",
            f"    # generated kernel for temporal expression ~{self.te.name}",
            "    _np = rt.np",
            "    _ts = rt.eval_times(env, t_start, t_end)",
            "    _n = len(_ts)",
            "    if _n == 0:",
            "        return rt.empty(t_start)",
            "    _TRUE = _np.ones(_n, dtype=bool)",
            "    _FALSE = _np.zeros(_n, dtype=bool)",
            # per-run aggregator cache: execution state lives in the kernel
            # invocation, never in the shared KernelRuntime (concurrent
            # partitions of one compiled query must not see each other)
            "    _cache = {}",
            # both branches of a conditional (and domain-guarded operands)
            # are evaluated eagerly, then discarded through the validity
            # mask; errstate silences the RuntimeWarnings of the masked lanes
            '    with _np.errstate(all="ignore"):',
            emitter.body(),
            f"    return rt.build(_ts, {out_v}, {out_k}, t_start)",
        ]
        source = "\n".join(line for line in lines if line.strip() or line == "")
        accesses = collect_accesses(self.te.expr)
        return KernelSpec(
            name=self.te.name,
            tdom=self.te.tdom,
            source=source,
            element_sources=list(self.element_sources),
            aggregates=list(self.aggregates),
            accesses=accesses,
            referenced=list(accesses.keys()),
            reduce_sites=list(self.reduce_sites),
            te=self.te,
            static_cost=estimate_static_cost(self.te),
        )


_ORACLE_CONSTS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.5, 3.0, 1e300, -1e-300, 700.0, 1000.0]
_ORACLE_BINOPS = ["+", "-", "*", "/", "%", "**", "min", "max", ">", "<", ">=", "<=", "==", "!=", "and", "or"]
_ORACLE_UNOPS = ["neg", "not", "abs", "sqrt", "exp", "log", "floor", "ceil", "sign"]
_ORACLE_CALLS = ["sqrt", "exp", "log", "abs", "floor", "ceil", "sin", "cos"]
_ORACLE_AGGS = [SUM, COUNT, MEAN, MAX, STDDEV]


def _scalar_trees(leaves):
    """Random scalar expression trees over ``leaves``."""
    constant = st.sampled_from(_ORACLE_CONSTS).map(Const)
    constant_tree = st.recursive(
        st.one_of(constant, st.just(Phi())),
        lambda inner: st.builds(BinOp, st.sampled_from(_ORACLE_BINOPS), inner, inner),
        max_leaves=4,
    )

    def extend(inner):
        return st.one_of(
            st.builds(BinOp, st.sampled_from(_ORACLE_BINOPS), inner, inner),
            st.builds(UnaryOp, st.sampled_from(_ORACLE_UNOPS), inner),
            st.builds(IfThenElse, inner, inner, inner),
            # Where-style conditionals: one branch φ, the other all-valid
            st.builds(IfThenElse, inner, st.just(Phi()), constant),
            st.builds(IfThenElse, inner, constant, st.just(Phi())),
            st.builds(Coalesce, inner, inner),
            st.builds(Coalesce, inner, st.one_of(constant, st.just(Phi()))),
            st.builds(IsValid, inner),
            st.builds(lambda f, a: Call(f, (a,)), st.sampled_from(_ORACLE_CALLS), inner),
            st.builds(lambda f, a, b: Call(f, (a, b)), st.sampled_from(["pow", "atan2"]), inner, inner),
            # exp/log over constant-only subtrees: the widened-scalar path
            st.builds(lambda f, a: Call(f, (a,)), st.sampled_from(["exp", "log"]), constant_tree),
            st.builds(lambda a, b: Let((("_a", a),), BinOp("+", Var("_a"), b)), inner, inner),
        )

    # inputs drawn twice as often as constants or φ, so most trees keep
    # some valid lanes
    return st.recursive(st.one_of(leaves, constant, leaves, st.just(Phi())), extend, max_leaves=10)


_element_trees = _scalar_trees(st.just(Var(ELEM_VAR)))
_reductions = st.builds(
    lambda agg, start, element: Reduce(agg, TWindow("x", start, 0.0), element=element),
    st.sampled_from(_ORACLE_AGGS),
    st.sampled_from([-3.0, -1.5, -20.0]),
    st.one_of(st.none(), _element_trees),
)
_kernel_trees = _scalar_trees(
    st.one_of(st.sampled_from([TIndex("x", 0.0), TIndex("x", -1.0), TIndex("y", 0.0)]), _reductions)
)


@st.composite
def _oracle_buffers(draw):
    """Buffers ``x`` and ``y`` with φ gaps, zeros, negatives and an early
    ``start_time``."""
    env = {}
    for ref in ("x", "y"):
        n = draw(st.integers(0, 24) if ref == "y" else st.integers(4, 24))
        times = np.cumsum(draw(st.lists(st.sampled_from([0.5, 1.0, 2.5]), min_size=n, max_size=n)))
        values = draw(
            st.lists(
                st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.25, 3.0, -7.5, 1e5]), min_size=n, max_size=n
            )
        )
        valid = draw(st.lists(st.sampled_from([True, True, False]), min_size=n, max_size=n))
        env[ref] = SSBuf(times, values, valid, start_time=draw(st.sampled_from([0.0, -2.0])))
    return env


def _run_spec(spec, env, t_start, t_end):
    from repro.core.codegen.compiled import CompiledKernel

    return CompiledKernel(spec).run(env, t_start, t_end)


@given(_kernel_trees, _oracle_buffers(), st.sampled_from([(0.0, 30.0), (-3.0, 4.0), (5.0, 12.5)]))
@settings(max_examples=300, deadline=None)
def test_property_lowering_matches_materializing_reference(expr, env, window):
    """Scalar constants and folded masks change no byte of any kernel's
    output, whether a node sits in the kernel body or in a reduce element
    map."""
    te = TemporalExpr("out", TDom(), expr)
    got = _run_spec(_KernelBuilder(te).generate(), env, *window)
    want = _run_spec(_MaterializingBuilder(te).generate(), env, *window)
    assert got.start_time == want.start_time
    assert got.times.tobytes() == want.times.tobytes()
    assert got.valid.tobytes() == want.valid.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


def test_ysb_element_map_materializes_no_constants():
    from repro.apps import YSB

    compiled = compile_program(YSB.program())
    element_sources = [src for k in compiled.kernels for src in k.spec.element_sources]
    assert element_sources
    for src in element_sources:
        assert "_np.full(_n" not in src
        assert "_np.zeros(_n" not in src
