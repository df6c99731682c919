"""Python source generation for temporal expressions.

The TiLT paper lowers fused temporal expressions to LLVM IR; this
reproduction lowers them to Python source implementing a *vectorized* kernel
over NumPy arrays.  The generated function has the shape of the synthesized
loop of Figure 3d:

* it derives the output timestamps from the change points of its inputs
  (``rt.eval_times`` implements the "advance to the next change" loop-counter
  expression, for all output points at once);
* every point access and every reduction becomes one vectorized runtime call
  producing a ``(values, valid)`` array pair;
* the scalar expression tree is emitted as straight-line NumPy code over
  those arrays, with an explicit validity mask implementing φ-propagation.
  Like the paper's fused loop keeping intermediates in registers, it
  allocates only the arrays that carry information: constants and φ are
  ``np.float64`` scalars, widened to arrays only where an operator needs
  one for bit-identity or shape, and masks known to be all-valid or all-φ
  are folded away at generation time instead of being materialized;
* the kernel is parameterized by the symbolic boundaries ``(t_start, t_end]``
  so the same compiled artifact runs on any partition.

The emitted source is compiled with :func:`compile`/``exec`` by
:mod:`repro.core.codegen.compiled`; it references nothing except NumPy (via
``rt.np``) and the :class:`~repro.core.codegen.runtime_support.KernelRuntime`
helper that carries the aggregate registry and element-map functions (which
cannot be serialized into source text).
"""

from __future__ import annotations

import hashlib
import pickle
import re
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from ...errors import CompilationError
from ...windowing.functions import AggregateFunction
from ..ir.analysis import estimate_static_cost
from ..ir.nodes import (
    ELEM_VAR,
    BinOp,
    Call,
    Coalesce,
    Const,
    Expr,
    IfThenElse,
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
)
from ..lineage.boundary import AccessPattern, collect_accesses
from ..ops import (
    NUMPY_BINOP_DOMAIN,
    NUMPY_BINOPS,
    NUMPY_CALL_DOMAIN,
    NUMPY_CALLS,
    NUMPY_UNOP_DOMAIN,
    NUMPY_UNOPS,
)

__all__ = ["KernelSpec", "generate_kernel_spec", "KERNEL_FUNCTION_NAME", "ELEMENT_FUNCTION_NAME"]

KERNEL_FUNCTION_NAME = "_tilt_kernel"
ELEMENT_FUNCTION_NAME = "_tilt_element"


@dataclass
class KernelSpec:
    """Everything needed to instantiate an executable kernel for one
    temporal expression."""

    name: str
    tdom: TDom
    source: str
    element_sources: List[str]
    aggregates: List[AggregateFunction]
    accesses: Dict[str, AccessPattern]
    referenced: List[str]
    #: incremental-state descriptor: one entry per ``rt.reduce`` call site in
    #: the generated source, as ``(ref, start_offset, end_offset, agg_idx,
    #: elem_idx)``.  Derived from the same compilation pass that emits the
    #: call, so it is exactly the set of reductions an incremental session
    #: must carry state for.  Not part of :meth:`digest` — it is fully
    #: determined by ``source`` (every entry mirrors an emitted call).
    reduce_sites: List[Tuple[str, float, float, int, int]] = field(default_factory=list)
    #: the fused IR this spec was generated from.  The native codegen tier
    #: (:mod:`repro.core.codegen.native`) re-lowers it to C instead of
    #: re-parsing :attr:`source`.  Not part of :meth:`digest` — like
    #: :attr:`reduce_sites` it is fully determined by the same compilation
    #: pass that produced ``source``, so it adds no identifying content.
    te: Optional[TemporalExpr] = None
    #: static cost estimate (window depth × op count) from
    #: :func:`repro.core.ir.analysis.estimate_static_cost` — seeds the
    #: scheduler's per-tenant cost EWMA.  Derived, so not part of
    #: :meth:`digest`.
    static_cost: float = 0.0
    #: bounds-safety certificate stamped by ``compile_program`` after the
    #: analyzer proved every windowed access of the program is covered by
    #: the resolved partition margins (``None`` until then).  The native
    #: tier refuses to lower a spec without one (see
    #: :func:`repro.core.codegen.native.instantiate`).  Not part of
    #: :meth:`digest`: the proof certifies the same content the digest
    #: identifies, it does not change the executable artifact.
    bounds_proof: Optional[str] = None

    def describe(self) -> str:
        """Generated source plus element maps — for logging and golden tests."""
        parts = [f"# kernel for ~{self.name}", self.source]
        for i, src in enumerate(self.element_sources):
            parts.append(f"# element map {i}")
            parts.append(src)
        return "\n".join(parts)

    def digest(self) -> str:
        """Content digest identifying this spec's executable artifact.

        Two specs with the same digest instantiate interchangeable kernels,
        which is what the per-process rebuild cache keys on when a spec
        crosses a process boundary (see
        :meth:`repro.core.codegen.compiled.CompiledKernel.from_spec`).  The
        digest covers everything execution depends on: the generated
        sources, the time domain, the access pattern and the identity of
        every aggregate (built-ins by name; custom aggregates by their
        pickled callables — unpicklable aggregates make ``digest`` raise,
        matching the fact that such a spec cannot leave the process anyway).
        """
        h = hashlib.sha256()
        for text in (self.name, self.source, *self.element_sources):
            h.update(text.encode())
            h.update(b"\x00")
        h.update(repr((self.tdom.start, self.tdom.end, self.tdom.precision)).encode())
        for ref in sorted(self.accesses):
            pattern = self.accesses[ref]
            h.update(ref.encode())
            h.update(
                repr(
                    (sorted(pattern.point_offsets), sorted(pattern.windows))
                ).encode()
            )
        for agg in self.aggregates:
            h.update(pickle.dumps(agg, protocol=4))
        return h.hexdigest()

    def incremental_plan(self, input_refs) -> Dict[Tuple[str, float, float, int, int], str]:
        """Incremental strategy per reduction site, for introspection.

        Maps each entry of :attr:`reduce_sites` to the strategy an
        incremental session uses for it (``'prefix'``,
        ``'subtract-on-evict'``, ``'two-stacks'``, ``'refold'``) — or
        ``'full-recompute'`` for reductions over intermediate expressions,
        which stay on the per-invocation path.
        """
        from .incremental import site_strategy

        inputs = frozenset(input_refs)
        plan = {}
        for ref, so, eo, agg_idx, elem_idx in self.reduce_sites:
            if ref in inputs:
                plan[(ref, so, eo, agg_idx, elem_idx)] = site_strategy(self.aggregates[agg_idx])
            else:
                plan[(ref, so, eo, agg_idx, elem_idx)] = "full-recompute"
        return plan


class _Emitter:
    """Shared statement emitter used for the main kernel and element maps."""

    def __init__(self, indent: str = "    "):
        self.lines: List[str] = []
        self.indent = indent
        self._counter = 0

    def fresh(self) -> Tuple[str, str]:
        self._counter += 1
        return f"_v{self._counter}", f"_k{self._counter}"

    def emit(self, text: str) -> None:
        self.lines.append(self.indent + text)

    def body(self) -> str:
        # a bare `pass` keeps the enclosing `with` block syntactically valid
        # even when the expression compiled to no statements (e.g. a lone
        # variable reference)
        return "\n".join(self.lines) if self.lines else self.indent + "pass"


class _Lowered(NamedTuple):
    """One compiled subexpression.

    ``value`` names an ``np.float64`` scalar when ``scalar`` is set and an
    n-length float64 array otherwise.  ``mask`` is ``"True"``/``"False"``
    when the validity is statically all-valid/all-φ, else the name of an
    n-length bool array.
    """

    value: str
    mask: str
    scalar: bool


_ALL_VALID = "True"
_ALL_PHI = "False"

#: operators evaluated on arrays even over scalar operands: the ``/``
#: template writes into ``zeros_like`` of its left operand, and the ``%``
#: and ``**`` ufuncs may take another code path for scalars than for arrays
_ARRAY_BINOPS = frozenset({"/", "%", "**"})


def _and(a: str, b: str) -> str:
    """Conjunction of two masks, folded when either is statically known."""
    if _ALL_PHI in (a, b):
        return _ALL_PHI
    if a == _ALL_VALID:
        return b
    if b == _ALL_VALID:
        return a
    return f"{a} & {b}"


class _ExprCompiler:
    """Compile a scalar expression tree into straight-line NumPy statements.

    Constants stay ``np.float64`` scalars and broadcast into the array
    operations that consume them; a scalar is widened with ``_np.full``
    only where an operator needs an array (:data:`_ARRAY_BINOPS`, every
    unary operator and call).  Validity masks that are statically
    all-valid or all-φ are folded through ``&``, ``|``, conditionals and
    ``IsValid`` instead of being materialized.  Both keep the results
    bit-identical to evaluating every node as a full array.
    """

    def __init__(
        self,
        emitter: _Emitter,
        scope: Dict[str, _Lowered],
        kernel: "_KernelBuilder",
        allow_temporal: bool,
    ):
        self.emitter = emitter
        self.scope = dict(scope)
        self.kernel = kernel
        self.allow_temporal = allow_temporal

    # ------------------------------------------------------------------ #
    def compile(self, expr: Expr) -> _Lowered:
        if isinstance(expr, Const):
            v, _ = self.emitter.fresh()
            self.emitter.emit(f"{v} = _np.float64({expr.value!r})")
            return _Lowered(v, _ALL_VALID, True)
        if isinstance(expr, Phi):
            v, _ = self.emitter.fresh()
            self.emitter.emit(f"{v} = _np.float64(0.0)")
            return _Lowered(v, _ALL_PHI, True)
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
            return _Lowered(v, k, False)
        if isinstance(expr, Reduce):
            if not self.allow_temporal:
                raise CompilationError("nested reduction inside a reduce element expression")
            return self._compile_reduce(expr)
        if isinstance(expr, TWindow):
            raise CompilationError("windowed temporal object used outside a reduction")
        if isinstance(expr, BinOp):
            lhs = self.compile(expr.lhs)
            rhs = self.compile(expr.rhs)
            if expr.op in _ARRAY_BINOPS:
                lhs, rhs = self._array(lhs), self._array(rhs)
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v} = " + NUMPY_BINOPS[expr.op].format(a=lhs.value, b=rhs.value))
            mask = _and(lhs.mask, rhs.mask)
            domain = NUMPY_BINOP_DOMAIN.get(expr.op)
            if domain is not None:
                mask = _and(mask, domain.format(a=lhs.value, b=rhs.value))
            return self._result(v, k, mask, lhs.scalar and rhs.scalar)
        if isinstance(expr, UnaryOp):
            operand = self._array(self.compile(expr.operand))
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v} = " + NUMPY_UNOPS[expr.op].format(a=operand.value))
            mask = operand.mask
            domain = NUMPY_UNOP_DOMAIN.get(expr.op)
            if domain is not None:
                mask = _and(mask, domain.format(a=operand.value))
            return self._result(v, k, mask, False)
        if isinstance(expr, IfThenElse):
            cond = self.compile(expr.cond)
            then = self.compile(expr.then)
            orelse = self.compile(expr.orelse)
            if then.mask != orelse.mask:
                # the mask is picked lane by lane: that needs an array test
                cond = self._array(cond)
            if cond.scalar:
                test = f"{cond.value} != 0"
            else:
                # one comparison serves both the value and the mask
                test, _ = self.emitter.fresh()
                self.emitter.emit(f"{test} = {cond.value} != 0")
            v, k = self.emitter.fresh()
            scalar = cond.scalar and then.scalar and orelse.scalar
            if scalar:
                self.emitter.emit(f"{v} = {then.value} if {test} else {orelse.value}")
            else:
                self.emitter.emit(f"{v} = _np.where({test}, {then.value}, {orelse.value})")
            if then.mask == orelse.mask:
                picked = then.mask
            elif (then.mask, orelse.mask) == (_ALL_VALID, _ALL_PHI):
                picked = test
            elif (then.mask, orelse.mask) == (_ALL_PHI, _ALL_VALID):
                picked = f"~{test}"
            else:
                picked = f"_np.where({test}, {then.mask}, {orelse.mask})"
            return self._result(v, k, _and(cond.mask, picked), scalar)
        if isinstance(expr, IsValid):
            operand = self.compile(expr.operand)
            v, _ = self.emitter.fresh()
            if operand.mask in (_ALL_VALID, _ALL_PHI):
                flag = 1.0 if operand.mask == _ALL_VALID else 0.0
                self.emitter.emit(f"{v} = _np.float64({flag!r})")
                return _Lowered(v, _ALL_VALID, True)
            self.emitter.emit(f"{v} = ({operand.mask}).astype(_np.float64)")
            return _Lowered(v, _ALL_VALID, False)
        if isinstance(expr, Coalesce):
            operand = self.compile(expr.operand)
            default = self.compile(expr.default)
            if operand.mask == _ALL_VALID:
                return operand
            if operand.mask == _ALL_PHI:
                return default
            v, k = self.emitter.fresh()
            self.emitter.emit(f"{v} = _np.where({operand.mask}, {operand.value}, {default.value})")
            if default.mask == _ALL_VALID:
                mask = _ALL_VALID
            elif default.mask == _ALL_PHI:
                mask = operand.mask
            else:
                mask = f"{operand.mask} | {default.mask}"
            return self._result(v, k, mask, False)
        if isinstance(expr, Call):
            args = [self._array(self.compile(a)) for a in expr.args]
            v, k = self.emitter.fresh()
            arg_vals = [a.value for a in args]
            self.emitter.emit(f"{v} = " + NUMPY_CALLS[expr.func].format(*arg_vals))
            mask = _ALL_VALID
            for arg in args:
                mask = _and(mask, arg.mask)
            domain = NUMPY_CALL_DOMAIN.get(expr.func)
            if domain is not None:
                mask = _and(mask, domain.format(*arg_vals))
            return self._result(v, k, mask, False)
        if isinstance(expr, Let):
            saved = dict(self.scope)
            for name, value in expr.bindings:
                self.scope[name] = self.compile(value)
            result = self.compile(expr.body)
            self.scope = saved
            return result
        raise CompilationError(f"cannot generate code for node type {type(expr).__name__}")

    # ------------------------------------------------------------------ #
    def _array(self, lowered: _Lowered) -> _Lowered:
        """``lowered`` with its value as an n-length array."""
        if not lowered.scalar:
            return lowered
        v, _ = self.emitter.fresh()
        self.emitter.emit(f"{v} = _np.full(_n, {lowered.value})")
        return _Lowered(v, lowered.mask, False)

    def _result(self, v: str, k: str, mask: str, scalar: bool) -> _Lowered:
        """Bind a mask expression to ``k``; a known mask or a name is kept."""
        if not mask.isidentifier():
            self.emitter.emit(f"{k} = {mask}")
            mask = k
        return _Lowered(v, mask, scalar)

    def _compile_reduce(self, expr: Reduce) -> _Lowered:
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
        return _Lowered(v, k, False)


class _KernelBuilder:
    """Builds the full kernel source (main function plus element maps)."""

    def __init__(self, te: TemporalExpr):
        self.te = te
        self.aggregates: List[AggregateFunction] = []
        self.element_sources: List[str] = []
        self.reduce_sites: List[Tuple[str, float, float, int, int]] = []

    def register_aggregate(self, agg: AggregateFunction) -> int:
        for i, existing in enumerate(self.aggregates):
            if existing is agg:
                return i
        self.aggregates.append(agg)
        return len(self.aggregates) - 1

    def register_element(self, element: Expr) -> int:
        source = self._generate_element_source(element)
        self.element_sources.append(source)
        return len(self.element_sources) - 1

    def _generate_element_source(self, element: Expr) -> str:
        """Source of one element map: ``(values, valid)`` over the snapshot
        values ``elem``, where ``valid`` is a bool array or, when statically
        known, the literal ``True``/``False``."""
        emitter = _Emitter(indent="        ")
        compiler = _ExprCompiler(
            emitter,
            scope={ELEM_VAR: _Lowered("_elem_vals", _ALL_VALID, False)},
            kernel=self,
            allow_temporal=False,
        )
        out = compiler.compile(element)
        values = f"_np.full(_n, {out.value})" if out.scalar else out.value
        lines = [
            f"def {ELEMENT_FUNCTION_NAME}(elem, rt):",
            "    _np = rt.np",
            "    _n = len(elem)",
            "    _elem_vals = _np.asarray(elem, dtype=_np.float64)",
            # masked-out lanes are evaluated eagerly and discarded via the
            # validity mask; errstate keeps them from emitting RuntimeWarnings
            '    with _np.errstate(all="ignore"):',
            emitter.body(),
            f"    return _np.asarray({values}, dtype=_np.float64), {out.mask}",
        ]
        return "\n".join(line for line in lines if line.strip() or line == "")

    def generate(self) -> KernelSpec:
        emitter = _Emitter(indent="        ")
        compiler = _ExprCompiler(emitter, scope={}, kernel=self, allow_temporal=True)
        out = compiler.compile(self.te.expr)
        lines = [
            f"def {KERNEL_FUNCTION_NAME}(env, t_start, t_end, rt):",
            f"    # generated kernel for temporal expression ~{self.te.name}",
            "    _np = rt.np",
            "    _ts = rt.eval_times(env, t_start, t_end)",
            "    _n = len(_ts)",
            "    if _n == 0:",
            "        return rt.empty(t_start)",
            # per-run aggregator cache: execution state lives in the kernel
            # invocation, never in the shared KernelRuntime (concurrent
            # partitions of one compiled query must not see each other)
            "    _cache = {}",
            # both branches of a conditional (and domain-guarded operands)
            # are evaluated eagerly, then discarded through the validity
            # mask; errstate silences the RuntimeWarnings of the masked lanes
            '    with _np.errstate(all="ignore"):',
            emitter.body(),
            f"    return rt.build(_ts, {out.value}, {out.mask}, t_start)",
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


def generate_kernel_spec(te: TemporalExpr) -> KernelSpec:
    """Generate the Python kernel source for one temporal expression."""
    return _KernelBuilder(te).generate()
