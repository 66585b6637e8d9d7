"""The x86-64 subset opcode table.

Each :class:`OpcodeSpec` carries the operand signature used for validation
and for the search's random operand/opcode proposals, an approximate
Haswell latency used by the performance term (Section 5.2 / Figure 8), and
two semantic functions:

* ``bind_fn(ops) -> step`` — interpretive semantics for the emulator
  backend.  Binding resolves operand kinds, register indices, immediates
  and the :mod:`repro.x86.scalar` helper once per instruction; the
  returned ``step(state)`` then operates on raw bit patterns in the live
  state.  A step captures only operand-derived values and reads
  ``state.gp``/``xmm_lo``/``xmm_hi``/``flags``/``mem`` at call time, so
  one bound step serves every test state.
* ``emit_fn(ctx, ops)`` — Python code generation for the
  representation-tracking JIT backend (Section 5.1), which keeps
  floating-point values in native float form across instructions.

``tests/x86/test_differential.py`` checks the two agree bit-for-bit on
random programs, and ``tests/x86/test_bound_steps.py`` checks every
opcode's bound step against the JIT for each operand shape it accepts.

Subset restrictions (documented deviations from real x86-64):

* Only ``cmp``/``test``/``ucomisd``/``ucomiss`` define status flags; ALU
  instructions leave them untouched.
* ``movq $imm64, %xmm`` is accepted as a pseudo-op (the usual
  ``movabs`` + ``movq`` pair fused), so kernels can embed FP constants.
* NaN payloads produced by arithmetic (and by min/max selection and FP
  conversions of NaN) are canonicalized; data moves preserve payloads
  bit-exactly (see :mod:`repro.x86.scalar`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.x86 import scalar
from repro.x86.operands import (
    Imm,
    Kind,
    Mem,
    Operand,
    Reg32,
    Reg64,
    Xmm,
)
from repro.x86.state import addr_fn, reader32, reader64, reader128, writer

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF
HI32 = 0xFFFFFFFF00000000

# Extra cycles charged when an instruction touches memory (L1 load).
MEM_EXTRA_LATENCY = 3


@dataclass(frozen=True)
class Slot:
    """One operand position: which kinds it accepts, and data direction."""

    kinds: frozenset
    read: bool = True
    write: bool = False


def slot(*kinds: Kind, read: bool = True, write: bool = False) -> Slot:
    return Slot(frozenset(kinds), read=read, write=write)


@dataclass(frozen=True)
class OpcodeSpec:
    """Static description + semantics of one opcode."""

    name: str
    slots: Tuple[Slot, ...]
    latency: int
    bind_fn: Callable
    emit_fn: Callable
    flavor: str = "float"  # 'float' | 'int' | 'move' | 'cmp' | 'nop'
    # Extra operand-combination constraint (e.g. mov cannot be mem->mem).
    valid_fn: Optional[Callable] = None
    # True when an XMM destination may preserve some of its old bits, so
    # liveness must treat the destination as read as well.
    partial_dst: bool = True
    reads_flags: bool = False
    writes_flags: bool = False

    def accepts(self, ops: Tuple[Operand, ...]) -> bool:
        """Signature check used by the assembler and the transforms."""
        if len(ops) != len(self.slots):
            return False
        for op, sl in zip(ops, self.slots):
            if op.kind not in sl.kinds:
                return False
        mem_count = sum(1 for op in ops if isinstance(op, Mem))
        if mem_count > 1:
            return False
        if self.valid_fn is not None and not self.valid_fn(ops):
            return False
        return True


OPCODES: dict = {}


def _register(spec: OpcodeSpec) -> None:
    if spec.name in OPCODES:
        raise ValueError(f"duplicate opcode {spec.name}")
    OPCODES[spec.name] = spec


def spec_of(name: str) -> OpcodeSpec:
    """Look up an opcode spec, raising KeyError with a helpful message."""
    try:
        return OPCODES[name]
    except KeyError:
        raise KeyError(f"unknown opcode: {name!r}") from None


# ---------------------------------------------------------------------------
# family builders
#
# AT&T operand order throughout: sources first, destination last.  Scalar
# helpers use the convention helper(dst_value, src_value); emit templates
# are format strings over {d} (dst) and {s} (src) float expressions.
#
# Bound steps write results straight into the state's lists.  Scalar
# helper results and register values are already in range, so only
# integer arithmetic that can overflow is masked.

XMM_M64 = (Kind.XMM, Kind.M64)
XMM_M32 = (Kind.XMM, Kind.M32)
XMM_M128 = (Kind.XMM, Kind.M128)


def _sd_binop(helper: str, template: str):
    fn = getattr(scalar, helper)

    def bind(ops):
        read, d = reader64(ops[0]), ops[1].index

        def step(state):
            lo = state.xmm_lo
            lo[d] = fn(lo[d], read(state))
        return step

    def em(ctx, ops):
        s = ctx.src_f64(ops[0])
        d = ctx.f64(ops[1].index)
        ctx.set_f64(ops[1].index, template.format(d=d, s=s))

    return bind, em


def _sd_unop(helper: str, template: str):
    fn = getattr(scalar, helper)

    def bind(ops):
        read, d = reader64(ops[0]), ops[1].index

        def step(state):
            state.xmm_lo[d] = fn(read(state))
        return step

    def em(ctx, ops):
        s = ctx.src_f64(ops[0])
        ctx.set_f64(ops[1].index, template.format(s=s))

    return bind, em


def _ss_binop(helper: str, template: str):
    fn = getattr(scalar, helper)

    def bind(ops):
        read, d = reader32(ops[0]), ops[1].index

        def step(state):
            lo = state.xmm_lo
            old = lo[d]
            lo[d] = (old & HI32) | fn(old & M32, read(state))
        return step

    def em(ctx, ops):
        s = ctx.src_f32(ops[0])
        d = ctx.f32(ops[1].index, 0)
        ctx.set_lane(ops[1].index, 0, template.format(d=d, s=s))

    return bind, em


def _ss_unop(helper: str, template: str):
    fn = getattr(scalar, helper)

    def bind(ops):
        read, d = reader32(ops[0]), ops[1].index

        def step(state):
            lo = state.xmm_lo
            lo[d] = (lo[d] & HI32) | fn(read(state))
        return step

    def em(ctx, ops):
        s = ctx.src_f32(ops[0])
        ctx.set_lane(ops[1].index, 0, template.format(s=s))

    return bind, em


def _avx_sd_binop(helper: str, template: str):
    # v<op>sd s1, s2, d  computes  d.lo = op(s2.lo, s1.lo);  d.hi = s2.hi
    fn = getattr(scalar, helper)

    def bind(ops):
        read, s2, d = reader64(ops[0]), ops[1].index, ops[2].index

        def step(state):
            lo, hi = state.xmm_lo, state.xmm_hi
            lo[d] = fn(lo[s2], read(state))
            hi[d] = hi[s2]
        return step

    def em(ctx, ops):
        s1 = ctx.src_f64(ops[0])
        s2 = ctx.f64(ops[1].index)
        d = ops[2].index
        t = ctx.temp()
        ctx.emit(f"{t} = {template.format(d=s2, s=s1)}")
        ctx.copy_half(d, "h", ops[1].index, "h")
        ctx.set_f64(d, t)

    return bind, em


def _avx_ss_binop(helper: str, template: str):
    fn = getattr(scalar, helper)

    def bind(ops):
        read, s2, d = reader32(ops[0]), ops[1].index, ops[2].index

        def step(state):
            lo, hi = state.xmm_lo, state.xmm_hi
            old = lo[s2]
            lo[d] = (old & HI32) | fn(old & M32, read(state))
            hi[d] = hi[s2]
        return step

    def em(ctx, ops):
        s1 = ctx.src_f32(ops[0])
        s2l0 = ctx.f32(ops[1].index, 0)
        s2l1 = ctx.f32(ops[1].index, 1)
        d = ops[2].index
        t = ctx.temp()
        ctx.emit(f"{t} = {template.format(d=s2l0, s=s1)}")
        ctx.copy_half(d, "h", ops[1].index, "h")
        ctx.set_lanes(d, t, s2l1)

    return bind, em


def _fma_sd(order: str, bits_helper: str, float_helper: str,
            negate_product: bool = False, negate_addend: bool = False):
    # AT&T (o1, o2, d):
    #   132: d = fma(d, o1, o2)    213: d = fma(o2, d, o1)
    #   231: d = fma(o2, o1, d)
    fn = getattr(scalar, bits_helper)

    def args_of(o1, o2, d):
        if order == "132":
            return d, o1, o2
        if order == "213":
            return o2, d, o1
        return o2, o1, d

    def bind(ops):
        read, o2, d = reader64(ops[0]), ops[1].index, ops[2].index

        def step(state):
            lo = state.xmm_lo
            lo[d] = fn(*args_of(read(state), lo[o2], lo[d]))
        return step

    def em(ctx, ops):
        o1 = ctx.src_f64(ops[0])
        o2 = ctx.f64(ops[1].index)
        d = ctx.f64(ops[2].index)
        a, b, c = args_of(o1, o2, d)
        if negate_product:
            a = f"(-({a}))"
        if negate_addend:
            c = f"(-({c}))"
        ctx.set_f64(ops[2].index, f"{float_helper}({a}, {b}, {c})")

    return bind, em


def _fma_ss(order: str):
    fn = scalar.fma_f

    def args_of(o1, o2, d):
        if order == "132":
            return d, o1, o2
        if order == "213":
            return o2, d, o1
        return o2, o1, d

    def bind(ops):
        read, o2, d = reader32(ops[0]), ops[1].index, ops[2].index

        def step(state):
            lo = state.xmm_lo
            old = lo[d]
            lo[d] = (old & HI32) | fn(*args_of(read(state), lo[o2] & M32,
                                               old & M32))
        return step

    def em(ctx, ops):
        o1 = ctx.src_f32(ops[0])
        o2 = ctx.f32(ops[1].index, 0)
        d = ctx.f32(ops[2].index, 0)
        a, b, c = args_of(o1, o2, d)
        ctx.set_lane(ops[2].index, 0, f"fma_fff({a}, {b}, {c})")

    return bind, em


def _bind_halves(fn):
    """Binder for ``dst.q = fn(dst.q, src.q)`` on both 64-bit halves."""

    def bind(ops):
        read, d = reader128(ops[0]), ops[1].index

        def step(state):
            slo, shi = read(state)
            lo, hi = state.xmm_lo, state.xmm_hi
            lo[d] = fn(lo[d], slo)
            hi[d] = fn(hi[d], shi)
        return step

    return bind


def _pd_binop(helper: str, template: str):
    bind = _bind_halves(getattr(scalar, helper))

    def em(ctx, ops):
        slo, shi = ctx.src_f64_halves(ops[0])
        d = ops[1].index
        dlo, dhi = ctx.f64(d, "l"), ctx.f64(d, "h")
        tlo = ctx.temp()
        ctx.emit(f"{tlo} = {template.format(d=dlo, s=slo)}")
        ctx.set_f64(d, template.format(d=dhi, s=shi), part="h")
        ctx.set_f64(d, tlo, part="l")

    return bind, em


def _ps_binop(helper64: str, template: str):
    bind = _bind_halves(getattr(scalar, helper64))

    def em(ctx, ops):
        src = ctx.src_f32_lanes(ops[0])
        d = ops[1].index
        dst = [ctx.f32(d, lane) for lane in range(4)]
        temps = [ctx.temp() for _ in range(4)]
        for t, dv, sv in zip(temps, dst, src):
            ctx.emit(f"{t} = {template.format(d=dv, s=sv)}")
        ctx.set_lanes(d, temps[0], temps[1], part="l")
        ctx.set_lanes(d, temps[2], temps[3], part="h")

    return bind, em


def _bitwise128(pyop: str):
    # pyop is a Python operator template over (dst, src) bit patterns;
    # compiled once here into a lambda for the emulator.
    bind = _bind_halves(
        eval(f"lambda d, s: {pyop.format(d='d', s='s')}"))  # noqa: S307

    def em(ctx, ops):
        slo, shi = ctx.src128_bits(ops[0])
        d = ops[1].index
        dlo, dhi = ctx.bits(d, "l"), ctx.bits(d, "h")
        t = ctx.temp()
        ctx.emit(f"{t} = {pyop.format(d=dlo, s=slo)}")
        ctx.set_bits(d, pyop.format(d=dhi, s=shi), part="h")
        ctx.set_bits(d, t, part="l")

    return bind, em


# ---------------------------------------------------------------------------
# scalar floating-point arithmetic

for _name, _helper, _tmpl, _lat in [
    ("addsd", "add_d", "{d} + {s}", 3),
    ("subsd", "sub_d", "{d} - {s}", 3),
    ("mulsd", "mul_d", "{d} * {s}", 5),
    ("divsd", "div_d", "div_dd({d}, {s})", 14),
    ("minsd", "min_d", "min_dd({d}, {s})", 3),
    ("maxsd", "max_d", "max_dd({d}, {s})", 3),
]:
    _bind, _em = _sd_binop(_helper, _tmpl)
    _register(OpcodeSpec(_name, (slot(*XMM_M64), slot(Kind.XMM, write=True)),
                         _lat, _bind, _em))

_bind, _em = _sd_unop("sqrt_d", "sqrt_dd({s})")
_register(OpcodeSpec("sqrtsd", (slot(*XMM_M64), slot(Kind.XMM, read=False, write=True)),
                     16, _bind, _em))

for _name, _helper, _tmpl, _lat in [
    ("addss", "add_f", "f32r({d} + {s})", 3),
    ("subss", "sub_f", "f32r({d} - {s})", 3),
    ("mulss", "mul_f", "f32r({d} * {s})", 5),
    ("divss", "div_f", "div_ff({d}, {s})", 11),
    ("minss", "min_f", "min_dd({d}, {s})", 3),
    ("maxss", "max_f", "max_dd({d}, {s})", 3),
]:
    _bind, _em = _ss_binop(_helper, _tmpl)
    _register(OpcodeSpec(_name, (slot(*XMM_M32), slot(Kind.XMM, write=True)),
                         _lat, _bind, _em))

_bind, _em = _ss_unop("sqrt_f", "sqrt_ff({s})")
_register(OpcodeSpec("sqrtss", (slot(*XMM_M32), slot(Kind.XMM, write=True)),
                     11, _bind, _em))

for _name, _helper, _tmpl, _lat in [
    ("vaddsd", "add_d", "{d} + {s}", 3),
    ("vsubsd", "sub_d", "{d} - {s}", 3),
    ("vmulsd", "mul_d", "{d} * {s}", 5),
    ("vdivsd", "div_d", "div_dd({d}, {s})", 14),
    ("vminsd", "min_d", "min_dd({d}, {s})", 3),
    ("vmaxsd", "max_d", "max_dd({d}, {s})", 3),
]:
    _bind, _em = _avx_sd_binop(_helper, _tmpl)
    _register(OpcodeSpec(
        _name,
        (slot(*XMM_M64), slot(Kind.XMM), slot(Kind.XMM, read=False, write=True)),
        _lat, _bind, _em, partial_dst=False))

for _name, _helper, _tmpl, _lat in [
    ("vaddss", "add_f", "f32r({d} + {s})", 3),
    ("vsubss", "sub_f", "f32r({d} - {s})", 3),
    ("vmulss", "mul_f", "f32r({d} * {s})", 5),
    ("vdivss", "div_f", "div_ff({d}, {s})", 11),
]:
    _bind, _em = _avx_ss_binop(_helper, _tmpl)
    _register(OpcodeSpec(
        _name,
        (slot(*XMM_M32), slot(Kind.XMM), slot(Kind.XMM, read=False, write=True)),
        _lat, _bind, _em, partial_dst=False))

for _order in ("132", "213", "231"):
    _bind, _em = _fma_sd(_order, "fma_d", "fma_ddd")
    _register(OpcodeSpec(
        f"vfmadd{_order}sd",
        (slot(*XMM_M64), slot(Kind.XMM), slot(Kind.XMM, write=True)),
        5, _bind, _em))
    _binds, _ems = _fma_ss(_order)
    _register(OpcodeSpec(
        f"vfmadd{_order}ss",
        (slot(*XMM_M32), slot(Kind.XMM), slot(Kind.XMM, write=True)),
        5, _binds, _ems))

_bind, _em = _fma_sd("213", "fnma_d", "fma_ddd", negate_product=True)
_register(OpcodeSpec(
    "vfnmadd213sd",
    (slot(*XMM_M64), slot(Kind.XMM), slot(Kind.XMM, write=True)),
    5, _bind, _em))
_bind, _em = _fma_sd("213", "fms_d", "fma_ddd", negate_addend=True)
_register(OpcodeSpec(
    "vfmsub213sd",
    (slot(*XMM_M64), slot(Kind.XMM), slot(Kind.XMM, write=True)),
    5, _bind, _em))

# ---------------------------------------------------------------------------
# packed floating-point arithmetic

for _name, _helper, _tmpl, _lat in [
    ("addpd", "add_d", "{d} + {s}", 3),
    ("subpd", "sub_d", "{d} - {s}", 3),
    ("mulpd", "mul_d", "{d} * {s}", 5),
    ("divpd", "div_d", "div_dd({d}, {s})", 14),
]:
    _bind, _em = _pd_binop(_helper, _tmpl)
    _register(OpcodeSpec(_name, (slot(*XMM_M128), slot(Kind.XMM, write=True)),
                         _lat, _bind, _em, partial_dst=False))

for _name, _helper, _tmpl, _lat in [
    ("addps", "add_ps64", "f32r({d} + {s})", 3),
    ("subps", "sub_ps64", "f32r({d} - {s})", 3),
    ("mulps", "mul_ps64", "f32r({d} * {s})", 5),
    ("divps", "div_ps64", "div_ff({d}, {s})", 11),
]:
    _bind, _em = _ps_binop(_helper, _tmpl)
    _register(OpcodeSpec(_name, (slot(*XMM_M128), slot(Kind.XMM, write=True)),
                         _lat, _bind, _em, partial_dst=False))

for _name, _tmpl in [
    ("andpd", "{d} & {s}"), ("orpd", "{d} | {s}"), ("xorpd", "{d} ^ {s}"),
    ("andnpd", f"({{d}} ^ 0x{M64:x}) & {{s}}"),
    ("andps", "{d} & {s}"), ("orps", "{d} | {s}"), ("xorps", "{d} ^ {s}"),
    ("pand", "{d} & {s}"), ("por", "{d} | {s}"), ("pxor", "{d} ^ {s}"),
]:
    _bind, _em = _bitwise128(_tmpl)
    _register(OpcodeSpec(_name, (slot(*XMM_M128), slot(Kind.XMM, write=True)),
                         1, _bind, _em, partial_dst=False))


# ---------------------------------------------------------------------------
# shuffles / unpacks


def _bind_unpcklpd(ops):
    read, d = reader128(ops[0]), ops[1].index

    def step(state):
        state.xmm_hi[d] = read(state)[0]
    return step


def _em_unpcklpd(ctx, ops):
    src, dst = ops
    if isinstance(src, Mem):
        ctx.set_bits(dst.index, f"mem.load8({ctx.addr(src)})", part="h")
    else:
        ctx.copy_half(dst.index, "h", src.index, "l")


_register(OpcodeSpec("unpcklpd", (slot(*XMM_M128), slot(Kind.XMM, write=True)),
                     1, _bind_unpcklpd, _em_unpcklpd))


def _bind_unpckhpd(ops):
    read, d = reader128(ops[0]), ops[1].index

    def step(state):
        shi = read(state)[1]
        hi = state.xmm_hi
        state.xmm_lo[d] = hi[d]
        hi[d] = shi
    return step


def _em_unpckhpd(ctx, ops):
    src, dst = ops
    ctx.copy_half(dst.index, "l", dst.index, "h")
    if isinstance(src, Mem):
        base = ctx.temp()
        ctx.emit(f"{base} = {ctx.addr(src)}")
        ctx.set_bits(dst.index, f"mem.load8({base} + 8)", part="h")
    elif src.index != dst.index:
        ctx.copy_half(dst.index, "h", src.index, "h")
    # src == dst: high half is unchanged.


_register(OpcodeSpec("unpckhpd", (slot(*XMM_M128), slot(Kind.XMM, write=True)),
                     1, _bind_unpckhpd, _em_unpckhpd))


def _bind_punpckldq(ops):
    read, d = reader128(ops[0]), ops[1].index

    def step(state):
        slo = read(state)[0]
        lo = state.xmm_lo
        dlo = lo[d]
        lo[d] = (dlo & M32) | ((slo & M32) << 32)
        state.xmm_hi[d] = ((dlo >> 32) & M32) | (slo & HI32)
    return step


def _em_punpckldq(ctx, ops):
    slo, _ = ctx.src128_bits(ops[0])
    d = ops[1].index
    dlo = ctx.bits(d, "l")
    t = ctx.temp()
    ctx.emit(f"{t} = {dlo}")
    ts = ctx.temp()
    ctx.emit(f"{ts} = {slo}")  # src may alias dst; snapshot before writes
    ctx.set_bits(d, f"({t} & 0x{M32:x}) | (({ts} & 0x{M32:x}) << 32)",
                 part="l")
    ctx.set_bits(d, f"(({t} >> 32) & 0x{M32:x}) | ({ts} & 0x{HI32:x})",
                 part="h")


_register(OpcodeSpec("punpckldq", (slot(*XMM_M128), slot(Kind.XMM, write=True)),
                     1, _bind_punpckldq, _em_punpckldq))


def _bind_pshufd(ops):
    imm = ops[0].value & 0xFF
    # Per destination dword: (source quad, shift within it).
    sels = [(imm >> (2 * j)) & 3 for j in range(4)]
    picks = tuple((sel >> 1, 32 * (sel & 1)) for sel in sels)
    read, d = reader128(ops[1]), ops[2].index

    def step(state):
        quads = read(state)
        w0, w1, w2, w3 = [(quads[q] >> sh) & M32 for q, sh in picks]
        state.xmm_lo[d] = w0 | (w1 << 32)
        state.xmm_hi[d] = w2 | (w3 << 32)
    return step


def _dword_expr(lo: str, hi: str, j: int) -> str:
    src = lo if j < 2 else hi
    shift = 32 * (j & 1)
    return f"(({src} >> {shift}) & 0x{M32:x})" if shift else f"({src} & 0x{M32:x})"


def _em_pshufd(ctx, ops):
    imm = ops[0].value & 0xFF
    slo, shi = ctx.src128_bits(ops[1])
    tl, th = ctx.temp(), ctx.temp()
    ctx.emit(f"{tl} = {slo}")
    ctx.emit(f"{th} = {shi}")
    sel = [(imm >> (2 * j)) & 3 for j in range(4)]
    exprs = [_dword_expr(tl, th, s) for s in sel]
    d = ops[2].index
    ctx.set_bits(d, f"{exprs[0]} | ({exprs[1]} << 32)", part="l")
    ctx.set_bits(d, f"{exprs[2]} | ({exprs[3]} << 32)", part="h")


_register(OpcodeSpec(
    "pshufd",
    (slot(Kind.IMM), slot(*XMM_M128), slot(Kind.XMM, read=False, write=True)),
    1, _bind_pshufd, _em_pshufd, partial_dst=False))


def _bind_pshuflw(ops):
    imm = ops[0].value & 0xFF
    # Per destination word j: (shift of the selected source word, 16 * j).
    picks = tuple((16 * ((imm >> (2 * j)) & 3), 16 * j) for j in range(4))
    read, d = reader128(ops[1]), ops[2].index

    def step(state):
        slo, shi = read(state)
        new_lo = 0
        for src_shift, dst_shift in picks:
            new_lo |= ((slo >> src_shift) & 0xFFFF) << dst_shift
        state.xmm_lo[d] = new_lo
        state.xmm_hi[d] = shi
    return step


def _em_pshuflw(ctx, ops):
    imm = ops[0].value & 0xFF
    slo, shi = ctx.src128_bits(ops[1])
    t = ctx.temp()
    ctx.emit(f"{t} = {slo}")
    th = ctx.temp()
    ctx.emit(f"{th} = {shi}")
    parts = []
    for j in range(4):
        sel = (imm >> (2 * j)) & 3
        expr = f"(({t} >> {16 * sel}) & 0xffff)" if sel else f"({t} & 0xffff)"
        parts.append(f"({expr} << {16 * j})" if j else expr)
    d = ops[2].index
    ctx.set_bits(d, " | ".join(parts), part="l")
    ctx.set_bits(d, th, part="h")


for _name in ("pshuflw", "vpshuflw"):
    _register(OpcodeSpec(
        _name,
        (slot(Kind.IMM), slot(*XMM_M128), slot(Kind.XMM, read=False, write=True)),
        1, _bind_pshuflw, _em_pshuflw, partial_dst=False))


# ---------------------------------------------------------------------------
# moves


def _bind_movsd(ops):
    src, dst = ops
    if isinstance(dst, Mem):
        addr, s = addr_fn(dst), src.index

        def step(state):
            state.mem.store8(addr(state), state.xmm_lo[s])
    elif isinstance(src, Mem):
        addr, d = addr_fn(src), dst.index

        def step(state):
            state.xmm_lo[d] = state.mem.load8(addr(state))
            state.xmm_hi[d] = 0
    else:
        s, d = src.index, dst.index

        def step(state):
            lo = state.xmm_lo
            lo[d] = lo[s]
    return step


def _em_movsd(ctx, ops):
    src, dst = ops
    if isinstance(dst, Mem):
        ctx.emit(f"mem.store8({ctx.addr(dst)}, {ctx.bits(src.index, 'l')})")
    elif isinstance(src, Mem):
        ctx.set_bits(dst.index, f"mem.load8({ctx.addr(src)})", part="l")
        ctx.set_bits(dst.index, "0", part="h")
    else:
        ctx.copy_half(dst.index, "l", src.index, "l")


def _not_mem_to_mem(ops):
    return not (isinstance(ops[0], Mem) and isinstance(ops[1], Mem))


_register(OpcodeSpec(
    "movsd",
    (slot(Kind.XMM, Kind.M64), slot(Kind.XMM, Kind.M64, read=False, write=True)),
    2, _bind_movsd, _em_movsd, flavor="move", valid_fn=_not_mem_to_mem))


def _bind_movss(ops):
    src, dst = ops
    if isinstance(dst, Mem):
        addr, s = addr_fn(dst), src.index

        def step(state):
            state.mem.store4(addr(state), state.xmm_lo[s] & M32)
    elif isinstance(src, Mem):
        addr, d = addr_fn(src), dst.index

        def step(state):
            state.xmm_lo[d] = state.mem.load4(addr(state))
            state.xmm_hi[d] = 0
    else:
        s, d = src.index, dst.index

        def step(state):
            lo = state.xmm_lo
            lo[d] = (lo[d] & HI32) | (lo[s] & M32)
    return step


def _em_movss(ctx, ops):
    src, dst = ops
    if isinstance(dst, Mem):
        if ctx.has_repr(src.index, "l", "s"):
            value = f"f2u({ctx.f32(src.index, 0)})"
        else:
            value = f"({ctx.bits(src.index, 'l')} & 0x{M32:x})"
        ctx.emit(f"mem.store4({ctx.addr(dst)}, {value})")
    elif isinstance(src, Mem):
        # Stay in bits so raw (non-FP) patterns copy exactly.
        ctx.set_bits(dst.index, f"mem.load4({ctx.addr(src)})", part="l")
        ctx.set_bits(dst.index, "0", part="h")
    elif ctx.has_repr(src.index, "l", "s"):
        ctx.set_lane(dst.index, 0, ctx.f32(src.index, 0))
    else:
        d = ctx.bits(dst.index, "l")
        s = ctx.bits(src.index, "l")
        ctx.set_bits(dst.index,
                     f"({d} & 0x{HI32:x}) | ({s} & 0x{M32:x})", part="l")


_register(OpcodeSpec(
    "movss",
    (slot(Kind.XMM, Kind.M32), slot(Kind.XMM, Kind.M32, read=False, write=True)),
    2, _bind_movss, _em_movss, flavor="move", valid_fn=_not_mem_to_mem))


def _bind_mov128(ops):
    src, dst = ops
    if isinstance(dst, Mem):
        addr, s = addr_fn(dst), src.index

        def step(state):
            state.mem.store16(addr(state), state.xmm_lo[s], state.xmm_hi[s])
    else:
        read, d = reader128(src), dst.index

        def step(state):
            state.xmm_lo[d], state.xmm_hi[d] = read(state)
    return step


def _em_mov128(ctx, ops):
    src, dst = ops
    if isinstance(dst, Mem):
        ctx.emit(
            f"mem.store16({ctx.addr(dst)}, {ctx.bits(src.index, 'l')}, "
            f"{ctx.bits(src.index, 'h')})"
        )
    elif isinstance(src, Mem):
        lo, hi = ctx.src128_bits(src)
        ctx.set_bits(dst.index, lo, part="l")
        ctx.set_bits(dst.index, hi, part="h")
    else:
        ctx.copy_half(dst.index, "l", src.index, "l")
        ctx.copy_half(dst.index, "h", src.index, "h")


for _name in ("movapd", "movaps", "movdqa", "movups", "movdqu"):
    _register(OpcodeSpec(
        _name,
        (slot(Kind.XMM, Kind.M128),
         slot(Kind.XMM, Kind.M128, read=False, write=True)),
        2, _bind_mov128, _em_mov128, flavor="move", valid_fn=_not_mem_to_mem,
        partial_dst=False))

_register(OpcodeSpec(
    "lddqu",
    (slot(Kind.M128), slot(Kind.XMM, read=False, write=True)),
    2, _bind_mov128, _em_mov128, flavor="move", partial_dst=False))


def _bind_movddup(ops):
    read, d = reader64(ops[0]), ops[1].index

    def step(state):
        state.xmm_lo[d] = state.xmm_hi[d] = read(state)
    return step


def _em_movddup(ctx, ops):
    src, dst = ops
    if isinstance(src, Mem):
        t = ctx.temp()
        ctx.emit(f"{t} = mem.load8({ctx.addr(src)})")
        ctx.set_bits(dst.index, t, part="l")
        ctx.set_bits(dst.index, t, part="h")
    else:
        ctx.copy_half(dst.index, "l", src.index, "l")
        ctx.copy_half(dst.index, "h", src.index, "l")


_register(OpcodeSpec(
    "movddup",
    (slot(*XMM_M64), slot(Kind.XMM, read=False, write=True)),
    1, _bind_movddup, _em_movddup, flavor="move", partial_dst=False))


def _bind_movq(ops):
    src, dst = ops
    if not isinstance(dst, Xmm):
        read, write = reader64(src), writer(dst)
        return lambda state: write(state, read(state))
    # movq to xmm always zeroes the upper quad.
    d = dst.index
    if isinstance(src, Imm):
        # The constant loads that embed FP coefficients in kernels.
        value = src.value & M64

        def step(state):
            state.xmm_lo[d] = value
            state.xmm_hi[d] = 0
    else:
        read = reader64(src)

        def step(state):
            state.xmm_lo[d] = read(state)
            state.xmm_hi[d] = 0
    return step


def _em_movq(ctx, ops):
    src, dst = ops
    if isinstance(dst, Xmm):
        if isinstance(src, Imm):
            from repro.x86.jit import float_literal

            literal = float_literal(scalar.u2d(src.value & M64))
            if literal is not None:
                ctx.set_f64(dst.index, literal, part="l")
            else:
                ctx.set_bits(dst.index, f"0x{src.value & M64:x}", part="l")
        elif isinstance(src, Xmm):
            ctx.copy_half(dst.index, "l", src.index, "l")
        else:
            ctx.set_bits(dst.index, ctx.src_bits64(src), part="l")
        ctx.set_bits(dst.index, "0", part="h")
    elif isinstance(dst, Reg64):
        ctx.set_gp(dst.index, ctx.src_bits64(src))
    else:
        ctx.emit(f"mem.store8({ctx.addr(dst)}, {ctx.src_bits64(src)})")


def _movq_valid(ops):
    src, dst = ops
    if isinstance(src, Mem) and isinstance(dst, Mem):
        return False
    if isinstance(src, Imm) and not isinstance(dst, Xmm):
        return False  # plain GP immediates use mov/movabs
    return isinstance(src, Xmm) or isinstance(dst, Xmm)


_register(OpcodeSpec(
    "movq",
    (slot(Kind.XMM, Kind.R64, Kind.M64, Kind.IMM),
     slot(Kind.XMM, Kind.R64, Kind.M64, read=False, write=True)),
    2, _bind_movq, _em_movq, flavor="move", valid_fn=_movq_valid,
    partial_dst=False))


def _bind_movd(ops):
    src, dst = ops
    read = reader32(src)
    if not isinstance(dst, Xmm):
        write = writer(dst)
        return lambda state: write(state, read(state))
    d = dst.index

    def step(state):
        state.xmm_lo[d] = read(state)
        state.xmm_hi[d] = 0
    return step


def _em_movd(ctx, ops):
    src, dst = ops
    if isinstance(dst, Xmm):
        # Stay in bits so raw (non-FP) patterns copy exactly.
        ctx.set_bits(dst.index, ctx.src_bits32(src), part="l")
        ctx.set_bits(dst.index, "0", part="h")
    else:
        ctx.set_gp(dst.index, ctx.src_bits32(src))


def _movd_valid(ops):
    src, dst = ops
    return isinstance(src, Xmm) != isinstance(dst, Xmm)


_register(OpcodeSpec(
    "movd",
    (slot(Kind.XMM, Kind.R32, Kind.IMM), slot(Kind.XMM, Kind.R32, read=False, write=True)),
    2, _bind_movd, _em_movd, flavor="move", valid_fn=_movd_valid,
    partial_dst=False))


def _bind_mov(ops):
    src, dst = ops
    wide = isinstance(dst, Reg64) or (isinstance(dst, Mem) and dst.size == 8)
    read, write = (reader64 if wide else reader32)(src), writer(dst)
    return lambda state: write(state, read(state))


def _em_mov(ctx, ops):
    src, dst = ops
    if isinstance(dst, Reg64):
        ctx.set_gp(dst.index, ctx.src_bits64(src))
    elif isinstance(dst, Reg32):
        ctx.set_gp(dst.index, ctx.src_bits32(src))
    elif dst.size == 8:
        ctx.emit(f"mem.store8({ctx.addr(dst)}, {ctx.src_bits64(src)})")
    else:
        ctx.emit(f"mem.store4({ctx.addr(dst)}, {ctx.src_bits32(src)})")


def _mov_valid(ops):
    src, dst = ops
    if isinstance(src, Mem) and isinstance(dst, Mem):
        return False
    if isinstance(src, Mem) and isinstance(dst, (Reg64, Reg32)):
        need = 8 if isinstance(dst, Reg64) else 4
        return src.size == need
    if isinstance(dst, Mem) and isinstance(src, (Reg64, Reg32)):
        need = 8 if isinstance(src, Reg64) else 4
        return dst.size == need
    if isinstance(src, (Reg64, Reg32)) and isinstance(dst, (Reg64, Reg32)):
        return type(src) is type(dst)
    return not (isinstance(src, Imm) and isinstance(dst, Mem))


for _movname in ("mov", "movabs"):
    _register(OpcodeSpec(
        _movname,
        (slot(Kind.R64, Kind.R32, Kind.IMM, Kind.M64, Kind.M32),
         slot(Kind.R64, Kind.R32, Kind.M64, Kind.M32, read=False, write=True)),
        1, _bind_mov, _em_mov, flavor="move", valid_fn=_mov_valid))


def _bind_lea(ops):
    addr, d = addr_fn(ops[0]), ops[1].index

    def step(state):
        state.gp[d] = addr(state)
    return step


def _em_lea(ctx, ops):
    ctx.set_gp(ops[1].index, ctx.addr(ops[0]))


_register(OpcodeSpec(
    "lea",
    (slot(Kind.M64, read=False), slot(Kind.R64, read=False, write=True)),
    1, _bind_lea, _em_lea, flavor="int"))


# ---------------------------------------------------------------------------
# GP ALU


def _gp_binop(expr64: str, expr32: str):
    fn64 = eval(f"lambda a, b: {expr64.format(a='a', b='b')}")  # noqa: S307
    fn32 = eval(f"lambda a, b: {expr32.format(a='a', b='b')}")  # noqa: S307

    def bind(ops):
        src, dst = ops
        d = dst.index
        if isinstance(dst, Reg64):
            fn, mask, read = fn64, M64, reader64(src)
        else:
            fn, mask, read = fn32, M32, reader32(src)

        def step(state):
            gp = state.gp
            gp[d] = fn(gp[d] & mask, read(state))
        return step

    def em(ctx, ops):
        src, dst = ops
        d = ctx.gp(dst.index)
        if isinstance(dst, Reg64):
            ctx.set_gp(dst.index,
                       expr64.format(a=d, b=ctx.src_bits64(src)))
        else:
            ctx.set_gp(dst.index,
                       expr32.format(a=f"({d} & 0x{M32:x})",
                                     b=ctx.src_bits32(src)))

    return bind, em


def _gp_slots():
    return (slot(Kind.R64, Kind.R32, Kind.IMM, Kind.M64, Kind.M32),
            slot(Kind.R64, Kind.R32, write=True))


def _gp_valid(ops):
    src, dst = ops
    if isinstance(src, Mem):
        need = 8 if isinstance(dst, Reg64) else 4
        return src.size == need
    if isinstance(src, (Reg64, Reg32)):
        return type(src) is type(dst)
    return True


for _name, _e64, _e32, _lat in [
    ("add", f"({{a}} + {{b}}) & 0x{M64:x}", f"({{a}} + {{b}}) & 0x{M32:x}", 1),
    ("sub", f"({{a}} - {{b}}) & 0x{M64:x}", f"({{a}} - {{b}}) & 0x{M32:x}", 1),
    ("imul", f"({{a}} * {{b}}) & 0x{M64:x}", f"({{a}} * {{b}}) & 0x{M32:x}", 3),
    ("and", "{a} & {b}", "{a} & {b}", 1),
    ("or", "{a} | {b}", "{a} | {b}", 1),
    ("xor", "{a} ^ {b}", "{a} ^ {b}", 1),
]:
    _bind, _em = _gp_binop(_e64, _e32)
    _register(OpcodeSpec(_name, _gp_slots(), _lat, _bind, _em, flavor="int",
                         valid_fn=_gp_valid))


def _width_mask(dst) -> int:
    return M64 if isinstance(dst, Reg64) else M32


def _bind_not(ops):
    d, mask = ops[0].index, _width_mask(ops[0])

    def step(state):
        gp = state.gp
        gp[d] = (gp[d] & mask) ^ mask
    return step


def _em_not(ctx, ops):
    dst = ops[0]
    d = ctx.gp(dst.index)
    mask = M64 if isinstance(dst, Reg64) else M32
    ctx.set_gp(dst.index, f"({d} ^ 0x{mask:x}) & 0x{mask:x}")


_register(OpcodeSpec("not", (slot(Kind.R64, Kind.R32, write=True),),
                     1, _bind_not, _em_not, flavor="int"))


def _bind_neg(ops):
    d, mask = ops[0].index, _width_mask(ops[0])

    def step(state):
        gp = state.gp
        gp[d] = -(gp[d] & mask) & mask
    return step


def _em_neg(ctx, ops):
    dst = ops[0]
    d = ctx.gp(dst.index)
    mask = M64 if isinstance(dst, Reg64) else M32
    ctx.set_gp(dst.index, f"(-{d}) & 0x{mask:x}")


_register(OpcodeSpec("neg", (slot(Kind.R64, Kind.R32, write=True),),
                     1, _bind_neg, _em_neg, flavor="int"))


def _shift(kind: str):
    def bind(ops):
        imm, dst = ops
        d, mask = dst.index, _width_mask(dst)
        width = mask.bit_length()
        n = imm.value & (width - 1)
        if kind == "shl":
            def step(state):
                gp = state.gp
                gp[d] = ((gp[d] & mask) << n) & mask
        elif kind == "shr":
            def step(state):
                gp = state.gp
                gp[d] = (gp[d] & mask) >> n
        else:  # sar: shift the two's-complement value
            top, wrap = width - 1, 1 << width

            def step(state):
                gp = state.gp
                a = gp[d] & mask
                gp[d] = ((a - wrap if a >> top else a) >> n) & mask
        return step

    def em(ctx, ops):
        imm, dst = ops
        d = ctx.gp(dst.index)
        if isinstance(dst, Reg64):
            n, mask, width = imm.value & 63, M64, 64
        else:
            n, mask, width = imm.value & 31, M32, 32
        a = d if isinstance(dst, Reg64) else f"({d} & 0x{M32:x})"
        if kind == "shl":
            ctx.set_gp(dst.index, f"({a} << {n}) & 0x{mask:x}")
        elif kind == "shr":
            ctx.set_gp(dst.index, f"{a} >> {n}")
        else:
            t = ctx.temp()
            ctx.emit(f"{t} = {a}")
            ctx.set_gp(
                dst.index,
                f"(({t} - (({t} >> {width - 1}) << {width})) >> {n})"
                f" & 0x{mask:x}",
            )

    return bind, em


for _name in ("shl", "shr", "sar"):
    _bind, _em = _shift(_name)
    _register(OpcodeSpec(_name, (slot(Kind.IMM), slot(Kind.R64, Kind.R32, write=True)),
                         1, _bind, _em, flavor="int"))


# ---------------------------------------------------------------------------
# comparisons, flags, and conditional moves


def _gp_flags(flags_fn):
    """Binder for ``cmp``/``test``: ``flags_fn(a, b, width)`` -> flags."""

    def bind(ops):
        b_op, a_op = ops  # AT&T: cmp b, a  sets flags from a - b
        a, mask = a_op.index, _width_mask(a_op)
        width = mask.bit_length()
        read = (reader64 if width == 64 else reader32)(b_op)

        def step(state):
            flags = state.flags
            (flags["zf"], flags["cf"], flags["sf"], flags["of"],
             flags["pf"]) = flags_fn(state.gp[a] & mask, read(state), width)
        return step

    return bind


def _em_cmp(ctx, ops):
    b_op, a_op = ops
    if isinstance(a_op, Reg64):
        a, b, w = ctx.gp(a_op.index), ctx.src_bits64(b_op), 64
    else:
        a, b, w = f"({ctx.gp(a_op.index)} & 0x{M32:x})", ctx.src_bits32(b_op), 32
    ctx.emit(f"fz, fc, fs, fo, fp = cmp_flags({a}, {b}, {w})")


_register(OpcodeSpec(
    "cmp",
    (slot(Kind.R64, Kind.R32, Kind.IMM, Kind.M64, Kind.M32),
     slot(Kind.R64, Kind.R32)),
    1, _gp_flags(scalar.cmp_flags), _em_cmp, flavor="cmp", valid_fn=_gp_valid,
    writes_flags=True))


def _em_test(ctx, ops):
    b_op, a_op = ops
    if isinstance(a_op, Reg64):
        a, b, w = ctx.gp(a_op.index), ctx.src_bits64(b_op), 64
    else:
        a, b, w = f"({ctx.gp(a_op.index)} & 0x{M32:x})", ctx.src_bits32(b_op), 32
    ctx.emit(f"fz, fc, fs, fo, fp = test_flags({a}, {b}, {w})")


_register(OpcodeSpec(
    "test",
    (slot(Kind.R64, Kind.R32, Kind.IMM), slot(Kind.R64, Kind.R32)),
    1, _gp_flags(scalar.test_flags), _em_test, flavor="cmp", valid_fn=_gp_valid,
    writes_flags=True))


def _ucomi(fn, reader, mask):
    """Binder for ``ucomisd``/``ucomiss``: ZF/PF/CF, SF = OF = 0."""

    def bind(ops):
        read, a = reader(ops[0]), ops[1].index

        def step(state):
            flags = state.flags
            zf, pf, cf = fn(state.xmm_lo[a] & mask, read(state))
            (flags["zf"], flags["cf"], flags["sf"], flags["of"],
             flags["pf"]) = zf, cf, 0, 0, pf
        return step

    return bind


def _em_ucomisd(ctx, ops):
    s = ctx.src_f64(ops[0])
    d = ctx.f64(ops[1].index)
    ctx.emit(f"fz, fp, fc = ucomi_dd({d}, {s})")
    ctx.emit("fs = fo = 0")


_register(OpcodeSpec("ucomisd", (slot(*XMM_M64), slot(Kind.XMM)),
                     2, _ucomi(scalar.ucomi_d, reader64, M64), _em_ucomisd,
                     flavor="cmp", writes_flags=True))


def _em_ucomiss(ctx, ops):
    s = ctx.src_f32(ops[0])
    d = ctx.f32(ops[1].index, 0)
    ctx.emit(f"fz, fp, fc = ucomi_dd({d}, {s})")
    ctx.emit("fs = fo = 0")


_register(OpcodeSpec("ucomiss", (slot(*XMM_M32), slot(Kind.XMM)),
                     2, _ucomi(scalar.ucomi_f, reader32, M32), _em_ucomiss,
                     flavor="cmp", writes_flags=True))


_CONDITIONS = {
    "e": ("flags['zf']", "fz"),
    "ne": ("not flags['zf']", "not fz"),
    "b": ("flags['cf']", "fc"),
    "be": ("flags['cf'] or flags['zf']", "(fc or fz)"),
    "a": ("not (flags['cf'] or flags['zf'])", "not (fc or fz)"),
    "ae": ("not flags['cf']", "not fc"),
    "s": ("flags['sf']", "fs"),
    "ns": ("not flags['sf']", "not fs"),
    "l": ("flags['sf'] != flags['of']", "fs != fo"),
    "ge": ("flags['sf'] == flags['of']", "fs == fo"),
    "le": ("flags['sf'] != flags['of'] or flags['zf']", "(fs != fo or fz)"),
    "g": ("not (flags['sf'] != flags['of'] or flags['zf'])",
          "not (fs != fo or fz)"),
}


def _cmov(cc: str):
    cond_state, cond_jit = _CONDITIONS[cc]
    cond_fn = eval(f"lambda flags: {cond_state}")  # noqa: S307

    def bind(ops):
        src, dst = ops
        d = dst.index
        if isinstance(dst, Reg64):
            read = reader64(src)

            def step(state):
                if cond_fn(state.flags):
                    state.gp[d] = read(state)
        else:
            read = reader32(src)

            def step(state):
                # x86-64: a 32-bit cmov zero-extends even when not taken.
                gp = state.gp
                gp[d] = read(state) if cond_fn(state.flags) else gp[d] & M32
        return step

    def em(ctx, ops):
        src, dst = ops
        d = ctx.gp(dst.index)
        if isinstance(dst, Reg64):
            ctx.set_gp(dst.index,
                       f"{ctx.src_bits64(src)} if {cond_jit} else {d}")
        else:
            ctx.set_gp(dst.index,
                       f"{ctx.src_bits32(src)} if {cond_jit} "
                       f"else ({d} & 0x{M32:x})")

    return bind, em


for _cc in _CONDITIONS:
    _bind, _em = _cmov(_cc)
    _register(OpcodeSpec(
        f"cmov{_cc}",
        (slot(Kind.R64, Kind.R32, Kind.M64, Kind.M32),
         slot(Kind.R64, Kind.R32, write=True)),
        1, _bind, _em, flavor="int", valid_fn=_gp_valid, reads_flags=True))


# ---------------------------------------------------------------------------
# conversions


def _bind_cvtsd2ss(ops):
    read, d, fn = reader64(ops[0]), ops[1].index, scalar.cvtsd2ss

    def step(state):
        lo = state.xmm_lo
        lo[d] = (lo[d] & HI32) | fn(read(state))
    return step


def _em_cvtsd2ss(ctx, ops):
    s = ctx.src_f64(ops[0])
    ctx.set_lane(ops[1].index, 0, f"cvtsd2ss_f({s})")


_register(OpcodeSpec("cvtsd2ss", (slot(*XMM_M64), slot(Kind.XMM, write=True)),
                     4, _bind_cvtsd2ss, _em_cvtsd2ss))


def _bind_cvtss2sd(ops):
    read, d, fn = reader32(ops[0]), ops[1].index, scalar.cvtss2sd

    def step(state):
        state.xmm_lo[d] = fn(read(state))
    return step


def _em_cvtss2sd(ctx, ops):
    # A widened single already *is* the exact double value (NaNs take
    # the canonicalizing helper path, matching the emulator).
    ctx.set_f64(ops[1].index, f"cvtss2sd_f({ctx.src_f32(ops[0])})")


_register(OpcodeSpec("cvtss2sd", (slot(*XMM_M32), slot(Kind.XMM, write=True)),
                     2, _bind_cvtss2sd, _em_cvtss2sd))


def _to_int(reader, fn64, fn32=None):
    """Binder for an FP -> GP conversion ``dst = fn(src)``, with ``fn``
    picked by the destination width; the helpers return results already
    truncated to that width."""

    def bind(ops):
        read, d = reader(ops[0]), ops[1].index
        fn = fn64 if isinstance(ops[1], Reg64) else fn32

        def step(state):
            state.gp[d] = fn(read(state))
        return step

    return bind


def _em_cvttsd2si(ctx, ops):
    s = ctx.src_f64(ops[0])
    dst = ops[1]
    helper = "cvttsd2si64_f" if isinstance(dst, Reg64) else "cvttsd2si32_f"
    ctx.set_gp(dst.index, f"{helper}({s})")


_register(OpcodeSpec("cvttsd2si",
                     (slot(*XMM_M64), slot(Kind.R64, Kind.R32, read=False, write=True)),
                     4, _to_int(reader64, scalar.cvttsd2si64, scalar.cvttsd2si32),
                     _em_cvttsd2si))


def _em_cvtsd2si(ctx, ops):
    ctx.set_gp(ops[1].index, f"cvtsd2si64_f({ctx.src_f64(ops[0])})")


_register(OpcodeSpec("cvtsd2si",
                     (slot(*XMM_M64), slot(Kind.R64, read=False, write=True)),
                     4, _to_int(reader64, scalar.cvtsd2si64), _em_cvtsd2si))


def _cvttss2si64(bits: int) -> int:
    return scalar.cvttsd2si64(scalar.cvtss2sd(bits))


def _em_cvttss2si(ctx, ops):
    s = ctx.src_f32(ops[0])
    dst = ops[1]
    helper = "cvttsd2si64_f" if isinstance(dst, Reg64) else "cvttsd2si32_f"
    ctx.set_gp(dst.index, f"{helper}({s})")


_register(OpcodeSpec("cvttss2si",
                     (slot(*XMM_M32), slot(Kind.R64, Kind.R32, read=False, write=True)),
                     4, _to_int(reader32, _cvttss2si64, scalar.cvttss2si32),
                     _em_cvttss2si))


def _int_source(src, fn64, fn32):
    """(reader, helper) for an integer source of either width."""
    if isinstance(src, Reg64) or (isinstance(src, Mem) and src.size == 8):
        return reader64(src), fn64
    return reader32(src), fn32


def _bind_cvtsi2sd(ops):
    read, fn = _int_source(ops[0], scalar.cvtsi2sd64, scalar.cvtsi2sd32)
    d = ops[1].index

    def step(state):
        state.xmm_lo[d] = fn(read(state))
    return step


def _em_cvtsi2sd(ctx, ops):
    src = ops[0]
    wide = isinstance(src, Reg64) or (isinstance(src, Mem) and src.size == 8)
    if wide:
        ctx.set_f64(ops[1].index, f"float(sint64({ctx.src_bits64(src)}))")
    else:
        ctx.set_f64(ops[1].index, f"float(sint32({ctx.src_bits32(src)}))")


_register(OpcodeSpec(
    "cvtsi2sd",
    # Memory sources are 64-bit only: AT&T text cannot distinguish the
    # 32/64-bit memory forms without a size suffix.
    (slot(Kind.R64, Kind.R32, Kind.M64), slot(Kind.XMM, write=True)),
    4, _bind_cvtsi2sd, _em_cvtsi2sd))


def _bind_cvtsi2ss(ops):
    read, fn = _int_source(ops[0], scalar.cvtsi2ss64, scalar.cvtsi2ss32)
    d = ops[1].index

    def step(state):
        value = fn(read(state))
        lo = state.xmm_lo
        lo[d] = (lo[d] & HI32) | value
    return step


def _em_cvtsi2ss(ctx, ops):
    src = ops[0]
    wide = isinstance(src, Reg64) or (isinstance(src, Mem) and src.size == 8)
    if wide:
        expr = f"f32_from_i64({ctx.src_bits64(src)})"
    else:
        expr = f"f32_from_i32({ctx.src_bits32(src)})"
    ctx.set_lane(ops[1].index, 0, expr)


_register(OpcodeSpec(
    "cvtsi2ss",
    (slot(Kind.R64, Kind.R32, Kind.M64), slot(Kind.XMM, write=True)),
    4, _bind_cvtsi2ss, _em_cvtsi2ss))


def _bind_cvtps2pd(ops):
    # Widen the two low singles of src into two doubles.
    read, d, fn = reader64(ops[0]), ops[1].index, scalar.cvtss2sd

    def step(state):
        lanes = read(state)
        state.xmm_lo[d] = fn(lanes & M32)
        state.xmm_hi[d] = fn((lanes >> 32) & M32)
    return step


def _em_cvtps2pd(ctx, ops):
    src = ops[0]
    if isinstance(src, Mem):
        t = ctx.temp()
        ctx.emit(f"{t} = mem.load8({ctx.addr(src)})")
        lane0 = f"u2f32({t} & 0x{M32:x})"
        lane1 = f"u2f32({t} >> 32)"
    else:
        lane0 = ctx.f32(src.index, 0)
        lane1 = ctx.f32(src.index, 1)
    d = ops[1].index
    tl = ctx.temp()
    ctx.emit(f"{tl} = cvtss2sd_f({lane0})")  # snapshot: src may alias dst
    th = ctx.temp()
    ctx.emit(f"{th} = cvtss2sd_f({lane1})")
    ctx.set_f64(d, tl, part="l")
    ctx.set_f64(d, th, part="h")


_register(OpcodeSpec(
    "cvtps2pd", (slot(*XMM_M64), slot(Kind.XMM, read=False, write=True)),
    2, _bind_cvtps2pd, _em_cvtps2pd, partial_dst=False))


def _bind_cvtpd2ps(ops):
    # Narrow both doubles of src into the two low singles; upper zeroed.
    read, d, fn = reader128(ops[0]), ops[1].index, scalar.cvtsd2ss

    def step(state):
        slo, shi = read(state)
        state.xmm_lo[d] = fn(slo) | (fn(shi) << 32)
        state.xmm_hi[d] = 0
    return step


def _em_cvtpd2ps(ctx, ops):
    src = ops[0]
    if isinstance(src, Mem):
        base = ctx.temp()
        ctx.emit(f"{base} = {ctx.addr(src)}")
        lo = f"u2d(mem.load8({base}))"
        hi = f"u2d(mem.load8({base} + 8))"
    else:
        lo = ctx.f64(src.index, "l")
        hi = ctx.f64(src.index, "h")
    d = ops[1].index
    tl, th = ctx.temp(), ctx.temp()
    ctx.emit(f"{tl} = cvtsd2ss_f({lo})")
    ctx.emit(f"{th} = cvtsd2ss_f({hi})")
    ctx.set_lanes(d, tl, th, part="l")
    ctx.set_bits(d, "0", part="h")


_register(OpcodeSpec(
    "cvtpd2ps", (slot(*XMM_M128), slot(Kind.XMM, read=False, write=True)),
    4, _bind_cvtpd2ps, _em_cvtpd2ps, partial_dst=False))


def _bind_roundsd(ops):
    mode, read, d = ops[0].value & 3, reader64(ops[1]), ops[2].index
    u2d, d2u_c, roundsd_f = scalar.u2d, scalar.d2u_c, scalar.roundsd_f

    def step(state):
        state.xmm_lo[d] = d2u_c(roundsd_f(u2d(read(state)), mode))
    return step


def _em_roundsd(ctx, ops):
    imm = ops[0].value & 3
    s = ctx.src_f64(ops[1])
    ctx.set_f64(ops[2].index, f"roundsd_f({s}, {imm})")


_register(OpcodeSpec(
    "roundsd",
    (slot(Kind.IMM), slot(*XMM_M64), slot(Kind.XMM, write=True)),
    6, _bind_roundsd, _em_roundsd))


def _bind_shufpd(ops):
    imm, read, d = ops[0].value, reader128(ops[1]), ops[2].index
    # dst.lo <- dst[lo_from]; dst.hi <- src[hi_from] (0 = lo, 1 = hi).
    lo_from, hi_from = imm & 1, (imm >> 1) & 1

    def step(state):
        src = read(state)
        lo, hi = state.xmm_lo, state.xmm_hi
        lo[d], hi[d] = (lo[d], hi[d])[lo_from], src[hi_from]
    return step


def _em_shufpd(ctx, ops):
    imm = ops[0].value
    slo, shi = ctx.src128_bits(ops[1])
    d = ops[2].index
    dlo, dhi = ctx.bits(d, "l"), ctx.bits(d, "h")
    tl, th = ctx.temp(), ctx.temp()
    ctx.emit(f"{tl} = {dhi if imm & 1 else dlo}")
    ctx.emit(f"{th} = {shi if imm & 2 else slo}")
    ctx.set_bits(d, tl, part="l")
    ctx.set_bits(d, th, part="h")


_register(OpcodeSpec(
    "shufpd",
    (slot(Kind.IMM), slot(*XMM_M128), slot(Kind.XMM, write=True)),
    1, _bind_shufpd, _em_shufpd, partial_dst=False))


def _bind_haddpd(ops):
    # dst = [dst.lo + dst.hi, src.lo + src.hi]
    read, d, add = reader128(ops[0]), ops[1].index, scalar.add_d

    def step(state):
        slo, shi = read(state)
        lo, hi = state.xmm_lo, state.xmm_hi
        lo[d], hi[d] = add(lo[d], hi[d]), add(slo, shi)
    return step


def _em_haddpd(ctx, ops):
    slo, shi = ctx.src_f64_halves(ops[0])
    d = ops[1].index
    dlo, dhi = ctx.f64(d, "l"), ctx.f64(d, "h")
    t = ctx.temp()
    ctx.emit(f"{t} = {dlo} + {dhi}")
    ctx.set_f64(d, f"{slo} + {shi}", part="h")
    ctx.set_f64(d, t, part="l")


_register(OpcodeSpec(
    "haddpd", (slot(*XMM_M128), slot(Kind.XMM, write=True)),
    5, _bind_haddpd, _em_haddpd, partial_dst=False))


def _pair_sum(quad: int) -> int:
    return scalar.add_f(quad & M32, (quad >> 32) & M32)


def _bind_haddps(ops):
    # dst lanes = [d0+d1, d2+d3, s0+s1, s2+s3]
    read, d = reader128(ops[0]), ops[1].index

    def step(state):
        slo, shi = read(state)
        lo, hi = state.xmm_lo, state.xmm_hi
        lo[d], hi[d] = (_pair_sum(lo[d]) | (_pair_sum(hi[d]) << 32),
                        _pair_sum(slo) | (_pair_sum(shi) << 32))
    return step


def _em_haddps(ctx, ops):
    src = ctx.src_f32_lanes(ops[0])
    d = ops[1].index
    dst = [ctx.f32(d, lane) for lane in range(4)]
    temps = [ctx.temp() for _ in range(4)]
    ctx.emit(f"{temps[0]} = f32r({dst[0]} + {dst[1]})")
    ctx.emit(f"{temps[1]} = f32r({dst[2]} + {dst[3]})")
    ctx.emit(f"{temps[2]} = f32r({src[0]} + {src[1]})")
    ctx.emit(f"{temps[3]} = f32r({src[2]} + {src[3]})")
    ctx.set_lanes(d, temps[0], temps[1], part="l")
    ctx.set_lanes(d, temps[2], temps[3], part="h")


_register(OpcodeSpec(
    "haddps", (slot(*XMM_M128), slot(Kind.XMM, write=True)),
    5, _bind_haddps, _em_haddps, partial_dst=False))


# SSE compare predicates (CMPSD/CMPPD imm8): mask of all-ones on true.
_CMP_PREDICATES = {
    0: lambda a, b: a == b,                       # eq (ordered)
    1: lambda a, b: a < b,                        # lt
    2: lambda a, b: a <= b,                       # le
    3: lambda a, b: a != a or b != b,             # unord
    4: lambda a, b: not (a == b),                 # neq (unordered counts)
    5: lambda a, b: not (a < b),                  # nlt
    6: lambda a, b: not (a <= b),                 # nle
    7: lambda a, b: a == a and b == b,            # ord
}


def _bind_cmpsd(ops):
    pred = _CMP_PREDICATES[ops[0].value & 7]
    read, d, u2d = reader64(ops[1]), ops[2].index, scalar.u2d

    def step(state):
        src = u2d(read(state))
        lo = state.xmm_lo
        lo[d] = M64 if pred(u2d(lo[d]), src) else 0
    return step


def _em_cmpsd(ctx, ops):
    pred = ops[0].value & 7
    # Evaluated up front: the unord/ord predicates short-circuit, and a
    # memory source must be loaded (and fault) whatever the destination.
    s = ctx.temp()
    ctx.emit(f"{s} = {ctx.src_f64(ops[1])}")
    d = ctx.f64(ops[2].index)
    exprs = {
        0: f"{d} == {s}",
        1: f"{d} < {s}",
        2: f"{d} <= {s}",
        3: f"({d} != {d} or {s} != {s})",
        4: f"not ({d} == {s})",
        5: f"not ({d} < {s})",
        6: f"not ({d} <= {s})",
        7: f"({d} == {d} and {s} == {s})",
    }
    ctx.set_bits(ops[2].index,
                 f"0x{M64:x} if {exprs[pred]} else 0", part="l")


_register(OpcodeSpec(
    "cmpsd",
    (slot(Kind.IMM), slot(*XMM_M64), slot(Kind.XMM, write=True)),
    3, _bind_cmpsd, _em_cmpsd))


def _bind_movlhps(ops):
    # dst.hi = src.lo; dst.lo unchanged.
    s, d = ops[0].index, ops[1].index

    def step(state):
        state.xmm_hi[d] = state.xmm_lo[s]
    return step


def _em_movlhps(ctx, ops):
    src, dst = ops
    ctx.copy_half(dst.index, "h", src.index, "l")


_register(OpcodeSpec(
    "movlhps", (slot(Kind.XMM), slot(Kind.XMM, write=True)),
    1, _bind_movlhps, _em_movlhps, flavor="move"))


def _bind_movhlps(ops):
    # dst.lo = src.hi; dst.hi unchanged.
    s, d = ops[0].index, ops[1].index

    def step(state):
        state.xmm_lo[d] = state.xmm_hi[s]
    return step


def _em_movhlps(ctx, ops):
    src, dst = ops
    ctx.copy_half(dst.index, "l", src.index, "h")


_register(OpcodeSpec(
    "movhlps", (slot(Kind.XMM), slot(Kind.XMM, write=True)),
    1, _bind_movhlps, _em_movhlps, flavor="move"))


# ---------------------------------------------------------------------------
# nop (the UNUSED token)


def _nop_step(state):
    pass


def _bind_nop(ops):
    return _nop_step


def _em_nop(ctx, ops):
    pass


_register(OpcodeSpec("nop", (), 0, _bind_nop, _em_nop, flavor="nop",
                     partial_dst=False))


def instruction_latency(name: str, ops: Tuple[Operand, ...]) -> int:
    """Latency model: table latency plus a memory penalty for accesses.

    ``lea`` is exempt: it computes an address without touching memory.
    """
    spec = spec_of(name)
    if name != "lea" and any(isinstance(op, Mem) for op in ops):
        return spec.latency + MEM_EXTRA_LATENCY
    return spec.latency
