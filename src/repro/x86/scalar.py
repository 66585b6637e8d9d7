"""Bit-exact scalar semantics shared by the emulator and the JIT.

Every floating-point helper operates on raw bit patterns (Python ints) so
both evaluator backends stay in a single canonical value domain.  Python
``float`` arithmetic is IEEE-754 double with round-to-nearest-even, which
makes double-precision operations exact reinterpretations; the helpers add
the x86 behaviours Python hides (non-trapping division by zero, NaN
propagation in min/max, conversion saturation).

Single-precision add/sub/mul are computed exactly in double and rounded
once (exact because 24-bit significands fit losslessly in 53 bits);
division and square root, where double rounding could differ from true
single rounding, go through ``numpy.float32``.

NaN policy (shared by both backends, checked by the differential fuzz):
*arithmetic* NaN results — including min/max selections, roundsd, and
FP-format conversions of NaN — are canonicalized (0x7FF8... / 0x7FC0...),
because which payload host arithmetic propagates is compiler-codegen
dependent; *data moves* preserve payloads bit-exactly, with NaN
widening/narrowing done by hand so even signaling payloads round-trip
through the JIT's float domain.
"""

from __future__ import annotations

import math
import struct

import numpy as np

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<Q")
_PACK_F = struct.Struct("<f")
_PACK_I = struct.Struct("<I")
# Bound once: the double-precision helpers below are the emulator's hot
# path, and the conversions are most of their cost.  The two-operand
# forms reinterpret both arguments in one struct round trip.
_pack_d, _unpack_d = _PACK_D.pack, _PACK_D.unpack
_pack_q, _unpack_q = _PACK_Q.pack, _PACK_Q.unpack
_pack_qq = struct.Struct("<QQ").pack
_unpack_dd = struct.Struct("<dd").unpack

MASK64 = 0xFFFFFFFFFFFFFFFF
MASK32 = 0xFFFFFFFF
INT64_MIN_BITS = 0x8000000000000000
INT32_MIN_BITS = 0x80000000

_NAN_BITS = 0x7FF8000000000000
_NAN_BITS32 = 0x7FC00000

_HAS_FMA = hasattr(math, "fma")


def u2d(bits: int) -> float:
    """Reinterpret a 64-bit pattern as a double."""
    return _unpack_d(_pack_q(bits & MASK64))[0]


def d2u_c(value: float) -> int:
    """Reinterpret a double as bits, canonicalizing NaN payloads.

    Arithmetic NaN results are canonicalized in this system (which NaN
    payload host arithmetic propagates is compiler-codegen-dependent, so
    exposing it would make the two backends diverge); this is the
    materialization used for values produced by arithmetic.  Pure data
    moves use :func:`d2u` and stay bit-exact.
    """
    if value != value:
        return _NAN_BITS
    return _unpack_q(_pack_d(value))[0]


def d2u(value: float) -> int:
    """Reinterpret a double as a 64-bit pattern."""
    return _unpack_q(_pack_d(value))[0]


def u2f(bits: int) -> float:
    """Reinterpret a 32-bit pattern as a single, widened exactly.

    NaN patterns are widened by hand (payload shifted into the double's
    fraction top bits, per IEEE) instead of via a C float cast, which
    would quieten signaling NaNs — keeping the float domain a lossless
    carrier for *every* 32-bit pattern, so the emulator and the JIT agree
    bit-for-bit even on sNaN payloads.
    """
    bits &= MASK32
    if (bits & 0x7F800000) == 0x7F800000 and bits & 0x007FFFFF:
        sign = (bits >> 31) & 1
        frac = bits & 0x007FFFFF
        return u2d((sign << 63) | 0x7FF0000000000000 | (frac << 29))
    return _PACK_F.unpack(_PACK_I.pack(bits))[0]


def f2u(value: float) -> int:
    """Round a double to single precision; return the 32-bit pattern.

    The exact inverse of :func:`u2f` on NaNs (payload narrowed by hand;
    a payload that would vanish keeps the quiet bit so the result stays
    a NaN).
    """
    if value != value:  # NaN
        bits64 = d2u(value)
        sign = bits64 >> 63
        frac = (bits64 & 0x000FFFFFFFFFFFFF) >> 29
        if frac == 0:
            frac = 0x00400000
        return (sign << 31) | 0x7F800000 | frac
    try:
        return _PACK_I.unpack(_PACK_F.pack(value))[0]
    except OverflowError:
        return 0xFF800000 if value < 0 else 0x7F800000


# ---------------------------------------------------------------------------
# double-precision arithmetic on bit patterns


def add_d(a: int, b: int) -> int:
    x, y = _unpack_dd(_pack_qq(a & MASK64, b & MASK64))
    r = x + y
    return _NAN_BITS if r != r else _unpack_q(_pack_d(r))[0]


def sub_d(a: int, b: int) -> int:
    x, y = _unpack_dd(_pack_qq(a & MASK64, b & MASK64))
    r = x - y
    return _NAN_BITS if r != r else _unpack_q(_pack_d(r))[0]


def mul_d(a: int, b: int) -> int:
    x, y = _unpack_dd(_pack_qq(a & MASK64, b & MASK64))
    r = x * y
    return _NAN_BITS if r != r else _unpack_q(_pack_d(r))[0]


def div_d(a: int, b: int) -> int:
    x, y = u2d(a), u2d(b)
    if x != x or y != y:
        return _NAN_BITS
    if y == 0.0:
        if x == 0.0 or math.isnan(x):
            return _NAN_BITS
        sign = math.copysign(1.0, x) * math.copysign(1.0, y)
        return d2u(math.copysign(math.inf, sign))
    return d2u_c(x / y)


def min_d(dst: int, src: int) -> int:
    """x86 MINSD ordering (returns src on ties/NaN); NaN canonicalized."""
    x, y = u2d(dst), u2d(src)
    result = dst if x < y else src
    return _NAN_BITS if u2d(result) != u2d(result) else result


def max_d(dst: int, src: int) -> int:
    """x86 MAXSD ordering (returns src on ties/NaN); NaN canonicalized."""
    x, y = u2d(dst), u2d(src)
    result = dst if x > y else src
    return _NAN_BITS if u2d(result) != u2d(result) else result


def sqrt_d(a: int) -> int:
    x = u2d(a)
    if math.isnan(x):
        return _NAN_BITS
    if x < 0.0:
        return _NAN_BITS if x != 0.0 else a  # sqrt(-0.0) = -0.0
    if math.isinf(x):
        return a
    return d2u(math.sqrt(x))


_TWO53 = 1 << 53


def _round_scaled_int(m: int, e: int) -> float:
    """Round ``m * 2**e`` (m > 0, exact) to the nearest double, ties even."""
    bl = m.bit_length()
    msb_exp = bl + e - 1
    if msb_exp >= -1022:
        drop = bl - 53
    else:
        drop = -1074 - e  # denormal target: fewer significand bits
    if drop > 0:
        rem = m & ((1 << drop) - 1)
        half = 1 << (drop - 1)
        m >>= drop
        e += drop
        if rem > half or (rem == half and m & 1):
            m += 1
    try:
        return math.ldexp(float(m), e)
    except OverflowError:
        return math.inf


def fma_d(a: int, b: int, c: int) -> int:
    """Fused multiply-add ``a*b + c`` with a single rounding.

    Uses ``math.fma`` when the host Python provides it; otherwise an
    exact integer-arithmetic softfloat path (the 106-bit product and the
    addend are aligned and summed as Python ints, then rounded once).
    """
    x, y, z = u2d(a), u2d(b), u2d(c)
    if _HAS_FMA:
        try:
            return d2u_c(math.fma(x, y, z))
        except ValueError:  # invalid operation, e.g. inf*0 + NaN
            return _NAN_BITS
    if math.isnan(x) or math.isnan(y) or math.isnan(z):
        return _NAN_BITS
    if math.isinf(x) or math.isinf(y):
        product = x * y
        if math.isnan(product):
            return _NAN_BITS
        if math.isinf(z) and (z > 0) != (product > 0):
            return _NAN_BITS
        return d2u(product)
    if math.isinf(z):
        return d2u(z)
    if x == 0.0 or y == 0.0:
        # The product is a (signed) exact zero; one rounding in the add.
        return d2u(x * y + z)

    mx, ex = math.frexp(x)
    my, ey = math.frexp(y)
    prod_m = int(mx * _TWO53) * int(my * _TWO53)
    prod_e = ex + ey - 106
    if z == 0.0:
        m, e = prod_m, prod_e
    else:
        mz, ez = math.frexp(z)
        add_m = int(mz * _TWO53)
        add_e = ez - 53
        if prod_e >= add_e:
            m = (prod_m << (prod_e - add_e)) + add_m
            e = add_e
        else:
            m = prod_m + (add_m << (add_e - prod_e))
            e = prod_e
    if m == 0:
        # Exact cancellation yields +0 in round-to-nearest.
        return d2u(0.0)
    if m < 0:
        return d2u(-_round_scaled_int(-m, e))
    return d2u(_round_scaled_int(m, e))


def fnma_d(a: int, b: int, c: int) -> int:
    """Fused negative multiply-add ``-(a*b) + c``."""
    return fma_d(d2u(-u2d(a)), b, c)


def fms_d(a: int, b: int, c: int) -> int:
    """Fused multiply-subtract ``a*b - c``."""
    return fma_d(a, b, d2u(-u2d(c)))


# ---------------------------------------------------------------------------
# single-precision arithmetic on 32-bit patterns


def f2u_c(value: float) -> int:
    """Single-precision counterpart of :func:`d2u_c`."""
    if value != value:
        return _NAN_BITS32
    return f2u(value)


def add_f(a: int, b: int) -> int:
    return f2u_c(u2f(a) + u2f(b))


def sub_f(a: int, b: int) -> int:
    return f2u_c(u2f(a) - u2f(b))


def mul_f(a: int, b: int) -> int:
    return f2u_c(u2f(a) * u2f(b))


def div_f(a: int, b: int) -> int:
    x, y = u2f(a), u2f(b)
    if x != x or y != y:
        return _NAN_BITS32
    if y == 0.0:
        if x == 0.0 or math.isnan(x):
            return _NAN_BITS32
        sign = math.copysign(1.0, x) * math.copysign(1.0, y)
        return f2u(math.copysign(math.inf, sign))
    with np.errstate(all="ignore"):
        return f2u_c(float(np.float32(x) / np.float32(y)))


def min_f(dst: int, src: int) -> int:
    x, y = u2f(dst), u2f(src)
    result = dst if x < y else src
    return _NAN_BITS32 if u2f(result) != u2f(result) else result


def max_f(dst: int, src: int) -> int:
    x, y = u2f(dst), u2f(src)
    result = dst if x > y else src
    return _NAN_BITS32 if u2f(result) != u2f(result) else result


def sqrt_f(a: int) -> int:
    x = u2f(a)
    if math.isnan(x):
        return _NAN_BITS32
    if x < 0.0:
        return _NAN_BITS32 if x != 0.0 else a
    if math.isinf(x):
        return a
    with np.errstate(all="ignore"):
        return f2u(float(np.sqrt(np.float32(x))))


def fma_f(a: int, b: int, c: int) -> int:
    """Single-precision fused multiply-add with one rounding."""
    return f2u(u2d(fma_d(d2u(u2f(a)), d2u(u2f(b)), d2u(u2f(c)))))


# ---------------------------------------------------------------------------
# conversions


def cvtsd2ss(a: int) -> int:
    """Double (64-bit pattern) to single (32-bit pattern); NaN canonical."""
    return f2u_c(u2d(a))


def cvtss2sd(a: int) -> int:
    """Single to double, exact for non-NaN; NaN canonicalized."""
    return d2u_c(u2f(a))


def cvtsd2ss_f(x: float) -> float:
    """Float-domain CVTSD2SS (used by the JIT); NaN canonical."""
    if x != x:
        return u2f(_NAN_BITS32)
    return f32r(x)


def cvtss2sd_f(x: float) -> float:
    """Float-domain CVTSS2SD (used by the JIT); NaN canonical."""
    if x != x:
        return u2d(_NAN_BITS)
    return x


def cvttsd2si64(a: int) -> int:
    """Truncating double -> int64; saturates to the x86 sentinel."""
    x = u2d(a)
    if math.isnan(x) or math.isinf(x):
        return INT64_MIN_BITS
    t = math.trunc(x)
    if not -(1 << 63) <= t < (1 << 63):
        return INT64_MIN_BITS
    return t & MASK64


def cvttsd2si32(a: int) -> int:
    x = u2d(a)
    if math.isnan(x) or math.isinf(x):
        return INT32_MIN_BITS
    t = math.trunc(x)
    if not -(1 << 31) <= t < (1 << 31):
        return INT32_MIN_BITS
    return t & MASK32


def cvtsd2si64(a: int) -> int:
    """Round-to-nearest-even double -> int64 (CVTSD2SI)."""
    x = u2d(a)
    if math.isnan(x) or math.isinf(x):
        return INT64_MIN_BITS
    t = _round_half_even(x)
    if not -(1 << 63) <= t < (1 << 63):
        return INT64_MIN_BITS
    return t & MASK64


def cvttss2si32(a: int) -> int:
    x = u2f(a)
    if math.isnan(x) or math.isinf(x):
        return INT32_MIN_BITS
    t = math.trunc(x)
    if not -(1 << 31) <= t < (1 << 31):
        return INT32_MIN_BITS
    return t & MASK32


def cvtsi2sd64(a: int) -> int:
    """Signed int64 -> double."""
    v = a - (1 << 64) if a & INT64_MIN_BITS else a
    return d2u(float(v))


def cvtsi2sd32(a: int) -> int:
    v = (a & MASK32) - (1 << 32) if a & INT32_MIN_BITS else a & MASK32
    return d2u(float(v))


def cvtsi2ss64(a: int) -> int:
    v = a - (1 << 64) if a & INT64_MIN_BITS else a
    return f2u(float(np.float32(v)))


def cvtsi2ss32(a: int) -> int:
    v = (a & MASK32) - (1 << 32) if a & INT32_MIN_BITS else a & MASK32
    return f2u(float(np.float32(v)))


def _round_half_even(x: float) -> int:
    """Round a finite double to the nearest integer, ties to even."""
    floor = math.floor(x)
    frac = x - floor
    if frac > 0.5:
        return floor + 1
    if frac < 0.5:
        return floor
    return floor + (floor & 1)


# ---------------------------------------------------------------------------
# float-domain helpers used by the representation-tracking JIT
#
# The JIT keeps values in Python-float form across instructions whenever
# the dataflow allows, so the common arithmetic ops compile to native
# float operators.  These helpers cover the cases that need IEEE fix-ups
# (division by zero, NaN rules) or rounding to single precision, operating
# directly on floats.


def f32r(x: float) -> float:
    """Round an *arithmetic result* to single precision, widened.

    NaN results are canonicalized (see :func:`d2u_c`'s rationale); f32r
    is only applied to arithmetic outputs, never to data moves.
    """
    if x != x:
        return u2f(_NAN_BITS32)
    try:
        return _PACK_F.unpack(_PACK_F.pack(x))[0]
    except OverflowError:
        return math.copysign(math.inf, x)


def u2f32(bits: int) -> float:
    """Reinterpret a 32-bit pattern as a single, widened (alias of u2f)."""
    return u2f(bits)


def div_dd(x: float, y: float) -> float:
    if x != x or y != y:
        return math.nan
    if y == 0.0:
        if x == 0.0 or math.isnan(x):
            return math.nan
        return math.copysign(math.inf, math.copysign(1.0, x)
                             * math.copysign(1.0, y))
    result = x / y
    return math.nan if result != result else result


def min_dd(dst: float, src: float) -> float:
    result = dst if dst < src else src
    return math.nan if result != result else result


def max_dd(dst: float, src: float) -> float:
    result = dst if dst > src else src
    return math.nan if result != result else result


def sqrt_dd(x: float) -> float:
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return math.nan
    if math.isinf(x):
        return x
    if x == 0.0:
        return x  # preserves -0.0
    return math.sqrt(x)


def fma_ddd(x: float, y: float, z: float) -> float:
    return u2d(fma_d(d2u(x), d2u(y), d2u(z)))


def div_ff(x: float, y: float) -> float:
    """Single-precision division on widened singles; NaN canonical."""
    if x != x or y != y:
        return u2f(_NAN_BITS32)
    if y == 0.0:
        if x == 0.0 or math.isnan(x):
            return math.nan
        return math.copysign(math.inf, math.copysign(1.0, x)
                             * math.copysign(1.0, y))
    with np.errstate(all="ignore"):
        result = float(np.float32(x) / np.float32(y))
    return u2f(_NAN_BITS32) if result != result else result


def sqrt_ff(x: float) -> float:
    if math.isnan(x) or x < 0.0:
        return math.nan if x != 0.0 else x
    if math.isinf(x):
        return x
    with np.errstate(all="ignore"):
        return float(np.sqrt(np.float32(x)))


def fma_fff(x: float, y: float, z: float) -> float:
    return u2f(fma_f(f2u(x), f2u(y), f2u(z)))


def ucomi_dd(x: float, y: float) -> tuple:
    """UCOMISD flags on float-domain operands."""
    if math.isnan(x) or math.isnan(y):
        return 1, 1, 1
    if x > y:
        return 0, 0, 0
    if x < y:
        return 0, 0, 1
    return 1, 0, 0


def cvttsd2si64_f(x: float) -> int:
    if math.isnan(x) or math.isinf(x):
        return INT64_MIN_BITS
    t = math.trunc(x)
    if not -(1 << 63) <= t < (1 << 63):
        return INT64_MIN_BITS
    return t & MASK64


def cvttsd2si32_f(x: float) -> int:
    if math.isnan(x) or math.isinf(x):
        return INT32_MIN_BITS
    t = math.trunc(x)
    if not -(1 << 31) <= t < (1 << 31):
        return INT32_MIN_BITS
    return t & MASK32


def cvtsd2si64_f(x: float) -> int:
    if math.isnan(x) or math.isinf(x):
        return INT64_MIN_BITS
    t = _round_half_even(x)
    if not -(1 << 63) <= t < (1 << 63):
        return INT64_MIN_BITS
    return t & MASK64


def sint64(bits: int) -> int:
    """Signed value of a 64-bit pattern."""
    return bits - (1 << 64) if bits & INT64_MIN_BITS else bits


def sint32(bits: int) -> int:
    b = bits & MASK32
    return b - (1 << 32) if b & INT32_MIN_BITS else b


def f32_from_i64(bits: int) -> float:
    """CVTSI2SS: signed 64-bit integer to single, widened."""
    return float(np.float32(sint64(bits)))


def f32_from_i32(bits: int) -> float:
    return float(np.float32(sint32(bits)))


def roundsd_f(x: float, mode: int) -> float:
    """ROUNDSD on a float-domain value: 0 nearest-even, 1 floor, 2 ceil,
    3 truncate; zero results keep x's sign; NaN canonicalized."""
    if math.isnan(x):
        return math.nan
    if math.isinf(x):
        return x
    if mode == 0:
        result = float(_round_half_even(x))
    elif mode == 1:
        result = float(math.floor(x))
    elif mode == 2:
        result = float(math.ceil(x))
    else:
        result = float(math.trunc(x))
    if result == 0.0:
        return math.copysign(result, x)
    return result


# ---------------------------------------------------------------------------
# comparisons and flags


def ucomi_d(dst: int, src: int) -> tuple:
    """UCOMISD flag results ``(zf, pf, cf)`` comparing dst against src."""
    x, y = u2d(dst), u2d(src)
    if math.isnan(x) or math.isnan(y):
        return 1, 1, 1
    if x > y:
        return 0, 0, 0
    if x < y:
        return 0, 0, 1
    return 1, 0, 0


def ucomi_f(dst: int, src: int) -> tuple:
    x, y = u2f(dst), u2f(src)
    if math.isnan(x) or math.isnan(y):
        return 1, 1, 1
    if x > y:
        return 0, 0, 0
    if x < y:
        return 0, 0, 1
    return 1, 0, 0


def parity(value: int) -> int:
    """x86 PF: 1 if the low byte has an even number of set bits."""
    return 1 - (bin(value & 0xFF).count("1") & 1)


def cmp_flags(a: int, b: int, width: int) -> tuple:
    """Flags ``(zf, cf, sf, of, pf)`` for ``cmp b, a`` semantics (a - b).

    ``a`` and ``b`` are unsigned patterns of ``width`` bits.
    """
    mask = (1 << width) - 1
    sign_bit = 1 << (width - 1)
    a &= mask
    b &= mask
    t = (a - b) & mask
    zf = 1 if t == 0 else 0
    cf = 1 if a < b else 0
    sf = 1 if t & sign_bit else 0
    of = 1 if ((a ^ b) & (a ^ t)) & sign_bit else 0
    return zf, cf, sf, of, parity(t)


def test_flags(a: int, b: int, width: int) -> tuple:
    """Flags for ``test``: logical AND, CF = OF = 0."""
    mask = (1 << width) - 1
    t = a & b & mask
    sign_bit = 1 << (width - 1)
    return (1 if t == 0 else 0, 0, 1 if t & sign_bit else 0, 0, parity(t))


# ---------------------------------------------------------------------------
# packed-single lane helpers (two 32-bit lanes per 64-bit half)


def ps_map(fn, a: int, b: int) -> int:
    """Apply a 32-bit lane operation across both lanes of a 64-bit half."""
    lo = fn(a & MASK32, b & MASK32)
    hi = fn((a >> 32) & MASK32, (b >> 32) & MASK32)
    return (hi << 32) | lo


def add_ps64(a: int, b: int) -> int:
    return ps_map(add_f, a, b)


def sub_ps64(a: int, b: int) -> int:
    return ps_map(sub_f, a, b)


def mul_ps64(a: int, b: int) -> int:
    return ps_map(mul_f, a, b)


def div_ps64(a: int, b: int) -> int:
    return ps_map(div_f, a, b)
