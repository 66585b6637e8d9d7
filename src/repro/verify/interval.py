"""Interval abstract interpretation with outward rounding.

A sound but coarse static analysis in the spirit of the range-based
abstract interpreters the paper compares against (Section 6.3): each
floating-point value is tracked as a closed interval with endpoints
rounded outward one ULP after every operation, and a ULP error bound
between target and rewrite is derived from the output intervals (refined
by bit-space subdivision of the input box — see
:mod:`repro.verify.bnb`).

Two lessons from the E11 unsoundness post-mortem are baked in here:

* A box's bound **sums** the per-live-out ULP distances, matching the
  validator's Equation 13 error.  The original implementation took the
  per-location *max*, which under-reported multi-output kernels by up
  to the live-out count — the actual root cause of the 3.5e9-ULP
  counterexample escaping the "sound" 1.89e9 bound.
* General-purpose registers carry a signed *integer interval* domain,
  so the libimf kernels' exponent-field bit extraction analyzes
  concretely on degenerate (point) data and as sound monotone interval
  transfers when widened; only genuinely unrepresentable GP lanes raise
  :class:`IntervalUnsupported`.  Both outcomes are counted in
  :class:`TransferStats` / :class:`IntervalBound`.

This module holds the abstract domain itself (values, machine state,
directed-rounding arithmetic) and :class:`IntervalTransfer`, which maps
a box of inputs to a bound.  The per-opcode transfer functions live in
:mod:`repro.verify.compile`, which lowers each program once into
prebound closures; each opcode's abstract semantics is written once,
there.  Their soundness oracle is the emulator's concrete semantics:
``tests/verify/test_containment.py`` runs leaf corners and interior
points on the emulator and requires every concrete live-out to lie in
the abstract output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fp.ulp import ulp_distance, ulp_distance_single
from repro.x86.locations import Loc, MemLoc
from repro.x86.memory import Memory
from repro.x86.operands import Imm, Mem, Reg32, Reg64
from repro.x86.program import Program
from repro.x86.registers import XMM_INDEX
from repro.x86.scalar import sint64, u2d, u2f

from repro.core.runner import Location, resolve_locations
from repro.verify.partition import BitBox, Dim, dims_of, full_box


class IntervalUnsupported(Exception):
    """The program is outside the interval analysis' reach."""


TOP = "top"

# Largest bit pattern of a finite positive double; patterns in
# [0, _MAX_FINITE_BITS] map monotonically to values via u2d.
_MAX_FINITE_BITS = 0x7FEFFFFFFFFFFFFF
_SIGNED64 = 1 << 63
M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF


@dataclass
class TransferStats:
    """Bit-op and timing accounting for one or more interval transfers.

    ``concrete_bit_ops`` counts integer/bit instructions evaluated
    exactly on degenerate (point) data; ``widened_bit_ops`` counts those
    handled by the sound integer-interval transfer functions instead of
    raising :class:`IntervalUnsupported`.

    Observability fields (PR 8): ``transfer_seconds`` accumulates wall
    time spent inside transfer evaluation, ``op_counts`` the number of
    transfer-closure executions per opcode, and ``op_seconds`` per-opcode
    wall time when profiling is enabled
    (``IntervalTransfer(profile=True)``).  None of these participate in
    certificate bytes.
    """

    boxes: int = 0
    concrete_bit_ops: int = 0
    widened_bit_ops: int = 0
    transfer_seconds: float = 0.0
    op_counts: Dict[str, int] = field(default_factory=dict)
    op_seconds: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "TransferStats") -> None:
        self.boxes += other.boxes
        self.concrete_bit_ops += other.concrete_bit_ops
        self.widened_bit_ops += other.widened_bit_ops
        self.transfer_seconds += other.transfer_seconds
        for op, n in other.op_counts.items():
            self.op_counts[op] = self.op_counts.get(op, 0) + n
        for op, secs in other.op_seconds.items():
            self.op_seconds[op] = self.op_seconds.get(op, 0.0) + secs


@dataclass(frozen=True)
class IntInterval:
    """A closed interval of signed mathematical integers (GP domain)."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise IntervalUnsupported(
                f"bad integer interval [{self.lo}, {self.hi}]")

    @property
    def point(self) -> bool:
        return self.lo == self.hi


class IntervalD:
    """A closed interval of doubles.

    A plain ``__slots__`` class rather than a frozen dataclass: interval
    creation is the single hottest allocation in the transfer (four to
    six per abstract instruction), and the dataclass machinery (frozen
    ``__setattr__``, ``__post_init__`` dispatch) tripled its cost.
    Value equality and the validation semantics are unchanged
    (``x != x`` is the cheap NaN test).
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if lo != lo or hi != hi or lo > hi:
            raise IntervalUnsupported(f"bad interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        return isinstance(other, IntervalD) and \
            self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"IntervalD(lo={self.lo}, hi={self.hi})"

    @classmethod
    def point(cls, x: float) -> "IntervalD":
        return cls(x, x)


def _down(x: float, _isinf=math.isinf, _next=math.nextafter,
          _ninf=-math.inf) -> float:
    return x if _isinf(x) else _next(x, _ninf)


def _up(x: float, _isinf=math.isinf, _next=math.nextafter,
        _inf=math.inf) -> float:
    return x if _isinf(x) else _next(x, _inf)


def _down32(x: float) -> float:
    f = np.float32(x)
    return float(np.nextafter(f, np.float32(-np.inf))) if np.isfinite(f) \
        else float(f)


def _up32(x: float) -> float:
    f = np.float32(x)
    return float(np.nextafter(f, np.float32(np.inf))) if np.isfinite(f) \
        else float(f)


class _Arith:
    """Directed-rounding interval arithmetic, parameterized by precision."""

    def __init__(self, single: bool):
        self.round_down = _down32 if single else _down
        self.round_up = _up32 if single else _up

    def add(self, a: IntervalD, b: IntervalD) -> IntervalD:
        return IntervalD(self.round_down(a.lo + b.lo),
                         self.round_up(a.hi + b.hi))

    def sub(self, a: IntervalD, b: IntervalD) -> IntervalD:
        return IntervalD(self.round_down(a.lo - b.hi),
                         self.round_up(a.hi - b.lo))

    def mul(self, a: IntervalD, b: IntervalD) -> IntervalD:
        # Endpoint products, unrolled — this is the hottest arithmetic
        # in the transfer and the list comprehensions it replaces
        # dominated its profile.  A NaN product (0 * inf) means a
        # concrete NaN is reachable, which no interval can hold.
        p0 = a.lo * b.lo
        p1 = a.lo * b.hi
        p2 = a.hi * b.lo
        p3 = a.hi * b.hi
        if p0 != p0 or p1 != p1 or p2 != p2 or p3 != p3:
            raise IntervalUnsupported("0 * inf in an interval product")
        return IntervalD(self.round_down(min(p0, p1, p2, p3)),
                         self.round_up(max(p0, p1, p2, p3)))

    def div(self, a: IntervalD, b: IntervalD) -> IntervalD:
        if b.lo <= 0.0 <= b.hi:
            return IntervalD(-math.inf, math.inf)
        q0 = a.lo / b.lo
        q1 = a.lo / b.hi
        q2 = a.hi / b.lo
        q3 = a.hi / b.hi
        if q0 != q0 or q1 != q1 or q2 != q2 or q3 != q3:
            raise IntervalUnsupported("inf / inf in an interval quotient")
        return IntervalD(self.round_down(min(q0, q1, q2, q3)),
                         self.round_up(max(q0, q1, q2, q3)))

    def sqrt(self, a: IntervalD) -> IntervalD:
        if a.lo < 0.0:
            raise IntervalUnsupported("sqrt of possibly-negative interval")
        return IntervalD(self.round_down(math.sqrt(a.lo)),
                         self.round_up(math.sqrt(a.hi)))

    # min/max return the source ``b`` when either operand is NaN, and
    # ``[-inf, inf]`` is the one interval that admits a NaN.

    def min(self, a: IntervalD, b: IntervalD) -> IntervalD:
        if b.lo == -math.inf and b.hi == math.inf:
            return b
        return IntervalD(min(a.lo, b.lo), min(a.hi, b.hi))

    def max(self, a: IntervalD, b: IntervalD) -> IntervalD:
        if b.lo == -math.inf and b.hi == math.inf:
            return b
        return IntervalD(max(a.lo, b.lo), max(a.hi, b.hi))


_ARITH_D = _Arith(single=False)
_ARITH_F = _Arith(single=True)

class _Half:
    """One 64-bit XMM half: a double interval, two single-lane values,
    concrete bits, or TOP.

    Instances are immutable once built (``with_lane`` returns a new
    half), so compiled transfer plans share them freely across boxes;
    ``_f64`` memoizes the bits -> point-interval decode, which is paid
    once per constant rather than once per box.
    """

    __slots__ = ("kind", "value", "_f64")

    def __init__(self, kind: str, value):
        self.kind = kind  # 'f64' | 'f32pair' | 'bits' | 'top'
        self.value = value
        self._f64 = None

    @classmethod
    def top(cls) -> "_Half":
        # Halves are immutable, so every TOP is the same object (16
        # registers x 2 halves per fresh state adds up).
        return _TOP_HALF

    @classmethod
    def bits(cls, value: int) -> "_Half":
        return cls("bits", value & 0xFFFFFFFFFFFFFFFF)

    def as_f64(self) -> Union[IntervalD, str]:
        if self.kind == "f64":
            return self.value
        if self.kind == "bits":
            cached = self._f64
            if cached is None:
                x = u2d(self.value)
                if math.isnan(x):
                    raise IntervalUnsupported("NaN constant")
                cached = self._f64 = IntervalD.point(x)
            return cached
        return TOP

    def lane(self, index: int) -> Union[IntervalD, str]:
        """Lane as a float32 interval (index 0 or 1)."""
        if self.kind == "f32pair":
            return self.value[index]
        if self.kind == "bits":
            x = u2f(self.value >> (32 * index))
            if math.isnan(x):
                raise IntervalUnsupported("NaN constant lane")
            return IntervalD.point(x)
        return TOP

    def with_lane(self, index: int, lane_value) -> "_Half":
        lanes = [self.lane(0), self.lane(1)]
        lanes[index] = lane_value
        return _Half("f32pair", tuple(lanes))


_TOP_HALF = _Half("top", None)

# Bytes covered by a recorded memory store, by kind.
_STORE_WIDTH = {"f64": 8, "f32": 4}


class _IntervalState:
    """Abstract machine state.

    GP registers hold a concrete unsigned bit pattern (``int``), a
    signed :class:`IntInterval`, or TOP; XMM registers hold
    :class:`_Half` pairs.  ``cmp`` records the operand intervals of the
    last ``ucomisd``/``ucomiss`` so conditional moves can be decided (or
    soundly joined) later.
    """

    def __init__(self, mem: Memory, concrete_gp: Dict[int, int],
                 mem_inputs: Dict[Tuple[str, int], Tuple[str, IntervalD]],
                 stats: Optional[TransferStats] = None):
        self.gp: List[Union[int, IntInterval, str]] = [TOP] * 16
        for idx, value in concrete_gp.items():
            self.gp[idx] = value
        self.xmm: List[List[_Half]] = [
            [_TOP_HALF, _TOP_HALF] for _ in range(16)
        ]
        self.mem = mem
        # (segment, offset) -> ('f32'|'f64', interval)
        self.mem_inputs = mem_inputs
        self.mem_stores: Dict[int, Tuple[str, object]] = {}
        self.stats = stats if stats is not None else TransferStats()
        # (dst_interval, src_interval) of the last ucomisd/ucomiss, or
        # None when the flags are unknown (cmp/test or program entry).
        self.cmp: Optional[Tuple[object, object]] = None

    def addr(self, m: Mem) -> int:
        base = self.gp[m.base]
        if not isinstance(base, int):
            raise IntervalUnsupported("symbolic base address")
        total = base + m.disp
        if m.index is not None:
            idx = self.gp[m.index]
            if not isinstance(idx, int):
                raise IntervalUnsupported("symbolic index register")
            total += idx * m.scale
        return total & 0xFFFFFFFFFFFFFFFF

    # GP integer-domain readers ------------------------------------------

    def gp_operand(self, operand) -> Union[int, IntInterval, str]:
        """A GP-typed source operand's abstract value (pattern domain
        for concrete values, signed intervals for widened ones)."""
        if isinstance(operand, Imm):
            return operand.value & M64
        if isinstance(operand, Reg64):
            return self.gp[operand.index]
        if isinstance(operand, Reg32):
            value = self.gp[operand.index]
            if isinstance(value, int):
                return value & M32
            raise IntervalUnsupported("widened 32-bit GP operand")
        raise IntervalUnsupported(f"GP source {operand!r}")

    def gp_signed(self, operand) -> Union[IntInterval, str]:
        """A GP source as a signed integer interval (TOP if unknown)."""
        value = self.gp_operand(operand)
        if value is TOP:
            return TOP
        if isinstance(value, IntInterval):
            return value
        width = 32 if isinstance(operand, Reg32) else 64
        if width == 32:
            signed = value - (1 << 32) if value & 0x80000000 else value
        else:
            signed = sint64(value)
        return IntInterval(signed, signed)

    def set_gp(self, operand, value: Union[int, IntInterval, str]) -> None:
        if isinstance(operand, Reg64):
            if isinstance(value, int):
                value &= M64
            self.gp[operand.index] = value
            return
        if isinstance(operand, Reg32):
            if isinstance(value, int):
                # 32-bit writes zero-extend.
                self.gp[operand.index] = value & M32
                return
            raise IntervalUnsupported("widened 32-bit GP destination")
        raise IntervalUnsupported(f"GP destination {operand!r}")

    def store(self, addr: int, kind: str, value) -> None:
        """Record an ``'f64'``/``'f32'`` store.  Stored entries it partly
        overwrites become unknown, keeping their width."""
        stores = self.mem_stores
        end = addr + _STORE_WIDTH[kind]
        for other, (other_kind, _) in list(stores.items()):
            if other != addr and other < end \
                    and addr < other + _STORE_WIDTH[other_kind]:
                stores[other] = (other_kind, TOP)
        old = stores.get(addr)
        if old is not None and _STORE_WIDTH[old[0]] > _STORE_WIDTH[kind]:
            # A single over the low half of a stored double.
            stores.setdefault(addr + 4, ("f32", TOP))
        stores[addr] = (kind, value)

    def _mem_value(self, addr: int, size: int):
        """('f64'|'f32', interval_or_TOP) or ('bits', int) at an address."""
        stores = self.mem_stores
        if addr in stores:
            return stores[addr]
        end = addr + size
        for other, (kind, _) in stores.items():
            if other < end and addr < other + _STORE_WIDTH[kind]:
                return "top", None  # partly overwritten by a store
        seg = self.mem._find(addr, size)
        off = addr - seg.base
        if not seg.writable:
            bits = int.from_bytes(seg.data[off:off + size], "little")
            return "bits", bits
        key = (seg.name, off)
        if key in self.mem_inputs:
            return self.mem_inputs[key]
        return "top", None

    def load_f64(self, addr: int) -> Union[IntervalD, str]:
        kind, value = self._mem_value(addr, 8)
        if kind == "f64":
            return value
        if kind == "bits":
            x = u2d(value)
            if math.isnan(x):
                raise IntervalUnsupported("NaN in memory")
            return IntervalD.point(x)
        return TOP

    def load_half64(self, addr: int) -> "_Half":
        """An 8-byte load as an XMM half: a double, or two stored singles."""
        if addr in self.mem_stores:
            kind, value = self.mem_stores[addr]
            if kind == "f64":
                return _Half("f64", value)
            if kind == "f32" and (addr + 4) in self.mem_stores:
                kind2, value2 = self.mem_stores[addr + 4]
                if kind2 == "f32":
                    return _Half("f32pair", (value, value2))
            raise IntervalUnsupported("mixed-width stack reload")
        kind, value = self._mem_value(addr, 8)
        if kind == "f64":
            return _Half("f64", value)
        if kind == "bits":
            return _Half.bits(value)
        # Fall back to two singles (e.g. a vector in an input segment).
        return _Half("f32pair", (self.load_f32(addr), self.load_f32(addr + 4)))

    def load_f32(self, addr: int) -> Union[IntervalD, str]:
        kind, value = self._mem_value(addr, 4)
        if kind == "f32":
            return value
        if kind == "bits":
            x = u2f(value)
            if math.isnan(x):
                raise IntervalUnsupported("NaN in memory")
            return IntervalD.point(x)
        return TOP

# --------------------------------------------------------------------------
# GP integer / bit-level helpers shared by the compiled transfers
# (repro.verify.compile) and the paired evaluator
# (repro.verify.relational.diffbound)


def _require_signed64(lo: int, hi: int) -> IntInterval:
    if lo < -_SIGNED64 or hi >= _SIGNED64:
        raise IntervalUnsupported(
            f"integer interval [{lo}, {hi}] overflows 64-bit range")
    return IntInterval(lo, hi)


def _int_and(a: IntInterval, b: IntInterval) -> IntInterval:
    """Sound AND of non-negative integer intervals.

    Exact when one side is a degenerate low-bit mask and the other stays
    within one run of the upper bits (the exponent/fraction-field
    extraction shape); the hull ``[0, min(hi, hi)]`` otherwise.
    """
    if a.lo < 0 or b.lo < 0:
        raise IntervalUnsupported("AND of signed integer intervals")
    for value, mask in ((a, b), (b, a)):
        if mask.point:
            m = mask.lo
            k = m.bit_length()
            if m == (1 << k) - 1 and (value.lo >> k) == (value.hi >> k):
                # Low-bit mask, constant upper bits: AND subtracts the
                # common prefix, so it is monotone and exact.
                return IntInterval(value.lo & m, value.hi & m)
            return IntInterval(0, m)
    return IntInterval(0, min(a.hi, b.hi))


def _int_or(a: IntInterval, b: IntInterval) -> IntInterval:
    """Sound OR of non-negative integer intervals."""
    if a.lo < 0 or b.lo < 0:
        raise IntervalUnsupported("OR of signed integer intervals")
    for value, mask in ((a, b), (b, a)):
        if mask.point:
            c = mask.lo
            low = c & -c if c else 0
            if c == 0:
                return value
            if value.hi < low:
                # Disjoint bit ranges: OR is addition, monotone, exact.
                return IntInterval(value.lo | c, value.hi | c)
    # max(a, b) <= a|b <= a + b for non-negative integers.
    return _require_signed64(max(a.lo, b.lo), a.hi + b.hi)


def _decide_cmov(cc: str, cmp: Optional[Tuple[object, object]]
                 ) -> Optional[bool]:
    """Decide a ucomisd-flag condition from the recorded operand
    intervals; None means undecided (the cmov must join)."""
    if cmp is None:
        return None
    dst, src = cmp
    if dst is TOP or src is TOP:
        return None
    lt = dst.hi < src.lo
    gt = dst.lo > src.hi
    le = dst.hi <= src.lo
    ge = dst.lo >= src.hi
    eq = dst.lo == dst.hi == src.lo == src.hi
    if cc == "b":
        return True if lt else (False if ge else None)
    if cc == "ae":
        return True if ge else (False if lt else None)
    if cc == "a":
        return True if gt else (False if le else None)
    if cc == "be":
        return True if le else (False if gt else None)
    if cc in ("e", "le"):
        # After ucomi, sf == of == 0, so 'le' degenerates to zf.
        return True if eq else (False if (lt or gt) else None)
    if cc in ("ne", "g"):
        return False if eq else (True if (lt or gt) else None)
    if cc in ("ge", "ns"):
        return True
    if cc in ("l", "s"):
        return False
    return None


def _rounded_int(x: float, rounder) -> int:
    if not math.isfinite(x):
        raise IntervalUnsupported("f64 -> int conversion of non-finite value")
    value = rounder(x)
    if not -_SIGNED64 <= value < _SIGNED64:
        raise IntervalUnsupported("f64 -> int conversion overflows")
    return value


def _round_half_even(x: float) -> int:
    floor = math.floor(x)
    diff = x - floor
    if diff > 0.5 or (diff == 0.5 and floor % 2):
        return floor + 1
    return floor


def _apply_reg_input(state: _IntervalState, loc: Loc, kind: str,
                     interval: IntervalD) -> None:
    idx = XMM_INDEX[loc.reg]
    if kind == "f64":
        state.xmm[idx][loc.lane] = _Half("f64", interval)
    else:
        half = state.xmm[idx][loc.lane // 2]
        state.xmm[idx][loc.lane // 2] = half.with_lane(loc.lane % 2,
                                                       interval)


class _StateSnapshot:
    """Copy-on-capture image of an abstract state at a step boundary.

    Used by prefix sharing: the right child of a split restores this
    snapshot (taken on the left child just before the first step that
    can depend on the split dimension), re-applies its own input
    interval for the split dimension, and runs only the suffix.
    """

    __slots__ = ("gp", "xmm", "mem_stores", "cmp")

    @classmethod
    def capture(cls, state: _IntervalState) -> "_StateSnapshot":
        snap = cls()
        snap.gp = list(state.gp)
        snap.xmm = [list(pair) for pair in state.xmm]
        snap.mem_stores = dict(state.mem_stores)
        snap.cmp = state.cmp
        return snap

    def restore(self, mem: Memory, mem_inputs,
                stats: TransferStats) -> _IntervalState:
        state = _IntervalState.__new__(_IntervalState)
        state.gp = list(self.gp)
        state.xmm = [list(pair) for pair in self.xmm]
        state.mem = mem
        state.mem_inputs = mem_inputs
        state.mem_stores = dict(self.mem_stores)
        state.stats = stats
        state.cmp = self.cmp
        return state


def _read_output(state: _IntervalState, loc: Location):
    if isinstance(loc, MemLoc):
        addr = state.mem.segment(loc.segment).base + loc.offset
        if loc.ftype == "f64":
            return state.load_f64(addr)
        return state.load_f32(addr)
    xmm = state.xmm[XMM_INDEX[loc.reg]]
    if loc.ftype == "f64":
        return xmm[loc.lane].as_f64()
    return xmm[loc.lane // 2].lane(loc.lane % 2)


def _interval_ulp_pair(loc: Location, a, b) -> float:
    """Sound max ULP distance between any u in a and v in b."""
    if a is TOP or b is TOP:
        raise IntervalUnsupported(f"live-out {loc} is unbounded (TOP)")
    dist = ulp_distance_single if loc.ftype == "f32" else ulp_distance
    return float(max(dist(a.lo, b.hi), dist(a.hi, b.lo)))


# Dimension storage keys (must match repro.verify.compile): the coarse
# memory key plus ('x', xmm_index) per register.
_MEM_KEY = "mem"

# A unit result as the BnB search absorbs it:
# (bound, per_loc_or_None, (boxes, concrete, widened), error_or_None).
UnitResult = Tuple[float, Optional[Dict[str, float]],
                   Tuple[int, int, int], Optional[str]]


def _merge_op_seconds(a: Optional[Dict[str, float]],
                      b: Optional[Dict[str, float]]
                      ) -> Optional[Dict[str, float]]:
    if not a:
        return b or None
    if not b:
        return a
    merged = dict(a)
    for op, secs in b.items():
        merged[op] = merged.get(op, 0.0) + secs
    return merged


class IntervalTransfer:
    """Box -> sound ULP-bound transfer shared by the search and checker.

    Instances hold the two programs, the live-out locations, and the
    bit-space dimensions; :meth:`analyze` maps a :class:`BitBox` to a
    bound that **sums** per-live-out ULP distances, matching the
    validator's Equation 13 error.  The branch-and-bound driver
    (:mod:`repro.verify.bnb`) and the certificate checker
    (:mod:`repro.verify.checker`) both call this class, so a bug in the
    search loop cannot silently weaken a certificate.

    Construction compiles both programs once into per-instruction
    transfer closures (:mod:`repro.verify.compile`); analyzing a box is
    then a plain loop over prebound closures (:meth:`_run`, which the
    relational domain overrides to execute a shared prefix once).
    """

    def __init__(self, target: Program, rewrite: Program,
                 live_outs: Sequence[Union[str, Location]],
                 ranges: Dict[Union[str, Location], Tuple[float, float]],
                 memory: Optional[Memory] = None,
                 concrete_gp: Optional[Dict[int, int]] = None,
                 profile: bool = False):
        from repro.verify.compile import compile_transfer

        self.target = target
        self.rewrite = rewrite
        self.live_outs = tuple(str(loc) for loc in live_outs)
        self.locations = resolve_locations(live_outs)
        self.dims: Tuple[Dim, ...] = dims_of(ranges)
        self.memory = memory if memory is not None else Memory()
        self.concrete_gp = dict(concrete_gp or {})
        self.stats = TransferStats()
        self.profile = bool(profile)
        self._plans = (compile_transfer(target, profile=self.profile),
                       compile_transfer(rewrite, profile=self.profile))
        # first step of each program that can depend on each dimension
        self._first_touch = [
            [plan.first_touch(self._dim_key(d)) for d in self.dims]
            for plan in self._plans
        ]
        self.op_histogram: Dict[str, int] = {}
        for plan in self._plans:
            for op, n in plan.histogram.items():
                self.op_histogram[op] = self.op_histogram.get(op, 0) + n

    @staticmethod
    def _dim_key(d: Dim):
        if isinstance(d.loc, MemLoc):
            return _MEM_KEY
        return ("x", XMM_INDEX[d.loc.reg])

    @property
    def root(self) -> BitBox:
        return full_box(self.dims)

    # -- input/output plumbing --------------------------------------------

    def _inputs_of(self, value_box: Sequence[Tuple[float, float]]):
        mem_inputs: Dict[Tuple[str, int], Tuple[str, IntervalD]] = {}
        reg_inputs: Dict[Loc, Tuple[str, IntervalD]] = {}
        for d, (lo, hi) in zip(self.dims, value_box):
            interval = IntervalD(min(lo, hi), max(lo, hi))
            if isinstance(d.loc, MemLoc):
                mem_inputs[(d.loc.segment, d.loc.offset)] = (d.ftype, interval)
            else:
                reg_inputs[d.loc] = (d.ftype, interval)
        return mem_inputs, reg_inputs

    def _fresh_state(self, mem_inputs, reg_inputs,
                     stats: TransferStats) -> _IntervalState:
        state = _IntervalState(self.memory, self.concrete_gp, mem_inputs,
                               stats)
        for loc, (kind, interval) in reg_inputs.items():
            _apply_reg_input(state, loc, kind, interval)
        return state

    def _run(self, mem_inputs, reg_inputs, stats: TransferStats
             ) -> Tuple[_IntervalState, _IntervalState]:
        """Final (target, rewrite) abstract states over one box."""
        states = []
        for plan in self._plans:
            state = self._fresh_state(mem_inputs, reg_inputs, stats)
            for fn in plan.steps:
                fn(state)
            states.append(state)
        return states[0], states[1]

    def _outputs(self, t_state: _IntervalState, r_state: _IntervalState,
                 inputs=None):
        """Sound (total, per-live-out) ULP bounds from two final states.

        ``inputs`` is the ``(mem_inputs, reg_inputs)`` pair the states
        were built from; the separate domain ignores it, the relational
        domain (:mod:`repro.verify.relational`) re-evaluates its paired
        expression DAGs over it.
        """
        per_loc: Dict[str, float] = {}
        total = 0.0
        for loc in self.locations:
            t_out = _read_output(t_state, loc)
            r_out = _read_output(r_state, loc)
            bound = _interval_ulp_pair(loc, t_out, r_out)
            per_loc[str(loc)] = bound
            total += bound
        return total, per_loc

    # -- analysis ----------------------------------------------------------

    def analyze(self, box: BitBox) -> Tuple[float, Dict[str, float]]:
        """Sound (bound, per-live-out bounds) over one box.

        Accumulates into :attr:`stats` on success (the checker's
        accounting contract).
        """
        t0 = time.perf_counter()
        total, per_loc, stats = self.analyze_with_stats(box)
        stats.op_counts = dict(self.op_histogram)
        stats.transfer_seconds = time.perf_counter() - t0
        self.stats.merge(stats)
        return total, per_loc

    def analyze_with_stats(
        self, box: BitBox
    ) -> Tuple[float, Dict[str, float], TransferStats]:
        """Analysis with a private stats object (no merge)."""
        stats = TransferStats(boxes=1)
        inputs = self._inputs_of(box.value_box(self.dims))
        t_state, r_state = self._run(*inputs, stats)
        total, per_loc = self._outputs(t_state, r_state, inputs)
        return total, per_loc, stats

    # -- BnB work units ----------------------------------------------------

    def analyze_unit(
        self, box: BitBox
    ) -> Tuple[UnitResult, Optional[Dict[str, float]]]:
        """One box as a BnB work unit.

        Failure is data, not control flow: an unsupported program costs
        exactly a ``(1, 0, 0)`` stats delta (partial bit-op counts of a
        failed run are dropped).
        """
        try:
            total, per_loc, stats = self.analyze_with_stats(box)
        except IntervalUnsupported as exc:
            return (math.inf, None, (1, 0, 0), str(exc)), None
        return (
            (total, per_loc,
             (stats.boxes, stats.concrete_bit_ops, stats.widened_bit_ops),
             None),
            stats.op_seconds or None,
        )

    def analyze_split(
        self, box: BitBox, dim: int, sharing: bool = True
    ) -> Tuple[UnitResult, UnitResult, Optional[Dict[str, float]]]:
        """Split ``box`` on ``dim`` and analyze both children.

        With ``sharing`` the right child restores the left child's
        abstract state captured just before the first step that can
        depend on the split dimension, swaps in its own input interval,
        and runs only the suffix; every step before that point is
        dimension-independent by construction of the touch sets, so the
        result — bound, per-location map, and stats delta — is
        bit-identical to two from-scratch analyses.
        """
        left, right = box.split(dim)
        if sharing:
            # Sharing only pays once the skipped prefix outweighs the
            # snapshot copy; below that, run both children from scratch
            # (the results are identical either way — pinned by tests —
            # so this gate is purely a performance heuristic).
            saved = sum(touch[dim] for touch in self._first_touch)
            if saved < 6:
                sharing = False
        if not sharing:
            l_res, l_secs = self.analyze_unit(left)
            r_res, r_secs = self.analyze_unit(right)
            return l_res, r_res, _merge_op_seconds(l_secs, r_secs)

        d = self.dims[dim]
        l_mem, l_reg = self._inputs_of(left.value_box(self.dims))
        r_mem, r_reg = self._inputs_of(right.value_box(self.dims))

        l_stats = TransferStats(boxes=1)
        snaps: List[Optional[Tuple[_StateSnapshot, int, int]]] = [None, None]
        states: List[Optional[_IntervalState]] = [None, None]
        l_res: Optional[UnitResult] = None
        for p, plan in enumerate(self._plans):
            k = self._first_touch[p][dim]
            state = self._fresh_state(l_mem, l_reg, l_stats)
            c0 = l_stats.concrete_bit_ops
            w0 = l_stats.widened_bit_ops
            steps = plan.steps
            try:
                for fn in steps[:k]:
                    fn(state)
                snaps[p] = (_StateSnapshot.capture(state),
                            l_stats.concrete_bit_ops - c0,
                            l_stats.widened_bit_ops - w0)
                for fn in steps[k:]:
                    fn(state)
            except IntervalUnsupported as exc:
                l_res = (math.inf, None, (1, 0, 0), str(exc))
                break
            states[p] = state
        if l_res is None:
            try:
                total, per_loc = self._outputs(states[0], states[1],
                                               (l_mem, l_reg))
                l_res = (total, per_loc,
                         (1, l_stats.concrete_bit_ops,
                          l_stats.widened_bit_ops), None)
            except IntervalUnsupported as exc:
                l_res = (math.inf, None, (1, 0, 0), str(exc))

        r_stats = TransferStats(boxes=1)
        r_value = None if isinstance(d.loc, MemLoc) else r_reg[d.loc]
        states = [None, None]
        r_res: Optional[UnitResult] = None
        for p, plan in enumerate(self._plans):
            steps = plan.steps
            try:
                snap = snaps[p]
                if snap is None:
                    # The left child failed before this program's
                    # snapshot point; run the right child from scratch.
                    state = self._fresh_state(r_mem, r_reg, r_stats)
                    for fn in steps:
                        fn(state)
                else:
                    snapshot, prefix_concrete, prefix_widened = snap
                    state = snapshot.restore(self.memory, r_mem, r_stats)
                    r_stats.concrete_bit_ops += prefix_concrete
                    r_stats.widened_bit_ops += prefix_widened
                    if r_value is not None:
                        _apply_reg_input(state, d.loc, r_value[0], r_value[1])
                    for fn in steps[self._first_touch[p][dim]:]:
                        fn(state)
            except IntervalUnsupported as exc:
                r_res = (math.inf, None, (1, 0, 0), str(exc))
                break
            states[p] = state
        if r_res is None:
            try:
                total, per_loc = self._outputs(states[0], states[1],
                                               (r_mem, r_reg))
                r_res = (total, per_loc,
                         (1, r_stats.concrete_bit_ops,
                          r_stats.widened_bit_ops), None)
            except IntervalUnsupported as exc:
                r_res = (math.inf, None, (1, 0, 0), str(exc))

        op_seconds = _merge_op_seconds(l_stats.op_seconds or None,
                                       r_stats.op_seconds or None)
        return l_res, r_res, op_seconds


@dataclass
class IntervalBound:
    """Result of the static error-bound analysis."""

    bound_ulps: float
    boxes_explored: int
    per_location: Dict[str, float]
    boxes_pruned: int = 0
    concrete_bit_ops: int = 0
    widened_bit_ops: int = 0
    complete: bool = True


def interval_ulp_bound(
    target: Program,
    rewrite: Program,
    live_outs: Sequence[Union[str, Location]],
    ranges: Dict[Union[str, Location], Tuple[float, float]],
    memory: Optional[Memory] = None,
    concrete_gp: Optional[Dict[int, int]] = None,
    max_boxes: int = 256,
) -> IntervalBound:
    """Sound ULP bound between two programs over an input box.

    Thin synchronous wrapper over the branch-and-bound verifier
    (:class:`repro.verify.bnb.BnBVerifier`): bit-space
    widest-ULP-dimension splitting, worst-box-first refinement, bound =
    max over leaf boxes of the summed per-live-out distances.
    """
    from repro.verify.bnb import BnBConfig, BnBVerifier

    verifier = BnBVerifier(target, rewrite, live_outs, ranges,
                           memory=memory, concrete_gp=concrete_gp)
    result = verifier.run(BnBConfig(max_boxes=max_boxes))
    if not result.complete and not math.isfinite(result.bound_ulps):
        # Legacy contract: an unanalyzable program raises rather than
        # returning a vacuous infinite bound.  (The BnB API itself
        # reports incompleteness through the result/certificate.)
        raise IntervalUnsupported(
            "program leaves the interval-analyzable fragment on "
            "unsplittable boxes")
    return IntervalBound(
        bound_ulps=result.bound_ulps,
        boxes_explored=result.boxes_explored,
        per_location=result.per_location,
        boxes_pruned=result.boxes_pruned,
        concrete_bit_ops=result.stats.concrete_bit_ops,
        widened_bit_ops=result.stats.widened_bit_ops,
        complete=result.complete,
    )
