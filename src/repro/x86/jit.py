"""JIT backend: compile a program to one straight-line Python function.

The paper's implementation replaced STOKE's x86-64 emulator with a JIT
assembler and gained two orders of magnitude in test-case throughput
(Section 5.1).  This module is the analogous substitution for our
simulator, and earns its speedup the same way a real JIT does — by
compiling values into the host's native representation:

* A :class:`Program` is translated once into Python source and
  ``exec``-compiled; the function is reused for every test case.
* The code generator performs **static representation tracking**: each
  XMM half is known, at every program point, to be held either as a raw
  bit pattern (``b``), a native Python float (``d``), or a pair of
  widened singles (``s``).  Floating-point arithmetic compiles to native
  float operators (Python floats *are* IEEE doubles), and conversions are
  emitted only at representation boundaries (bit-level instructions,
  loads/stores, materialization at the end).  Straight-line code makes
  the tracking exact — there are no joins.

Bit-exactness is preserved for every 64-bit input pattern: float objects
carry finite values, infinities, signed zeros, and NaN payloads (widened
by hand) losslessly; arithmetic NaN results are canonicalized at the
float->bits boundary exactly as the emulator's helpers canonicalize them
(see scalar.d2u_c).  A hypothesis differential test plus an 8000-program
NaN-adversarial fuzz check the two backends agree bit-for-bit.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.x86 import scalar
from repro.x86.emulator import Outcome
from repro.x86.operands import Imm, Mem, Operand, Reg32, Reg64, Xmm
from repro.x86.program import Program
from repro.x86.signals import SignalError
from repro.x86.state import MachineState

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF


def _jit_globals() -> Dict[str, object]:
    env = {
        name: getattr(scalar, name)
        for name in dir(scalar)
        if not name.startswith("_") and callable(getattr(scalar, name))
    }
    env["SignalError"] = SignalError
    env["float"] = float
    # Bound struct methods for the inline bits<->double reinterpretation
    # exprs the code generator emits on its hottest paths (u2d / d2u_c
    # semantics without the Python call frame per conversion).
    env["pack_d"] = scalar._PACK_D.pack
    env["pack_q"] = scalar._PACK_Q.pack
    env["unpack_d"] = scalar._PACK_D.unpack
    env["unpack_q"] = scalar._PACK_Q.unpack
    env["NAN_BITS"] = scalar._NAN_BITS
    env["__builtins__"] = {}
    return env


_GLOBALS = _jit_globals()


def float_literal(value: float) -> Optional[str]:
    """A source literal that reproduces ``value`` exactly, or None.

    ``repr`` round-trips all finite doubles (including -0.0 and
    denormals); infinities and NaNs have no literal form and callers fall
    back to the bits representation.
    """
    if math.isinf(value) or math.isnan(value):
        return None
    return repr(value)


class _Half:
    """Codegen-time knowledge about one XMM half."""

    __slots__ = ("valid", "dirty", "loaded")

    def __init__(self):
        self.valid: Set[str] = set()  # subset of {'b', 'd', 's'}
        self.dirty = False
        self.loaded = False


class _Ctx:
    """Representation-tracking code generation context."""

    def __init__(self):
        self.lines: List[str] = []
        self._ntemp = 0
        self.gp_loaded: Set[int] = set()
        self.gp_dirty: Set[int] = set()
        self.halves: Dict[Tuple[int, str], _Half] = {}

    # -- infrastructure ----------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def temp(self) -> str:
        name = f"t{self._ntemp}"
        self._ntemp += 1
        return name

    def _half(self, index: int, part: str) -> _Half:
        key = (index, part)
        if key not in self.halves:
            self.halves[key] = _Half()
        return self.halves[key]

    @staticmethod
    def _var(index: int, part: str, repr_tag: str, lane: int = 0) -> str:
        suffix = f"s{lane}" if repr_tag == "s" else repr_tag
        return f"x{index}{part}{suffix}"

    # -- general-purpose registers (always bit patterns) ---------------------

    def gp(self, index: int) -> str:
        if index not in self.gp_loaded:
            self.emit(f"r{index} = gp[{index}]")
            self.gp_loaded.add(index)
        return f"r{index}"

    def set_gp(self, index: int, expr: str) -> None:
        self.gp_loaded.add(index)
        self.gp_dirty.add(index)
        self.emit(f"r{index} = {expr}")

    # -- XMM halves ----------------------------------------------------------

    def _ensure_loaded(self, index: int, part: str) -> None:
        half = self._half(index, part)
        if not half.loaded:
            array = "xl" if part == "l" else "xh"
            self.emit(f"{self._var(index, part, 'b')} = {array}[{index}]")
            half.loaded = True
            half.valid = {"b"}

    def bits(self, index: int, part: str = "l") -> str:
        """The half as a raw 64-bit pattern."""
        half = self._half(index, part)
        self._ensure_loaded(index, part)
        var = self._var(index, part, "b")
        if "b" not in half.valid:
            if "d" in half.valid:
                # A d-only half holds an arithmetic result; NaN payloads
                # canonicalize at this boundary (scalar.d2u_c inlined —
                # this conversion runs once per dirty half per test).
                d = self._var(index, part, "d")
                self.emit(f"{var} = NAN_BITS if {d} != {d} "
                          f"else unpack_q(pack_d({d}))[0]")
            else:  # 's'
                s0 = self._var(index, part, "s", 0)
                s1 = self._var(index, part, "s", 1)
                self.emit(f"{var} = f2u({s0}) | (f2u({s1}) << 32)")
            half.valid.add("b")
        return var

    def f64(self, index: int, part: str = "l") -> str:
        """The half as a native float."""
        half = self._half(index, part)
        self._ensure_loaded(index, part)
        var = self._var(index, part, "d")
        if "d" not in half.valid:
            # Inline u2d: every bits var is 64-bit-masked by construction
            # (state slots and operand readers only hold masked values),
            # so the slower masking helper is not needed here.
            self.emit(f"{var} = unpack_d(pack_q({self.bits(index, part)}))[0]")
            half.valid.add("d")
        return var

    def f32(self, index: int, lane: int) -> str:
        """One 32-bit lane (0-3) as a widened single."""
        part = "l" if lane < 2 else "h"
        sub = lane % 2
        half = self._half(index, part)
        self._ensure_loaded(index, part)
        var = self._var(index, part, "s", sub)
        if "s" not in half.valid:
            bits = self.bits(index, part)
            s0 = self._var(index, part, "s", 0)
            s1 = self._var(index, part, "s", 1)
            self.emit(f"{s0} = u2f32({bits} & 0x{_M32:x})")
            self.emit(f"{s1} = u2f32({bits} >> 32)")
            half.valid.add("s")
        return var

    def _set(self, index: int, part: str, repr_tag: str) -> None:
        half = self._half(index, part)
        half.loaded = True
        half.dirty = True
        half.valid = {repr_tag}

    def set_bits(self, index: int, expr: str, part: str = "l") -> None:
        self.emit(f"{self._var(index, part, 'b')} = {expr}")
        self._set(index, part, "b")

    def set_f64(self, index: int, expr: str, part: str = "l") -> None:
        self.emit(f"{self._var(index, part, 'd')} = {expr}")
        self._set(index, part, "d")

    def set_lanes(self, index: int, expr0: str, expr1: str,
                  part: str = "l") -> None:
        """Set both 32-bit lanes of a half from widened-single exprs."""
        s0 = self._var(index, part, "s", 0)
        s1 = self._var(index, part, "s", 1)
        if expr1 == s1:
            self.emit(f"{s0} = {expr0}")
        elif expr0 == s0:
            self.emit(f"{s1} = {expr1}")
        else:
            self.emit(f"{s0}, {s1} = {expr0}, {expr1}")
        self._set(index, part, "s")

    def set_lane(self, index: int, lane: int, expr: str) -> None:
        """Set one lane, preserving the other (scalar-single writes)."""
        part = "l" if lane < 2 else "h"
        sub = lane % 2
        other = self.f32(index, lane ^ 1) if lane < 2 else \
            self.f32(index, 2 + ((lane - 2) ^ 1))
        var = self._var(index, part, "s", sub)
        self.emit(f"{var} = {expr}")
        # `other` was materialized above, so both lane vars are now valid.
        del other
        self._set(index, part, "s")

    def has_repr(self, index: int, part: str, tag: str) -> bool:
        """Whether a half currently holds a valid ``tag`` representation."""
        half = self._half(index, part)
        return half.loaded and tag in half.valid

    def copy_half(self, dst: int, dst_part: str, src: int,
                  src_part: str) -> None:
        """Copy a half, transferring whatever representation is cheap.

        Bits take priority so raw patterns (NaN payloads included) copy
        exactly; the float representations are used only when the source
        holds an arithmetic result with no bits form.
        """
        if dst == src and dst_part == src_part:
            return
        src_half = self._half(src, src_part)
        self._ensure_loaded(src, src_part)
        if "b" in src_half.valid:
            self.set_bits(dst, self._var(src, src_part, "b"), dst_part)
        elif "d" in src_half.valid:
            self.set_f64(dst, self._var(src, src_part, "d"), dst_part)
        else:
            self.set_lanes(dst, self._var(src, src_part, "s", 0),
                           self._var(src, src_part, "s", 1), dst_part)

    # -- memory ---------------------------------------------------------------

    def addr(self, op: Mem) -> str:
        expr = self.gp(op.base)
        if op.index is not None:
            expr += f" + {self.gp(op.index)}*{op.scale}"
        if op.disp:
            expr += f" + {op.disp}" if op.disp > 0 else f" - {-op.disp}"
        if op.index is not None or op.disp:
            return f"(({expr}) & 0x{_M64:x})"
        return expr

    # -- operand readers --------------------------------------------------------

    def src_bits64(self, op: Operand) -> str:
        if isinstance(op, Xmm):
            return self.bits(op.index, "l")
        if isinstance(op, Reg64):
            return self.gp(op.index)
        if isinstance(op, Imm):
            return f"0x{op.value & _M64:x}"
        if isinstance(op, Mem):
            return f"mem.load8({self.addr(op)})"
        raise TypeError(f"cannot read 64 bits from {op!r}")

    def src_bits32(self, op: Operand) -> str:
        if isinstance(op, Xmm):
            return f"({self.bits(op.index, 'l')} & 0x{_M32:x})"
        if isinstance(op, (Reg64, Reg32)):
            return f"({self.gp(op.index)} & 0x{_M32:x})"
        if isinstance(op, Imm):
            return f"0x{op.value & _M32:x}"
        if isinstance(op, Mem):
            return f"mem.load4({self.addr(op)})"
        raise TypeError(f"cannot read 32 bits from {op!r}")

    def src_f64(self, op: Operand) -> str:
        if isinstance(op, Xmm):
            return self.f64(op.index, "l")
        if isinstance(op, Imm):
            literal = float_literal(scalar.u2d(op.value & _M64))
            if literal is not None:
                return literal
            return f"u2d(0x{op.value & _M64:x})"
        if isinstance(op, Mem):
            return f"unpack_d(pack_q(mem.load8({self.addr(op)})))[0]"
        if isinstance(op, Reg64):
            return f"unpack_d(pack_q({self.gp(op.index)}))[0]"
        raise TypeError(f"cannot read a double from {op!r}")

    def src_f32(self, op: Operand) -> str:
        if isinstance(op, Xmm):
            return self.f32(op.index, 0)
        if isinstance(op, Imm):
            literal = float_literal(scalar.u2f(op.value & _M32))
            if literal is not None:
                return literal
            return f"u2f32(0x{op.value & _M32:x})"
        if isinstance(op, Mem):
            return f"u2f32(mem.load4({self.addr(op)}))"
        if isinstance(op, (Reg64, Reg32)):
            return f"u2f32({self.gp(op.index)} & 0x{_M32:x})"
        raise TypeError(f"cannot read a single from {op!r}")

    def src128_bits(self, op: Operand) -> Tuple[str, str]:
        if isinstance(op, Xmm):
            return self.bits(op.index, "l"), self.bits(op.index, "h")
        if isinstance(op, Mem):
            lo, hi = self.temp(), self.temp()
            self.emit(f"{lo}, {hi} = mem.load16({self.addr(op)})")
            return lo, hi
        raise TypeError(f"cannot read 128 bits from {op!r}")

    def src_f64_halves(self, op: Operand) -> Tuple[str, str]:
        if isinstance(op, Xmm):
            return self.f64(op.index, "l"), self.f64(op.index, "h")
        if isinstance(op, Mem):
            base = self.temp()
            self.emit(f"{base} = {self.addr(op)}")
            return (f"u2d(mem.load8({base}))",
                    f"u2d(mem.load8({base} + 8))")
        raise TypeError(f"cannot read 128 bits from {op!r}")

    def src_f32_lanes(self, op: Operand) -> Tuple[str, str, str, str]:
        if isinstance(op, Xmm):
            return tuple(self.f32(op.index, lane) for lane in range(4))
        if isinstance(op, Mem):
            base = self.temp()
            self.emit(f"{base} = {self.addr(op)}")
            return tuple(f"u2f32(mem.load4({base} + {4 * k}))"
                         if k else f"u2f32(mem.load4({base}))"
                         for k in range(4))
        raise TypeError(f"cannot read 128 bits from {op!r}")


def _codegen(program: Program, comments: bool = False
             ) -> Tuple[List[str], List[str], Tuple]:
    """Generate (body, epilogue, writes) for a program.

    The body computes every live value; the epilogue writes dirty
    registers back into the ``gp``/``xl``/``xh`` arrays.  Both the
    single-run and the batched function templates wrap these same lines.
    ``writes`` is ``(gp_indices, xmm_lo_indices, xmm_hi_indices,
    writes_mem)`` — the exact state slots an execution can mutate, which
    the state pool uses to reset only dirty slots between runs.
    """
    ctx = _Ctx()
    for instr in program.slots:
        if instr.is_unused:
            continue
        if comments:
            ctx.emit(f"# {instr}")
        instr.spec.emit_fn(ctx, instr.operands)

    epilogue: List[str] = []
    xl_written: List[int] = []
    xh_written: List[int] = []
    for index in sorted(ctx.gp_dirty):
        epilogue.append(f"gp[{index}] = r{index}")
    for (index, part), half in sorted(ctx.halves.items()):
        if half.dirty:
            # bits() may emit conversion lines; they land in ctx.lines
            # (the body) before the body is rendered below.
            body_var = ctx.bits(index, part)
            array = "xl" if part == "l" else "xh"
            (xl_written if part == "l" else xh_written).append(index)
            epilogue.append(f"{array}[{index}] = {body_var}")
    writes = (tuple(sorted(ctx.gp_dirty)), tuple(xl_written),
              tuple(xh_written),
              any("mem.store" in line for line in ctx.lines))
    return ctx.lines, epilogue, writes


# The status flags the subset's cmp/test/ucomis* instructions define;
# initialized per execution, never read back (they are JIT-internal).
_PROLOGUE = "fz = fc = fs = fo = fp = 0"


def _render_scalar(body: List[str], epilogue: List[str],
                   name: str) -> str:
    lines = [f"def {name}(gp, xl, xh, mem):", f"    {_PROLOGUE}"]
    lines += [f"    {line}" for line in body + epilogue]
    return "\n".join(lines) + "\n"


def generate_source(program: Program, name: str = "__kernel",
                    comments: bool = False) -> str:
    """Translate a program to the source of one Python function.

    ``comments=True`` annotates each instruction's statements with the
    assembly line (useful for inspection; the search leaves it off since
    comment tokens measurably slow ``compile``).
    """
    body, epilogue, _ = _codegen(program, comments=comments)
    return _render_scalar(body, epilogue, name)


def generate_batch_source(program: Program,
                          name: str = "__kernel_batch") -> str:
    """Translate a program to a function over a whole batch of states.

    The generated function runs the kernel body once per ``(gp, xl, xh,
    mem)`` view in ``batch`` inside a single compiled-function call, so a
    proposal's entire test set is dispatched without re-entering Python
    between test cases.  A signalling test records its signal in
    ``signals[i]`` and the batch carries on with the next state — one
    faulting test must not tear down the rest of the batch.
    """
    body, epilogue, _ = _codegen(program)
    lines = [
        f"def {name}(batch, signals):",
        "    __i = 0",
        "    for gp, xl, xh, mem in batch:",
        "        try:",
        f"            {_PROLOGUE}",
    ]
    lines += [f"            {line}" for line in body + epilogue]
    lines += [
        "        except SignalError as __exc:",
        "            signals[__i] = __exc.signal",
        "        __i += 1",
    ]
    return "\n".join(lines) + "\n"


# Batch dispatch is tiered like a real JIT: a program's first few
# batches run through a generic Python driver loop around the scalar
# function (no extra compilation), and the specialized one-call outer
# loop is only generated once the program has proven hot.  Compiling the
# batch source costs ~a scalar compile; a search proposal is typically
# batch-dispatched once and then discarded, so eager specialization
# would pay that compile for every surviving proposal.
_BATCH_SPECIALIZE_AFTER = 4


class CompiledProgram:
    """A program compiled to a reusable Python function."""

    __slots__ = ("program", "source", "writes", "_fn", "_batch_fn",
                 "_batch_calls")

    def __init__(self, program: Program):
        self.program = program
        body, epilogue, self.writes = _codegen(program)
        self.source = _render_scalar(body, epilogue, "__kernel")
        code = compile(self.source, "<jit>", "exec")
        env: Dict[str, object] = {}
        exec(code, _GLOBALS, env)  # noqa: S102
        self._fn = env["__kernel"]
        self._batch_fn = None
        self._batch_calls = 0

    def run(self, state: MachineState) -> Outcome:
        """Execute on a machine state in place.

        Status flags are JIT-internal and are not written back to
        ``state.flags``; they are never live-out in this system.
        """
        try:
            self._fn(state.gp, state.xmm_lo, state.xmm_hi, state.mem)
        except SignalError as exc:
            return Outcome(signal=exc.signal)
        return Outcome()

    def specialize_batch(self) -> None:
        """Compile the specialized batched entry point now.

        Normally :meth:`run_batch` tiers up on its own; benchmarks and
        tests call this to measure/exercise the steady-state path
        directly.
        """
        if self._batch_fn is None:
            code = compile(generate_batch_source(self.program),
                           "<jit-batch>", "exec")
            env: Dict[str, object] = {}
            exec(code, _GLOBALS, env)  # noqa: S102
            self._batch_fn = env["__kernel_batch"]

    def run_batch(self, states: "Sequence[MachineState]") -> List[object]:
        """Execute on every state in a single call.

        Returns a list of per-state signals (``None`` for clean runs),
        aligned with ``states``.  Each state is mutated in place exactly
        as :meth:`run` would mutate it; a signalling state is abandoned
        mid-program (architectural state undefined, as with ``run``) and
        the batch continues with the next state.

        Cold programs loop over the scalar function; once this program
        has been batch-dispatched ``_BATCH_SPECIALIZE_AFTER`` times, the
        whole test set executes inside one generated compiled-function
        call (see :func:`generate_batch_source`).
        """
        signals: List[object] = [None] * len(states)
        fn = self._batch_fn
        if fn is None:
            self._batch_calls += 1
            if self._batch_calls <= _BATCH_SPECIALIZE_AFTER:
                scalar = self._fn
                index = 0
                for state in states:
                    try:
                        scalar(state.gp, state.xmm_lo, state.xmm_hi,
                               state.mem)
                    except SignalError as exc:
                        signals[index] = exc.signal
                    index += 1
                return signals
            self.specialize_batch()
            fn = self._batch_fn
        fn([(s.gp, s.xmm_lo, s.xmm_hi, s.mem) for s in states], signals)
        return signals

    def run_batch_from(self, start: int,
                       states: "Sequence[MachineState]") -> List[object]:
        """Batched execution of slots ``[start, end)`` only, on states
        that already hold the effects of ``[0, start)``.
        ``run_batch_from(0, states)`` is exactly :meth:`run_batch`."""
        if start <= 0:
            return self.run_batch(states)
        return compile_program(
            Program(self.program.slots[start:])).run_batch(states)


# Bounded LRU over immutable program values.  Like CostFunction._cache,
# eviction is one-at-a-time from the cold end: wiping the whole cache at
# capacity used to stall the search on a compile storm right when the
# chain was deep into a long run.
_COMPILE_CACHE: "OrderedDict[Program, CompiledProgram]" = OrderedDict()
_COMPILE_CACHE_MAX = 8192
_COMPILE_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def compile_program(program: Program) -> CompiledProgram:
    """Compile a program for repeated execution (memoized).

    MCMC proposals frequently revisit recently seen programs (rejected
    perturbations of the current sample, swap/swap-back pairs), so
    compilation results are cached on the immutable program value.
    """
    cached = _COMPILE_CACHE.get(program)
    if cached is not None:
        _COMPILE_CACHE.move_to_end(program)
        _COMPILE_CACHE_STATS["hits"] += 1
        return cached
    _COMPILE_CACHE_STATS["misses"] += 1
    compiled = CompiledProgram(program)
    while len(_COMPILE_CACHE) >= _COMPILE_CACHE_MAX:
        _COMPILE_CACHE.popitem(last=False)
        _COMPILE_CACHE_STATS["evictions"] += 1
    _COMPILE_CACHE[program] = compiled
    return compiled


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters and current size of the compile cache."""
    stats = dict(_COMPILE_CACHE_STATS)
    stats["size"] = len(_COMPILE_CACHE)
    stats["max_size"] = _COMPILE_CACHE_MAX
    return stats


def clear_compile_cache() -> None:
    """Drop all cached compilations and reset the counters (test hook)."""
    _COMPILE_CACHE.clear()
    for key in _COMPILE_CACHE_STATS:
        _COMPILE_CACHE_STATS[key] = 0
