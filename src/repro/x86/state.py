"""Machine state for the x86-64 subset.

Sixteen 64-bit GP registers, sixteen 128-bit XMM registers (held as a
low/high pair of 64-bit unsigned ints), the five status flags the subset's
``cmp``/``test``/``ucomis*`` instructions define, and a sandboxed
:class:`~repro.x86.memory.Memory`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.x86.memory import Memory
from repro.x86.operands import Imm, Mem, Operand, Reg32, Reg64, Xmm
from repro.x86.scalar import MASK32, MASK64


class MachineState:
    """Full architectural state operated on by the evaluators."""

    __slots__ = ("gp", "xmm_lo", "xmm_hi", "flags", "mem")

    def __init__(self, mem: Optional[Memory] = None):
        self.gp = [0] * 16
        self.xmm_lo = [0] * 16
        self.xmm_hi = [0] * 16
        self.flags = {"zf": 0, "cf": 0, "sf": 0, "of": 0, "pf": 0}
        self.mem = mem if mem is not None else Memory()

    def copy(self) -> "MachineState":
        fresh = MachineState(self.mem.copy())
        fresh.gp = list(self.gp)
        fresh.xmm_lo = list(self.xmm_lo)
        fresh.xmm_hi = list(self.xmm_hi)
        fresh.flags = dict(self.flags)
        return fresh

    def snapshot(self) -> tuple:
        """Capture register/flag/writable-memory values for `restore`.

        Together with :meth:`restore` this lets one state serve many
        executions (the evaluator's state pool) without the allocation
        cost of :meth:`copy` per run.
        """
        return (tuple(self.gp), tuple(self.xmm_lo), tuple(self.xmm_hi),
                dict(self.flags), self.mem.snapshot_writable())

    def restore(self, snapshot: tuple) -> None:
        """Reset this state in place to a previously taken `snapshot`."""
        gp, xmm_lo, xmm_hi, flags, mem_snapshot = snapshot
        self.gp[:] = gp
        self.xmm_lo[:] = xmm_lo
        self.xmm_hi[:] = xmm_hi
        self.flags.update(flags)
        self.mem.restore_writable(mem_snapshot)

    def restore_slots(self, snapshot: tuple, gp_indices, xl_indices,
                      xh_indices, mem: bool) -> None:
        """Reset only the named slots to their `snapshot` values.

        The fast path of the state pool: when the exact write set of the
        executions since the last reset is known (the JIT records it per
        compiled program), everything else is untouched by construction
        and does not need to be rewritten.  Flags are never restored here
        — the JIT keeps them in locals and never writes ``state.flags``.
        """
        gp, xmm_lo, xmm_hi, _flags, mem_snapshot = snapshot
        own_gp = self.gp
        for index in gp_indices:
            own_gp[index] = gp[index]
        own_lo = self.xmm_lo
        for index in xl_indices:
            own_lo[index] = xmm_lo[index]
        own_hi = self.xmm_hi
        for index in xh_indices:
            own_hi[index] = xmm_hi[index]
        if mem:
            self.mem.restore_writable(mem_snapshot)


# ---------------------------------------------------------------------------
# bind-time operand accessors
#
# The emulator binds each instruction once into a step (see
# :mod:`repro.x86.opcodes`).  These factories resolve an operand's kind,
# register index, immediate or addressing form at bind time and return a
# closure over those values alone: the closure reads the state it is
# given at call time, so one bound step serves every test state (and the
# vector backend's lane fallback, which swaps ``state.mem`` per lane).

Reader = Callable[[MachineState], int]


def addr_fn(op: Mem) -> Reader:
    """Effective address of a memory operand."""
    base, disp = op.base, op.disp
    if op.index is None:
        def addr(state):
            return (state.gp[base] + disp) & MASK64
    else:
        index, scale = op.index, op.scale

        def addr(state):
            gp = state.gp
            return (gp[base] + gp[index] * scale + disp) & MASK64
    return addr


def reader64(op: Operand) -> Reader:
    """Read a 64-bit source value (xmm low quad for XMM operands)."""
    if isinstance(op, Xmm):
        i = op.index
        return lambda state: state.xmm_lo[i]
    if isinstance(op, Reg64):
        i = op.index
        return lambda state: state.gp[i]
    if isinstance(op, Imm):
        value = op.value & MASK64
        return lambda state: value
    if isinstance(op, Mem):
        addr = addr_fn(op)
        return lambda state: state.mem.load8(addr(state))
    raise TypeError(f"cannot read 64 bits from {op!r}")


def reader32(op: Operand) -> Reader:
    """Read a 32-bit source value (xmm low dword for XMM operands)."""
    if isinstance(op, Xmm):
        i = op.index
        return lambda state: state.xmm_lo[i] & MASK32
    if isinstance(op, (Reg32, Reg64)):
        i = op.index
        return lambda state: state.gp[i] & MASK32
    if isinstance(op, Imm):
        value = op.value & MASK32
        return lambda state: value
    if isinstance(op, Mem):
        addr = addr_fn(op)
        return lambda state: state.mem.load4(addr(state))
    raise TypeError(f"cannot read 32 bits from {op!r}")


def reader128(op: Operand) -> Callable[[MachineState], tuple]:
    """Read a 128-bit source as a (lo, hi) pair."""
    if isinstance(op, Xmm):
        i = op.index
        return lambda state: (state.xmm_lo[i], state.xmm_hi[i])
    if isinstance(op, Mem):
        addr = addr_fn(op)
        return lambda state: state.mem.load16(addr(state))
    raise TypeError(f"cannot read 128 bits from {op!r}")


def writer(op: Operand) -> Callable[[MachineState, int], None]:
    """Write a GP register or memory destination.

    32-bit register writes zero-extend into the full register (the
    x86-64 rule); memory stores are as wide as the operand.
    """
    if isinstance(op, Reg64):
        i = op.index

        def write(state, value):
            state.gp[i] = value & MASK64
    elif isinstance(op, Reg32):
        i = op.index

        def write(state, value):
            state.gp[i] = value & MASK32
    elif isinstance(op, Mem) and op.size == 8:
        addr = addr_fn(op)

        def write(state, value):
            state.mem.store8(addr(state), value)
    elif isinstance(op, Mem) and op.size == 4:
        addr = addr_fn(op)

        def write(state, value):
            state.mem.store4(addr(state), value)
    else:
        raise TypeError(f"cannot write an integer to {op!r}")
    return write
