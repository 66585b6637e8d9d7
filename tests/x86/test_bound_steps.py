"""Per-opcode differential test of the emulator's bound steps.

Every opcode's ``bind_fn`` resolves its operands once and returns a step;
this suite checks each step against the JIT for every operand-kind shape
the opcode accepts (xmm, reg64, reg32, imm and each memory width),
including register aliasing, NaN payloads in both precisions, stores to
read-only memory and accesses to unmapped memory.  Random whole programs
(``test_differential.py``) can miss rare forms; this enumerates them.

Flags are JIT-internal, so they are compared through cmov probes:
flag writers are followed by probes that copy ZF, CF, SF and SF!=OF into
spare registers, and flag readers are preceded by a ``cmp`` that sets
the flags from the random state.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from repro.x86.emulator import Emulator
from repro.x86.instruction import UNUSED, Instruction
from repro.x86.jit import compile_program
from repro.x86.memory import Memory, Segment
from repro.x86.opcodes import OPCODES
from repro.x86.operands import Imm, Kind, Mem, Reg32, Reg64, Xmm
from repro.x86.program import Program
from repro.x86.state import MachineState

RW_BASE, RO_BASE, UNMAPPED = 0x4000, 0x5000, 0x90000
SEGMENT_BYTES = 64
BASE_REG, INDEX_REG = 7, 6  # rdi, rsi: never data operands here
PROBE_ONE = 12  # r12 holds 1; the probes copy it into r8..r11
PROBES = [Instruction(f"cmov{cc}", (Reg64(PROBE_ONE), Reg64(8 + i)))
          for i, cc in enumerate(("e", "b", "s", "l"))]
FLAG_SETTER = Instruction("cmp", (Reg64(2), Reg64(1)))  # flags of rcx - rdx

INSTANCES_PER_SHAPE = 4
STATES_PER_INSTANCE = 24

_F64 = [0, 1 << 63, 0x3FF0000000000000, 0xBFF8000000000000,
        0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
        0x7FF8000000000123, 0xFFF4000000000001, 0x7FF0000000000001,
        0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF,
        0x43E0000000000000, 0xC3E0000000000000, 0x41E0000000000000]
_F32 = [0, 0x80000000, 0x3F800000, 0xBFC00000, 0x7F800000, 0xFF800000,
        0x7FC00000, 0x7FC01234, 0xFFA00001, 0x7F800001, 0x00000001,
        0x007FFFFF, 0x7F7FFFFF, 0x4F000000]
_GP = [0, 1, (1 << 64) - 1, 0x80000000, 0x7FFFFFFF, 0xFFFFFFFF,
       1 << 63, (1 << 63) - 1, 0x3FF0000000000000]
_IMMS = [0, 1, 2, 3, 5, 7, 31, 32, 52, 63, 64, 0x1B, 0x4E, 0xB1, 0xE4,
         0xFF, 0x3FF, 0x3FF0000000000000, 0x7FF8000000000001,
         0xFFFFFFFFFFFFFFFF]


def _quad(rng: random.Random) -> int:
    pick = rng.random()
    if pick < 0.35:
        return rng.getrandbits(64)
    if pick < 0.7:
        return rng.choice(_F64)
    return rng.choice(_F32) | (rng.choice(_F32) << 32)


def _gp(rng: random.Random) -> int:
    return rng.choice(_GP) if rng.random() < 0.4 else rng.getrandbits(64)


def _segment_bytes(rng: random.Random) -> bytes:
    return b"".join(_quad(rng).to_bytes(8, "little")
                    for _ in range(SEGMENT_BYTES // 8))


def _state(rng: random.Random) -> MachineState:
    state = MachineState(Memory([
        Segment("rw", RW_BASE, _segment_bytes(rng), writable=True),
        Segment("ro", RO_BASE, _segment_bytes(rng), writable=False),
    ]))
    for i in range(16):
        state.gp[i] = _gp(rng)
    for i in range(4):
        state.xmm_lo[i] = _quad(rng)
        state.xmm_hi[i] = _quad(rng)
    if rng.random() < 0.3:
        state.gp[2] = state.gp[1]  # the flag setter then sets ZF
    state.gp[BASE_REG] = rng.choice((RW_BASE, RW_BASE, RO_BASE, UNMAPPED))
    state.gp[INDEX_REG] = rng.randrange(3)
    for i in range(8, 12):
        state.gp[i] = 0
    state.gp[PROBE_ONE] = 1
    return state


def _operand(kind: Kind, rng: random.Random):
    if kind is Kind.XMM:
        return Xmm(rng.randrange(4))
    if kind is Kind.R64:
        return Reg64(rng.randrange(4))
    if kind is Kind.R32:
        return Reg32(rng.randrange(4))
    if kind is Kind.IMM:
        return Imm(rng.choice(_IMMS))
    size = {Kind.M32: 4, Kind.M64: 8, Kind.M128: 16}[kind]
    # rsi <= 2, so index * scale <= 16 and the access stays in bounds.
    disp = rng.randrange(0, SEGMENT_BYTES - size - 16 + 1, 4)
    if rng.random() < 0.5:
        return Mem(size, BASE_REG, disp)
    return Mem(size, BASE_REG, disp, index=INDEX_REG,
               scale=rng.choice((1, 2, 4, 8)))


def _shapes(spec):
    """Every operand-kind combination of the signature, in a fixed order."""
    per_slot = [sorted(sl.kinds, key=lambda k: k.value) for sl in spec.slots]
    return list(itertools.product(*per_slot))


def _accepted_instances(name, shape, rng):
    """Up to INSTANCES_PER_SHAPE accepted instructions of one shape.

    Whether a shape is valid depends only on its kinds, so a shape with
    no accepted draw is one the opcode rejects outright."""
    spec = OPCODES[name]
    found = []
    for _ in range(4 * INSTANCES_PER_SHAPE):
        ops = tuple(_operand(kind, rng) for kind in shape)
        if spec.accepts(ops):
            found.append(Instruction(name, ops))
            if len(found) == INSTANCES_PER_SHAPE:
                break
    return found


def _program(instr: Instruction) -> Program:
    slots = [instr]
    if instr.spec.reads_flags:
        slots.insert(0, FLAG_SETTER)
    if instr.spec.writes_flags:
        slots.extend(PROBES)
    return Program(slots)


def _assert_step_matches_jit(program: Program, rng: random.Random) -> None:
    compiled = compile_program(program)
    emulator = Emulator()
    for _ in range(STATES_PER_INSTANCE):
        s_emu = _state(rng)
        s_jit = s_emu.copy()
        out_emu = emulator.run(program, s_emu)
        out_jit = compiled.run(s_jit)
        text = program.to_text()
        assert out_emu.signal == out_jit.signal, text
        if out_emu.signal is not None:
            continue  # architectural state is undefined after a signal
        assert s_emu.gp == s_jit.gp, text
        assert s_emu.xmm_lo == s_jit.xmm_lo, text
        assert s_emu.xmm_hi == s_jit.xmm_hi, text
        for seg_e, seg_j in zip(s_emu.mem.segments, s_jit.mem.segments):
            assert seg_e.data == seg_j.data, text


@pytest.mark.parametrize("name", sorted(n for n in OPCODES if n != "nop"))
def test_every_accepted_shape_matches_jit(name):
    rng = random.Random(f"bound-steps:{name}")
    tested = 0
    for shape in _shapes(OPCODES[name]):
        for instr in _accepted_instances(name, shape, rng):
            _assert_step_matches_jit(_program(instr), rng)
            tested += 1
    assert tested, f"{name}: no accepted operand shape"


def test_state_generator_produces_faults():
    # The differential test compares faults only if the state generator
    # really aims memory operands at read-only and unmapped pages.
    rng = random.Random(5)
    instr = Instruction("movsd", (Xmm(0), Mem(8, BASE_REG, 8)))
    signals = set()
    for _ in range(40):
        state = _state(rng)
        signals.add(Emulator().run(Program([instr]), state).signal)
    assert len(signals) == 2  # clean runs and SIGSEGV


def test_nop_step_changes_nothing():
    rng = random.Random(0)
    state = _state(rng)
    before = state.snapshot()
    UNUSED.step(state)
    assert state.snapshot() == before
    assert Program([UNUSED, UNUSED]).steps == ()


def test_shared_instruction_binds_once(monkeypatch):
    spec = OPCODES["mulsd"]
    calls = []

    def counting_bind(ops):
        calls.append(ops)
        return spec.bind_fn(ops)

    monkeypatch.setitem(OPCODES, "mulsd",
                        dataclasses.replace(spec, bind_fn=counting_bind))
    shared = Instruction("mulsd", (Xmm(1), Xmm(0)))
    load = Instruction("movq", (Imm(0x4000000000000000), Xmm(1)))
    first = Program([load, shared, UNUSED])
    second = first.with_slot(2, Instruction("addsd", (Xmm(0), Xmm(0))))
    states = [_state(random.Random(seed)) for seed in range(3)]
    emulator = Emulator()
    emulator.run(first, states[0])
    emulator.run(second, states[1])
    emulator.run_batch(second, states[2:])
    emulator.run_batch_from(first, states[2:], 1)
    assert calls == [shared.operands]
