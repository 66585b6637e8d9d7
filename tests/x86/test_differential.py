"""Differential testing: the emulator and the JIT must agree bit-for-bit.

This is the load-bearing correctness property of the whole system: the
search's cost function runs every proposal on the emulator's bound steps,
while validation and the fixed-program consumers run the same programs
through the JIT, so a rewrite certified by one must behave identically
on the other.  ``test_bound_steps.py`` covers each opcode's every operand
shape; this file covers random whole programs.

The contract covers *every* 64-bit input pattern, including signaling-NaN
payloads: the scalar helpers widen/narrow NaNs by hand rather than via C
float casts, so the JIT's native-float value domain is a lossless carrier.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.x86.emulator import Emulator
from repro.x86.jit import compile_program

from tests.conftest import base_testcase, random_program

_EMULATOR = Emulator()


def _sanitize_testcase(tc):
    return tc  # arbitrary bit patterns are in-contract


def _run_both(program, tc):
    s_jit = tc.build_state()
    s_emu = tc.build_state()
    out_jit = compile_program(program).run(s_jit)
    out_emu = _EMULATOR.run(program, s_emu)
    return (out_jit, s_jit), (out_emu, s_emu)


def _assert_agree(program, tc):
    (out_jit, s_jit), (out_emu, s_emu) = _run_both(program, tc)
    assert out_jit.signal == out_emu.signal, program.to_text()
    if out_jit.signal is not None:
        return  # architectural state is undefined after a signal
    assert s_jit.gp == s_emu.gp, _explain(program, "gp", s_jit.gp, s_emu.gp)
    assert s_jit.xmm_lo == s_emu.xmm_lo, _explain(
        program, "xmm_lo", s_jit.xmm_lo, s_emu.xmm_lo)
    assert s_jit.xmm_hi == s_emu.xmm_hi, _explain(
        program, "xmm_hi", s_jit.xmm_hi, s_emu.xmm_hi)
    for seg_j, seg_e in zip(s_jit.mem.segments, s_emu.mem.segments):
        if seg_j.writable:
            assert seg_j.data == seg_e.data, _explain(
                program, seg_j.name, seg_j.data, seg_e.data)


def _explain(program, what, a, b):
    diffs = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    return f"{what} mismatch at {diffs}\n{program.to_text()}"


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9), length=st.integers(1, 12),
       case_seed=st.integers(0, 10**6))
def test_random_programs_agree(seed, length, case_seed):
    program = random_program(seed, length)
    tc = _sanitize_testcase(base_testcase(case_seed))
    _assert_agree(program, tc)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), case_seed=st.integers(0, 10**6))
def test_float_heavy_programs_agree(seed, case_seed):
    names = [
        "addsd", "subsd", "mulsd", "divsd", "minsd", "maxsd", "sqrtsd",
        "addss", "subss", "mulss", "divss", "sqrtss",
        "vaddsd", "vmulsd", "vfmadd213sd", "vfmadd231sd", "vfnmadd213sd",
        "addpd", "mulpd", "addps", "mulps", "cvtsd2ss", "cvtss2sd",
        "cvttsd2si", "cvtsi2sd", "movsd", "movss", "movq", "movapd",
        "unpcklpd", "unpckhpd", "punpckldq", "pshufd", "xorps", "andpd",
    ]
    program = random_program(seed, 10, opcode_names=names)
    tc = _sanitize_testcase(base_testcase(case_seed))
    _assert_agree(program, tc)


@pytest.mark.parametrize("kernel_name",
                         ["sin", "cos", "tan", "log", "exp"])
def test_libimf_kernels_agree(kernel_name):
    from repro.kernels.libimf import LIBIMF_KERNELS

    spec = LIBIMF_KERNELS[kernel_name]()
    rng = random.Random(5)
    for tc in spec.testcases(rng, 25):
        _assert_agree(spec.program, tc)


@pytest.mark.parametrize("kernel_name", ["scale", "dot", "add", "delta"])
def test_aek_kernels_agree(kernel_name):
    from repro.kernels.aek import vector as V

    spec = V.AEK_KERNELS[kernel_name]()
    rewrite = V.AEK_REWRITES[kernel_name]()
    rng = random.Random(6)
    for tc in spec.testcases(rng, 20):
        _assert_agree(spec.program, tc)
        _assert_agree(rewrite, tc)


def test_segfault_agreement():
    from repro.x86.assembler import assemble
    from repro.x86.signals import Signal

    program = assemble("movsd 4096(rax), xmm0")
    tc = base_testcase(0).replace("rax", 0xDEAD0000)
    (out_jit, _), (out_emu, _) = _run_both(program, tc)
    assert out_jit.signal == out_emu.signal == Signal.SIGSEGV
