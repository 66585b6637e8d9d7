"""Differential tests for split execution with ``run_batch_from``.

Running a program's prefix ``[0, start)`` and then resuming the same
states with ``run_batch_from(start)`` must be observationally identical
to one full run: same registers, same memory, same signals — on every
backend and at every split point the suffix can resume from.
``run_batch_from`` is the entry point the validator's block path
executes through (``Runner.execute_batch_from``).
"""

import pytest

from repro.x86.assembler import assemble
from repro.x86.jit import compile_program
from repro.x86.program import Program

from repro.core.runner import Runner

from tests.conftest import base_testcase, random_program

BACKENDS = ("jit", "emulator", "vector")

# A 12-instruction kernel with register arithmetic, a flags-producing
# compare + conditional move, and stores/loads through the scratch
# segment — every state component a split run must carry across.
KERNEL = assemble("""
    movq $2.0d, xmm1
    mulsd xmm1, xmm0
    movsd xmm0, 8(rbx)
    ucomisd xmm1, xmm0
    cmovae rax, rcx
    addsd 8(rbx), xmm0
    movapd xmm0, xmm2
    mulsd xmm2, xmm2
    movq $0.5d, xmm3
    mulsd xmm3, xmm2
    subsd xmm1, xmm2
    addsd xmm2, xmm0
""", total_slots=16)

LIVE_OUTS = ("xmm0",)


def kernel_tests(count, seed=5):
    return [base_testcase(seed + i) for i in range(count)]


def flags_live_in(program):
    """``out[i]`` is True when some instruction at ``>= i`` reads the
    status flags before any instruction writes them.  A split there is
    not resumable: the compiled backends keep flags in locals and never
    write them back to the state."""
    slots = program.slots
    out = [False] * (len(slots) + 1)
    live = False
    for i in range(len(slots) - 1, -1, -1):
        spec = slots[i].spec
        if spec.reads_flags:
            live = True
        elif spec.writes_flags:
            live = False
        out[i] = live
    return out


def run_split(runner, program, states, boundary):
    """Run ``[0, boundary)`` as its own program, then resume the states
    that survived it at ``boundary``; per-state signals."""
    head = runner.execute_batch_from(
        runner.prepare(Program(program.slots[:boundary])), states, 0)
    alive = [i for i, sig in enumerate(head) if sig is None]
    tail = runner.execute_batch_from(
        runner.prepare(program), [states[i] for i in alive], boundary)
    signals = list(head)
    for i, sig in zip(alive, tail):
        signals[i] = sig
    return signals


def outcomes(runner, states, signals):
    return [(None, sig) if sig is not None
            else (runner.values_of(state), None)
            for state, sig in zip(states, signals)]


class TestSuffixEntryPoints:
    """prefix run + run_batch_from == full execution, every backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", range(6))
    def test_prefix_plus_suffix_equals_full_run(self, backend, seed):
        program = random_program(seed, 12)
        flags = flags_live_in(program)
        runner = Runner(LIVE_OUTS, backend=backend)
        prepared = runner.prepare(program)
        for tc in kernel_tests(3, seed=40 + seed):
            full = tc.build_state()
            (full_signal,) = runner.execute_batch_from(prepared, [full], 0)
            for boundary in range(1, 12):
                if flags[boundary]:
                    continue  # not a resumable split point
                state = tc.build_state()
                (signal,) = run_split(runner, program, [state], boundary)
                if full_signal is not None:
                    # Straight-line code: a fault in either piece must
                    # reproduce the full run's signal.
                    assert signal == full_signal
                    continue
                assert signal is None
                assert state.gp == full.gp
                assert state.xmm_lo == full.xmm_lo
                assert state.xmm_hi == full.xmm_hi
                assert [img for _seg, img in
                        state.mem.snapshot_writable()] == \
                    [img for _seg, img in full.mem.snapshot_writable()]

    def test_run_batch_from_zero_is_run_batch(self):
        prepared = compile_program(KERNEL)
        tests = kernel_tests(6)
        a = [tc.build_state() for tc in tests]
        b = [tc.build_state() for tc in tests]
        assert prepared.run_batch_from(0, a) == prepared.run_batch(b)
        assert [s.gp for s in a] == [s.gp for s in b]
        assert [s.xmm_lo for s in a] == [s.xmm_lo for s in b]


class TestVectorCheckpointComposition:
    """Resuming a vectorized batch from a mid-program boundary must equal
    full vector execution and equal both scalar backends, bit for bit."""

    def _full_reference(self, backend, program, tests):
        runner = Runner(LIVE_OUTS, backend=backend)
        return runner.run_batch(runner.prepare(program), tests)

    def test_vector_resume_equals_full_across_backends(self):
        tests = kernel_tests(8, seed=61)
        refs = [self._full_reference(b, KERNEL, tests)
                for b in ("jit", "emulator", "vector")]
        assert refs[0] == refs[1] == refs[2]
        runner = Runner(LIVE_OUTS, backend="vector")
        flags = flags_live_in(KERNEL)
        resumed = 0
        for boundary in range(1, 12):
            if flags[boundary]:
                continue
            states = [tc.build_state() for tc in tests]
            signals = run_split(runner, KERNEL, states, boundary)
            assert outcomes(runner, states, signals) == refs[0], \
                f"boundary {boundary}"
            resumed += 1
        assert resumed > 0

    def test_vector_resume_with_mid_program_faulting_lane(self):
        from repro.x86.signals import Signal

        # Slot 6 (inside the suffix for boundary 4) loads through rax;
        # one lane carries a wild pointer and must fault there, after
        # the resume point, while the other lanes complete.
        lines = ["addsd xmm0, xmm0"] * 12
        lines[6] = "movsd (rax), xmm3"
        program = assemble("\n".join(lines))
        good = [base_testcase(i).replace("rax", 0x4000) for i in range(3)]
        bad = base_testcase(7).replace("rax", 0xDEAD0000)
        tests = [good[0], bad, good[1], good[2]]
        refs = [self._full_reference(b, program, tests)
                for b in ("jit", "emulator", "vector")]
        assert refs[0] == refs[1] == refs[2]
        assert refs[0][1] == (None, Signal.SIGSEGV)
        runner = Runner(LIVE_OUTS, backend="vector")
        boundary = 4
        assert not flags_live_in(program)[boundary]
        states = [tc.build_state() for tc in tests]
        head = runner.execute_batch_from(
            runner.prepare(Program(program.slots[:boundary])), states, 0)
        assert head == [None] * len(tests)  # the fault is in the suffix
        signals = runner.execute_batch_from(
            runner.prepare(program), states, boundary)
        assert outcomes(runner, states, signals) == refs[0]
