"""Tests for the translate-once transfer compiler.

Dependence metadata (touch sets, first-touch indices), histograms and
profiling of :mod:`repro.verify.compile`; prefix sharing
(:meth:`IntervalTransfer.analyze_split`) must be invisible in results —
it may only save time; and opcodes outside the interval fragment fail
with a fixed message, as a per-box result.  Soundness of the transfers
against concrete execution is pinned in ``test_containment.py``.
"""

import math

import pytest

from repro.x86.assembler import assemble
from repro.x86.memory import Memory

from repro.kernels.aek import vector as V
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify.compile import MEM_KEY, compile_transfer
from repro.verify.interval import IntervalTransfer, IntervalUnsupported

REDUCED_DEGREE = {"sin": 9, "cos": 8, "tan": 9, "log": 12, "exp": 8}


def _poly_pair():
    target = assemble("""
        movq $0.1d, xmm1
        mulsd xmm0, xmm1
        addsd xmm1, xmm0
    """)
    rewrite = assemble("""
        movq $1.1d, xmm1
        mulsd xmm1, xmm0
    """)
    return target, rewrite


def _libimf_transfer(name):
    factory = LIBIMF_KERNELS[name]
    spec = factory()
    rewrite = factory(REDUCED_DEGREE[name]).program
    return IntervalTransfer(spec.program, rewrite, spec.live_outs,
                            dict(spec.ranges))


def _delta_transfer():
    spec = V.delta_kernel()
    ranges = dict(spec.ranges)
    ranges.update(V.delta_mem_ranges())
    return IntervalTransfer(spec.program, V.delta_rewrite(),
                            spec.live_outs, ranges,
                            memory=Memory(V.aek_segments()),
                            concrete_gp=V.CONCRETE_GP_INDICES)


class TestFirstTouch:
    def test_poly_target_touch_points(self):
        target, _ = _poly_pair()
        plan = compile_transfer(target)
        # movq $0.1d, xmm1 writes xmm1 only; mulsd xmm0, xmm1 is the
        # first step that can read the xmm0 input dimension.
        assert plan.first_touch(("x", 0)) == 1
        assert plan.first_touch(("x", 1)) == 0
        # No data-memory access anywhere: the memory "prefix" is the
        # whole program.
        assert plan.first_touch(MEM_KEY) == len(plan.steps)

    def test_histogram_counts_compiled_steps(self):
        target, _ = _poly_pair()
        plan = compile_transfer(target)
        assert plan.histogram == {"movq": 1, "mulsd": 1, "addsd": 1}
        assert len(plan.steps) == len(plan.opcodes) == len(plan.touches)

    def test_nop_slots_dropped(self):
        program = assemble("""
            nop
            addsd xmm0, xmm0
            nop
        """)
        plan = compile_transfer(program)
        assert plan.opcodes == ["addsd"]


class TestSplitSharing:
    @pytest.mark.parametrize("name", ["sin", "log"])
    def test_sharing_identical_to_scratch(self, name):
        """Walking down left children, prefix sharing never changes the
        (bound, per_loc, stats delta, error) of either child."""
        transfer = _libimf_transfer(name)
        box = transfer.root
        for _ in range(12):
            if not box.splittable:
                break
            dim = box.widest_dim()
            shared = transfer.analyze_split(box, dim, sharing=True)
            scratch = transfer.analyze_split(box, dim, sharing=False)
            assert shared[0] == scratch[0]  # left UnitResult
            assert shared[1] == scratch[1]  # right UnitResult
            box = box.split(dim)[0]

    def test_delta_sharing_identical(self):
        transfer = _delta_transfer()
        box = transfer.root
        for _ in range(8):
            if not box.splittable:
                break
            dim = box.widest_dim()
            shared = transfer.analyze_split(box, dim, sharing=True)
            scratch = transfer.analyze_split(box, dim, sharing=False)
            assert shared[0] == scratch[0]
            assert shared[1] == scratch[1]
            box = box.split(dim)[1]  # right children this time


    @pytest.mark.parametrize("name", ["exp", "log"])
    def test_relational_sharing_identical_to_scratch(self, name):
        """The relational product program shares split prefixes too;
        exp/log have long literal shared prefixes, so the collapsed
        paired-state path is exercised."""
        from repro.verify.relational.domain import RelationalTransfer

        factory = LIBIMF_KERNELS[name]
        spec = factory()
        transfer = RelationalTransfer(
            spec.program, factory(REDUCED_DEGREE[name]).program,
            spec.live_outs, dict(spec.ranges))
        box = transfer.root
        for step in range(12):
            if not box.splittable:
                break
            dim = box.widest_dim()
            shared = transfer.analyze_split(box, dim, sharing=True)
            scratch = transfer.analyze_split(box, dim, sharing=False)
            assert shared[0] == scratch[0]
            assert shared[1] == scratch[1]
            box = box.split(dim)[step % 2]


class TestProfile:
    def test_profile_populates_op_seconds(self):
        target, rewrite = _poly_pair()
        transfer = IntervalTransfer(target, rewrite, ["xmm0"],
                                    {"xmm0": (0.5, 2.0)}, profile=True)
        _, op_secs = transfer.analyze_unit(transfer.root)
        assert op_secs
        assert set(op_secs) <= set(transfer.op_histogram)
        assert all(s >= 0.0 for s in op_secs.values())

    def test_no_profile_no_op_seconds(self):
        target, rewrite = _poly_pair()
        transfer = IntervalTransfer(target, rewrite, ["xmm0"],
                                    {"xmm0": (0.5, 2.0)})
        _, op_secs = transfer.analyze_unit(transfer.root)
        assert op_secs is None


# One accepted form of every opcode outside the interval fragment (no
# transfer compiler of its own, not cmov, not nop).
_UNSUPPORTED_FORMS = {
    "andnpd": "andnpd xmm1, xmm0", "andpd": "andpd xmm1, xmm0",
    "andps": "andps xmm1, xmm0", "cmpsd": "cmpsd $1, xmm1, xmm0",
    "cvtpd2ps": "cvtpd2ps xmm1, xmm0", "cvtps2pd": "cvtps2pd xmm1, xmm0",
    "cvtsi2ss": "cvtsi2ss eax, xmm0", "cvttss2si": "cvttss2si xmm0, eax",
    "haddpd": "haddpd xmm1, xmm0", "haddps": "haddps xmm1, xmm0",
    "movhlps": "movhlps xmm1, xmm0", "movlhps": "movlhps xmm1, xmm0",
    "neg": "neg rax", "not": "not rax",
    "orpd": "orpd xmm1, xmm0", "orps": "orps xmm1, xmm0",
    "pand": "pand xmm1, xmm0", "por": "por xmm1, xmm0",
    "pshufd": "pshufd $0x4e, xmm1, xmm0",
    "pshuflw": "pshuflw $0x4e, xmm1, xmm0",
    "roundsd": "roundsd $1, xmm1, xmm0",
    "shufpd": "shufpd $1, xmm1, xmm0",
    "vfmadd132ss": "vfmadd132ss xmm2, xmm1, xmm0",
    "vfmadd213ss": "vfmadd213ss xmm2, xmm1, xmm0",
    "vfmadd231ss": "vfmadd231ss xmm2, xmm1, xmm0",
    "vfmsub213sd": "vfmsub213sd xmm2, xmm1, xmm0",
    "vfnmadd213sd": "vfnmadd213sd xmm2, xmm1, xmm0",
    "vpshuflw": "vpshuflw $0x4e, xmm1, xmm0",
}


class TestUnsupportedParity:
    def test_forms_cover_every_uncompiled_opcode(self):
        from repro.verify.compile import _COMPILERS
        from repro.x86.opcodes import OPCODES

        uncompiled = {name for name in OPCODES
                      if name not in _COMPILERS and name != "nop"
                      and not name.startswith("cmov")}
        assert set(_UNSUPPORTED_FORMS) == uncompiled

    @staticmethod
    def _assert_fails_with(target, message):
        _, rewrite = _poly_pair()
        transfer = IntervalTransfer(target, rewrite, ["xmm0"],
                                    {"xmm0": (0.5, 2.0)})
        with pytest.raises(IntervalUnsupported) as excinfo:
            transfer.analyze(transfer.root)
        assert str(excinfo.value) == message
        failed = (math.inf, None, (1, 0, 0), message)
        assert transfer.analyze_unit(transfer.root) == (failed, None)
        box = transfer.root
        l_res, r_res, op_secs = transfer.analyze_split(box,
                                                       box.widest_dim())
        assert l_res == r_res == failed
        assert op_secs is None

    @pytest.mark.parametrize("opcode", sorted(_UNSUPPORTED_FORMS))
    def test_uncompiled_opcode_message(self, opcode):
        # Placed after a supported step, so the failure happens mid-run.
        target = assemble("addsd xmm0, xmm0\n"
                          f"{_UNSUPPORTED_FORMS[opcode]}\n")
        assert all(isinstance(touch, frozenset)
                   for touch in compile_transfer(target).touches)
        self._assert_fails_with(
            target,
            f"opcode {opcode} outside the interval-analyzable fragment")

    def test_non_zeroing_xorpd_message(self):
        # xorpd is compiled only for its zeroing idiom.
        self._assert_fails_with(assemble("xorpd xmm1, xmm0\n"),
                                "xorpd outside the zeroing idiom")
