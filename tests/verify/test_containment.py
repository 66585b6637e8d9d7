"""Concrete containment: the interval transfers' soundness oracle.

Every abstract transfer in :mod:`repro.verify.compile` must
over-approximate the emulator's concrete semantics.  The emulator is
pinned bit-for-bit against the JIT for every opcode
(``tests/x86/test_bound_steps.py``) and shares no code with any
transfer, so it is an independent reference.

For a box, each program's final abstract state is built through its
compiled plan; then the box's corner points and sampled interior points
run on the emulator, and every concrete live-out must lie inside that
program's abstract output.  A concrete NaN passes only when the
abstract value is TOP or ``[-inf, inf]``.  For the leaves of a BnB run
the concrete error (summed per-live-out ULP distance, as the validator
computes it) must also stay within the leaf's certified bound, which
checks the relational domain's difference windows too.

Coverage: the five libimf kernels and ``delta`` in both domains, and
Hypothesis-generated straight-line programs in three fragments (scalar
double; mixed GP/FP; packed and single precision) that together emit
every opcode the transfer compiler handles.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost import location_ulp_distance
from repro.core.runner import Runner
from repro.fp.ieee754 import double_to_bits
from repro.kernels.aek import vector as V
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify.bnb import BnBConfig, BnBVerifier
from repro.verify.compile import _COMPILERS
from repro.verify.interval import (
    TOP,
    IntervalTransfer,
    IntervalUnsupported,
    TransferStats,
    _read_output,
)
from repro.verify.partition import value_of
from repro.x86.assembler import assemble
from repro.x86.memory import Memory, Segment
from repro.x86.opcodes import OPCODES
from repro.x86.testcase import TestCase, decode_from, encode_for

REDUCED_DEGREE = {"sin": 9, "cos": 8, "tan": 9, "log": 12, "exp": 8}

# Generated ranges reach past float32's range on purpose; the single-
# precision rounding helpers then cast to inf, which numpy reports.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered in cast:RuntimeWarning")


# --------------------------------------------------------------------------
# The check


def _read(state, loc):
    try:
        return _read_output(state, loc)
    except IntervalUnsupported:  # e.g. a NaN-pattern lane: no claim
        return None


def _abstract_outputs(transfer, box):
    """Each program's abstract live-outs over ``box``, built through its
    compiled plan; None for a program outside the fragment, or for a
    live-out the domain cannot read."""
    mem_inputs, reg_inputs = transfer._inputs_of(box.value_box(transfer.dims))
    outputs = []
    for plan in transfer._plans:
        state = transfer._fresh_state(mem_inputs, reg_inputs,
                                      TransferStats())
        try:
            for step in plan.steps:
                step(state)
        except IntervalUnsupported:
            outputs.append(None)
            continue
        outputs.append([_read(state, loc) for loc in transfer.locations])
    return outputs


def _points(box, dims, rng, interior):
    """Corner points of ``box`` plus ``interior`` uniform samples, as
    input values in dimension order."""
    corners = itertools.product(*[sorted({lo, hi}) for lo, hi in box.bounds])
    indices = [tuple(corner) for corner in corners]
    for _ in range(interior):
        indices.append(tuple(rng.randint(lo, hi) for lo, hi in box.bounds))
    return [tuple(value_of(i, d.ftype) for i, d in zip(point, dims))
            for point in indices]


def _inside(abstract, value):
    if math.isnan(value):
        return abstract.lo == -math.inf and abstract.hi == math.inf
    return abstract.lo <= value <= abstract.hi


def _violations(transfer, boxes, base, rng, interior=6, leaf_bounds=None):
    """Concrete points of ``boxes`` that escape an abstract output (or,
    with ``leaf_bounds``, exceed a finite certified leaf bound)."""
    runner = Runner(transfer.locations, backend="emulator")
    programs = (transfer.target, transfer.rewrite)
    prepared = [runner.prepare(program) for program in programs]
    found = []
    for k, box in enumerate(boxes):
        points = _points(box, transfer.dims, rng, interior)
        tests = []
        for values in points:
            test = base
            for d, value in zip(transfer.dims, values):
                test = test.replace(d.loc, encode_for(d.loc, value))
            tests.append(test)
        runs = [runner.run_batch(prep, tests) for prep in prepared]
        for p, outs in enumerate(_abstract_outputs(transfer, box)):
            if outs is None:
                continue
            claims = [(j, loc, abstract) for j, (loc, abstract)
                      in enumerate(zip(transfer.locations, outs))
                      if abstract is not None and abstract is not TOP]
            for point, (bits, signal) in zip(points, runs[p]):
                if signal is not None:
                    found.append((p, point, "signal", signal))
                    continue
                for j, loc, abstract in claims:
                    value = decode_from(loc, bits[j])
                    if not _inside(abstract, value):
                        found.append((p, point, str(loc), value, abstract))
        if leaf_bounds is None or not math.isfinite(leaf_bounds[k]):
            continue
        for point, (t_bits, t_sig), (r_bits, r_sig) in zip(points, *runs):
            if t_sig is not None or r_sig is not None:
                continue
            err = sum(location_ulp_distance(loc, r, t) for loc, t, r in
                      zip(transfer.locations, t_bits, r_bits))
            if err > leaf_bounds[k]:
                found.append(("bound", point, err, leaf_bounds[k]))
    return found


# --------------------------------------------------------------------------
# Shipped kernels: every leaf of a BnB run, in both domains


def _kernel_case(name):
    if name == "delta":
        spec = V.delta_kernel()
        ranges = dict(spec.ranges)
        ranges.update(V.delta_mem_ranges())
        return (spec, V.delta_rewrite(), ranges,
                dict(memory=Memory(V.aek_segments()),
                     concrete_gp=V.CONCRETE_GP_INDICES))
    factory = LIBIMF_KERNELS[name]
    spec = factory()
    return spec, factory(REDUCED_DEGREE[name]).program, dict(spec.ranges), {}


@pytest.mark.parametrize("domain", ["separate", "relational"])
@pytest.mark.parametrize("name", sorted(LIBIMF_KERNELS) + ["delta"])
def test_kernel_leaves_contain_concrete_runs(name, domain):
    spec, rewrite, ranges, env = _kernel_case(name)
    verifier = BnBVerifier(spec.program, rewrite, spec.live_outs, ranges,
                           domain=domain, **env)
    result = verifier.run(BnBConfig(max_boxes=64))
    assert len(result.leaves) > 32
    found = _violations(verifier.transfer, result.leaves,
                        spec.base_testcase(), random.Random(name),
                        leaf_bounds=result.leaf_bounds)
    assert found == []


# --------------------------------------------------------------------------
# Generated straight-line programs


_BUF_BASE = 0x20000
_BUF_SIZE = 64
_RDI = 7


def _fmt(template, **parts):
    return st.fixed_dictionaries(parts).map(
        lambda d: template.format(**d))


def _family(names, template, **parts):
    return {name: _fmt(template.replace("OP", name), **parts)
            for name in names}


_ENDPOINTS = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, -1e-300, 1e300, -1e300,
                     1.7e308, -1.7e308]),
)
_ENDPOINTS_F32 = st.one_of(
    st.floats(-4.0, 4.0, width=32),
    st.floats(-1e6, 1e6, width=32),
    st.sampled_from([0.0, -0.0, 1e-45, 1e-40, -1e-38, 3e38, -3e38]).map(
        lambda x: float(np.float32(x))),
)
_XMM = st.integers(0, 3).map("xmm{}".format)
_GP64 = st.sampled_from(["rax", "rbx", "rcx", "rdx"])
# 32-bit forms need concrete operands; rax and rbx start concrete.
_GP32 = st.sampled_from(["eax", "ebx"])
_IMM_F64 = _ENDPOINTS.map(lambda x: f"${double_to_bits(x):#x}")
_IMM_INT = st.one_of(st.integers(0, 4096),
                     st.sampled_from([0x7FF, 0x3FF, 0xFFFFFFFF,
                                      0x000FFFFFFFFFFFFF,
                                      0x7FF0000000000000])).map("${}".format)
# Byte offsets into the writable buffer that rdi points at: 8- and
# 4-byte slots may overlap one another; 16-byte slots are aligned.
_OFF8 = st.sampled_from(range(0, _BUF_SIZE - 7, 4)).map("{}(rdi)".format)
_OFF4 = st.sampled_from(range(0, _BUF_SIZE - 3, 4)).map("{}(rdi)".format)
_OFF16 = st.sampled_from(range(0, _BUF_SIZE - 15, 16)).map("{}(rdi)".format)

_SCALAR_DOUBLE = {
    **_family(["addsd", "subsd", "mulsd", "divsd", "minsd", "maxsd",
               "sqrtsd"], "OP {s}, {d}", s=_XMM, d=_XMM),
    **_family(["vaddsd", "vsubsd", "vmulsd", "vdivsd", "vminsd",
               "vmaxsd", "vfmadd132sd", "vfmadd213sd", "vfmadd231sd"],
              "OP {a}, {b}, {d}", a=_XMM, b=_XMM, d=_XMM),
    "movq": st.one_of(_fmt("movq {i}, {d}", i=_IMM_F64, d=_XMM),
                      _fmt("movq {s}, {m}", s=_XMM, m=_OFF8),
                      _fmt("movq {m}, {d}", m=_OFF8, d=_XMM)),
    "movsd": st.one_of(_fmt("movsd {s}, {d}", s=_XMM, d=_XMM),
                       _fmt("movsd {s}, {m}", s=_XMM, m=_OFF8),
                       _fmt("movsd {m}, {d}", m=_OFF8, d=_XMM)),
    "movapd": _fmt("movapd {s}, {d}", s=_XMM, d=_XMM),
    "xorpd": _XMM.map(lambda x: f"xorpd {x}, {x}"),
}

_MIXED_GP_FP = {
    "movq": st.one_of(_fmt("movq {s}, {g}", s=_XMM, g=_GP64),
                      _fmt("movq {g}, {d}", g=_GP64, d=_XMM),
                      _fmt("movq {i}, {d}", i=_IMM_F64, d=_XMM)),
    **_family(["shl", "shr", "sar"], "OP ${n}, {g}",
              n=st.integers(0, 63), g=st.one_of(_GP64, _GP64, _GP32)),
    **{op: st.one_of(_fmt(f"{op} {{s}}, {{g}}", s=_GP64, g=_GP64),
                     _fmt(f"{op} {{i}}, {{g}}", i=_IMM_INT, g=_GP64),
                     _fmt(f"{op} {{s}}, {{g}}", s=_GP32, g=_GP32))
       for op in ("and", "or", "xor", "add", "sub", "imul")},
    **_family(["cvtsd2si", "cvttsd2si"], "OP {s}, {g}", s=_XMM, g=_GP64),
    "cvtsi2sd": st.one_of(_fmt("cvtsi2sd {g}, {d}", g=_GP64, d=_XMM),
                          _fmt("cvtsi2sd {g}, {d}", g=_GP32, d=_XMM)),
    **_family(["ucomisd", "ucomiss"], "OP {s}, {d}", s=_XMM, d=_XMM),
    **_family(["cmp", "test"], "OP {s}, {d}", s=_GP64, d=_GP64),
    **_family(sorted(name for name in OPCODES if name.startswith("cmov")),
              "OP {s}, {d}", s=_GP64, d=_GP64),
    "mov": st.one_of(_fmt("mov {i}, {g}", i=_IMM_INT, g=_GP64),
                     _fmt("mov {s}, {g}", s=_GP64, g=_GP64),
                     _fmt("mov {s}, {g}", s=_GP32, g=_GP32)),
    "movabs": _fmt("movabs {i}, {g}", i=_IMM_INT, g=_GP64),
    "lea": st.one_of(_fmt("lea {m}, {g}", m=_OFF8, g=_GP64),
                     _fmt("lea 8(rdi,{i},4), {g}", i=_GP64, g=_GP64)),
    "movd": st.one_of(_fmt("movd {g}, {d}", g=_GP32, d=_XMM),
                      _fmt("movd {i}, {d}", i=_IMM_INT, d=_XMM)),
    **_family(["addsd", "subsd", "mulsd"], "OP {s}, {d}", s=_XMM, d=_XMM),
}

_PACKED_SINGLE = {
    **_family(["addss", "subss", "mulss", "divss", "minss", "maxss",
               "sqrtss", "addps", "subps", "mulps", "divps", "addpd",
               "subpd", "mulpd", "divpd", "cvtss2sd", "cvtsd2ss",
               "punpckldq", "unpcklpd", "unpckhpd", "movddup", "movaps",
               "movups", "movdqa", "movdqu"],
              "OP {s}, {d}", s=_XMM, d=_XMM),
    **_family(["vaddss", "vsubss", "vmulss", "vdivss"],
              "OP {a}, {b}, {d}", a=_XMM, b=_XMM, d=_XMM),
    "movss": st.one_of(_fmt("movss {s}, {d}", s=_XMM, d=_XMM),
                       _fmt("movss {s}, {m}", s=_XMM, m=_OFF4),
                       _fmt("movss {m}, {d}", m=_OFF4, d=_XMM)),
    "lddqu": _fmt("lddqu {m}, {d}", m=_OFF16, d=_XMM),
    **_family(["xorps", "pxor"], "OP {x}, {x}", x=_XMM),
    "movq": _fmt("movq {i}, {d}", i=_IMM_F64, d=_XMM),
}

# fragment -> (instruction table, input locations, prologue, epilogue)
_FRAGMENTS = {
    "scalar_double": (_SCALAR_DOUBLE, ("xmm0:d", "xmm1:d"),
                      ("movq {c0}, xmm2", "movq {c1}, xmm3"), ()),
    "mixed_gp_fp": (_MIXED_GP_FP, ("xmm0:d", "xmm1:d"),
                    ("mov {i0}, rax", "mov {i1}, rbx",
                     "movq xmm0, rcx", "cvttsd2si xmm1, rdx"),
                    ("cvtsi2sd rax, xmm6", "cvtsi2sd rbx, xmm7",
                     "cvtsi2sd rcx, xmm5", "cvtsi2sd rdx, xmm4")),
    "packed_single": (_PACKED_SINGLE,
                      ("xmm0:s0", "xmm0:s1", "xmm1:s0", "xmm2:d",
                       "xmm2:hd"),
                      ("movq {c0}, xmm3",), ()),
}

# Every view of every register a generated program can write.
_LIVE_OUTS = [f"xmm{i}:{view}" for i in range(8)
              for view in ("d", "hd", "s0", "s1", "s2", "s3")]


@st.composite
def _programs(draw, fragment):
    table, inputs, prologue, epilogue = _FRAGMENTS[fragment]
    constants = dict(c0=draw(_IMM_F64), c1=draw(_IMM_F64),
                     i0=draw(_IMM_INT), i1=draw(_IMM_INT))
    lines = [line.format(**constants) for line in prologue]
    body = draw(st.lists(
        st.sampled_from(sorted(table)).flatmap(
            lambda op: st.tuples(st.just(op), table[op])),
        min_size=1, max_size=10))
    lines += [line for _, line in body]
    lines += list(epilogue)
    ranges = {}
    for loc in inputs:
        values = _ENDPOINTS_F32 if ":s" in loc else _ENDPOINTS
        if fragment == "mixed_gp_fp" and loc == "xmm1:d":
            values = st.floats(-1e6, 1e6)  # cvttsd2si stays in range
        a, b = sorted((draw(values), draw(values)))
        if fragment == "mixed_gp_fp" and loc == "xmm0:d":
            # Bit extraction needs non-negative inputs.
            a, b = sorted((abs(a), abs(b)))
        ranges[loc] = (a, b)
    return [op for op, _ in body], lines, ranges


def _program_violations(program, ranges, rng):
    """Containment violations of one program over its whole input box,
    with rdi pointing at a writable buffer."""
    segment = Segment("buf", _BUF_BASE, bytes(_BUF_SIZE), writable=True)
    # The empty "rewrite" checks that inputs enter the state soundly.
    transfer = IntervalTransfer(program, assemble(""), _LIVE_OUTS, ranges,
                                memory=Memory([segment]),
                                concrete_gp={_RDI: _BUF_BASE})
    base = TestCase({"rdi": _BUF_BASE}, [segment])
    return _violations(transfer, [transfer.root], base, rng, interior=8)


def _check_generated(fragment, data):
    opcodes, lines, ranges = data.draw(_programs(fragment))
    program = assemble("\n".join(lines) + "\n")
    body = program.slots[len(_FRAGMENTS[fragment][2]):]
    assert [instr.opcode for instr in body][:len(opcodes)] == opcodes
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    assert _program_violations(program, ranges, rng) == [], \
        "\n".join(lines)


_GENERATED = settings(max_examples=300, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.too_slow])


@_GENERATED
@given(data=st.data())
def test_generated_scalar_double(data):
    _check_generated("scalar_double", data)


@_GENERATED
@given(data=st.data())
def test_generated_mixed_gp_fp(data):
    _check_generated("mixed_gp_fp", data)


@_GENERATED
@given(data=st.data())
def test_generated_packed_single(data):
    _check_generated("packed_single", data)


# Violations this suite found in earlier transfers, kept as fixed cases:
# a NaN the interval could not hold, or a stale value after an
# overlapping store.
_FOUND = {
    "0 * inf": (["addsd xmm0, xmm0", "vfmadd132sd xmm0, xmm0, xmm1"],
                {"xmm0:d": (0.0, 1.7e308), "xmm1:d": (0.0, 0.0)}),
    "inf / inf": (["addsd xmm0, xmm0", "divsd xmm0, xmm0"],
                  {"xmm0:d": (1.0, 1.7e308)}),
    "max of a maybe-NaN source": (
        ["vdivsd xmm0, xmm0, xmm1", "maxsd xmm1, xmm0"],
        {"xmm0:d": (0.0, 0.0), "xmm1:d": (0.0, 0.0)}),
    "store overlapping a stored double": (
        ["movsd xmm0, 8(rdi)", "movsd xmm1, 12(rdi)", "movsd 8(rdi), xmm2"],
        {"xmm0:d": (1.0, 2.0), "xmm1:d": (3.0, 4.0)}),
    "load overlapping a stored double": (
        ["movsd xmm0, 8(rdi)", "movss 12(rdi), xmm2"],
        {"xmm0:d": (1.0, 2.0), "[buf+12]:f32": (5.0, 6.0)}),
    "single stored over a stored double": (
        ["movsd xmm0, 8(rdi)", "movss xmm1, 8(rdi)", "movss 12(rdi), xmm2"],
        {"xmm0:d": (1.0, 2.0), "xmm1:s0": (3.0, 4.0),
         "[buf+12]:f32": (5.0, 6.0)}),
}


@pytest.mark.parametrize("case", sorted(_FOUND))
def test_found_violations_stay_fixed(case):
    lines, ranges = _FOUND[case]
    program = assemble("\n".join(lines) + "\n")
    assert _program_violations(program, ranges, random.Random(0)) == []


def test_generators_emit_every_compiled_opcode():
    emitted = set()
    for table, _, _, _ in _FRAGMENTS.values():
        emitted |= set(table)
    assert set(_COMPILERS) <= emitted
    assert {name for name in OPCODES if name.startswith("cmov")} <= emitted


def test_oracle_flags_an_unsound_output():
    # The check itself must be able to fail: a transfer whose abstract
    # output misses the concrete one is reported.
    program = assemble("addsd xmm0, xmm0\n")
    transfer = IntervalTransfer(program, program, ["xmm0:d"],
                                {"xmm0:d": (1.0, 2.0)})
    plan = transfer._plans[0]
    plan.steps[0] = lambda state: None  # "forgets" to double xmm0
    found = _violations(transfer, [transfer.root], TestCase({}),
                        random.Random(0), interior=4)
    assert found and all(item[0] == 0 for item in found)


def test_oracle_flags_a_leaf_bound_below_the_concrete_error():
    # The bound arm compares each leaf's concrete error with that leaf's
    # own bound: an infinite first bound must not hide a later leaf
    # whose bound is too small.
    target = assemble("addsd xmm0, xmm0\n")
    rewrite = assemble("movq $1.0d, xmm1\naddsd xmm1, xmm0\n")
    verifier = BnBVerifier(target, rewrite, ["xmm0:d"],
                           {"xmm0:d": (2.0, 4.0)})
    leaves = verifier.run(BnBConfig(max_boxes=4)).leaves
    assert len(leaves) > 1
    bounds = [math.inf] * (len(leaves) - 1) + [0.0]
    found = _violations(verifier.transfer, leaves, TestCase({}),
                        random.Random(0), interior=4, leaf_bounds=bounds)
    assert found and all(item[0] == "bound" and item[3] == 0.0
                         for item in found)


@pytest.mark.xfail(strict=True, reason=(
    "_interval_ulp_pair gives the output [-inf, inf] a finite bound, "
    "but a concrete NaN lies farther from -1.0 than either infinity"))
def test_nan_output_stays_within_its_leaf_bound():
    # 0/0 is NaN; the certified bound (1.3826e19) is below the concrete
    # error from -1.0 (1.3828e19).
    target = assemble("divsd xmm0, xmm0\n")
    rewrite = assemble("movq $0xbff0000000000000, xmm0\n")
    verifier = BnBVerifier(target, rewrite, ["xmm0:d"],
                           {"xmm0:d": (0.0, 0.0)})
    result = verifier.run(BnBConfig(max_boxes=4))
    assert result.complete and math.isfinite(result.bound_ulps)
    found = _violations(verifier.transfer, result.leaves, TestCase({}),
                        random.Random(0), leaf_bounds=result.leaf_bounds)
    assert found == []
