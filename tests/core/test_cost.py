"""Tests for the cost function (Equations 9-11, Section 5.2)."""

import math
import random

import pytest

from repro.fp.ieee754 import double_to_bits
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.x86.assembler import assemble
from repro.x86.checkpoint import program_writes, union_writes
from repro.x86.locations import MemLoc, parse_loc
from repro.x86.testcase import TestCase, uniform_testcases

from repro.core.cost import CostConfig, CostFunction, location_ulp_distance
from repro.core.transforms import Transforms

from tests.conftest import base_testcase

BACKENDS = ("emulator", "jit", "vector")

# Register arithmetic, a flags-producing compare + conditional move, and
# a store/load through the scratch segment: every state component the
# pooled-state reset has to cover.
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


def make_cost(target_asm, eta=0.0, k=1.0, **kwargs):
    target = assemble(target_asm)
    tests = uniform_testcases(random.Random(0), 16, {"xmm0": (-10.0, 10.0)})
    return CostFunction(target, tests, ["xmm0"],
                        CostConfig(eta=eta, k=k, **kwargs))


class TestConfigValidation:
    def test_rejects_bad_reduction(self):
        with pytest.raises(ValueError):
            CostConfig(reduction="mean")

    def test_rejects_bad_compress(self):
        with pytest.raises(ValueError):
            CostConfig(compress="sqrt")

    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError):
            CostConfig(eta=-1.0)


class TestEquivalenceTerm:
    def test_identical_program_costs_only_perf(self):
        cost = make_cost("addsd xmm0, xmm0")
        result = cost(cost.target)
        assert result.eq == 0.0
        assert result.correct
        assert result.perf > 0.0

    def test_semantically_equal_rewrite_is_correct(self):
        cost = make_cost("addsd xmm0, xmm0")
        rewrite = assemble("movq $2.0d, xmm1\nmulsd xmm1, xmm0")
        assert cost(rewrite).correct

    def test_wrong_rewrite_has_positive_eq(self):
        cost = make_cost("addsd xmm0, xmm0")
        wrong = assemble("mulsd xmm0, xmm0")
        assert cost(wrong).eq > 0.0

    def test_eta_floor_forgives_small_errors(self):
        # x*2 via addsd vs a slightly perturbed constant multiply.
        cost_strict = make_cost("addsd xmm0, xmm0", eta=0.0)
        near2 = math.nextafter(2.0, 3.0)
        rewrite = assemble(f"movq $0x{double_to_bits(near2):x}, xmm1\n"
                           "mulsd xmm1, xmm0")
        assert cost_strict(rewrite).eq > 0.0
        cost_loose = make_cost("addsd xmm0, xmm0", eta=16.0)
        assert cost_loose(rewrite).eq == 0.0

    def test_signal_penalty(self):
        cost = make_cost("addsd xmm0, xmm0")
        faulting = assemble("movsd (rax), xmm0")
        result = cost(faulting)
        assert result.signalled
        assert result.eq == cost.config.ws

    def test_k_zero_is_synthesis_mode(self):
        cost = make_cost("addsd xmm0, xmm0", k=0.0)
        result = cost(cost.target)
        assert result.perf == 0.0
        assert result.total == result.eq

    def test_err_fast_missing_live_out_is_diagnosed(self):
        # Outputs from a Runner with mismatched live-outs used to die
        # with a bare KeyError; the message must now name the missing
        # location and the backend so the mismatch is debuggable.
        cost = make_cost("addsd xmm0, xmm0")
        expected = {parse_loc("xmm0"): double_to_bits(2.0)}
        wrong_outputs = {parse_loc("xmm1"): double_to_bits(2.0)}
        with pytest.raises(KeyError) as exc:
            cost.err_fast(wrong_outputs, expected, signalled=False)
        message = str(exc.value)
        assert "xmm0" in message
        assert repr(cost.runner.backend) in message
        assert "live-outs" in message


class TestReduction:
    def test_max_vs_sum(self):
        target = assemble("addsd xmm0, xmm0")
        tests = uniform_testcases(random.Random(0), 8,
                                  {"xmm0": (-10.0, 10.0)})
        wrong = assemble("mulsd xmm0, xmm0")
        cfg_max = CostConfig(reduction="max", k=0.0)
        cfg_sum = CostConfig(reduction="sum", k=0.0)
        eq_max = CostFunction(target, tests, ["xmm0"], cfg_max)(wrong).eq
        eq_sum = CostFunction(target, tests, ["xmm0"], cfg_sum)(wrong).eq
        assert eq_sum > eq_max  # sum accumulates over test cases

    def test_max_bounded_by_worst_case(self):
        # Section 5.2 rationale: with max-reduction the correctness cost
        # cannot grow with the number of test cases.
        target = assemble("addsd xmm0, xmm0")
        wrong = assemble("mulsd xmm0, xmm0")
        costs = []
        for n in (4, 64):
            tests = uniform_testcases(random.Random(0), n,
                                      {"xmm0": (1.0, 10.0)})
            cfg = CostConfig(reduction="max", k=0.0, compress="none")
            costs.append(CostFunction(target, tests, ["xmm0"], cfg)(wrong).eq)
        assert costs[1] <= costs[0] * 4  # same order of magnitude


class TestCompression:
    def test_log2_compression(self):
        target = assemble("addsd xmm0, xmm0")
        tests = uniform_testcases(random.Random(0), 4, {"xmm0": (1.0, 2.0)})
        wrong = assemble("mulsd xmm0, xmm0")
        raw = CostFunction(target, tests, ["xmm0"],
                           CostConfig(k=0.0, compress="none"))(wrong).eq
        compressed = CostFunction(target, tests, ["xmm0"],
                                  CostConfig(k=0.0, compress="log2"))(wrong).eq
        assert compressed == pytest.approx(math.log2(1.0 + raw))


class TestLocationDistance:
    def test_f64_is_ulps(self):
        a = double_to_bits(1.0)
        b = double_to_bits(math.nextafter(1.0, 2.0))
        assert location_ulp_distance(parse_loc("xmm0"), a, b) == 1.0

    def test_integer_is_hamming(self):
        loc = parse_loc("rax")
        assert location_ulp_distance(loc, 0b1011, 0b0010) == 2.0

    def test_memloc_f32(self):
        loc = MemLoc("seg", 0, "f32")
        assert location_ulp_distance(loc, 0x3F800000, 0x3F800002) == 2.0


class TestMemoryLiveOuts:
    def test_memory_output_compared(self):
        target = assemble("movsd xmm0, (rax)")
        segments = lambda: [  # noqa: E731
            __import__("repro.x86.memory", fromlist=["Segment"]).Segment(
                "out", 0x100, bytes(8))
        ]
        tests = uniform_testcases(random.Random(0), 4,
                                  {"xmm0": (-2.0, 2.0)},
                                  segments_factory=segments)
        tests = [tc.replace("rax", 0x100) for tc in tests]
        out_loc = MemLoc("out", 0, "f64")
        cost = CostFunction(target, tests, [out_loc], CostConfig(k=0.0))
        assert cost(target).eq == 0.0
        wrong = assemble("addsd xmm0, xmm0\nmovsd xmm0, (rax)")
        assert cost(wrong).eq > 0.0


class TestEarlyRejectAndCache:
    def test_early_reject_truncates_consistently(self):
        cost = make_cost("addsd xmm0, xmm0")
        wrong = assemble("mulsd xmm0, xmm0")
        full = cost.cost(wrong)
        truncated = cost.cost(wrong, early_reject_above=0.0)
        assert truncated.total <= full.total

    def test_cache_hits_return_equal_results(self):
        cost = make_cost("addsd xmm0, xmm0")
        rewrite = assemble("movq $2.0d, xmm1\nmulsd xmm1, xmm0")
        first = cost.cost(rewrite)
        second = cost.cost(rewrite)
        assert first == second

    def test_requires_tests(self):
        with pytest.raises(ValueError):
            CostFunction(assemble("addsd xmm0, xmm0"), [], ["xmm0"])

    def test_rejects_nonpositive_cache_size(self):
        target = assemble("addsd xmm0, xmm0")
        tests = uniform_testcases(random.Random(0), 4,
                                  {"xmm0": (-10.0, 10.0)})
        with pytest.raises(ValueError):
            CostFunction(target, tests, ["xmm0"], cache_size=0)


class TestLruCache:
    """The memo is a bounded LRU, not a wipe-everything-at-capacity dict."""

    def _cost(self, cache_size):
        target = assemble("addsd xmm0, xmm0")
        tests = uniform_testcases(random.Random(0), 4,
                                  {"xmm0": (-10.0, 10.0)})
        return CostFunction(target, tests, ["xmm0"],
                            CostConfig(eta=0.0, k=1.0),
                            cache_size=cache_size)

    @staticmethod
    def _program(i):
        return assemble(f"movq $0x{0x3FF0000000000000 + i:x}, xmm1\n"
                        "mulsd xmm1, xmm0")

    def test_cache_never_exceeds_bound(self):
        cost = self._cost(cache_size=4)
        for i in range(12):
            cost.cost(self._program(i))
            assert len(cost._cache) <= 4
        assert len(cost._cache) == 4

    def test_recently_used_entries_survive_eviction(self):
        cost = self._cost(cache_size=2)
        a, b, c = self._program(0), self._program(1), self._program(2)
        cost.cost(a)
        cost.cost(b)
        cost.cost(a)  # refresh a: b becomes least-recently-used
        cost.cost(c)  # evicts b, not a
        assert a in cost._cache and c in cost._cache
        assert b not in cost._cache

    def test_hit_and_miss_counters(self):
        cost = self._cost(cache_size=8)
        a = self._program(0)
        cost.cost(a)
        # The target was evaluated via runner.outputs_for, not cost();
        # the first cost(a) call is the only miss so far.
        assert (cost.cache_hits, cost.cache_misses) == (0, 1)
        cost.cost(a)
        assert (cost.cache_hits, cost.cache_misses) == (1, 1)

    def test_eviction_is_fifo_over_stale_entries(self):
        cost = self._cost(cache_size=3)
        programs = [self._program(i) for i in range(5)]
        for program in programs:
            cost.cost(program)
        # Only the three most recent distinct programs remain.
        assert [p in cost._cache for p in programs] == \
            [False, False, True, True, True]


class TestWriteSets:
    def test_union_writes(self):
        a = ((1,), (0, 2), (0,), False)
        b = ((1, 3), (2,), (2,), True)
        assert union_writes(a, b) == ((1, 3), (0, 2), (0, 2), True)

    def test_program_writes_covers_kernel_defs(self):
        gp, xl, xh, mem = program_writes(KERNEL)
        assert mem  # the movsd store
        assert 1 in gp  # cmovae writes rcx
        assert {0, 1, 2, 3}.issubset(set(xl))
        assert xl == xh  # conservative: XMM defs count both halves


class TestAdaptiveOrderingStability:
    def test_promote_skip_window(self):
        tests = [base_testcase(5 + i) for i in range(8)]
        cf = CostFunction(KERNEL, tests, ["xmm0"], CostConfig())
        # Index 0 is always a skip (already at the front).
        cf._promote(0)
        assert cf.promote_skips == 1 and cf.promote_moves == 0
        # A fresh index is a real move...
        victim = id(cf.tests[5])
        cf._promote(5)
        assert cf.promote_moves == 1
        assert id(cf.tests[0]) == victim
        # ...but re-promoting it from inside the stability window is
        # skipped: the ladder's order is effectively unchanged.
        for seq in (cf.tests, cf.target_outputs, cf._expected):
            seq.insert(1, seq.pop(0))
        cf._promote(1)
        assert cf.promote_skips == 2 and cf.promote_moves == 1
        # Beyond the window the same test is moved again.
        far = cf._PROMOTE_WINDOW + 2
        for seq in (cf.tests, cf.target_outputs, cf._expected):
            seq.insert(far, seq.pop(1))
        cf._promote(far)
        assert cf.promote_moves == 2
        assert id(cf.tests[0]) == victim


class TestBackendSeam:
    """``backend=`` is kept only so the compiled backends can be checked
    against the emulator that search runs on: every backend must give
    the same CostResult for every proposal."""

    def test_default_backend_is_emulator(self):
        cost = make_cost("addsd xmm0, xmm0")
        assert cost.runner.backend == "emulator"

    @pytest.mark.parametrize("name", sorted(LIBIMF_KERNELS))
    def test_backends_agree_along_a_proposal_stream(self, name):
        spec = LIBIMF_KERNELS[name]()
        tests = spec.testcases(random.Random(f"seam:{name}"), 16)
        config = CostConfig(eta=1e6)
        costs = [CostFunction(spec.program, tests, spec.live_outs, config,
                              backend=backend) for backend in BACKENDS]
        transforms = Transforms(spec.program)
        rng = random.Random(7)
        current = spec.program
        for step in range(60):
            proposal, _kind = transforms.propose(rng, current)
            if proposal is None:
                continue
            # Alternate full and early-rejected evaluations so both the
            # complete ladder and its truncation are compared.
            threshold = None if step % 2 else 2.0
            results = [cost.cost(proposal, early_reject_above=threshold)
                       for cost in costs]
            assert results[1] == results[0], (name, step, "jit")
            assert results[2] == results[0], (name, step, "vector")
            if step % 3 == 0:
                current = proposal

    def test_early_reject_agrees_across_backends(self):
        tests = [base_testcase(13 + i) for i in range(10)]
        costs = [CostFunction(KERNEL, tests, ["xmm0"], CostConfig(),
                              backend=backend) for backend in BACKENDS]
        threshold = costs[0].cost(KERNEL).total + 1.0
        transforms = Transforms(KERNEL)
        rng = random.Random(13)
        for _step in range(80):
            proposal, _kind = transforms.propose(rng, KERNEL)
            if proposal is None:
                continue
            results = [cost.cost(proposal, early_reject_above=threshold)
                       for cost in costs]
            assert results[1] == results[0]
            assert results[2] == results[0]
