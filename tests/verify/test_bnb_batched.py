"""Precision, identity and determinism tests for the BnB verifier.

For a fixed :class:`BnBConfig` the refinement order, leaf tiling,
certified bound, and certificate bytes are deterministic and survive a
mid-run checkpoint/resume.  Certified bounds and bit-op accounting are
pinned as literals, so a transfer that stays sound but gets looser
fails here; soundness itself is pinned against concrete execution in
``test_containment.py``, prefix sharing per split in
``test_transfer_compile.py``.
"""

import hashlib
import json
import math
import random

import pytest

from repro.x86.assembler import assemble
from repro.x86.memory import Memory
from repro.x86.testcase import TestCase

from repro.core.serialize import canonical_json
from repro.kernels.aek import vector as V
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify import exhaustive_check
from repro.verify.bnb import BnBConfig, BnBVerifier
from repro.verify.partition import BitBox, covered_seed_count

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


def _poly_verifier():
    target, rewrite = _poly_pair()
    return BnBVerifier(target, rewrite, ["xmm0"], {"xmm0": (0.5, 2.0)})


def _libimf_verifier(name):
    factory = LIBIMF_KERNELS[name]
    spec = factory()
    rewrite = factory(REDUCED_DEGREE[name]).program
    return BnBVerifier(spec.program, rewrite, spec.live_outs,
                       dict(spec.ranges))


def _delta_verifier():
    spec = V.delta_kernel()
    ranges = dict(spec.ranges)
    ranges.update(V.delta_mem_ranges())
    return BnBVerifier(spec.program, V.delta_rewrite(), spec.live_outs,
                       ranges, memory=Memory(V.aek_segments()),
                       concrete_gp=V.CONCRETE_GP_INDICES)


def _cert_digest(verifier, result, config):
    """Certificate identity: canonical bytes with wall time scrubbed
    (the same scrub the campaign worker applies before storing)."""
    doc = verifier.certificate(result, config=config).to_dict()
    doc.get("stats", {})["wall_time"] = 0.0
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def _stats_triple(result):
    return (result.stats.boxes, result.stats.concrete_bit_ops,
            result.stats.widened_bit_ops)


def _partition(result):
    return (result.bound_ulps, result.leaf_bounds,
            [box.bounds for box in result.leaves])


class TestPinnedPrecision:
    """Bound, tightest leaf and (boxes, concrete, widened) stats triple,
    as literals: any change to a transfer's precision shows here."""

    @pytest.mark.parametrize("name, bound, tightest, triple", [
        ("sin", 9.184978472122525e+18, 6512408849315093.0, (65, 0, 0)),
        ("cos", 9.190539867128674e+18, 8490.0, (65, 0, 0)),
        ("log", 9.220786992498208e+18, 110947732.0, (65, 100, 1460)),
    ])
    def test_libimf_separate(self, name, bound, tightest, triple):
        result = _libimf_verifier(name).run(BnBConfig(max_boxes=64))
        assert result.bound_ulps == bound
        assert min(result.leaf_bounds) == tightest
        assert _stats_triple(result) == triple

    def test_delta_separate(self):
        # Memory-backed dimensions and MemLoc live-outs.
        result = _delta_verifier().run(BnBConfig(max_boxes=64))
        assert result.bound_ulps == 5632478973.0
        assert min(result.leaf_bounds) == 1904870798.0
        assert _stats_triple(result) == (65, 0, 0)

    def test_poly_with_seed(self):
        seeds = ((  # a fabricated counterexample inside the range
            (1.25,), 2.0),)
        result = _poly_verifier().run(BnBConfig(max_boxes=48, seeds=seeds))
        assert result.bound_ulps == 4503599627370498.0
        assert min(result.leaf_bounds) == 590558004.0
        assert _stats_triple(result) == (49, 0, 0)
        assert result.seeds_covered == 1
        assert result.boxes_pruned == 0

    def test_config_fields(self):
        import dataclasses

        assert [f.name for f in dataclasses.fields(BnBConfig)] == \
            ["max_boxes", "deadline", "target_gap", "seeds"]


class TestCoveredSeedCount:
    def _oracle(self, boxes, seeds, bound):
        covered = 0
        for idx, err in seeds:
            if not err <= bound:
                continue
            if any(box.contains(idx) for box in boxes):
                covered += 1
        return covered

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(42)
        for _ in range(50):
            ndims = rng.randint(1, 3)
            boxes = []
            for _ in range(rng.randint(0, 12)):
                bounds = []
                for _ in range(ndims):
                    lo = rng.randint(0, 100)
                    bounds.append((lo, lo + rng.randint(0, 30)))
                boxes.append(BitBox(tuple(bounds)))
            seeds = []
            for _ in range(rng.randint(0, 10)):
                idx = tuple(rng.randint(0, 130) for _ in range(ndims))
                err = rng.choice([0.0, 1.5, 7.0, math.inf, math.nan])
                seeds.append((idx, err))
            bound = rng.choice([0.0, 2.0, 10.0, math.inf])
            assert covered_seed_count(boxes, seeds, bound) == \
                self._oracle(boxes, seeds, bound)

    def test_nan_error_never_covered(self):
        box = BitBox(((0, 10),))
        assert covered_seed_count([box], [((5,), math.nan)], math.inf) == 0

    def test_empty_inputs(self):
        assert covered_seed_count([], [((0,), 0.0)], 1.0) == 0
        assert covered_seed_count([BitBox(((0, 1),))], [], 1.0) == 0


class TestCheckpointResume:
    """A mid-round interrupt/resume reproduces the uninterrupted run
    bit-for-bit — bound, leaf tiling, and certificate digest — whether
    snapshots are taken every round or every third round."""

    @pytest.mark.parametrize("every", [1, 3])
    def test_resume_bit_identical(self, every):
        verifier = _poly_verifier()
        config = BnBConfig(max_boxes=64)
        baseline = verifier.run(config)

        snapshots = []
        verifier.run(config, checkpoint_rounds=every,
                     on_checkpoint=snapshots.append)
        assert snapshots, "no checkpoints captured"
        mid = snapshots[len(snapshots) // 2]
        assert 0 < mid.rounds < baseline.rounds

        # Serialize through JSON: resume must survive the wire format.
        from repro.verify.bnb import BnBCheckpoint
        restored = BnBCheckpoint.from_dict(
            json.loads(json.dumps(mid.to_dict())))
        resumed = verifier.run(config, resume=restored)

        assert _partition(resumed) == _partition(baseline)
        assert resumed.boxes_explored == baseline.boxes_explored
        assert resumed.rounds == baseline.rounds
        assert resumed.boxes_pruned == baseline.boxes_pruned
        assert _cert_digest(verifier, resumed, config) == \
            _cert_digest(verifier, baseline, config)


class TestCheckpointThrottle:
    def test_wall_clock_gate_suppresses_snapshots(self):
        verifier = _poly_verifier()
        snapshots = []
        verifier.run(BnBConfig(max_boxes=64),
                     checkpoint_rounds=1,
                     on_checkpoint=snapshots.append,
                     checkpoint_seconds=3600.0)
        # The interval clock starts at run() entry, so a fast search
        # never reaches the first wall-clock gate.
        assert snapshots == []

    def test_zero_interval_checkpoints_every_gated_round(self):
        verifier = _poly_verifier()
        snapshots = []
        result = verifier.run(BnBConfig(max_boxes=64),
                              checkpoint_rounds=1,
                              on_checkpoint=snapshots.append,
                              checkpoint_seconds=0.0)
        # One per round after round 0, plus one on the terminating
        # iteration (the gate runs before the budget check).
        assert len(snapshots) == result.rounds


def _cex_inputs(result):
    """TestCase has no structural __eq__; compare the live-in bits."""
    if result.counterexample is None:
        return None
    return dict(result.counterexample.inputs)


class TestExhaustiveBackends:
    def test_backends_agree_bit_for_bit(self):
        target, rewrite = _poly_pair()
        ranges = {"xmm0": (0.5, 2.0)}
        results = {
            backend: exhaustive_check(target, rewrite, ["xmm0"], ranges,
                                      lambda: TestCase({}),
                                      bits_per_input=8, backend=backend)
            for backend in ("emulator", "jit", "vector")
        }
        baseline = results["emulator"]
        for backend, result in results.items():
            assert result.max_ulps == baseline.max_ulps, backend
            assert result.cases_checked == baseline.cases_checked, backend
            assert _cex_inputs(result) == _cex_inputs(baseline), backend

    def test_default_backend_is_vector(self):
        import inspect
        sig = inspect.signature(exhaustive_check)
        assert sig.parameters["backend"].default == "vector"

    def test_chunking_preserves_first_counterexample(self):
        import repro.verify.exhaustive as ex
        target, rewrite = _poly_pair()
        ranges = {"xmm0": (0.5, 2.0)}
        big = exhaustive_check(target, rewrite, ["xmm0"], ranges,
                               lambda: TestCase({}), bits_per_input=9)
        original = ex._BATCH
        ex._BATCH = 17  # force many ragged chunks
        try:
            small = exhaustive_check(target, rewrite, ["xmm0"], ranges,
                                     lambda: TestCase({}),
                                     bits_per_input=9)
        finally:
            ex._BATCH = original
        assert small.max_ulps == big.max_ulps
        assert small.cases_checked == big.cases_checked
        assert _cex_inputs(small) == _cex_inputs(big)
