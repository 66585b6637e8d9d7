"""Checkpoint/resume bit-identity across the three resumable engines.

The campaign service's crash-recovery story rests on one property: a
run interrupted at a checkpoint and resumed must be indistinguishable
from the uninterrupted run — same best program, same counters, same
sample stream, bit for bit (wall-clock timing excluded).  These tests
interrupt mid-run, push the checkpoint through actual JSON, resume in a
fresh engine instance, and compare everything observable.
"""

import json
import random

import pytest

from repro.core import CostConfig, SearchConfig, Stoke
from repro.core.search import SearchCheckpoint
from repro.kernels.aek.vector import AEK_KERNELS
from repro.kernels.libimf import sin_kernel
from repro.validation.strategies import ValidationMcmc, ValidationRandom
from repro.validation.validator import (ValidationCheckpoint,
                                        ValidationConfig, Validator)
from repro.x86.assembler import assemble
from repro.x86.testcase import uniform_testcases

TARGET = assemble("movq $2.0d, xmm1\nmulsd xmm1, xmm0\naddsd xmm0, xmm0\n")


def _stoke(backend):
    tests = uniform_testcases(random.Random(0), 8, {"xmm0": (-4, 4)})
    return Stoke(TARGET, tests, ["xmm0"], CostConfig(eta=0.0, k=1.0),
                 backend=backend)


def _same_search(a, b):
    assert a.best_cost == b.best_cost
    assert a.trace == b.trace
    assert a.stats.proposals == b.stats.proposals
    assert a.stats.accepted == b.stats.accepted
    assert a.stats.invalid_proposals == b.stats.invalid_proposals
    assert a.stats.moves_proposed == b.stats.moves_proposed
    assert a.stats.moves_accepted == b.stats.moves_accepted
    assert a.best_program.to_text(include_unused=True) == \
        b.best_program.to_text(include_unused=True)
    assert (a.best_correct is None) == (b.best_correct is None)
    if a.best_correct is not None:
        assert a.best_correct.to_text(include_unused=True) == \
            b.best_correct.to_text(include_unused=True)
        assert a.best_correct_latency == b.best_correct_latency


class TestSearchResume:
    @pytest.mark.parametrize("backend", ["jit", "emulator"])
    def test_bit_identical_resume(self, backend):
        config = SearchConfig(proposals=600, seed=11)
        full = _stoke(backend).search(config)

        checkpoints = []
        _stoke(backend).search(config, checkpoint_every=200,
                               on_checkpoint=checkpoints.append)
        assert [c.iteration for c in checkpoints] == [200, 400]

        # The checkpoint must survive real JSON, not just stay in memory.
        doc = json.loads(json.dumps(checkpoints[-1].to_dict()))
        resumed = _stoke(backend).search(
            config, resume=SearchCheckpoint.from_dict(doc))
        _same_search(full, resumed)

    def test_resume_from_each_checkpoint(self):
        config = SearchConfig(proposals=500, seed=7)
        full = _stoke("jit").search(config)
        checkpoints = []
        _stoke("jit").search(config, checkpoint_every=100,
                             on_checkpoint=checkpoints.append)
        for checkpoint in checkpoints:
            resumed = _stoke("jit").search(config, resume=checkpoint)
            _same_search(full, resumed)

    def test_config_echo_mismatch_rejected(self):
        config = SearchConfig(proposals=300, seed=1)
        checkpoints = []
        _stoke("jit").search(config, checkpoint_every=100,
                             on_checkpoint=checkpoints.append)
        other = SearchConfig(proposals=300, seed=2)
        with pytest.raises(ValueError):
            _stoke("jit").search(other, resume=checkpoints[0])

    def test_no_checkpoint_at_final_iteration(self):
        config = SearchConfig(proposals=200, seed=1)
        checkpoints = []
        _stoke("jit").search(config, checkpoint_every=200,
                             on_checkpoint=checkpoints.append)
        assert checkpoints == []


class TestValidationResume:
    @pytest.mark.parametrize("strategy_cls", [ValidationMcmc,
                                              ValidationRandom])
    def test_bit_identical_resume(self, strategy_cls):
        spec = sin_kernel(degree=11)
        rewrite = sin_kernel(degree=5).program

        def validator():
            return Validator(spec.program, rewrite, spec.live_outs,
                             dict(spec.ranges), spec.base_testcase)

        config = ValidationConfig(eta=1.0, max_proposals=400,
                                  min_samples=10_000, seed=7,
                                  keep_chain=True)
        strategy = strategy_cls()
        full = validator().validate(config, strategy=strategy)
        assert full.max_err > 0  # the test is vacuous on a zero chain

        checkpoints = []
        validator().validate(config, strategy=strategy,
                             checkpoint_every=100,
                             on_checkpoint=checkpoints.append)
        assert checkpoints
        doc = json.loads(json.dumps(checkpoints[-1].to_dict()))
        resumed = validator().validate(
            config, strategy=strategy,
            resume=ValidationCheckpoint.from_dict(doc))
        assert resumed.max_err == full.max_err
        assert resumed.samples == full.samples
        assert resumed.z_scores == full.z_scores
        assert resumed.trace == full.trace
        assert resumed.chain == full.chain
        assert resumed.argmax.inputs == full.argmax.inputs

    def test_config_echo_mismatch_rejected(self):
        spec = AEK_KERNELS["dot"]()
        validator = Validator(spec.program, spec.program, spec.live_outs,
                              dict(spec.ranges), spec.base_testcase)
        checkpoints = []
        validator.validate(ValidationConfig(max_proposals=200, seed=1),
                           checkpoint_every=64,
                           on_checkpoint=checkpoints.append)
        with pytest.raises(ValueError):
            validator.validate(ValidationConfig(max_proposals=200, seed=9),
                               resume=checkpoints[0])


class TestBnBResume:
    def _verifier(self):
        from repro.verify.bnb import BnBVerifier

        spec = sin_kernel(degree=11)
        rewrite = sin_kernel(degree=7).program
        return BnBVerifier(spec.program, rewrite, spec.live_outs,
                           dict(spec.ranges))

    def test_bit_identical_resume(self):
        from repro.verify.bnb import BnBCheckpoint, BnBConfig

        config = BnBConfig(max_boxes=48)
        full = self._verifier().run(config)

        checkpoints = []
        self._verifier().run(config, checkpoint_rounds=4,
                             on_checkpoint=checkpoints.append)
        assert checkpoints
        doc = json.loads(json.dumps(checkpoints[-1].to_dict()))
        resumed = self._verifier().run(
            config, resume=BnBCheckpoint.from_dict(doc))

        assert resumed.bound_ulps == full.bound_ulps
        assert resumed.boxes_explored == full.boxes_explored
        assert resumed.boxes_pruned == full.boxes_pruned
        assert resumed.complete == full.complete
        assert resumed.termination == full.termination
        assert resumed.leaf_bounds == full.leaf_bounds
        assert [leaf.bounds for leaf in resumed.leaves] == \
            [leaf.bounds for leaf in full.leaves]

    def test_certificates_bit_identical(self):
        from repro.core.serialize import canonical_json
        from repro.verify.bnb import BnBCheckpoint, BnBConfig

        config = BnBConfig(max_boxes=32)

        def cert_doc(verifier, result):
            doc = verifier.certificate(result, config=config).to_dict()
            doc["stats"]["wall_time"] = 0.0
            return canonical_json(doc)

        v1 = self._verifier()
        full = v1.run(config)
        checkpoints = []
        self._verifier().run(config, checkpoint_rounds=3,
                             on_checkpoint=checkpoints.append)
        v2 = self._verifier()
        resumed = v2.run(config, resume=BnBCheckpoint.from_dict(
            json.loads(json.dumps(checkpoints[-1].to_dict()))))
        assert cert_doc(v1, full) == cert_doc(v2, resumed)
