"""Relational-domain BnB integration: checkpoints, certificates, and
forged-document rejection.

The relational domain plugs into the same BnB search, so
checkpoint/resume bit-identity must hold unchanged with
``domain='relational'``; its bounds and accounting are pinned as
literals; and its certificates must round-trip through the independent
checker, which re-derives each leaf in the same domain and rejects
tampered or forged documents.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.x86.assembler import assemble
from repro.x86.memory import Memory

from repro.core.serialize import canonical_json
from repro.kernels.aek import vector as V
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify import checker
from repro.verify.bnb import BnBCheckpoint, BnBConfig, BnBVerifier
from repro.verify.certificate import Certificate

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


def _poly_verifier(domain="relational"):
    target, rewrite = _poly_pair()
    return BnBVerifier(target, rewrite, ["xmm0"], {"xmm0": (0.5, 2.0)},
                       domain=domain)


def _libimf_verifier(name, domain="relational"):
    factory = LIBIMF_KERNELS[name]
    spec = factory()
    rewrite = factory(REDUCED_DEGREE[name]).program
    return BnBVerifier(spec.program, rewrite, spec.live_outs,
                       dict(spec.ranges), domain=domain)


def _delta_verifier():
    spec = V.delta_kernel()
    ranges = dict(spec.ranges)
    ranges.update(V.delta_mem_ranges())
    return BnBVerifier(spec.program, V.delta_rewrite(), spec.live_outs,
                       ranges, domain="relational",
                       memory=Memory(V.aek_segments()),
                       concrete_gp=V.CONCRETE_GP_INDICES)


def _partition(result):
    return (result.bound_ulps, result.leaf_bounds,
            [box.bounds for box in result.leaves])


def _cert_digest(verifier, result, config):
    doc = verifier.certificate(result, config=config).to_dict()
    doc.get("stats", {})["wall_time"] = 0.0
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


class TestRelationalCheckpointResume:
    """Interrupt/resume under the relational domain is bit-identical to
    the uninterrupted run, with snapshots every round or every third."""

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
        assert mid.domain == "relational"

        restored = BnBCheckpoint.from_dict(
            json.loads(json.dumps(mid.to_dict())))
        assert restored.domain == "relational"
        resumed = verifier.run(config, resume=restored)

        assert _partition(resumed) == _partition(baseline)
        assert resumed.boxes_explored == baseline.boxes_explored
        assert resumed.rounds == baseline.rounds
        assert _cert_digest(verifier, resumed, config) == \
            _cert_digest(verifier, baseline, config)

    def test_domain_mismatch_rejected(self):
        # Resuming a separate-domain checkpoint in a relational search
        # (or vice versa) would mix incomparable leaf partitions.
        sep = _poly_verifier(domain="separate")
        snapshots = []
        sep.run(BnBConfig(max_boxes=64), checkpoint_rounds=3,
                on_checkpoint=snapshots.append)
        rel = _poly_verifier(domain="relational")
        with pytest.raises(ValueError, match="domain"):
            rel.run(BnBConfig(max_boxes=64), resume=snapshots[0])

    def test_legacy_checkpoint_defaults_to_separate(self):
        sep = _poly_verifier(domain="separate")
        snapshots = []
        sep.run(BnBConfig(max_boxes=64), checkpoint_rounds=3,
                on_checkpoint=snapshots.append)
        doc = snapshots[0].to_dict()
        del doc["domain"]  # a checkpoint written before the field
        restored = BnBCheckpoint.from_dict(doc)
        assert restored.domain == "separate"
        baseline = sep.run(BnBConfig(max_boxes=64))
        resumed = sep.run(BnBConfig(max_boxes=64), resume=restored)
        assert _partition(resumed) == _partition(baseline)


class TestRelationalPinnedPrecision:
    """Bound, tightest leaf and (boxes, concrete, widened) stats triple,
    as literals: any change to a transfer's or the difference window's
    precision shows here."""

    @pytest.mark.parametrize("name, bound, tightest, triple", [
        ("cos", 9.021136428344101e+18, 8473.0, (49, 0, 0)),
        ("exp", 9.22859748745458e+18, 4.0, (49, 140, 350)),
        ("tan", 1.843773687445481e+19, 121.0, (49, 0, 0)),
    ])
    def test_libimf_relational(self, name, bound, tightest, triple):
        result = _libimf_verifier(name).run(BnBConfig(max_boxes=48))
        assert result.bound_ulps == bound
        assert min(result.leaf_bounds) == tightest
        assert (result.stats.boxes, result.stats.concrete_bit_ops,
                result.stats.widened_bit_ops) == triple

    def test_delta_relational(self):
        # Memory-backed dimensions and MemLoc live-outs.
        result = _delta_verifier().run(BnBConfig(max_boxes=48))
        assert result.bound_ulps == 5898954768.0
        assert min(result.leaf_bounds) == 1999008961.0
        assert (result.stats.boxes, result.stats.concrete_bit_ops,
                result.stats.widened_bit_ops) == (49, 0, 0)


class TestRelationalCertificates:
    @pytest.fixture(scope="class")
    def certified(self):
        target, rewrite = _poly_pair()
        verifier = BnBVerifier(target, rewrite, ["xmm0"],
                               {"xmm0": (0.5, 2.0)}, domain="relational")
        result = verifier.run(BnBConfig(max_boxes=32))
        cert = verifier.certificate(result)
        return target, rewrite, cert

    def test_domain_recorded_and_round_trips(self, certified):
        _, _, cert = certified
        assert cert.domain == "relational"
        assert Certificate.from_json(cert.to_json()) == cert

    def test_checker_revalidates_relationally(self, certified):
        target, rewrite, cert = certified
        report = checker.check(cert, target, rewrite)
        assert report.ok, report.failures
        assert report.leaves_checked == len(cert.leaves)

    @pytest.mark.parametrize("name", sorted(REDUCED_DEGREE))
    def test_every_libimf_relational_cert_checks(self, name):
        verifier = _libimf_verifier(name)
        result = verifier.run(BnBConfig(max_boxes=16))
        cert = verifier.certificate(result)
        assert cert.domain == "relational"
        spec = LIBIMF_KERNELS[name]()
        rewrite = LIBIMF_KERNELS[name](REDUCED_DEGREE[name]).program
        report = checker.check(cert, spec.program, rewrite)
        assert report.ok, report.failures

    def test_separate_checker_rejects_relational_claim(self):
        # On exp the relational bound is genuinely below what
        # independent hulls can justify: relabeling the certificate
        # 'separate' must make the checker reject the (now
        # unjustified) leaves.
        verifier = _libimf_verifier("exp")
        result = verifier.run(BnBConfig(max_boxes=32))
        cert = verifier.certificate(result)
        spec = LIBIMF_KERNELS["exp"]()
        rewrite = LIBIMF_KERNELS["exp"](REDUCED_DEGREE["exp"]).program
        sep = _libimf_verifier("exp", domain="separate").run(
            BnBConfig(max_boxes=32))
        assert cert.bound_ulps < sep.bound_ulps
        relabeled = dataclasses.replace(cert, domain="separate")
        report = checker.check(relabeled, spec.program, rewrite)
        assert not report.ok
        assert any("below the derived bound" in f
                   for f in report.failures)

    def test_rejects_tampered_leaf_bound(self, certified):
        target, rewrite, cert = certified
        worst = max(range(len(cert.leaf_bounds)),
                    key=lambda i: cert.leaf_bounds[i])
        bounds = list(cert.leaf_bounds)
        bounds[worst] = 0.0
        bad = dataclasses.replace(cert, leaf_bounds=tuple(bounds),
                                  bound_ulps=max(bounds))
        report = checker.check(bad, target, rewrite)
        assert not report.ok
        assert any("below the derived bound" in f
                   for f in report.failures)

    def test_rejects_dropped_leaf(self, certified):
        target, rewrite, cert = certified
        bad = dataclasses.replace(cert, leaves=cert.leaves[1:],
                                  leaf_bounds=cert.leaf_bounds[1:])
        report = checker.check(bad, target, rewrite)
        assert not report.ok


class TestForgedDocuments:
    """Satellite: unknown domain/version parse to a clear error, never
    a raw ``KeyError`` — the CLI maps it to 'malformed' + exit 2."""

    @pytest.fixture()
    def cert_doc(self):
        verifier = _poly_verifier()
        result = verifier.run(BnBConfig(max_boxes=16))
        return verifier.certificate(result).to_dict()

    def test_unknown_domain_rejected_at_parse(self, cert_doc):
        cert_doc["domain"] = "entangled"
        with pytest.raises(ValueError, match="unknown certificate "
                                             "domain 'entangled'"):
            Certificate.from_dict(cert_doc)

    def test_unknown_version_rejected_at_parse(self, cert_doc):
        cert_doc["version"] = 999
        with pytest.raises(ValueError,
                           match="unsupported certificate version"):
            Certificate.from_dict(cert_doc)

    def test_missing_domain_defaults_to_separate(self, cert_doc):
        # Pre-relational certificates have no domain field at all.
        del cert_doc["domain"]
        cert = Certificate.from_dict(cert_doc)
        assert cert.domain == "separate"

    @pytest.mark.parametrize("forge",
                             [{"domain": "entangled"}, {"version": 7}])
    def test_cli_exits_2_on_forged_certificate(self, forge, tmp_path,
                                               capsys):
        from repro.cli import main

        verifier = _poly_verifier()
        result = verifier.run(BnBConfig(max_boxes=16))
        doc = verifier.certificate(result).to_dict()
        doc.update(forge)
        path = tmp_path / "forged.cert.json"
        path.write_text(json.dumps(doc))
        target, rewrite = _poly_pair()
        t_path = tmp_path / "t.s"
        r_path = tmp_path / "r.s"
        t_path.write_text(target.to_text())
        r_path.write_text(rewrite.to_text())
        code = main(["verify", str(t_path), str(r_path),
                     "--live-out", "xmm0", "--range", "xmm0=0.5:2.0",
                     "--check-cert", str(path)])
        assert code == 2
        assert "malformed" in capsys.readouterr().out
