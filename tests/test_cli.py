"""Tests for the ``python -m repro`` command-line front-end."""

import json

import pytest

from repro.cli import _parse_ranges, _parse_values, main

KERNEL = """
movq $2.0d, xmm1
mulsd xmm1, xmm0
addsd xmm0, xmm0
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.s"
    path.write_text(KERNEL)
    return str(path)


class TestParsing:
    def test_ranges(self):
        assert _parse_ranges(["xmm0=-1:2.5"]) == {"xmm0": (-1.0, 2.5)}

    def test_ranges_reject_bad(self):
        with pytest.raises(SystemExit):
            _parse_ranges(["xmm0=5"])

    def test_values(self):
        assert _parse_values(["xmm0=2.5", "rax=7"]) == \
            {"xmm0": 2.5, "rax": 7.0}

    def test_values_reject_bad(self):
        with pytest.raises(SystemExit):
            _parse_values(["xmm0"])


class TestCommands:
    def test_run(self, kernel_file, capsys):
        rc = main(["run", kernel_file, "--set", "xmm0=2.5",
                   "--live-out", "xmm0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "10.0" in out

    def test_run_signal(self, tmp_path, capsys):
        path = tmp_path / "fault.s"
        path.write_text("movsd (rax), xmm0\n")
        rc = main(["run", str(path), "--set", "rax=4096",
                   "--live-out", "xmm0"])
        assert rc == 1
        assert "SIGSEGV" in capsys.readouterr().out

    def test_trace(self, kernel_file, capsys):
        rc = main(["trace", kernel_file, "--set", "xmm0=1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mulsd" in out and "->" in out

    def test_optimize_and_validate(self, kernel_file, tmp_path, capsys):
        rc = main(["optimize", kernel_file, "--live-out", "xmm0",
                   "--range", "xmm0=-10:10", "--proposals", "2500",
                   "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        rewrite_lines = [line for line in out.splitlines()
                         if line and not line.startswith("#")]
        assert rewrite_lines
        rewrite_path = tmp_path / "rewrite.s"
        rewrite_path.write_text("\n".join(rewrite_lines) + "\n")

        rc = main(["validate", kernel_file, str(rewrite_path),
                   "--live-out", "xmm0", "--range", "xmm0=-10:10",
                   "--proposals", "1500"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_fails_wrong_rewrite(self, kernel_file, tmp_path,
                                          capsys):
        wrong = tmp_path / "wrong.s"
        wrong.write_text("mulsd xmm0, xmm0\n")
        rc = main(["validate", kernel_file, str(wrong),
                   "--live-out", "xmm0", "--range", "xmm0=-10:10",
                   "--proposals", "800"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestVerify:
    def test_verify_files(self, kernel_file, tmp_path, capsys):
        rewrite = tmp_path / "rewrite.s"
        rewrite.write_text("addsd xmm0, xmm0\naddsd xmm0, xmm0\n")
        rc = main(["verify", kernel_file, str(rewrite), "--sound",
                   "--live-out", "xmm0", "--range", "xmm0=0.5:2",
                   "--budget", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "certified bound" in out
        assert "complete=True" in out

    def test_verify_kernel_with_seeds(self, capsys):
        rc = main(["verify", "--kernel", "exp", "--degree", "8",
                   "--budget", "32", "--seed-proposals", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "counterexample seed" in out
        assert "certified bound" in out

    def test_verify_emit_and_check_cert(self, tmp_path, capsys):
        cert = tmp_path / "sin.cert.json"
        rc = main(["verify", "--kernel", "sin", "--degree", "9",
                   "--budget", "16", "--emit-cert", str(cert)])
        assert rc == 0
        assert cert.exists()
        rc = main(["verify", "--kernel", "sin", "--degree", "9",
                   "--check-cert", str(cert)])
        assert rc == 0
        assert "VALID" in capsys.readouterr().out

    def test_verify_unknown_kernel_lists_known(self):
        from repro.kernels.aek.vector import AEK_KERNELS
        from repro.kernels.libimf import LIBIMF_KERNELS

        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--kernel", "nosuch"])
        message = excinfo.value.code
        assert isinstance(message, str)  # a message, not a traceback
        assert "unknown kernel 'nosuch'" in message
        for name in list(AEK_KERNELS) + list(LIBIMF_KERNELS):
            assert name in message

    def test_verify_kernel_help_lists_resolvable_names(self, capsys):
        import re

        from repro.kernels.aek.vector import AEK_KERNELS
        from repro.kernels.libimf import LIBIMF_KERNELS

        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        listed = re.search(r"built-in kernel: (.*?) \(brings", text).group(1)
        names = {name.strip() for name in
                 listed.replace(" or ", ", ").split(",") if name.strip()}
        assert names == set(AEK_KERNELS) | set(LIBIMF_KERNELS)

    def test_verify_aek_kernel_certifies(self, tmp_path, capsys):
        cert = tmp_path / "dot.cert.json"
        main(["verify", "--kernel", "dot", "--budget", "8",
              "--emit-cert", str(cert)])
        assert "certified bound" in capsys.readouterr().out
        rc = main(["verify", "--kernel", "dot", "--check-cert", str(cert)])
        assert rc == 0
        assert "certificate: VALID" in capsys.readouterr().out

    def test_verify_takes_no_jobs_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--kernel", "exp", "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_verify_takes_no_engine_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--kernel", "exp", "--engine", "reference"])
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_check_cert_rejects_wrong_program(self, tmp_path, capsys):
        cert = tmp_path / "exp.cert.json"
        rc = main(["verify", "--kernel", "exp", "--degree", "8",
                   "--budget", "16", "--emit-cert", str(cert)])
        assert rc == 0
        # Check the exp certificate against the sin kernel: digests differ.
        rc = main(["verify", "--kernel", "sin", "--degree", "9",
                   "--check-cert", str(cert)])
        assert rc == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_check_cert_missing_file(self, tmp_path, capsys):
        rc = main(["verify", "--kernel", "sin", "--degree", "9",
                   "--check-cert", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().out

    def test_check_cert_malformed_file(self, tmp_path, capsys):
        cert = tmp_path / "garbage.json"
        cert.write_text("{not a certificate")
        rc = main(["verify", "--kernel", "sin", "--degree", "9",
                   "--check-cert", str(cert)])
        assert rc == 2
        assert "malformed" in capsys.readouterr().out

    def test_check_cert_truncated_document(self, tmp_path, capsys):
        cert = tmp_path / "partial.json"
        cert.write_text('{"version": 1}')  # valid JSON, not a cert
        rc = main(["verify", "--kernel", "sin", "--degree", "9",
                   "--check-cert", str(cert)])
        assert rc == 2
        assert "malformed" in capsys.readouterr().out


class TestOptimizeExitCodes:
    def test_zero_accepted_proposals_fails(self, kernel_file, capsys):
        # Seed 0 rejects both of its two proposals; an optimize run that
        # never accepted anything must not exit 0.
        rc = main(["optimize", kernel_file, "--live-out", "xmm0",
                   "--range", "xmm0=-10:10", "--proposals", "2",
                   "--seed", "0"])
        assert rc == 1
        assert "zero proposals" in capsys.readouterr().out


class TestCountArguments:
    """Bad counts are argparse errors (exit 2), never a traceback, a
    silently empty search or a verdict over zero samples."""

    @pytest.mark.parametrize("argv", [
        ["optimize", "{k}", "--live-out", "xmm0", "--range", "xmm0=-1:1",
         "--testcases", "0"],
        ["optimize", "{k}", "--live-out", "xmm0", "--range", "xmm0=-1:1",
         "--proposals", "-5"],
        ["validate", "{k}", "{k}", "--live-out", "xmm0",
         "--range", "xmm0=-1:1", "--proposals", "0"],
    ], ids=["optimize-testcases-0", "optimize-proposals-neg",
            "validate-proposals-0"])
    def test_nonpositive_count_is_a_usage_error(self, kernel_file, capsys,
                                                argv):
        with pytest.raises(SystemExit) as exc:
            main([kernel_file if arg == "{k}" else arg for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["optimize", "{k}", "--live-out", "xmm0", "--range", "xmm0=-1:1"],
        ["submit", "--store", "{k}", "--kernel", "dot"],
    ], ids=["optimize", "submit"])
    def test_search_takes_no_backend_option(self, kernel_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([kernel_file if arg == "{k}" else arg for arg in argv]
                 + ["--backend", "jit"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestService:
    """submit/serve/status/artifacts happy path against a tmp store."""

    def _submit(self, store, capsys):
        rc = main(["submit", "--store", store, "--kernel", "dot",
                   "--chains", "1", "--proposals", "300",
                   "--testcases", "8", "--stages", "search,select",
                   "--name", "cli-test", "--json"])
        assert rc == 0
        return json.loads(capsys.readouterr().out)

    def test_full_cycle(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        doc = self._submit(store, capsys)
        assert doc["new"] == 2 and doc["reused"] == 0
        roles = {job["role"]: job["digest"] for job in doc["jobs"]}
        assert sorted(roles) == ["dot/eta=0/search[0]", "dot/eta=0/select"]

        rc = main(["serve", "--store", store, "--jobs", "1",
                   "--quiet", "--json"])
        assert rc == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert counts == {"pending": 0, "running": 0, "done": 2,
                          "failed": 0}

        rc = main(["status", "--store", store, "--json"])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["totals"]["done"] == 2
        states = {job["role"]: job["state"]
                  for job in status["campaigns"][0]["jobs"]}
        assert set(states.values()) == {"done"}

        # Resubmitting the identical campaign reuses every job.
        assert self._submit(store, capsys)["reused"] == 2

        # The select job's rewrite artifact is readable by digest prefix.
        select = roles["dot/eta=0/select"]
        rc = main(["artifacts", "--store", store, "--job", select[:12],
                   "--name", "rewrite.s"])
        assert rc == 0
        assert capsys.readouterr().out.strip()

        rc = main(["artifacts", "--store", store, "--job", select[:12],
                   "--json"])
        assert rc == 0
        listing = json.loads(capsys.readouterr().out)
        assert "result.json" in listing["artifacts"]
        assert "rewrite.s" in listing["artifacts"]

    def test_artifacts_rejects_unknown_prefix(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._submit(store, capsys)
        with pytest.raises(SystemExit):
            main(["artifacts", "--store", store, "--job", "ffff"])

    def test_submit_rejects_unknown_kernel(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["submit", "--store", str(tmp_path / "s"),
                  "--kernel", "nosuch"])


class TestCatalogCli:
    """catalog build/query/select against a fabricated finished sweep."""

    def _seed(self, store, **kwargs):
        from repro.service import Ledger
        from tests.catalog.conftest import plant_campaign

        with Ledger(store) as ledger:
            return plant_campaign(ledger, **kwargs)

    def test_build_query_select_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        cid = self._seed(store)
        rc = main(["catalog", "build", "--store", store, "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["campaign"] == cid
        digest = doc["digest"]

        # Rebuilding from the same ledger is byte-identical.
        assert main(["catalog", "build", "--store", store,
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["digest"] == digest

        rc = main(["catalog", "query", "--store", store, "--frontier",
                   "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["digest"] == digest
        assert [e["id"] for e in out["entries"]] == \
            ["dot/eta=0", "dot/eta=10"]

        rc = main(["catalog", "select", "--store", store, "--budget",
                   "4", "--workload", "dot:2", "--json"])
        assert rc == 0
        sel = json.loads(capsys.readouterr().out)
        assert sel["assignment"]["dot"]["id"] == "dot/eta=10"
        assert sel["latency"] == 100

    def test_query_unknown_kernel_exits(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._seed(store)
        main(["catalog", "build", "--store", store, "--json"])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="not in catalog"):
            main(["catalog", "query", "--store", store,
                  "--kernel", "cos"])

    def test_select_before_build_exits_with_guidance(self, tmp_path):
        store = str(tmp_path / "store")
        self._seed(store)
        with pytest.raises(SystemExit, match="repro catalog build"):
            main(["catalog", "select", "--store", store,
                  "--budget", "1"])

    def test_build_needs_a_campaign(self, tmp_path):
        from repro.service import Ledger

        store = str(tmp_path / "store")
        with Ledger(store):
            pass
        with pytest.raises(SystemExit, match="no campaigns"):
            main(["catalog", "build", "--store", store])

    def test_build_picks_among_campaigns(self, tmp_path, capsys):
        from tests.catalog.conftest import select_doc, uf_doc

        store = str(tmp_path / "store")
        self._seed(store)
        self._seed(store, cid="cat-2",
                   cells=[("add", 0.0,
                           select_doc("a0", 30, target_latency=60),
                           uf_doc("a0"))])
        with pytest.raises(SystemExit, match="pick one"):
            main(["catalog", "build", "--store", store])
        rc = main(["catalog", "build", "--store", store,
                   "--campaign", "cat-2", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["summary"]["kernels"]) == ["add"]

    def test_url_build_rejects_store_only_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="--check"):
            main(["catalog", "build", "--url", "http://localhost:1",
                  "--campaign", "c", "--check"])

    def test_ambiguous_prefix_lists_matches(self, tmp_path, capsys):
        from repro.service import Ledger

        store = str(tmp_path / "store")
        self._seed(store)
        with Ledger(store) as ledger:
            for suffix in ("aa", "bb"):
                ledger._conn.execute(
                    "INSERT INTO jobs (digest, kind, payload, state,"
                    " role, max_attempts, created_at, updated_at)"
                    " VALUES (?, 'search', '{}', 'pending', '', 3, 0, 0)",
                    ("abcdef" + suffix + "0" * 56,))
            ledger._conn.commit()
        with pytest.raises(SystemExit) as err:
            main(["artifacts", "--store", store, "--job", "abcdef"])
        message = str(err.value)
        assert "ambiguous" in message
        assert "abcdefaa" in message and "abcdefbb" in message
