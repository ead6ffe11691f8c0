"""Equivalence certificates and UNSAT proof bundles (certifying mode)."""

from __future__ import annotations

import json

from repro.core import CompileOptions, compile_spec
from repro.hw.device import DeviceProfile
from repro.ir import Bits
from repro.obs import Tracer, use_tracer
from repro.persist import (
    CompileCache,
    certificate_doc,
    check_proof_bundle,
    compile_key,
    load_certificate,
    store_proof_bundle,
    verify_certificate,
    write_certificate,
)
from repro.persist.fingerprint import NON_SEMANTIC_OPTIONS


def _certified_compile(spec, device, tmp_path, **overrides):
    options = CompileOptions(
        certify=True,
        cache_dir=str(tmp_path),
        checkpoint_dir=str(tmp_path / "ckpt"),
        **overrides,
    )
    return compile_spec(spec, device, options), options


class TestCertificateRoundTrip:
    def test_compile_writes_verifiable_certificate(
        self, tmp_path, spec, device
    ):
        result, options = _certified_compile(spec, device, tmp_path)
        assert result.ok
        assert result.certificate_path
        doc = load_certificate(result.certificate_path)
        assert doc is not None
        assert doc["constraint_digest"]
        assert doc["witnesses"]
        key = compile_key(spec, device, options)
        tracer = Tracer()
        with use_tracer(tracer):
            check = verify_certificate(doc, expected_key=key)
        assert check.ok, check.reason
        assert check.witnesses_checked == len(doc["witnesses"])
        assert tracer.registry.get("certify.witness_checked") == (
            check.witnesses_checked
        )

    def test_cache_hit_reports_certificate(self, tmp_path, spec, device):
        first, _ = _certified_compile(spec, device, tmp_path)
        again, _ = _certified_compile(spec, device, tmp_path)
        assert again.cached
        assert again.certificate_path == first.certificate_path

    def test_certify_flag_does_not_change_cache_key(self, spec, device):
        assert "certify" in NON_SEMANTIC_OPTIONS
        plain = compile_key(spec, device, CompileOptions())
        certified = compile_key(spec, device, CompileOptions(certify=True))
        assert plain == certified

    def test_uncertified_compile_writes_no_certificate(
        self, tmp_path, spec, device
    ):
        options = CompileOptions(cache_dir=str(tmp_path))
        result = compile_spec(spec, device, options)
        assert result.ok and not result.certificate_path
        assert CompileCache(tmp_path).stats()["certificates"] == 0


class TestCertificateTampering:
    def test_wrong_key_rejected(self, tmp_path, spec, device):
        result, _ = _certified_compile(spec, device, tmp_path)
        doc = load_certificate(result.certificate_path)
        check = verify_certificate(doc, expected_key="f" * 64)
        assert not check.ok and "compile_key" in check.reason

    def test_tampered_program_rejected(self, tmp_path, spec, device):
        result, _ = _certified_compile(spec, device, tmp_path)
        doc = load_certificate(result.certificate_path)
        doc["program"]["entries"][0]["value"] ^= 1
        check = verify_certificate(doc)
        assert not check.ok and "program fingerprint" in check.reason

    def test_tampered_spec_rejected(self, tmp_path, spec, device):
        result, _ = _certified_compile(spec, device, tmp_path)
        doc = load_certificate(result.certificate_path)
        doc["spec_source"] = doc["spec_source"].replace("0x", "0x1", 1)
        check = verify_certificate(doc)
        assert not check.ok

    def test_wrong_program_fails_witnesses(self, tmp_path, spec, device):
        # A *consistently re-fingerprinted* but wrong program must be
        # caught by the witness replay, not just the hash comparison.
        result, options = _certified_compile(spec, device, tmp_path)
        program = result.program
        # Empty the TCAM: every accepting witness now falls through to a
        # miss, so the replay must distinguish the programs.  (The empty
        # program still satisfies the device constraints, so the check
        # genuinely reaches the witness stage.)
        del program.entries[:]
        doc = certificate_doc(
            spec,
            device,
            program,
            compile_key=compile_key(spec, device, options),
            constraint_digest="x",
            witnesses=[
                Bits(v, length)
                for v, length in load_certificate(
                    result.certificate_path
                )["witnesses"]
            ],
            max_steps=64,
        )
        check = verify_certificate(doc)
        assert not check.ok, "tampered program must fail a witness"

    def test_torn_certificate_quarantined_by_deep_verify(
        self, tmp_path, spec, device
    ):
        result, _ = _certified_compile(spec, device, tmp_path)
        cert = result.certificate_path
        raw = json.loads(open(cert).read())
        raw["payload"]["witnesses"] = []           # checksum now stale
        open(cert, "w").write(json.dumps(raw))
        report = CompileCache(tmp_path).verify(deep=True)
        assert report["cert_invalid"] == 1
        assert report["cert_ok"] == 0


class TestDeepVerify:
    def test_deep_verify_revalidates_certificates(
        self, tmp_path, spec, device
    ):
        _certified_compile(spec, device, tmp_path)
        report = CompileCache(tmp_path).verify(deep=True)
        assert report["ok"] == 1
        assert report["cert_ok"] == 1
        assert report["cert_invalid"] == 0
        assert report["witnesses_checked"] > 0

    def test_shallow_verify_skips_certificates(self, tmp_path, spec, device):
        _certified_compile(spec, device, tmp_path)
        report = CompileCache(tmp_path).verify()
        assert "cert_ok" not in report


class TestProofBundles:
    def _logged_proof(self):
        from repro.smt.sat import SatSolver, lit

        s = SatSolver()
        log = s.enable_proof()
        s.ensure_vars(2)
        for clause in (
            [lit(0), lit(1)],
            [lit(0), lit(1, False)],
            [lit(0, False), lit(1)],
            [lit(0, False), lit(1, False)],
        ):
            s.add_clause(clause)
        assert s.solve() is False
        return log

    def test_store_and_check(self, tmp_path):
        log = self._logged_proof()
        ref = store_proof_bundle(tmp_path, "k" * 64, "fwd:abc", "-:2", log)
        assert ref is not None and ref["refutation"]
        ok, reason = check_proof_bundle(tmp_path, ref)
        assert ok, reason

    def test_tampered_bundle_rejected(self, tmp_path):
        log = self._logged_proof()
        ref = store_proof_bundle(tmp_path, "k" * 64, "fwd:abc", "-:2", log)
        drat = tmp_path / ref["drat"]
        drat.write_text(drat.read_text() + "1 0\n")
        ok, reason = check_proof_bundle(tmp_path, ref)
        assert not ok and "hash" in reason

    def test_retired_budgets_record_checkable_refs(self, tmp_path, device):
        # A 4-way dispatch needs more TCAM entries than the lower bound:
        # the first budgets are proved UNSAT and retired, each with a
        # DRAT bundle referenced from the checkpoint.
        from repro.ir import parse_spec
        from repro.persist import CheckpointManager

        src = """
        header eth { ty : 4; }
        parser demo {
            state start {
                extract(eth);
                transition select(eth.ty) {
                    1 : accept;
                    2 : reject;
                    3 : accept;
                    5 : reject;
                    default : accept;
                }
            }
        }
        """
        spec = parse_spec(src)
        ckpt = tmp_path / "ckpt"
        options = CompileOptions(certify=True, checkpoint_dir=str(ckpt))
        result = compile_spec(spec, device, options)
        assert result.ok and result.stats.budgets_retired > 0
        manager = CheckpointManager(ckpt, compile_key(spec, device, options))
        refs = {}
        for arm_key in manager.state["arms"]:
            refs.update(manager.proof_refs(arm_key))
        assert len(refs) == result.stats.budgets_retired
        for ref in refs.values():
            assert ref["refutation"]
            ok, reason = check_proof_bundle(ckpt, ref)
            assert ok, reason


class TestWriteFailureDegrades:
    def test_unwritable_certificate_is_best_effort(self, tmp_path):
        bad = tmp_path / "entry.json"
        bad.write_text("occupied")
        # Writing under a path whose parent is a *file* must fail cleanly.
        assert not write_certificate(bad / "x.cert.json", {"compile_key": "k"})
