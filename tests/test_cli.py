"""Command-line front end, driven in process through main(argv).

Exit-code contract under test: 0 success / attack succeeded, 1 rejected or
blocked, 2 validation or policy failure, 3 usage and file errors.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hlslab
from conftest import DATA_DIR
from hlslab import scenarios
from hlslab.cli import build_parser, main
from hlslab.curve import curve_to_dict, find_invalid_curve_point, scalar_mul
from hlslab.hls import (
    KeyPair,
    SigncryptedText,
    keypair_from_dict,
    keypair_to_dict,
    signcrypted_from_dict,
    signcrypted_to_dict,
)
from hlslab.primitives import Mode


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture()
def keys(run, tmp_path):
    alice, bob = tmp_path / "alice.json", tmp_path / "bob.json"
    assert run("keygen", "--seed", "1", "--out", str(alice))[0] == 0
    assert run("keygen", "--seed", "2", "--out", str(bob))[0] == 0
    return alice, bob


class TestKeygen:
    def test_writes_consistent_keypair(self, run, tmp_path, toy):
        out = tmp_path / "kp.json"
        code, _, _ = run("keygen", "--seed", "5", "--out", str(out))
        assert code == 0
        kp = keypair_from_dict(json.loads(out.read_text()))
        assert scalar_mul(kp.d, toy.g, toy) == kp.pub

    def test_seed_determinism_byte_identical(self, run, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("keygen", "--seed", "9", "--out", str(a))
        run("keygen", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_when_no_out(self, run):
        code, out, _ = run("keygen", "--seed", "5")
        assert code == 0
        assert set(json.loads(out)) == {"d", "ux", "uy"}


class TestSigncryptPipeline:
    def test_roundtrip(self, run, keys, tmp_path):
        alice, bob = keys
        msg = tmp_path / "msg.bin"
        msg.write_bytes(b"attack at dawn")
        sigma = tmp_path / "sigma.json"
        code, _, _ = run(
            "signcrypt", "--seed", "3", "--key", str(alice),
            "--recipient", str(bob), "--in", str(msg), "--out", str(sigma),
        )
        assert code == 0
        back = tmp_path / "back.bin"
        code, _, _ = run(
            "unsigncrypt", "--key", str(bob), "--sender", str(alice),
            "--in", str(sigma), "--out", str(back),
        )
        assert code == 0
        assert back.read_bytes() == b"attack at dawn"

    def test_plaintext_to_stdout(self, tmp_path, capsysbinary):
        alice, bob = tmp_path / "alice.json", tmp_path / "bob.json"
        main(["keygen", "--seed", "1", "--out", str(alice)])
        main(["keygen", "--seed", "2", "--out", str(bob)])
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"xyz")
        sigma = tmp_path / "s.json"
        main(["signcrypt", "--seed", "3", "--key", str(alice), "--recipient", str(bob),
              "--in", str(msg), "--out", str(sigma)])
        capsysbinary.readouterr()
        assert main(["unsigncrypt", "--key", str(bob), "--sender", str(alice),
                     "--in", str(sigma)]) == 0
        assert capsysbinary.readouterr().out == b"xyz"

    def test_tampered_triple_exits_1(self, run, keys, tmp_path):
        alice, bob = keys
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"payload")
        sigma = tmp_path / "s.json"
        run("signcrypt", "--seed", "3", "--key", str(alice), "--recipient", str(bob),
            "--in", str(msg), "--out", str(sigma))
        data = json.loads(sigma.read_text())
        data["s"] = "0x0" if data["s"] != "0x0" else "0x1"
        sigma.write_text(json.dumps(data))
        code, _, err = run(
            "unsigncrypt", "--key", str(bob), "--sender", str(alice), "--in", str(sigma)
        )
        assert code == 1
        assert "rejected" in err

    def test_forced_r_zero_writes_infinity(self, run, keys, tmp_path):
        alice, bob = keys
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"m")
        sigma = tmp_path / "s.json"
        code, _, _ = run(
            "signcrypt", "--seed", "3", "--key", str(alice), "--recipient", str(bob),
            "--in", str(msg), "--out", str(sigma), "--forced-r", "0",
        )
        assert code == 0
        assert json.loads(sigma.read_text())["R"] == "infinity"

    def test_hardened_refuses_forced_r(self, run, keys, tmp_path):
        alice, bob = keys
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"m")
        code, _, err = run(
            "signcrypt", "--mode", "hardened", "--seed", "3", "--key", str(alice),
            "--recipient", str(bob), "--in", str(msg), "--forced-r", "5",
        )
        assert code == 2
        assert "refused" in err

    def test_hardened_unsigncrypt_rejects_off_curve_point(self, run, keys, tmp_path):
        alice, bob = keys
        sigma = tmp_path / "s.json"
        sigma.write_text(json.dumps({"C": "00", "R": {"x": "0x0", "y": "0x7"}, "s": "0x2"}))
        code, _, err = run(
            "unsigncrypt", "--mode", "hardened", "--key", str(bob),
            "--sender", str(alice), "--in", str(sigma),
        )
        assert code == 2
        assert "refused" in err

    @pytest.mark.parametrize("mode,code", [("vulnerable", 1), ("hardened", 2)])
    def test_unreduced_ephemeral_x(self, run, tmp_path, mid16, mode, code):
        # x_R + q >= 2^16 has no 2-byte field encoding: a reject, not a usage error
        alice, bob = tmp_path / "alice.json", tmp_path / "bob.json"
        run("keygen", "--curve", "mid16", "--seed", "1", "--out", str(alice))
        run("keygen", "--curve", "mid16", "--seed", "2", "--out", str(bob))
        msg, sigma = tmp_path / "m.bin", tmp_path / "s.json"
        msg.write_bytes(b"payload")
        run("signcrypt", "--curve", "mid16", "--seed", "3", "--key", str(alice),
            "--recipient", str(bob), "--in", str(msg), "--out", str(sigma))
        data = json.loads(sigma.read_text())
        x = int(data["R"]["x"], 16) + mid16.q
        assert x >= 2**16
        data["R"]["x"] = hex(x)
        sigma.write_text(json.dumps(data))
        got, out, err = run(
            "unsigncrypt", "--curve", "mid16", "--mode", mode, "--key", str(bob),
            "--sender", str(alice), "--in", str(sigma),
        )
        assert got == code
        assert out == ""
        assert len(err.splitlines()) == 1
        assert ("rejected the triple" if code == 1 else "out of field range") in err

    def test_recipient_may_be_a_certificate(self, run, keys, tmp_path):
        alice, bob = keys
        state = tmp_path / "ca"
        run("ca", "init", "--seed", "8", "--dir", str(state))
        cert = tmp_path / "bob_cert.json"
        run("ca", "issue", "--dir", str(state), "--subject", "Bob",
            "--pubkey", str(bob), "--out", str(cert))
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"to bob")
        sigma = tmp_path / "s.json"
        code, _, _ = run(
            "signcrypt", "--seed", "4", "--key", str(alice),
            "--recipient", str(cert), "--in", str(msg), "--out", str(sigma),
        )
        assert code == 0
        code, _, _ = run(
            "unsigncrypt", "--key", str(bob), "--sender", str(alice),
            "--in", str(sigma), "--out", str(tmp_path / "back.bin"),
        )
        assert code == 0
        assert (tmp_path / "back.bin").read_bytes() == b"to bob"

    def test_crafted_triple_with_undefined_check_sum_is_rejected(self, run, tmp_path, toy):
        # s * G and h * W share x for this off-curve W (see test_hls)
        files = {}
        for name, d in (("alice", 3), ("bob", 7)):
            files[name] = tmp_path / f"{name}.json"
            kp = KeyPair(d, scalar_mul(d, toy.g, toy))
            files[name].write_text(json.dumps(keypair_to_dict(kp)))
        sigma = tmp_path / "sigma.json"
        crafted = SigncryptedText(b"\x01", find_invalid_curve_point(toy, 3).point, 9)
        sigma.write_text(json.dumps(signcrypted_to_dict(crafted)))
        code, out, err = run(
            "unsigncrypt", "--key", str(files["bob"]), "--sender", str(files["alice"]),
            "--in", str(sigma),
        )
        assert (code, out) == (1, "")
        assert err == "unsigncryption rejected the triple (verification failed)\n"


class TestValidateCommand:
    def test_toy_params_pass_at_cli_default(self, run):
        assert run("validate", "params", "--curve", "toy17")[0] == 0

    def test_toy_params_fail_at_strict_bound(self, run):
        code, out, _ = run(
            "validate", "params", "--curve", "toy17", "--embedding-bound", "20"
        )
        assert code == 2
        assert "embedding" in out

    def test_secp_params_pass(self, run):
        assert run("validate", "params", "--curve", "secp256k1")[0] == 0

    def test_anomalous_fixture_named_in_json(self, run):
        code, out, _ = run(
            "validate", "params", "--curve", str(DATA_DIR / "bad_anomalous.json"),
            "--output", "json",
        )
        assert code == 2
        report = json.loads(out)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed == ["anomalous"]

    def test_pubkey_good(self, run, keys):
        alice, _ = keys
        assert run("validate", "pubkey", "--in", str(alice), "--full")[0] == 0

    def test_pubkey_off_curve(self, run, tmp_path):
        bad = tmp_path / "pt.json"
        bad.write_text(json.dumps({"x": "0x0", "y": "0x7"}))
        code, out, _ = run("validate", "pubkey", "--in", str(bad), "--output", "json")
        assert code == 2
        report = json.loads(out)
        assert [c["name"] for c in report["checks"] if not c["passed"]] == ["on-curve"]

    def test_pubkey_full_order_computation_failure_is_a_failed_check(self, run, tmp_path):
        # (2, 3) lies on y^2 = x^3 + 1 over Z/45, where 11 * (2, 3) needs 1/18
        curve = tmp_path / "q45.json"
        curve.write_text(json.dumps(
            {"q": "0x2d", "a": "0x0", "b": "0x1", "gx": "0x2", "gy": "0x3", "n": "0xb"}
        ))
        point = tmp_path / "pt.json"
        point.write_text(json.dumps({"x": "0x2", "y": "0x3"}))
        code, out, _ = run(
            "validate", "pubkey", "--curve", str(curve), "--in", str(point), "--full",
            "--output", "json",
        )
        assert code == 2
        assert json.loads(out)["checks"][-1] == {
            "name": "subgroup-order",
            "passed": False,
            "detail": "order computation failed: 18 is not invertible modulo 45",
            "extended": True,
        }

    def test_cert_checklist(self, run, keys, tmp_path):
        alice, _ = keys
        state = tmp_path / "ca"
        run("ca", "init", "--seed", "8", "--dir", str(state))
        cert = tmp_path / "cert.json"
        run("ca", "issue", "--dir", str(state), "--subject", "Alice",
            "--pubkey", str(alice), "--out", str(cert))
        ca_key = state / "ca_key.json"
        assert run("validate", "cert", "--in", str(cert), "--ca", str(ca_key))[0] == 0
        # past the validity window
        code, out, _ = run(
            "validate", "cert", "--in", str(cert), "--ca", str(ca_key),
            "--now", str(10**12),
        )
        assert code == 2
        assert "expiry" in out


class TestCaCommand:
    def test_init_creates_state(self, run, tmp_path):
        state = tmp_path / "ca"
        assert run("ca", "init", "--seed", "8", "--dir", str(state))[0] == 0
        assert (state / "ca_key.json").exists()
        assert (state / "serial.txt").read_text().strip() == "1"
        assert json.loads((state / "crl.json").read_text()) == []

    def test_init_refuses_overwrite(self, run, tmp_path):
        state = tmp_path / "ca"
        run("ca", "init", "--seed", "8", "--dir", str(state))
        assert run("ca", "init", "--seed", "9", "--dir", str(state))[0] == 3

    def test_issue_verify_revoke_cycle(self, run, keys, tmp_path):
        alice, _ = keys
        state = tmp_path / "ca"
        run("ca", "init", "--seed", "8", "--dir", str(state))
        cert = tmp_path / "cert.json"
        code, _, _ = run(
            "ca", "issue", "--dir", str(state), "--subject", "Alice",
            "--pubkey", str(alice), "--out", str(cert),
        )
        assert code == 0
        assert run("ca", "verify", "--dir", str(state), "--in", str(cert))[0] == 0
        serial = json.loads(cert.read_text())["serial"]
        assert run("ca", "revoke", "--dir", str(state), "--serial", serial)[0] == 0
        assert run("ca", "verify", "--dir", str(state), "--in", str(cert))[0] == 2

    def test_serials_persist_across_invocations(self, run, keys, tmp_path):
        alice, _ = keys
        state = tmp_path / "ca"
        run("ca", "init", "--seed", "8", "--dir", str(state))
        c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
        run("ca", "issue", "--dir", str(state), "--subject", "A",
            "--pubkey", str(alice), "--out", str(c1))
        run("ca", "issue", "--dir", str(state), "--subject", "B",
            "--pubkey", str(alice), "--out", str(c2))
        assert json.loads(c1.read_text())["serial"] == "0x1"
        assert json.loads(c2.read_text())["serial"] == "0x2"

    def test_pop_policy_flow(self, run, keys, tmp_path):
        alice, _ = keys
        state = tmp_path / "ca"
        run("ca", "init", "--seed", "8", "--dir", str(state))
        # without a proof: refused under --require-pop
        code, _, err = run(
            "ca", "issue", "--dir", str(state), "--subject", "Alice",
            "--pubkey", str(alice), "--require-pop",
        )
        assert code == 2
        assert "possession" in err
        pop = tmp_path / "pop.json"
        code, _, _ = run(
            "ca", "prove", "--seed", "11", "--key", str(alice), "--subject", "Alice",
            "--ca-pub", str(state / "ca_key.json"), "--out", str(pop),
        )
        assert code == 0
        code, _, _ = run(
            "ca", "issue", "--dir", str(state), "--subject", "Alice",
            "--pubkey", str(alice), "--require-pop", "--pop", str(pop),
            "--out", str(tmp_path / "cert.json"),
        )
        assert code == 0

    def test_pk_validation_policy(self, run, tmp_path):
        state = tmp_path / "ca"
        run("ca", "init", "--seed", "8", "--dir", str(state))
        bad = tmp_path / "pt.json"
        bad.write_text(json.dumps({"x": "0x0", "y": "0x7"}))
        # the lax default happily certifies an off-curve key
        assert run(
            "ca", "issue", "--dir", str(state), "--subject", "Eve",
            "--pubkey", str(bad), "--out", str(tmp_path / "eve.json"),
        )[0] == 0
        assert run(
            "ca", "issue", "--dir", str(state), "--subject", "Eve",
            "--pubkey", str(bad), "--require-pk-validation",
        )[0] == 2

    def test_pk_validation_refuses_key_outside_the_subgroup(self, run, tmp_path):
        # #E = 22 but n = 11: (2, 7) lies on the curve and outside <G>
        curve = str(DATA_DIR / "bad_small_order.json")
        state = tmp_path / "ca"
        run("ca", "init", "--curve", curve, "--seed", "8", "--dir", str(state))
        point = tmp_path / "pt.json"
        point.write_text(json.dumps({"x": "0x2", "y": "0x7"}))
        argv = ["ca", "issue", "--curve", curve, "--dir", str(state), "--subject", "Eve",
                "--pubkey", str(point)]
        assert run(*argv, "--out", str(tmp_path / "eve.json"))[0] == 0
        code, out, err = run(*argv, "--require-pk-validation")
        assert (code, out) == (2, "")
        assert err == "refused: public key failed checks: subgroup-order\n"

    def test_concurrent_use_fails_fast(self, run, keys, tmp_path):
        alice, _ = keys
        state = tmp_path / "ca"
        run("ca", "init", "--seed", "8", "--dir", str(state))
        (state / "lock").touch()
        code, _, err = run(
            "ca", "issue", "--dir", str(state), "--subject", "A", "--pubkey", str(alice)
        )
        assert code == 3
        assert "another invocation" in err

    def test_revoke_reads_no_curve(self, run, tmp_path, monkeypatch):
        state = tmp_path / "ca"
        run("ca", "init", "--seed", "8", "--dir", str(state))
        monkeypatch.setenv("HLSLAB_CURVE", str(tmp_path / "nonexistent.json"))
        assert run("ca", "revoke", "--dir", str(state), "--serial", "0x1") == (0, "", "")
        assert json.loads((state / "crl.json").read_text()) == ["0x1"]

    @pytest.mark.parametrize(
        "argv",
        [
            # a certificate is always written as JSON
            "ca issue --dir ca --subject A --pubkey k.json --output json",
            "ca revoke --dir ca --serial 0x1 --curve toy17",
        ],
    )
    def test_options_the_command_never_reads_are_refused(self, run, argv):
        code, _, err = run(*argv.split())
        assert code == 3
        assert err.startswith(f"error: unrecognized arguments: {argv.split()[-2]}")

    @pytest.mark.parametrize("crl", [None, "{not json"], ids=["missing", "corrupt"])
    def test_only_verify_reads_the_crl(self, run, keys, tmp_path, crl):
        alice, _ = keys
        state = tmp_path / "ca"
        run("ca", "init", "--seed", "8", "--dir", str(state))
        if crl is None:
            (state / "crl.json").unlink()
        else:
            (state / "crl.json").write_text(crl)
        cert = tmp_path / "cert.json"
        code, _, err = run(
            "ca", "issue", "--dir", str(state), "--subject", "A",
            "--pubkey", str(alice), "--out", str(cert),
        )
        assert (code, err) == (0, "")
        assert json.loads(cert.read_text())["serial"] == "0x1"
        code, _, err = run("ca", "verify", "--dir", str(state), "--in", str(cert))
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_missing_state_dir(self, run, keys, tmp_path):
        alice, _ = keys
        code, _, err = run(
            "ca", "issue", "--dir", str(tmp_path / "nope"), "--subject", "A",
            "--pubkey", str(alice),
        )
        assert code == 3
        assert "does not exist" in err


class TestAttackCommand:
    def test_vulnerable_succeeds(self, run):
        code, out, _ = run("attack", "zero-r", "--seed", "7", "--output", "json")
        assert code == 0
        report = json.loads(out)
        assert report["success"] is True
        assert "d_A" in report["recovered"]

    def test_hardened_blocked(self, run):
        code, out, _ = run(
            "attack", "zero-r", "--seed", "7", "--mode", "hardened", "--output", "json"
        )
        assert code == 1
        assert json.loads(out)["success"] is False

    def test_g_budget_flag(self, run):
        code, out, _ = run(
            "attack", "invalid-curve", "--seed", "7", "--g-budget", "0x3,7",
            "--output", "json",
        )
        assert code == 0
        assert json.loads(out)["oracle_queries"] == 2

    def test_g_budget_refused_by_other_scenarios(self, run):
        code, out, err = run("attack", "pair-scan", "--seed", "1", "--g-budget", "3,5")
        assert (code, out) == (3, "")
        assert err == "error: --g-budget applies only to attack invalid-curve\n"

    @pytest.mark.parametrize("which", sorted(scenarios.SCENARIOS))
    def test_empty_g_budget_is_refused(self, run, which):
        code, out, err = run("attack", which, "--seed", "7", "--g-budget", "")
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_unknown_scenario_is_usage_error(self, run):
        assert run("attack", "nonsense")[0] == 3

    def test_human_output_mentions_attack(self, run):
        code, out, _ = run("attack", "ephemeral-leak", "--seed", "7")
        assert code == 0
        assert "SUCCESS" in out

    def test_pair_scan_on_secp256k1(self, run):
        code, out, _ = run(
            "attack", "pair-scan", "--curve", "secp256k1", "--seed", "1", "--output", "json"
        )
        assert code == 0
        assert json.loads(out)["success"] is True


class TestDemoAll:
    def test_expectations_hold(self, run):
        code, out, _ = run("demo-all", "--seed", "1")
        assert code == 0
        assert "all expectations hold" in out

    def test_weakened_hardening_detected(self, run, monkeypatch):
        # a scenario that ignores the mode it is given succeeds in hardened mode
        leak = scenarios.SCENARIOS["ephemeral-leak"]
        monkeypatch.setitem(
            scenarios.SCENARIOS, "ephemeral-leak", lambda e, _, rng: leak(e, Mode.VULNERABLE, rng)
        )
        code, out, _ = run("demo-all", "--seed", "1")
        assert code == 1
        assert "EXPECTATION VIOLATED" in out

    def test_deterministic_output(self, run):
        _, first, _ = run("demo-all", "--seed", "4", "--output", "json")
        _, second, _ = run("demo-all", "--seed", "4", "--output", "json")
        assert first == second

    def test_secp256k1_is_one_line_usage_error(self, run):
        # the enumeration-based scenarios refuse a 256-bit field
        code, _, err = run("demo-all", "--curve", "secp256k1", "--seed", "1")
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "exceeds enumeration limit" in err


class TestFindCurve:
    def test_reproduces_bundled_mid16(self, run, mid16):
        code, out, _ = run(
            "find-curve", "--seed", "20080917", "--min", "16384", "--max", "65536"
        )
        assert code == 0
        assert json.loads(out) == curve_to_dict(mid16)

    def test_exhausted_search_exits_1(self, run):
        # no curve over F_5 clears the n^2 > 16q margin
        code, _, err = run("find-curve", "--seed", "1", "--min", "5", "--max", "5")
        assert code == 1
        assert "search exhausted" in err

    def test_oversized_field_rejected(self, run):
        code, _, _ = run("find-curve", "--seed", "1", "--min", "5", "--max", str(1 << 22))
        assert code == 3


class TestCurveSelection:
    def test_env_var_selects_curve(self, run, tmp_path, monkeypatch, mid16):
        monkeypatch.setenv("HLSLAB_CURVE", "mid16")
        out = tmp_path / "kp.json"
        assert run("keygen", "--seed", "1", "--out", str(out))[0] == 0
        kp = keypair_from_dict(json.loads(out.read_text()))
        assert kp.d < mid16.n
        assert scalar_mul(kp.d, mid16.g, mid16) == kp.pub

    def test_env_var_bad_curve_gates_commands(self, run, monkeypatch):
        monkeypatch.setenv("HLSLAB_CURVE", str(DATA_DIR / "bad_anomalous.json"))
        code, _, err = run("keygen", "--seed", "1")
        assert code == 2
        assert "anomalous" in err

    def test_gate_can_be_skipped(self, run, monkeypatch):
        monkeypatch.setenv("HLSLAB_CURVE", str(DATA_DIR / "bad_anomalous.json"))
        assert run("keygen", "--seed", "1", "--skip-param-validation")[0] == 0

    def test_curve_file_path(self, run, tmp_path, toy):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(curve_to_dict(toy)))
        assert run("keygen", "--curve", str(path), "--seed", "1")[0] == 0


@pytest.mark.parametrize("optimize", [False, True], ids=["python", "python-O"])
@pytest.mark.parametrize(
    "curve_file, scenario, code",
    [
        # q = 9 is not prime: refused before any companion curve is counted
        ("hang_budget_q9.json", "invalid-curve", 3),
        # every r * U_B is O or has x = 0
        ("hang_weak_key_q25.json", "weak-key", 1),
        # composite q: refused before any companion curve is counted
        ("composite_q45.json", "invalid-curve", 3),
    ],
)
def test_hostile_curve_file_ends_in_one_line(curve_file, scenario, code, optimize):
    # a fresh interpreter, so that neither a warm cache nor pytest's own
    # assertion handling hides a hang or an assert
    src = str(Path(hlslab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, *(["-O"] if optimize else []), "-m", "hlslab.cli", "attack"]
    argv += [scenario, "--curve", str(DATA_DIR / curve_file), "--skip-param-validation"]
    proc = subprocess.run(
        argv + ["--seed", "1"], capture_output=True, text=True, timeout=10, env=env
    )
    assert proc.returncode == code
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("curve_file", sorted(p.name for p in DATA_DIR.glob("*.json")))
@pytest.mark.parametrize("scenario", ["invalid-curve", "weak-key"])
def test_every_curve_file_attack_ends_in_one_line(run, curve_file, scenario):
    # past a skipped gate every bundled curve file, composite q included,
    # ends in an exit code of the contract, with no stderr on success and
    # one line otherwise
    code, _, err = run(
        "attack", scenario, "--curve", str(DATA_DIR / curve_file),
        "--skip-param-validation", "--seed", "1",
    )
    assert code in (0, 1, 2, 3)
    assert len(err.splitlines()) == (code != 0)


@pytest.mark.parametrize("optimize", [False, True], ids=["python", "python-O"])
def test_point_count_on_composite_field_fails_under_every_flag(optimize):
    # F_9 is not a field, so the supersingular check cannot count its
    # points; a fresh interpreter, so that -O applies to hlslab itself
    src = str(Path(hlslab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, *(["-O"] if optimize else []), "-m", "hlslab.cli", "validate"]
    argv += ["params", "--curve", str(DATA_DIR / "hasse_q9.json")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 2
    assert (
        "  [FAIL] supersingular: computation failed: field size 9 is not an odd prime"
        in proc.stdout.splitlines()
    )


class TestUsageErrors:
    def test_missing_required_flag(self, run):
        assert run("signcrypt")[0] == 3

    def test_unknown_command(self, run):
        assert run("frobnicate")[0] == 3

    def test_nonexistent_input_file(self, run, tmp_path):
        assert run("keygen", "--curve", str(tmp_path / "nope.json"))[0] == 3

    def test_malformed_json(self, run, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run("keygen", "--curve", str(bad))
        assert code == 3
        assert "not valid JSON" in err

    def test_non_object_curve_file(self, run, tmp_path):
        bad = tmp_path / "arr.json"
        bad.write_text("[1, 2]")
        assert run("keygen", "--curve", str(bad))[0] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            f"{command} {flag}"
            for command in (
                "ca init --dir ca",
                "ca issue --dir ca --subject A --pubkey k.json",
                "ca revoke --dir ca --serial 0x1",
                "ca verify --dir ca --in c.json",
                "ca prove --key k.json --subject A --ca-pub p.json",
                "validate pubkey --in k.json",
                "validate cert --in c.json --ca p.json",
            )
            for flag in ("--embedding-bound 8", "--skip-param-validation")
        ]
        + ["validate params --skip-param-validation"],
    )
    def test_parameter_gate_flags_only_on_gated_commands(self, run, argv):
        # only keygen, signcrypt, unsigncrypt, attack and demo-all check the curve's
        # parameters; validate params takes --embedding-bound for its own checklist
        code, _, err = run(*argv.split())
        assert code == 3
        assert err.startswith("error: unrecognized arguments: --")

    @pytest.mark.parametrize(
        "argv,content",
        [
            (
                "unsigncrypt --key {bob} --sender {alice} --in {bad}",
                {"C": 5, "R": "infinity", "s": "0x1"},
            ),
            (
                "ca issue --dir {ca} --subject Alice --pubkey {alice} --require-pop --pop {bad}",
                {"e": "0x1"},
            ),
            ("unsigncrypt --key {bad} --sender {alice} --in {sigma}", 5),
            ("unsigncrypt --key {bob} --sender {alice} --in {bad}", 5),
            (
                "validate cert --in {bad} --ca {alice}",
                {"serial": "0x1", "subject": "A", "publicKey": "infinity",
                 "notBefore": "0x0", "notAfter": "0x1", "sig": "x"},
            ),
        ],
        ids=["ciphertext-not-string", "pop-missing-z", "key-not-object",
             "triple-not-object", "cert-sig-not-object"],
    )
    def test_malformed_input_file_is_one_line_usage_error(
        self, run, keys, tmp_path, argv, content
    ):
        alice, bob = keys
        msg, sigma, ca = tmp_path / "msg.bin", tmp_path / "sigma.json", tmp_path / "ca"
        msg.write_bytes(b"hi")
        assert run("signcrypt", "--seed", "3", "--key", str(alice), "--recipient", str(bob),
                   "--in", str(msg), "--out", str(sigma))[0] == 0
        assert run("ca", "init", "--seed", "8", "--dir", str(ca))[0] == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        paths = {"alice": alice, "bob": bob, "sigma": sigma, "ca": ca, "bad": bad}
        code, _, err = run(*argv.format(**paths).split())
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


# One run of every leaf subcommand, each finding the files the earlier ones
# wrote, and of attack once per scenario. The runs take the paths that read
# every option: the parameter gate is not skipped, and invalid-curve is given
# --g-budget, which every other scenario must still read to refuse.
EVERY_LEAF = {
    ("keygen",): "keygen --seed 1 --out k.json",
    ("signcrypt",): "signcrypt --seed 2 --key k.json --recipient k.json --in k.json --out s.json",
    ("unsigncrypt",): "unsigncrypt --key k.json --sender k.json --in s.json --out m.bin",
    ("validate", "params"): "validate params",
    ("validate", "pubkey"): "validate pubkey --in k.json",
    ("ca", "init"): "ca init --seed 3 --dir ca",
    ("ca", "prove"): "ca prove --seed 4 --key k.json --subject A --ca-pub ca/ca_key.json --out p.json",
    ("ca", "issue"): "ca issue --seed 5 --dir ca --subject A --pubkey k.json --pop p.json --out c.json",
    ("ca", "verify"): "ca verify --dir ca --in c.json",
    ("validate", "cert"): "validate cert --in c.json --ca ca/ca_key.json --crl ca/crl.json",
    ("ca", "revoke"): "ca revoke --dir ca --serial 0x1",
    ("demo-all",): "demo-all --seed 7",
    ("find-curve",): "find-curve --seed 1 --min 100 --max 300",
}
ATTACK_RUNS = [
    f"attack {name} --seed 6 --mode vulnerable"
    + (" --g-budget 3,7" if name == "invalid-curve" else "")
    for name in scenarios.SCENARIOS
]


def _leaf_parsers(parser, path=()):
    subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subcommands:
        yield path, parser
        return
    for name, sub in subcommands[0].choices.items():
        yield from _leaf_parsers(sub, path + (name,))


def test_every_option_is_read(tmp_path, monkeypatch, capsys):
    # a handler that never reads an option's dest makes that option a no-op
    monkeypatch.chdir(tmp_path)
    leaves = dict(_leaf_parsers(build_parser()))
    assert set(leaves) == set(EVERY_LEAF) | {("attack",)}

    class RecordingNamespace(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    unread = {}
    for path, argv in [*EVERY_LEAF.items(), *((("attack",), a) for a in ATTACK_RUNS)]:
        args = build_parser().parse_args(argv.split())
        if getattr(args, "curve", "") is None:
            args.curve = "toy17"
        reads = set()
        assert args.func(RecordingNamespace(**vars(args))) == 0, argv
        dests = [
            a.dest for a in leaves[path]._actions if not isinstance(a, argparse._HelpAction)
        ]
        missing = [d for d in dests if d not in reads]
        if missing:
            unread[argv.split(" --")[0]] = missing
    capsys.readouterr()
    assert unread == {}
