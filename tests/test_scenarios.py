"""End-to-end scenario runners: succeed in vulnerable mode, blocked in hardened."""

import math
from random import Random

import pytest

from conftest import load_bad_fixture
from hlslab import attacks, curve, hls, pki, scenarios
from hlslab.attacks import forward_secrecy_break
from hlslab.curve import find_invalid_curve_point, scalar_mul
from hlslab.errors import NotFoundError, OracleRefusedError
from hlslab.hls import Mode, bound_hash, gen, signcrypt
from hlslab.scenarios import (
    FIXED_NOW,
    SCENARIOS,
    default_g_budget,
    make_decryptor,
    run_forward_secrecy,
    run_pair_scan,
    run_weak_key,
    run_zero_r,
)

SCENARIO_NAMES = list(SCENARIOS)


class TestPolarity:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_vulnerable_succeeds(self, toy, name):
        report = SCENARIOS[name](toy, Mode.VULNERABLE, Random(f"v:{name}"))
        assert report.success, report.transcript

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_hardened_blocked(self, toy, name):
        report = SCENARIOS[name](toy, Mode.HARDENED, Random(f"h:{name}"))
        assert not report.success, report.transcript

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_deterministic_given_seed(self, toy, name):
        first = SCENARIOS[name](toy, Mode.VULNERABLE, Random(123))
        second = SCENARIOS[name](toy, Mode.VULNERABLE, Random(123))
        assert first.to_dict() == second.to_dict()


class TestScenarioDetails:
    def test_ephemeral_leak_recovers_true_key(self, toy):
        report = SCENARIOS["ephemeral-leak"](toy, Mode.VULNERABLE, Random(66))
        assert set(report.recovered) == {"d_A", "r"}

    def test_pair_scan_exposes_both_senders(self, toy):
        report = run_pair_scan(toy, Mode.VULNERABLE, Random(67))
        assert report.success
        assert len([k for k in report.recovered if k.startswith("d_A#")]) == 2

    def test_pair_scan_hardened_has_nothing_to_match(self, toy):
        report = run_pair_scan(toy, Mode.HARDENED, Random(68))
        assert not report.success
        assert "zero table matches" in report.transcript[0]

    def test_pair_scan_scores_against_the_true_keys(self):
        # n = 38 but G has order 19: two of the six recoveries land on d + 19,
        # which a check against the public keys alone would accept
        report = run_pair_scan(load_bad_fixture("bad_composite_n"), Mode.VULNERABLE, Random(4))
        assert report.transcript[-1] == "4/6 recoveries verified, 2/2 sender keys exposed"
        assert not report.success
        assert report.recovered == {"d_A#0": 16, "d_A#1": 20}

    def test_vulnerable_pair_scan_matches_with_no_multiplication(self, monkeypatch, mid16):
        # 3 key pairs, 2 per signcrypt, 4 for the table and 2 per recovery:
        # a triple whose R is a kept point is matched by its y alone
        calls = []

        def counted(*args):
            calls.append(args)
            return scalar_mul(*args)

        for module in (scenarios, attacks, hls, pki, curve):
            if getattr(module, "scalar_mul", None) is scalar_mul:
                monkeypatch.setattr(module, "scalar_mul", counted)
        assert run_pair_scan(mid16, Mode.VULNERABLE, Random(1)).success
        assert len(calls) == 31

    def test_forward_secrecy_blocked_reason(self, toy):
        report = SCENARIOS["forward-secrecy"](toy, Mode.HARDENED, Random(69))
        assert any("blocked" in line for line in report.transcript)

    def test_forward_secrecy_archives_again_after_a_zero_bound_hash(self, toy, monkeypatch):
        # under Random(99) the first two archived messages have h = 0 mod n, which
        # leaves r unsolvable; the third breaks (report pinned from the text-matching retry)
        breaks = []

        def recording_break(*args):
            breaks.append(args)
            return forward_secrecy_break(*args)

        monkeypatch.setattr(scenarios, "forward_secrecy_break", recording_break)
        report = run_forward_secrecy(toy, Mode.VULNERABLE, Random(99))
        hashes = [bound_hash(dec(sigma), sigma.ephemeral, toy) for _, sigma, _, dec, _ in breaks]
        assert len(hashes) == 3 and hashes[:2] == [0, 0] and hashes[2] != 0
        assert report.to_dict() == {
            "attack_id": "forward-secrecy",
            "success": True,
            "recovered": {"r": "0xd"},
            "oracle_queries": 1,
            "trials": 1,
            "transcript": [
                "querying recipient decryptor for R = Point(16, 4)",
                "decryptor returned 47 plaintext bytes",
                "recovered r = 13; independent re-decryption matches the plaintext",
            ],
        }

    def test_zero_r_signature_equals_key(self, toy):
        report = run_zero_r(toy, Mode.VULNERABLE, Random(70))
        assert report.success
        assert "d_A" in report.recovered

    def test_weak_key_hardened_refuses_crafted_session(self, toy):
        report = run_weak_key(toy, Mode.HARDENED, Random(71))
        assert not report.success
        assert any("refused by hardened derivation" in line for line in report.transcript)

    def test_weak_key_vulnerable_flags_crafted_session(self, toy):
        report = run_weak_key(toy, Mode.VULNERABLE, Random(72))
        assert report.success
        assert any("key derived anyway" in line for line in report.transcript)

    def test_uks_hardened_blocked_at_issuance(self, toy):
        report = SCENARIOS["uks"](toy, Mode.HARDENED, Random(73))
        assert any("blocked at issuance" in line for line in report.transcript)

    def test_invalid_curve_mid16(self, mid16):
        report = SCENARIOS["invalid-curve"](mid16, Mode.VULNERABLE, Random(74))
        assert report.success
        assert report.oracle_queries == 6


class TestDecryptor:
    def test_vulnerable_returns_plaintext(self, toy):
        rng = Random(75)
        alice, bob = gen(toy, rng), gen(toy, rng)
        sigma = signcrypt(b"old mail", alice.d, bob.pub, toy, rng)
        decryptor = make_decryptor(bob, alice.pub, toy, Mode.VULNERABLE)
        assert decryptor(sigma) == b"old mail"

    def test_hardened_refuses(self, toy):
        rng = Random(76)
        alice, bob = gen(toy, rng), gen(toy, rng)
        sigma = signcrypt(b"old mail", alice.d, bob.pub, toy, rng)
        decryptor = make_decryptor(bob, alice.pub, toy, Mode.HARDENED)
        with pytest.raises(OracleRefusedError):
            decryptor(sigma)

    def test_unverifiable_triple_refused(self, toy):
        rng = Random(77)
        alice, bob, eve = gen(toy, rng), gen(toy, rng), gen(toy, rng)
        sigma = signcrypt(b"m", alice.d, bob.pub, toy, rng)
        decryptor = make_decryptor(bob, eve.pub, toy, Mode.VULNERABLE)
        with pytest.raises(OracleRefusedError):
            decryptor(sigma)


class TestDefaultGBudget:
    def test_toy_budget(self, toy):
        # 5 admits no companion subgroup over F_17, so it is skipped
        assert default_g_budget(toy) == [3, 7]

    def test_mid16_budget(self, mid16):
        budget = default_g_budget(mid16)
        assert budget == [3, 5, 7, 11, 13, 17]
        assert math.prod(budget) > mid16.n

    def test_budget_covers_n(self, toy):
        assert math.prod(default_g_budget(toy)) > toy.n

    def test_budget_entries_have_points(self, toy):
        for g in default_g_budget(toy):
            assert find_invalid_curve_point(toy, g).order == g

    def test_candidates_stop_at_the_hasse_bound(self, toy, monkeypatch):
        # a companion curve over F_17 has at most 17 + 1 + 8 = 26 points, so
        # when no prime serves, the odd primes up to 26 are the ones tried
        tried = []

        def refuse(e, g):
            tried.append(g)
            raise NotFoundError("none")

        monkeypatch.setattr(scenarios, "find_invalid_curve_point", refuse)
        with pytest.raises(NotFoundError, match="do not cover n = 19"):
            default_g_budget(toy)
        assert tried == [3, 5, 7, 11, 13, 17, 19, 23]


def test_fixed_now_constant():
    assert FIXED_NOW == 1_700_000_000


def test_scenario_registry():
    assert SCENARIO_NAMES == [
        "ephemeral-leak", "pair-scan", "forward-secrecy", "invalid-curve",
        "uks", "zero-r", "weak-key",
    ]
