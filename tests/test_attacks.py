"""Attack operations, each checked against ground truth it is not given.

The worked example's recovery algebra: with s = 2, h = 4, r = 5 on the
19-point curve, d_A = s + h*r = 22 = 3 (mod 19) and r = (d_A - s) * h^-1
= 1 * 5 = 5 (mod 19), both frozen from the independent trace.
"""

import re
from dataclasses import replace
from random import Random

import pytest

from conftest import load_bad_fixture
from hlslab import attacks
from hlslab.attacks import (
    AttackReport,
    PairTable,
    forward_secrecy_break,
    invalid_curve_attack,
    recover_ephemeral,
    recover_sender_key,
    uks_attack,
    weak_key_audit,
    zero_r_probe,
)
from hlslab.curve import INFINITY, Point, find_invalid_curve_point, scalar_mul
from hlslab.errors import (
    InvalidEphemeralKeyError,
    MismatchedLeakError,
    NotInvertibleError,
    OracleRefusedError,
    PopRequiredError,
)
from hlslab.hls import (
    ConfirmPolicy,
    KeyPair,
    Mode,
    SigncryptedText,
    confirmation_oracle,
    gen,
    signcrypt,
)
from hlslab.pki import CAPolicy, CertificateAuthority
from hlslab.primitives import derive_key, mac
from hlslab.scenarios import default_g_budget, make_decryptor, run_invalid_curve

NOW = 1_700_000_000


def confirm_oracle_for(bob, pub_sender, e, policy):
    def oracle(sigma, confirm_message):
        return confirmation_oracle(sigma, bob.d, pub_sender, e, confirm_message, policy)

    return oracle


class TestRecoverSenderKey:
    def test_worked_example(self, toy):
        sigma = SigncryptedText(bytes.fromhex("6e6e"), Point(9, 16), 2)
        bob_pub = scalar_mul(7, toy.g, toy)
        assert recover_sender_key(5, sigma, bob_pub, toy) == 3

    def test_random_toy_runs(self, toy):
        rng = Random(33)
        for _ in range(20):
            alice, bob = gen(toy, rng), gen(toy, rng)
            r = rng.randrange(1, toy.n)
            sigma = signcrypt(rng.randbytes(16), alice.d, bob.pub, toy, rng, forced_r=r)
            d_a = recover_sender_key(r, sigma, bob.pub, toy)
            assert d_a == alice.d
            assert scalar_mul(d_a, toy.g, toy) == alice.pub

    def test_secp_runs(self, secp256k1):
        rng = Random(34)
        alice, bob = gen(secp256k1, rng), gen(secp256k1, rng)
        for _ in range(3):
            r = rng.randrange(1, secp256k1.n)
            sigma = signcrypt(b"secret", alice.d, bob.pub, secp256k1, rng, forced_r=r)
            assert recover_sender_key(r, sigma, bob.pub, secp256k1) == alice.d

    def test_mismatched_leak_rejected(self, toy):
        sigma = SigncryptedText(bytes.fromhex("6e6e"), Point(9, 16), 2)
        bob_pub = scalar_mul(7, toy.g, toy)
        with pytest.raises(MismatchedLeakError):
            recover_sender_key(6, sigma, bob_pub, toy)  # 6*G != R

    def test_out_of_range_leak_rejected(self, toy):
        sigma = SigncryptedText(b"", Point(9, 16), 2)
        with pytest.raises(ValueError, match=re.escape("leaked scalar out of range [0, 18]")):
            recover_sender_key(19, sigma, scalar_mul(7, toy.g, toy), toy)

    def test_zero_leak_is_in_range(self, toy):
        # r = 0 puts R = O on the wire, and d_A = s + h * 0 = s
        rng = Random(33)
        alice, bob = gen(toy, rng), gen(toy, rng)
        sigma = signcrypt(b"m", alice.d, bob.pub, toy, rng, forced_r=0)
        assert recover_sender_key(0, sigma, bob.pub, toy) == sigma.signature == alice.d


class TestPairTable:
    def test_build_and_match(self, toy):
        table = PairTable.build([3, 8], toy)
        assert table.match(scalar_mul(3, toy.g, toy), toy) == 3
        assert table.match(scalar_mul(8, toy.g, toy), toy) == 8

    def test_x_collision_resolved_to_the_negated_scalar(self, toy):
        # 16*G shares its x-coordinate with 3*G; the table stores only 3
        table = PairTable.build([3], toy)
        sixteen = scalar_mul(16, toy.g, toy)
        assert table.match(sixteen, toy) == 16

    def test_unmatched_point(self, toy):
        table = PairTable.build([3], toy)
        assert table.match(scalar_mul(7, toy.g, toy), toy) is None

    def test_tabulated_x_with_a_foreign_y_does_not_match(self, toy):
        # 3*G = (10, 6): x is in the table, but y = 7 is neither 6 nor 17 - 6,
        # and the unreduced 23 and 28 are neither as integers
        table = PairTable.build([3], toy)
        assert scalar_mul(3, toy.g, toy) == Point(10, 6)
        for y in (7, 23, 28):
            assert table.match(Point(10, y), toy) is None

    def test_infinity_never_matches(self, toy):
        table = PairTable.build([3], toy)
        assert table.match(INFINITY, toy) is None

    def test_kept_point_matches_with_no_multiplication(self, monkeypatch, toy):
        table = PairTable.build([3], toy)
        calls = []
        monkeypatch.setattr(attacks, "scalar_mul", lambda *args: calls.append(args))
        found = [table.match(p, toy) for p in (Point(10, 6), INFINITY, Point(5, 1))]
        assert (found, calls) == ([3, None, None], [])

    def test_other_point_with_the_x_is_multiplied_out(self):
        # on hasse_q9 G has order 7, not the declared n = 19: 6 * G = (0, 8)
        # shares x with G, but (19 - 1) * G = 4 * G does not give it back
        e = load_bad_fixture("hasse_q9")
        table = PairTable.build([1], e)
        assert scalar_mul(6, e.g, e) == Point(0, 8)
        assert table.match(Point(0, 8), e) is None

    def test_scan_recovers_only_tabulated_traffic(self, toy):
        rng = Random(35)
        alice, bob = gen(toy, rng), gen(toy, rng)
        pool = [4, 9]
        table = PairTable.build(pool, toy)
        traffic = [
            signcrypt(b"one", alice.d, bob.pub, toy, rng, forced_r=4),
            signcrypt(b"two", alice.d, bob.pub, toy, rng, forced_r=11),  # not in table
            signcrypt(b"three", alice.d, bob.pub, toy, rng, forced_r=9),
        ]
        matches = [table.match(sigma.ephemeral, toy) for sigma in traffic]
        assert [r is not None for r in matches] == [True, False, True]
        assert all(
            recover_sender_key(r, sigma, bob.pub, toy) == alice.d
            for r, sigma in zip(matches, traffic)
            if r is not None
        )


class TestRecoverEphemeral:
    def test_worked_example(self):
        assert recover_ephemeral(3, 2, 4, 19) == 5

    def test_inverts_signing_equation(self, toy):
        rng = Random(36)
        for _ in range(50):
            d, r = rng.randrange(1, 19), rng.randrange(1, 19)
            h = rng.randrange(1, 19)
            s = (d - h * r) % 19
            assert recover_ephemeral(d, s, h, 19) == r

    def test_zero_hash_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            recover_ephemeral(3, 3, 0, 19)
        with pytest.raises(NotInvertibleError):
            recover_ephemeral(3, 3, 19, 19)  # reduces to 0


class TestForwardSecrecyBreak:
    def test_success_with_cooperative_recipient(self, toy):
        rng = Random(37)
        alice, bob = gen(toy, rng), gen(toy, rng)
        message = b"archived secret"
        r = 6
        sigma = signcrypt(message, alice.d, bob.pub, toy, rng, forced_r=r)
        decryptor = make_decryptor(bob, alice.pub, toy, Mode.VULNERABLE)
        report = forward_secrecy_break(alice.d, sigma, bob.pub, decryptor, toy)
        assert report.success
        assert report.recovered["r"] == r
        assert report.oracle_queries == 1

    def test_refusing_recipient_raises_through(self, toy):
        rng = Random(38)
        alice, bob = gen(toy, rng), gen(toy, rng)
        sigma = signcrypt(b"m", alice.d, bob.pub, toy, rng)
        decryptor = make_decryptor(bob, alice.pub, toy, Mode.HARDENED)
        with pytest.raises(OracleRefusedError):
            forward_secrecy_break(alice.d, sigma, bob.pub, decryptor, toy)

    def test_zero_hash_reported_not_raised(self, toy):
        # hunted offline: H("z4" || x of 5*G) == 0 mod 19, so h is not invertible
        rng = Random(39)
        alice, bob = gen(toy, rng), gen(toy, rng)
        sigma = signcrypt(b"z4", alice.d, bob.pub, toy, rng, forced_r=5)
        decryptor = make_decryptor(bob, alice.pub, toy, Mode.VULNERABLE)
        report = forward_secrecy_break(alice.d, sigma, bob.pub, decryptor, toy)
        assert not report.success
        assert (report.oracle_queries, report.trials) == (1, 1)
        assert any("not invertible" in line for line in report.transcript)

    def test_wrong_sender_key_detected(self, toy):
        rng = Random(40)
        alice, bob = gen(toy, rng), gen(toy, rng)
        sigma = signcrypt(b"m", alice.d, bob.pub, toy, rng, forced_r=6)
        decryptor = make_decryptor(bob, alice.pub, toy, Mode.VULNERABLE)
        wrong_d = alice.d % (toy.n - 1) + 1
        report = forward_secrecy_break(wrong_d, sigma, bob.pub, decryptor, toy)
        assert not report.success
        assert (report.oracle_queries, report.trials) == (1, 1)


class TestInvalidCurveAttack:
    def test_recovers_fixed_key_through_sign_ambiguity(self, toy):
        # d_B = 5 is mirrored in both subgroups: 5 mod 3 = 3-1, 5 mod 7 = 7-2,
        # so the CRT stage must flip both residues to land on the true key
        bob = KeyPair(d=5, pub=scalar_mul(5, toy.g, toy))
        alice = gen(toy, Random(41))
        oracle = confirm_oracle_for(bob, alice.pub, toy, ConfirmPolicy.CONFIRM_ALWAYS)
        report = invalid_curve_attack(toy, bob.pub, oracle, b"c", [3, 7], Random(42))
        assert report.success
        assert report.recovered["d_B"] == 5
        assert report.oracle_queries == 2

    def test_recovers_random_keys(self, toy):
        rng = Random(43)
        for _ in range(10):
            bob = gen(toy, rng)
            alice = gen(toy, rng)
            oracle = confirm_oracle_for(bob, alice.pub, toy, ConfirmPolicy.CONFIRM_ALWAYS)
            report = invalid_curve_attack(toy, bob.pub, oracle, b"c", [3, 7], rng)
            assert report.success
            assert report.recovered["d_B"] == bob.d

    def test_trial_bound_respected(self, toy):
        bob = gen(toy, Random(44))
        alice = gen(toy, Random(45))
        oracle = confirm_oracle_for(bob, alice.pub, toy, ConfirmPolicy.CONFIRM_ALWAYS)
        report = invalid_curve_attack(toy, bob.pub, oracle, b"c", [3, 7], Random(46))
        assert report.trials <= (3 // 2 + 1) + (7 // 2 + 1)

    @pytest.mark.parametrize(
        "name,seeds", [("mid16", range(20)), ("toy", range(40))], ids=["mid16", "toy17"]
    )
    def test_exact_trials_per_round(self, request, name, seeds):
        # a round MAC-tests keys j = 0, 1, ... and stops at the first whose key
        # is d_B * W's, so it costs that least j plus one trial; the least j is
        # found here by plain scalar multiplication over all of 0..g-1
        e = request.getfixturevalue(name)
        budget = default_g_budget(e)
        points = {g: find_invalid_curve_point(e, g).point for g in budget}
        keys = {
            g: [derive_key(scalar_mul(j, w, e), e, Mode.VULNERABLE) for j in range(g)]
            for g, w in points.items()
        }
        for seed in seeds:
            report = run_invalid_curve(e, Mode.VULNERABLE, Random(seed))
            rng = Random(seed)
            gen(e, rng)
            d_b = gen(e, rng).d
            assert report.success and report.recovered["d_B"] == d_b, seed
            rounds = {}
            for line in report.transcript:
                found = re.match(r"g=(\d+): d_B == \+-\d+ \(mod \d+\) after (\d+) trials", line)
                if found:
                    rounds[int(found[1])] = int(found[2])
            expected = {}
            for g, w in points.items():
                target = derive_key(scalar_mul(d_b, w, e), e, Mode.VULNERABLE)
                expected[g] = keys[g].index(target) + 1
            assert rounds == expected, seed
            assert report.trials == sum(expected.values()), seed

    def test_hardened_oracle_blocks_but_queries_are_counted(self, toy):
        bob = gen(toy, Random(47))
        alice = gen(toy, Random(48))
        oracle = confirm_oracle_for(bob, alice.pub, toy, ConfirmPolicy.HARDENED)
        report = invalid_curve_attack(toy, bob.pub, oracle, b"c", [3, 7], Random(49))
        assert not report.success
        assert report.oracle_queries == 2  # refusals still cost a query
        assert any("refused" in line for line in report.transcript)

    def test_round_with_no_matching_key_contributes_nothing(self, toy):
        # keys over F_17 are one byte x < 17, so none is b"\xff"
        def oracle(sigma, confirm_message):
            return b"", mac(b"\xff", confirm_message)

        bob = gen(toy, Random(66))
        report = invalid_curve_attack(toy, bob.pub, oracle, b"c", [3, 7], Random(67))
        assert not report.success
        assert report.oracle_queries == 2
        assert report.trials == 2 + 4
        assert "g=3: no candidate key matched in 2 trials" in report.transcript
        assert "g=7: no candidate key matched in 4 trials" in report.transcript
        assert report.transcript[-1] == (
            "no residues collected, recipient never leaked a usable tag"
        )

    def test_verify_first_oracle_starves_the_attack(self, toy):
        bob = gen(toy, Random(50))
        alice = gen(toy, Random(51))
        oracle = confirm_oracle_for(
            bob, alice.pub, toy, ConfirmPolicy.CONFIRM_AFTER_VERIFY
        )
        report = invalid_curve_attack(toy, bob.pub, oracle, b"c", [3, 7], Random(52))
        assert not report.success

    def test_small_product_warns_in_transcript(self, toy):
        bob = gen(toy, Random(53))
        alice = gen(toy, Random(54))
        oracle = confirm_oracle_for(bob, alice.pub, toy, ConfirmPolicy.CONFIRM_ALWAYS)
        report = invalid_curve_attack(toy, bob.pub, oracle, b"c", [3], Random(55))
        assert any("cannot be unique" in line for line in report.transcript)

    def test_budget_of_max_size_accepted(self, mid16):
        budget = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        assert len(budget) == attacks.MAX_G_BUDGET
        bob, alice = gen(mid16, Random(56)), gen(mid16, Random(57))
        oracle = confirm_oracle_for(bob, alice.pub, mid16, ConfirmPolicy.HARDENED)
        report = invalid_curve_attack(mid16, bob.pub, oracle, b"c", budget, Random(58))
        assert not report.success
        assert report.oracle_queries == len(budget)

    @pytest.mark.parametrize(
        "budget, refusal",
        [
            ([3, 3], "g budget must contain distinct primes"),
            ([4], "g budget entries must be odd primes >= 3, got 4"),
            ([9], "g budget entries must be odd primes >= 3, got 9"),
            ([2], "g budget entries must be odd primes >= 3, got 2"),
            (list(range(3, 70, 2)), "g budget larger than 16 explodes the sign search"),
        ],
        ids=[f"budget{i}" for i in range(5)],
    )
    def test_bad_budgets_rejected(self, toy, budget, refusal):
        # each refusal has its own message, so deleting one of them fails its case
        bob = gen(toy, Random(56))
        oracle = confirm_oracle_for(bob, bob.pub, toy, ConfirmPolicy.CONFIRM_ALWAYS)
        with pytest.raises(ValueError, match=re.escape(refusal)):
            invalid_curve_attack(toy, bob.pub, oracle, b"c", budget, Random(57))

    def test_mid16_full_budget(self, mid16):
        bob = gen(mid16, Random(58))
        alice = gen(mid16, Random(59))
        oracle = confirm_oracle_for(bob, alice.pub, mid16, ConfirmPolicy.CONFIRM_ALWAYS)
        budget = [3, 5, 7, 11, 13, 17]
        report = invalid_curve_attack(mid16, bob.pub, oracle, b"c", budget, Random(60))
        assert report.success
        assert report.recovered["d_B"] == bob.d
        assert report.oracle_queries == len(budget)

    def test_a0_curve_recovered_through_the_x0_collision(self, a0_q55009):
        # the g = 3 point has x = 0, whose vulnerable key is O's: the round
        # matches at j = 0 whatever d_B mod 3 is, and every j stays an option
        e = a0_q55009
        budget = default_g_budget(e)
        w = find_invalid_curve_point(e, 3).point
        assert w.x == 0
        for seed in range(1, 21):
            report = run_invalid_curve(e, Mode.VULNERABLE, Random(seed))
            # the scenario draws Alice's key pair, then Bob's
            rng = Random(seed)
            gen(e, rng)
            assert report.success, seed
            assert report.recovered["d_B"] == gen(e, rng).d
            assert report.oracle_queries == len(budget)
            assert "g=3: d_B == +-0 (mod 3) after 1 trials (bound 2)" in report.transcript
            assert [line for line in report.transcript if "x = 0" in line] == [
                "g=3: j*W has x = 0 for j in [1], whose key is that of j = 0;"
                " d_B == +-j (mod 3) for those j kept as options"
            ]

    def test_a0_curve_hardened_refuses_every_round(self, a0_q55009):
        e = a0_q55009
        budget = default_g_budget(e)
        report = run_invalid_curve(e, Mode.HARDENED, Random(1))
        assert not report.success
        assert report.oracle_queries == len(budget)
        assert sum("oracle refused" in line for line in report.transcript) == len(budget)
        bob, alice = gen(e, Random(2)), gen(e, Random(3))
        oracle = confirm_oracle_for(bob, alice.pub, e, ConfirmPolicy.HARDENED)
        for g in budget:
            crafted = SigncryptedText(b"c" * 16, find_invalid_curve_point(e, g).point, 1)
            with pytest.raises(InvalidEphemeralKeyError):
                oracle(crafted, b"c")

    @pytest.mark.parametrize("name,budget", [("toy", [3, 7]), ("mid16", None)])
    def test_mirrored_candidate_derives_the_same_key(self, request, name, budget):
        # j * W and (g - j) * W share an x-coordinate, so the oracle's tag
        # pins d_B only up to sign mod g
        e = request.getfixturevalue(name)
        for g in budget or default_g_budget(e):
            w = find_invalid_curve_point(e, g).point
            for j in range(g + 1):
                key = derive_key(scalar_mul(j, w, e), e, Mode.VULNERABLE)
                assert key == derive_key(scalar_mul(g - j, w, e), e, Mode.VULNERABLE), (g, j)


class TestUksAttack:
    @pytest.fixture()
    def setup(self, toy):
        rng = Random(61)
        ca = CertificateAuthority(keypair=gen(toy, rng), curve=toy, rng=Random(62))
        alice, bob = gen(toy, rng), gen(toy, rng)
        alice_cert = ca.issue("Alice", alice.pub, NOW, 1000)
        message = b"for bob's eyes"
        sigma = signcrypt(message, alice.d, bob.pub, toy, rng)
        return ca, alice_cert, bob, sigma, message

    def test_lax_ca_enables_misbinding(self, toy, setup):
        ca, alice_cert, bob, sigma, message = setup
        report = uks_attack(
            ca, alice_cert, bob, sigma, toy, NOW, expected_plaintext=message
        )
        assert report.success
        assert any("Mallory" in line for line in report.transcript)

    def test_pop_policy_blocks_at_issuance(self, toy, setup):
        ca, alice_cert, bob, sigma, message = setup
        ca.policy = CAPolicy(require_pop=True)
        report = uks_attack(ca, alice_cert, bob, sigma, toy, NOW)
        assert not report.success
        assert any("blocked at issuance" in line for line in report.transcript)

    def test_direct_issuance_refusal(self, toy, setup):
        ca, alice_cert, _, _, _ = setup
        ca.policy = CAPolicy(require_pop=True)
        with pytest.raises(PopRequiredError):
            ca.issue("Mallory", alice_cert.public_key, NOW, 1000)

    def test_tampered_signature_fails_unsigncryption(self, toy, setup):
        ca, alice_cert, bob, sigma, _ = setup
        tampered = replace(sigma, signature=(sigma.signature + 1) % toy.n)
        report = uks_attack(ca, alice_cert, bob, tampered, toy, NOW)
        assert not report.success
        assert report.transcript[-2:] == (
            "recipient accepted the certificate",
            "unsigncryption rejected the triple",
        )

    def test_plaintext_is_compared_only_when_expected(self, toy, setup):
        ca, alice_cert, bob, sigma, _ = setup
        assert uks_attack(ca, alice_cert, bob, sigma, toy, NOW).success
        report = uks_attack(ca, alice_cert, bob, sigma, toy, NOW, expected_plaintext=b"other")
        assert not report.success
        assert report.transcript[-1].endswith("but the plaintext is not the sender's")

    def test_revocation_before_presentation_defeats_it(self, toy, setup):
        ca, alice_cert, bob, sigma, message = setup
        ca.revoke(ca.next_serial)  # the serial the attacker's certificate will get
        report = uks_attack(ca, alice_cert, bob, sigma, toy, NOW)
        assert not report.success
        assert any("revocation" in line for line in report.transcript)


class TestZeroRProbe:
    def test_degenerate_triple_leaks_the_key(self, toy):
        rng = Random(63)
        alice, bob = gen(toy, rng), gen(toy, rng)
        sigma = signcrypt(b"m", alice.d, bob.pub, toy, rng, forced_r=0)
        report = zero_r_probe(sigma, alice.pub, toy)
        assert report.success
        assert report.recovered["d_A"] == alice.d

    def test_sender_key_one_is_recovered(self, toy):
        # d_A = 1 is the least key, and s = d_A when R = O
        alice = KeyPair(d=1, pub=toy.g)
        report = zero_r_probe(SigncryptedText(b"\x00", INFINITY, 1), alice.pub, toy)
        assert report.success
        assert report.recovered == {"d_A": 1}

    def test_affine_ephemeral_not_applicable(self, toy):
        rng = Random(64)
        alice, bob = gen(toy, rng), gen(toy, rng)
        sigma = signcrypt(b"m", alice.d, bob.pub, toy, rng)
        report = zero_r_probe(sigma, alice.pub, toy)
        assert not report.success
        assert "does not apply" in report.transcript[0]

    def test_wrong_signature_fails_verification(self, toy):
        alice = gen(toy, Random(65))
        sigma = SigncryptedText(b"\x00", INFINITY, (alice.d + 1) % toy.n or 1)
        report = zero_r_probe(sigma, alice.pub, toy)
        assert not report.success
        assert report.trials == 1


class TestWeakKeyAudit:
    def test_flags_identity_and_zero_key_sessions(self):
        runs = [
            (Point(5, 1), b"\x05"),
            (INFINITY, b"\x00"),
            (Point(6, 3), b"\x00"),  # zero key without identity point
        ]
        report = weak_key_audit(runs)
        assert report.success
        assert report.trials == 3
        assert "2 degenerate" in report.transcript[0]

    def test_clean_audit_reports_failure(self):
        runs = [(Point(5, 1), b"\x05"), (Point(6, 3), b"\x06")]
        report = weak_key_audit(runs)
        assert not report.success
        assert "0 degenerate" in report.transcript[0]

    def test_empty_audit(self):
        assert not weak_key_audit([]).success


class TestAttackReport:
    def test_to_dict_hex_encodes_recovered(self):
        report = AttackReport("demo", True, recovered={"d_A": 255}, trials=2)
        d = report.to_dict()
        assert d["recovered"] == {"d_A": "0xff"}
        assert d["success"] and d["trials"] == 2
        assert isinstance(d["transcript"], list)
