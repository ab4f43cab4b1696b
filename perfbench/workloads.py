"""The four workloads: set-up, one operation, and the check of its outputs.

Each workload is a class whose constructor is the set-up, whose
round_inputs(k) makes the inputs of round k from the seed (outside the
timed region), whose op() is the one timed operation, whose record() keeps
what the check needs (outside the timed region), and whose check() compares
one round's records against reference computations right after the round,
outside the timed region, so that no record outlives its round. Every
run attempts whole rounds, so operation counts are multiples of the round
size.

The program is reached through module attributes (hls.signcrypt, not a
name imported at load time), so that the traced run's wrappers are the
functions called.
"""

from __future__ import annotations

import contextlib
import hashlib
import hmac
import io
import json
from pathlib import Path
from random import Random

from hlslab import attacks, cli, curve, hls, pki, scenarios

import reference

CONFIRM = b"please confirm receipt"
POOL_FILE = Path(__file__).resolve().parent / "curve_pool.json"


class Workload:
    max_rounds = None

    def check_inputs(self) -> list[str]:
        """Checks of the set-up's own inputs, made once after the timed phase."""
        return []


class SecpSession(Workload):
    """Hardened 256-bit session: certificate check, signcrypt, unsigncrypt, confirm."""

    name = "secp-session"
    PARTIES = 8
    ROUND = 8
    TRACE_ROUND_EVERY_S = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.e = e = cli.load_curve("secp256k1")
        rng = Random(f"{self.name}:{seed}")
        self.ca = pki.CertificateAuthority(
            keypair=hls.gen(e, rng),
            curve=e,
            policy=pki.CAPolicy(require_pop=True, require_pk_validation=True),
            rng=Random(rng.getrandbits(64)),
        )
        self.parties = []
        for i in range(self.PARTIES):
            kp = hls.gen(e, rng)
            subject = f"party-{i}"
            pop = pki.make_pop(subject, kp, self.ca.pub, e, rng)
            cert = self.ca.issue(subject, kp.pub, scenarios.FIXED_NOW, 365 * 86400, pop=pop)
            self.parties.append((kp, cert))

    def round_inputs(self, k: int) -> list:
        rng = Random(f"{self.name}:{self.seed}:{k}")
        inputs = []
        for _ in range(self.ROUND):
            s = rng.randrange(self.PARTIES)
            r = (s + 1 + rng.randrange(self.PARTIES - 1)) % self.PARTIES
            message = rng.randbytes(rng.randrange(16, 257))
            inputs.append((s, r, message, Random(rng.getrandbits(64))))
        return inputs

    def op(self, inp):
        s, r, message, rng = inp
        e = self.e
        sender_kp, sender_cert = self.parties[s]
        recipient_kp, recipient_cert = self.parties[r]
        report = pki.validate_certificate(
            sender_cert, self.ca.pub, scenarios.FIXED_NOW, self.ca.crl, e
        )
        sigma = hls.signcrypt(
            message, sender_kp.d, recipient_cert.public_key, e, rng, hls.Mode.HARDENED
        )
        plaintext = hls.unsigncrypt(
            sigma, recipient_kp.d, sender_cert.public_key, e, hls.Mode.HARDENED
        )
        confirmation = hls.confirmation_oracle(
            sigma, recipient_kp.d, sender_cert.public_key, e, CONFIRM,
            hls.ConfirmPolicy.HARDENED,
        )
        return report.ok, sigma, plaintext, confirmation

    def record(self, inp, out):
        s, r, message, _ = inp
        return (s, r, message) + tuple(out)

    def check(self, records: list) -> list[str]:
        from cryptography.hazmat.primitives.asymmetric import ec

        secp = ec.SECP256K1()
        n = self.e.n
        problems = []
        for i, (s, r, message, cert_ok, sigma, plaintext, confirmation) in enumerate(records):
            d_a, d_b = self.parties[s][0].d, self.parties[r][0].d
            big_r = sigma.ephemeral
            where = f"{self.name} op {i}"
            if not cert_ok:
                problems.append(f"{where}: sender certificate did not validate")
            if plaintext != message:
                problems.append(f"{where}: plaintext is not the message sent")
            x_shared = ec.derive_private_key(d_b, secp).exchange(
                ec.ECDH(), ec.EllipticCurvePublicNumbers(big_r.x, big_r.y, secp).public_key()
            )
            if sigma.ciphertext != reference.keystream_xor(x_shared, message):
                problems.append(f"{where}: ciphertext is not keyed by x(d_B*R)")
            tag = hmac.new(x_shared, CONFIRM, hashlib.sha256).digest()
            if confirmation != (CONFIRM, tag):
                problems.append(f"{where}: confirmation tag is not HMAC-SHA256 under x(d_B*R)")
            h = int.from_bytes(
                hashlib.sha256(message + big_r.x.to_bytes(32, "big")).digest(), "big"
            ) % n
            eph = (d_a - sigma.signature) * pow(h, n - 2, n) % n
            if eph == 0 or ec.derive_private_key(eph, secp).public_key().public_numbers().x != big_r.x:
                problems.append(f"{where}: r = (d_A - s)/h does not give x(r*G) = x_R")
        return problems


class BulkMessage(Workload):
    """mid16, vulnerable mode: signcrypt and unsigncrypt of one large message."""

    name = "bulk-message"
    MESSAGE_BYTES = 256 * 1024
    ROUND = 4
    TRACE_ROUND_EVERY_S = 20

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.e = e = cli.load_curve("mid16")
        rng = Random(f"{self.name}:{seed}")
        self.alice = hls.gen(e, rng)
        self.bob = hls.gen(e, rng)
        self.messages = [rng.randbytes(self.MESSAGE_BYTES) for _ in range(self.ROUND)]

    def round_inputs(self, k: int) -> list:
        rng = Random(f"{self.name}:{self.seed}:{k}")
        return [(j, Random(rng.getrandbits(64))) for j in range(self.ROUND)]

    def op(self, inp):
        j, rng = inp
        sigma = hls.signcrypt(self.messages[j], self.alice.d, self.bob.pub, self.e, rng)
        return sigma, hls.unsigncrypt(sigma, self.bob.d, self.alice.pub, self.e)

    def record(self, inp, out):
        sigma, plaintext = out
        digest = None if plaintext is None else hashlib.sha256(plaintext).digest()
        return inp[0], sigma.ephemeral, hashlib.sha256(sigma.ciphertext).digest(), digest

    def check(self, records: list) -> list[str]:
        e = self.e
        width = (e.q.bit_length() + 7) // 8
        problems = []
        for i, (j, big_r, ct_digest, pt_digest) in enumerate(records):
            where = f"{self.name} op {i}"
            message = self.messages[j]
            if pt_digest != hashlib.sha256(message).digest():
                problems.append(f"{where}: plaintext is not the message sent")
            shared = reference.mul(self.bob.d, (big_r.x, big_r.y), e.q, e.a)
            key = bytes(width) if shared is None else shared[0].to_bytes(width, "big")
            expected = reference.keystream_xor(key, message)
            if ct_digest != hashlib.sha256(expected).digest():
                problems.append(f"{where}: ciphertext is not message XOR keystream(x(d_B*R))")
        return problems


class InvalidCurveCold(Workload):
    """Invalid-curve key recovery on a curve the process has never met."""

    name = "invalid-curve-cold"
    TRACE_ROUND_EVERY_S = 8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        pool = json.loads(POOL_FILE.read_text())
        # one curve per cost stratum in every round (see make_curve_pool.py)
        self.strata = [[curve.curve_from_dict(c) for c in s] for s in pool["strata"]]
        rng = Random(f"{self.name}:{seed}")
        self.order = [rng.sample(range(len(s)), len(s)) for s in self.strata]
        self.max_rounds = min(len(s) for s in self.strata)

    def round_inputs(self, k: int) -> list:
        rng = Random(f"{self.name}:{self.seed}:{k}")
        inputs = []
        for stratum, order in zip(self.strata, self.order):
            e = stratum[order[k]]
            d = rng.randrange(1, e.n)
            x, y = reference.mul(d, (e.g.x, e.g.y), e.q, e.a)
            inputs.append((e, d, curve.Point(x, y), Random(rng.getrandbits(64))))
        return inputs

    def op(self, inp):
        e, d, pub, rng = inp

        def oracle(sigma, confirm_message):
            return hls.confirmation_oracle(
                sigma, d, pub, e, confirm_message, hls.ConfirmPolicy.CONFIRM_ALWAYS
            )

        budget = scenarios.default_g_budget(e)
        return budget, attacks.invalid_curve_attack(e, pub, oracle, CONFIRM, budget, rng)

    def record(self, inp, out):
        e, d, _, _ = inp
        budget, report = out
        return (e, d, tuple(budget), report.success, report.recovered.get("d_B"),
                report.oracle_queries, report.trials)

    def check_inputs(self) -> list[str]:
        problems = []
        for stratum in self.strata:
            for e in stratum:
                if not (reference.is_prime(e.q) and reference.is_prime(e.n)):
                    problems.append(f"pool curve q={e.q}: q or n is not prime")
                if (e.g.y ** 2 - e.g.x ** 3 - e.a * e.g.x - e.b) % e.q:
                    problems.append(f"pool curve q={e.q}: G is not on the curve")
                if reference.mul(e.n, (e.g.x, e.g.y), e.q, e.a) is not None:
                    problems.append(f"pool curve q={e.q}: n*G != O")
        return problems

    def check(self, records: list) -> list[str]:
        problems = []
        for e, d, budget, success, d_b, queries, trials in records:
            where = f"{self.name} q={e.q}"
            if not success or d_b != d:
                problems.append(f"{where}: recovered d_B {d_b} is not the victim key {d}")
            if queries != len(budget):
                problems.append(f"{where}: {queries} oracle queries for a budget of {len(budget)}")
            bound = sum(g // 2 + 1 for g in budget)
            if trials > bound:
                problems.append(f"{where}: {trials} MAC trials exceed the bound {bound}")
            product = 1
            for g in budget:
                product *= g
            if not all(reference.is_prime(g) for g in budget) or product <= e.n:
                problems.append(f"{where}: budget {budget} is not odd primes covering n")
        return problems


class DemoAll(Workload):
    """`hlslab demo-all --curve mid16` in-process, a new seed per operation."""

    name = "demo-all"
    ROUND = 8
    TRACE_ROUND_EVERY_S = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # the companion-curve sweep for mid16 is warm in every timed operation
        self.op(seed)

    def round_inputs(self, k: int) -> list:
        rng = Random(f"{self.name}:{self.seed}:{k}")
        return [rng.getrandbits(32) for _ in range(self.ROUND)]

    def op(self, seed: int):
        argv = ["demo-all", "--curve", "mid16", "--seed", str(seed), "--output", "json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def record(self, inp, out):
        return (inp,) + tuple(out)

    def check(self, records: list) -> list[str]:
        expected = {
            (mode, name): mode == hls.Mode.VULNERABLE.value
            for mode in (hls.Mode.VULNERABLE.value, hls.Mode.HARDENED.value)
            for name in scenarios.SCENARIOS
        }
        problems = []
        for seed, code, text in records:
            where = f"{self.name} seed {seed}"
            if code != 0:
                problems.append(f"{where}: exit code {code}")
                continue
            rows = json.loads(text)["runs"]
            got = {(row["mode"], row["scenario"]): row["attack_succeeded"] for row in rows}
            if len(rows) != len(expected) or got != expected:
                problems.append(
                    f"{where}: rows are not one per scenario and mode, succeeding"
                    " exactly in vulnerable mode"
                )
        return problems


WORKLOADS = {w.name: w for w in (SecpSession, BulkMessage, InvalidCurveCold, DemoAll)}
