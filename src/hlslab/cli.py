"""Command-line front end: key generation, signcryption, validation, the toy
CA, and every attack scenario, file-in/file-out over JSON.

Exit codes partition outcomes:
  0  success (for `attack`: the attack succeeded, demo semantics)
  1  rejected / blocked (unsigncryption returned the reject symbol, an attack
     was blocked, a demo expectation failed, a search found nothing)
  2  validation or policy failure (failed checklist, refused issuance,
     hardened-mode refusal)
  3  usage, file, or format errors

Curves are referenced by file path, or by bundled name: toy17 (19-point demo
curve), mid16 (prime-order curve with q around 2^16, used by the
invalid-curve demonstration), secp256k1 (realistic scale). The HLSLAB_CURVE
environment variable overrides the default of toy17.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from importlib import resources
from pathlib import Path
from random import Random
from typing import Optional

from .attacks import AttackReport
from .curve import (
    CurveParams,
    Point,
    curve_from_dict,
    curve_to_dict,
    point_from_obj,
    search_prime_order_curve,
)
from .errors import HardenedRefusalError, HlsLabError, NotFoundError
from .hls import (
    gen,
    keypair_from_dict,
    keypair_to_dict,
    signcrypt,
    signcrypted_from_dict,
    signcrypted_to_dict,
    unsigncrypt,
)
from .pki import (
    CAPolicy,
    CertificateAuthority,
    ValidationReport,
    cert_from_dict,
    cert_to_dict,
    make_pop,
    sig_from_dict,
    sig_to_dict,
    validate_certificate,
    validate_domain_params,
    validate_public_key,
)
from .primitives import Mode
from .scenarios import FIXED_NOW, SCENARIOS
from .arith import hex_to_int, int_to_hex

__all__ = ["entry", "main"]

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INVALID = 2
EXIT_USAGE = 3

_BUNDLED_CURVES = ("toy17", "mid16", "secp256k1")

# The bundled toy curve has embedding degree 9, inherent at 5-bit scale, so
# the CLI's validation gate defaults below that; the library-level default
# for validate_domain_params stays at the stricter 20.
_CLI_EMBEDDING_BOUND = 8


class UsageError(Exception):
    """Bad invocation or malformed input file; mapped to exit 3."""


class ParamValidationFailure(Exception):
    """Domain parameters failed the checklist; mapped to exit 2."""

    def __init__(self, report: ValidationReport):
        super().__init__("domain parameter validation failed")
        self.report = report


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 is reserved for validation failures here
    def error(self, message: str):
        raise UsageError(message)


def _load_json(path: str) -> object:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: not valid JSON ({exc})") from None


def load_curve(spec: str) -> CurveParams:
    if spec in _BUNDLED_CURVES:
        text = resources.files("hlslab").joinpath("data", f"curve_{spec}.json").read_text()
        data = json.loads(text)
    else:
        data = _load_json(spec)
    return curve_from_dict(data)


def _read_public_point(path: str) -> Point:
    """Accept a key-pair file, a certificate, or a bare point object."""
    data = _load_json(path)
    if isinstance(data, dict) and {"ux", "uy"} <= set(data):
        return Point(hex_to_int(data["ux"]), hex_to_int(data["uy"]))
    if isinstance(data, dict) and "publicKey" in data:
        return point_from_obj(data["publicKey"])
    return point_from_obj(data)


def _rng(args) -> Random:
    return Random(args.seed) if args.seed is not None else Random()


def _gate_params(e: CurveParams, args) -> None:
    if args.skip_param_validation:
        return
    report = validate_domain_params(e, embedding_bound=args.embedding_bound)
    if not report.ok:
        raise ParamValidationFailure(report)


def _write_json(args_out: Optional[str], payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if args_out:
        Path(args_out).write_text(text)
    else:
        sys.stdout.write(text)


def _render_report(report: ValidationReport) -> str:
    lines = []
    for c in report.checks:
        tag = "ok  " if c.passed else "FAIL"
        ext = " (extended)" if c.extended else ""
        lines.append(f"  [{tag}] {c.name}{ext}: {c.detail}")
    lines.append(f"  => {'all checks passed' if report.ok else 'validation FAILED'}")
    return "\n".join(lines)


def _render_attack(report: AttackReport) -> str:
    lines = [f"attack {report.attack_id}: {'SUCCESS' if report.success else 'failed/blocked'}"]
    for name, value in report.recovered.items():
        lines.append(f"  recovered {name} = {int_to_hex(value)}")
    lines.append(f"  oracle queries: {report.oracle_queries}, trials: {report.trials}")
    lines.extend(f"  | {line}" for line in report.transcript)
    return "\n".join(lines)


def _emit_report(args, report: ValidationReport) -> int:
    if args.output == "json":
        _write_json(None, report.to_dict())
    else:
        print(_render_report(report))
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_keygen(args) -> int:
    e = load_curve(args.curve)
    _gate_params(e, args)
    kp = gen(e, _rng(args))
    _write_json(args.out, keypair_to_dict(kp))
    return EXIT_OK


def cmd_signcrypt(args) -> int:
    e = load_curve(args.curve)
    _gate_params(e, args)
    sender = keypair_from_dict(_load_json(args.key))
    recipient_pub = _read_public_point(args.recipient)
    message = Path(args.infile).read_bytes()
    forced_r = int(args.forced_r, 0) if args.forced_r is not None else None
    sigma = signcrypt(message, sender.d, recipient_pub, e, _rng(args), Mode(args.mode), forced_r)
    _write_json(args.out, signcrypted_to_dict(sigma))
    return EXIT_OK


def cmd_unsigncrypt(args) -> int:
    e = load_curve(args.curve)
    _gate_params(e, args)
    recipient = keypair_from_dict(_load_json(args.key))
    sender_pub = _read_public_point(args.sender)
    sigma = signcrypted_from_dict(_load_json(args.infile))
    message = unsigncrypt(sigma, recipient.d, sender_pub, e, Mode(args.mode))
    if message is None:
        print("unsigncryption rejected the triple (verification failed)", file=sys.stderr)
        return EXIT_REJECTED
    if args.out:
        Path(args.out).write_bytes(message)
    else:
        sys.stdout.buffer.write(message)
    return EXIT_OK


def cmd_validate(args) -> int:
    e = load_curve(args.curve)
    if args.target == "params":
        return _emit_report(args, validate_domain_params(e, embedding_bound=args.embedding_bound))
    if args.target == "pubkey":
        point = _read_public_point(args.infile)
        return _emit_report(args, validate_public_key(point, e, full=args.full))
    cert = cert_from_dict(_load_json(args.infile))
    ca_pub = _read_public_point(args.ca)
    crl = _read_crl(args.crl) if args.crl else set()
    return _emit_report(args, validate_certificate(cert, ca_pub, args.now, crl, e))


def _read_crl(path: str) -> set[int]:
    data = _load_json(path)
    if not isinstance(data, list):
        raise UsageError(f"{path}: CRL must be a JSON array of serials")
    return {hex_to_int(s) for s in data}


class _CaState:
    """CA state directory: key pair, next serial, CRL, and a fail-fast lock."""

    def __init__(self, directory: str):
        self.dir = Path(directory)
        self.key_path = self.dir / "ca_key.json"
        self.serial_path = self.dir / "serial.txt"
        self.crl_path = self.dir / "crl.json"
        self.lock_path = self.dir / "lock"

    def __enter__(self) -> "_CaState":
        if not self.dir.is_dir():
            raise UsageError(f"CA state directory {self.dir} does not exist (run ca init)")
        try:
            self._lock_fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise UsageError(
                f"{self.lock_path} exists: another invocation is using this CA"
            ) from None
        return self

    def __exit__(self, *exc_info) -> None:
        os.close(self._lock_fd)
        self.lock_path.unlink(missing_ok=True)

    def read_keypair(self):
        return keypair_from_dict(_load_json(str(self.key_path)))

    def read_serial(self) -> int:
        return int(self.serial_path.read_text().strip())

    def write_serial(self, serial: int) -> None:
        self.serial_path.write_text(f"{serial}\n")

    def read_crl(self) -> set[int]:
        return _read_crl(str(self.crl_path))

    def write_crl(self, crl: set[int]) -> None:
        self.crl_path.write_text(
            json.dumps([int_to_hex(s) for s in sorted(crl)]) + "\n"
        )


def cmd_ca(args) -> int:
    if args.ca_cmd == "revoke":
        # a serial joins the CRL whatever the CA's curve, so no curve is read
        with _CaState(args.dir) as state:
            state.write_crl(state.read_crl() | {int(args.serial, 0)})
        return EXIT_OK
    e = load_curve(args.curve)
    if args.ca_cmd == "init":
        directory = Path(args.dir)
        directory.mkdir(parents=True, exist_ok=True)
        state = _CaState(args.dir)
        if state.key_path.exists():
            raise UsageError(f"{state.key_path} already exists, refusing to overwrite")
        kp = gen(e, _rng(args))
        state.key_path.write_text(json.dumps(keypair_to_dict(kp), indent=2) + "\n")
        state.write_serial(1)
        state.write_crl(set())
        print(f"initialized CA state in {directory}")
        return EXIT_OK
    if args.ca_cmd == "prove":
        requester = keypair_from_dict(_load_json(args.key))
        ca_pub = _read_public_point(args.ca_pub)
        pop = make_pop(args.subject, requester, ca_pub, e, _rng(args))
        _write_json(args.out, sig_to_dict(pop))
        return EXIT_OK
    with _CaState(args.dir) as state:
        if args.ca_cmd == "issue":
            ca = CertificateAuthority(
                keypair=state.read_keypair(),
                curve=e,
                policy=CAPolicy(
                    require_pop=args.require_pop,
                    require_pk_validation=args.require_pk_validation,
                ),
                rng=_rng(args),
                next_serial=state.read_serial(),
            )
            public_key = _read_public_point(args.pubkey)
            pop = sig_from_dict(_load_json(args.pop)) if args.pop else None
            cert = ca.issue(args.subject, public_key, args.now, args.lifetime, pop=pop)
            state.write_serial(ca.next_serial)
            _write_json(args.out, cert_to_dict(cert))
            return EXIT_OK
        # verify
        cert = cert_from_dict(_load_json(args.infile))
        ca_pub = state.read_keypair().pub
        report = validate_certificate(cert, ca_pub, args.now, state.read_crl(), e)
        return _emit_report(args, report)


def cmd_attack(args) -> int:
    if args.g_budget is not None and args.which != "invalid-curve":
        raise UsageError("--g-budget applies only to attack invalid-curve")
    e = load_curve(args.curve)
    _gate_params(e, args)
    runner = SCENARIOS[args.which]
    kwargs = {}
    if args.g_budget is not None:
        kwargs["g_budget"] = [int(g, 0) for g in args.g_budget.split(",")]
    report = runner(e, Mode(args.mode), _rng(args), **kwargs)
    if args.output == "json":
        _write_json(None, report.to_dict())
    else:
        print(_render_attack(report))
    return EXIT_OK if report.success else EXIT_REJECTED


def cmd_demo_all(args) -> int:
    e = load_curve(args.curve)
    _gate_params(e, args)
    rows = []
    all_as_expected = True
    for mode in (Mode.VULNERABLE, Mode.HARDENED):
        for name, runner in SCENARIOS.items():
            child_seed = f"{args.seed}:{mode.value}:{name}"
            report = runner(e, mode, Random(child_seed))
            expected = mode is Mode.VULNERABLE
            ok = report.success == expected
            all_as_expected = all_as_expected and ok
            rows.append(
                {
                    "mode": mode.value,
                    "scenario": name,
                    "attack_succeeded": report.success,
                    "expected": expected,
                    "as_expected": ok,
                }
            )
    if args.output == "json":
        _write_json(None, {"ok": all_as_expected, "runs": rows})
    else:
        for row in rows:
            verdict = "ok" if row["as_expected"] else "UNEXPECTED"
            outcome = "succeeded" if row["attack_succeeded"] else "blocked/failed"
            print(f"[{row['mode']:>10}] {row['scenario']:<16} attack {outcome:<14} {verdict}")
        print("demo-all:", "all expectations hold" if all_as_expected else "EXPECTATION VIOLATED")
    return EXIT_OK if all_as_expected else EXIT_REJECTED


def cmd_find_curve(args) -> int:
    e = search_prime_order_curve(
        args.min, args.max, _rng(args), embedding_bound=args.embedding_bound
    )
    _write_json(args.out, curve_to_dict(e))
    print(
        f"found curve q={e.q} a={e.a} b={e.b} G=({e.g.x},{e.g.y}) n={e.n}",
        file=sys.stderr,
    )
    return EXIT_OK


def _add_curve_opt(p: argparse.ArgumentParser):
    p.add_argument(
        "--curve",
        # None is resolved when the command runs, so HLSLAB_CURVE is read then
        # and not when the parser is built
        default=None,
        help="curve file path or bundled name (toy17, mid16, secp256k1);"
        " env HLSLAB_CURVE overrides the default",
    )


def _add_embedding_opt(p: argparse.ArgumentParser):
    p.add_argument(
        "--embedding-bound",
        type=int,
        default=_CLI_EMBEDDING_BOUND,
        help="highest power checked by the embedding-degree condition"
        f" (default {_CLI_EMBEDDING_BOUND})",
    )


def _add_gated_curve_opts(p: argparse.ArgumentParser):
    # --curve plus the options of _gate_params, for the commands that call it
    _add_curve_opt(p), _add_embedding_opt(p)
    p.add_argument(
        "--skip-param-validation",
        action="store_true",
        help="skip the domain-parameter gate before the operation",
    )


def _add_seed_opt(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="seed for all randomness")


def _add_mode_opt(p: argparse.ArgumentParser):
    p.add_argument(
        "--mode",
        choices=[m.value for m in Mode],
        default=Mode.VULNERABLE.value,
        help="scheme variant (default vulnerable)",
    )


def _add_output_opt(p: argparse.ArgumentParser):
    p.add_argument("--output", choices=["human", "json"], default="human")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hlslab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    _add_gated_curve_opts(p), _add_seed_opt(p)
    p.add_argument("--out", help="key-pair output file (stdout when omitted)")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("signcrypt", help="signcrypt a message file")
    _add_gated_curve_opts(p), _add_seed_opt(p), _add_mode_opt(p)
    p.add_argument("--key", required=True, help="sender key-pair file")
    p.add_argument("--recipient", required=True, help="recipient public key (key pair or cert)")
    p.add_argument("--in", dest="infile", required=True, help="plaintext file")
    p.add_argument("--out", help="signcrypted output file (stdout when omitted)")
    p.add_argument(
        "--forced-r",
        default=None,
        help="inject this ephemeral scalar (vulnerable mode only; reproducibility hook)",
    )
    p.set_defaults(func=cmd_signcrypt)

    p = sub.add_parser("unsigncrypt", help="unsigncrypt a triple")
    _add_gated_curve_opts(p), _add_mode_opt(p)
    p.add_argument("--key", required=True, help="recipient key-pair file")
    p.add_argument("--sender", required=True, help="sender public key (key pair or cert)")
    p.add_argument("--in", dest="infile", required=True, help="signcrypted file")
    p.add_argument("--out", help="plaintext output file (stdout when omitted)")
    p.set_defaults(func=cmd_unsigncrypt)

    p = sub.add_parser("validate", help="run a validation checklist")
    vsub = p.add_subparsers(dest="target", required=True)
    vp = vsub.add_parser("params", help="domain parameters of --curve")
    _add_curve_opt(vp), _add_embedding_opt(vp), _add_output_opt(vp)
    vp.set_defaults(func=cmd_validate)
    vp = vsub.add_parser("pubkey", help="public-key checklist")
    _add_curve_opt(vp), _add_output_opt(vp)
    vp.add_argument("--in", dest="infile", required=True)
    vp.add_argument("--full", action="store_true", help="append the extended subgroup-order check")
    vp.set_defaults(func=cmd_validate)
    vp = vsub.add_parser("cert", help="certificate checklist")
    _add_curve_opt(vp), _add_output_opt(vp)
    vp.add_argument("--in", dest="infile", required=True)
    vp.add_argument("--ca", required=True, help="CA public key file")
    vp.add_argument("--crl", help="CRL file (JSON array of serials)")
    vp.add_argument(
        "--now", type=int, default=FIXED_NOW, help=f"validation time (default {FIXED_NOW})"
    )
    vp.set_defaults(func=cmd_validate)

    p = sub.add_parser("ca", help="toy certificate authority")
    csub = p.add_subparsers(dest="ca_cmd", required=True)
    cp = csub.add_parser("init", help="create a CA state directory")
    _add_curve_opt(cp), _add_seed_opt(cp)
    cp.add_argument("--dir", required=True)
    cp.set_defaults(func=cmd_ca)
    cp = csub.add_parser("issue", help="issue a certificate")
    _add_curve_opt(cp), _add_seed_opt(cp)
    cp.add_argument("--dir", required=True)
    cp.add_argument("--subject", required=True)
    cp.add_argument("--pubkey", required=True, help="requester public key file")
    cp.add_argument("--pop", help="proof-of-possession signature file")
    cp.add_argument("--require-pop", action="store_true")
    cp.add_argument("--require-pk-validation", action="store_true")
    cp.add_argument("--now", type=int, default=FIXED_NOW)
    cp.add_argument("--lifetime", type=int, default=365 * 86400, help="seconds of validity")
    cp.add_argument("--out", help="certificate output file (stdout when omitted)")
    cp.set_defaults(func=cmd_ca)
    cp = csub.add_parser("revoke", help="add a serial to the CRL")
    cp.add_argument("--dir", required=True)
    cp.add_argument("--serial", required=True)
    cp.set_defaults(func=cmd_ca)
    cp = csub.add_parser("verify", help="validate a certificate against CA state")
    _add_curve_opt(cp), _add_output_opt(cp)
    cp.add_argument("--dir", required=True)
    cp.add_argument("--in", dest="infile", required=True)
    cp.add_argument("--now", type=int, default=FIXED_NOW)
    cp.set_defaults(func=cmd_ca)
    cp = csub.add_parser("prove", help="produce a proof-of-possession signature")
    _add_curve_opt(cp), _add_seed_opt(cp)
    cp.add_argument("--key", required=True, help="requester key-pair file")
    cp.add_argument("--subject", required=True)
    cp.add_argument("--ca-pub", required=True, help="CA public key file")
    cp.add_argument("--out", help="signature output file (stdout when omitted)")
    cp.set_defaults(func=cmd_ca)

    p = sub.add_parser("attack", help="run an attack scenario end to end")
    p.add_argument("which", choices=sorted(SCENARIOS))
    _add_gated_curve_opts(p), _add_seed_opt(p), _add_mode_opt(p), _add_output_opt(p)
    p.add_argument("--g-budget", help="comma-separated odd primes for invalid-curve")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser(
        "demo-all", help="run every scenario in both modes and check expectations"
    )
    _add_gated_curve_opts(p), _add_seed_opt(p), _add_output_opt(p)
    p.set_defaults(func=cmd_demo_all)

    p = sub.add_parser("find-curve", help="search for a prime-order curve")
    _add_seed_opt(p)
    p.add_argument("--min", type=int, required=True, help="smallest field size")
    p.add_argument("--max", type=int, required=True, help="largest field size")
    p.add_argument("--embedding-bound", type=int, default=20)
    p.add_argument("--out", help="curve output file (stdout when omitted)")
    p.set_defaults(func=cmd_find_curve)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves it unchanged
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "curve", "") is None:
            args.curve = os.environ.get("HLSLAB_CURVE", "toy17")
        return args.func(args)
    except ParamValidationFailure as exc:
        print("domain parameters failed validation:", file=sys.stderr)
        print(_render_report(exc.report), file=sys.stderr)
        return EXIT_INVALID
    except HardenedRefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NotFoundError as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except (UsageError, OSError, ValueError, HlsLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
