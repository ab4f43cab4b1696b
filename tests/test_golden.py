"""Byte-identity gate: every attack scenario's JSON report, and each bundled
curve's domain-parameter checklist, pinned by digest.

`attack --output json` carries the recovered secrets, counters and the
transcript, so any change to what a scenario computes or reports changes
its bytes. The digests were captured from `hlslab attack <scenario> --curve
<curve> --mode <mode> --seed 1 --output json` and `hlslab validate params
--curve <curve> --output json`; the same bytes come out of a separate
process as out of main() run in-process.
"""

import contextlib
import hashlib
import io

import pytest

from hlslab.cli import main

GOLDEN = {
    ("ephemeral-leak", "mid16", "hardened"): "cfea9ccc108e98c7254dbf1af92276aa793531c202b51ba4b187e36d28acf22c",
    ("ephemeral-leak", "mid16", "vulnerable"): "b8f987159bea499d8d150068817772d83ef17071b50bfc797a7f45fdf1a8fb9d",
    ("ephemeral-leak", "toy17", "hardened"): "cfea9ccc108e98c7254dbf1af92276aa793531c202b51ba4b187e36d28acf22c",
    ("ephemeral-leak", "toy17", "vulnerable"): "173fccafd63166f228db6538e92d8f4223a5e977684eb0439150b2c8bb659016",
    ("forward-secrecy", "mid16", "hardened"): "97a2910a639564aa64103ff896cc7cd8d20c3c7a1c827e78f9e2ae531439027f",
    ("forward-secrecy", "mid16", "vulnerable"): "6b0f4b8cd5ab6104a76aeeecde4f45937d5698c7023003735666e4d7b3bb366c",
    ("forward-secrecy", "toy17", "hardened"): "97a2910a639564aa64103ff896cc7cd8d20c3c7a1c827e78f9e2ae531439027f",
    ("forward-secrecy", "toy17", "vulnerable"): "e5b1294f604118883955b36255a85911eeba9747818b73b07cf81fba82861bad",
    ("invalid-curve", "mid16", "hardened"): "a0aa813506bd82ef7e969ccdf2d8c5c6b1586ef7c37ef1b1f2016b19112bcb48",
    ("invalid-curve", "mid16", "vulnerable"): "03e34f9d15ddbfdf7acbc1262ea305a90276dd925675267d012342aadb99b209",
    ("invalid-curve", "toy17", "hardened"): "cb3b44c1c460e3ff94a5c4548da91f66e005d3af0d6d263e398748cc2fc20b31",
    ("invalid-curve", "toy17", "vulnerable"): "3548473299709bb685d3b15c6fed12ce27a69cf6d62fd03947062a59b00b358c",
    ("pair-scan", "mid16", "hardened"): "432f5859c4d6970732ff6192828bda8301138f436ae432c3441dda3b9350b403",
    ("pair-scan", "mid16", "vulnerable"): "97c7d86cc35bf286e6e0f7e7faaf8bb3c89ceae2d272935ea962ff2fdba1f453",
    ("pair-scan", "toy17", "hardened"): "432f5859c4d6970732ff6192828bda8301138f436ae432c3441dda3b9350b403",
    ("pair-scan", "toy17", "vulnerable"): "ade77e540aeefe3a5afff69cfc9923be00e623df71fa6ec6cd020c04d0cd5ec6",
    ("uks", "mid16", "hardened"): "0246f482c8f408de52be3602db1208029c752cebacb1ebf41cdf353f1e05137f",
    ("uks", "mid16", "vulnerable"): "5afa2f1ba9722f677c1bf01e836fc90c7979989ae141938bcf6abc88375a423f",
    ("uks", "toy17", "hardened"): "0246f482c8f408de52be3602db1208029c752cebacb1ebf41cdf353f1e05137f",
    ("uks", "toy17", "vulnerable"): "5afa2f1ba9722f677c1bf01e836fc90c7979989ae141938bcf6abc88375a423f",
    ("weak-key", "mid16", "hardened"): "7b7a8d7c256644c8adbf454947154bd238727060b94b3136cd8e4a6785b1eb1e",
    ("weak-key", "mid16", "vulnerable"): "5706fca1cec741a797bd38407f792a86c3a7805d17fab11af284e236fabc8d89",
    ("weak-key", "toy17", "hardened"): "7b7a8d7c256644c8adbf454947154bd238727060b94b3136cd8e4a6785b1eb1e",
    ("weak-key", "toy17", "vulnerable"): "5706fca1cec741a797bd38407f792a86c3a7805d17fab11af284e236fabc8d89",
    ("zero-r", "mid16", "hardened"): "e9d85be4a13c4b3af2e8e52c031aea2581db6a81ffbc3bc7e4c7198e68169285",
    ("zero-r", "mid16", "vulnerable"): "5f1fec3ce96776ed40943ebccd29a0bf436887c6fcec1d59ac8af0f85eedc95c",
    ("zero-r", "toy17", "hardened"): "e9d85be4a13c4b3af2e8e52c031aea2581db6a81ffbc3bc7e4c7198e68169285",
    ("zero-r", "toy17", "vulnerable"): "2b3ff69959d4b33904740f711623ec2ac6144278dd708a231cedd6d3476195f9",
}

# the supersingular check's trace comes from count_points on toy17 and mid16
VALIDATE_PARAMS_GOLDEN = {
    "mid16": "f0cae05b7088dc2b068c23568682a0f325e833c14ae0227d2fac17b6a41ccf36",
    "secp256k1": "205706b818c7545a97878cf6c03382338aaba9c4c1f3cb2ba941f202a6e64246",
    "toy17": "0d9a56dec227de32795ba275a18f58de24398505fd4c0ce5f795806a412e2065",
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("scenario,curve,mode", sorted(GOLDEN))
def test_attack_json_is_byte_identical(scenario, curve, mode):
    code, digest = _run(
        ["attack", scenario, "--curve", curve, "--mode", mode, "--seed", "1", "--output", "json"]
    )
    # every scenario succeeds in vulnerable mode and is blocked in hardened mode
    assert code == (0 if mode == "vulnerable" else 1)
    assert digest == GOLDEN[scenario, curve, mode]


@pytest.mark.parametrize("curve", sorted(VALIDATE_PARAMS_GOLDEN))
def test_validate_params_json_is_byte_identical(curve):
    code, digest = _run(["validate", "params", "--curve", curve, "--output", "json"])
    assert code == 0
    assert digest == VALIDATE_PARAMS_GOLDEN[curve]
