"""Tests of the benchmark itself: its output checks reject corrupted results,
and every workload runs end to end, untraced and traced.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_op(workload):
    inp = workload.round_inputs(0)[0]
    return inp, workload.op(inp)


def test_secp_session_rejects_wrong_confirmation_tag():
    wl = workloads.SecpSession(3)
    inp, (cert_ok, sigma, plaintext, (confirm, tag)) = one_op(wl)
    assert wl.check([wl.record(inp, (cert_ok, sigma, plaintext, (confirm, tag)))]) == []
    bad_tag = bytes([tag[0] ^ 1]) + tag[1:]
    problems = wl.check([wl.record(inp, (cert_ok, sigma, plaintext, (confirm, bad_tag)))])
    assert len(problems) == 1 and "confirmation tag" in problems[0]


def test_bulk_message_rejects_flipped_ciphertext_byte():
    wl = workloads.BulkMessage(3)
    inp, (sigma, plaintext) = one_op(wl)
    assert wl.check([wl.record(inp, (sigma, plaintext))]) == []
    ct = bytearray(sigma.ciphertext)
    ct[len(ct) // 2] ^= 0x80
    flipped = dataclasses.replace(sigma, ciphertext=bytes(ct))
    problems = wl.check([wl.record(inp, (flipped, plaintext))])
    assert len(problems) == 1 and "ciphertext" in problems[0]


def test_invalid_curve_cold_rejects_wrong_recovered_key():
    wl = workloads.InvalidCurveCold(3)
    inp, (budget, report) = one_op(wl)
    assert wl.check([wl.record(inp, (budget, report))]) == []
    wrong = dataclasses.replace(report, recovered={"d_B": report.recovered["d_B"] + 1})
    problems = wl.check([wl.record(inp, (budget, wrong))])
    assert len(problems) == 1 and "recovered d_B" in problems[0]


def test_demo_all_rejects_hardened_row_reporting_success():
    wl = workloads.DemoAll(3)
    inp, (code, text) = one_op(wl)
    assert wl.check([wl.record(inp, (code, text))]) == []
    doc = json.loads(text)
    row = next(r for r in doc["runs"] if r["mode"] == "hardened")
    row["attack_succeeded"] = True
    problems = wl.check([wl.record(inp, (code, json.dumps(doc)))])
    assert len(problems) == 1 and "exactly in vulnerable mode" in problems[0]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (1 if trace else 40)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        proc = run_bench("--workload", "demo-all", "--seed", "9", "--seconds", "1",
                         "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({m: v["value"] for m, v in metrics.items() if m.endswith("_per_op")
                       and not m.endswith("self_ms_per_op")})
    assert counts[0] == counts[1]
    assert counts[0]["curve.scalar_mul.calls_per_op"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "demo-all", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
