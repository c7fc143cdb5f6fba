"""Tests of the benchmark's checkers and a smoke run of every workload.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from bsme import BitString, LinearCode, derive_commit_params, derive_ot_params  # noqa: E402
from bsme.app import runner  # noqa: E402
from bsme.source import SourceConfig, generate  # noqa: E402

OT_PARAMS = derive_ot_params(n=4096, ell=14, code=LinearCode.hamming_7_4(), gamma=0.0,
                             delta=0.01, tau=0.02, m_f=Fraction(1, 7), eps_hat=0.25)
COMMIT_PARAMS = derive_commit_params(n=4096, ell=16, alpha=1.0, gamma=0.25, delta=0.02)


def frame(tag: int, fields: list[tuple[int, int]]) -> bytes:
    out = bytes([tag]) + len(fields).to_bytes(4, "big")
    for bits, value in fields:
        out += bits.to_bytes(4, "big") + value.to_bytes((bits + 7) // 8, "little")
    return out


def retag(transcript, index: int, fields) -> tuple:
    label, data = transcript[index]
    return transcript[:index] + ((label, frame(data[0], fields)),) + transcript[index + 1 :]


# --------------------------------------------------------------------------
# building blocks


def test_independent():
    assert checks.independent([0b001, 0b011, 0b110])
    assert not checks.independent([0b001, 0b011, 0b010])
    assert not checks.independent([0b101, 0])


def test_toeplitz_matches_matrix_definition():
    rng = random.Random(5)
    for in_len, out_len in [(1, 1), (5, 3), (9, 9), (16, 4)]:
        for _ in range(20):
            diag = rng.getrandbits(in_len + out_len - 1)
            x = rng.getrandbits(in_len)
            want = 0
            for i in range(out_len):
                bit = 0
                for j in range(in_len):
                    bit ^= (diag >> (i + in_len - 1 - j)) & (x >> j) & 1
                want |= bit << i
            assert checks.toeplitz(diag, x, in_len, out_len) == want


def test_restrict_packs_in_position_order():
    assert checks.restrict(0b1010_0110, 0b1100_0011) == (4, 0b1010)


def test_parse_frame_rejects_trailing_bytes():
    with pytest.raises(checks.CheckError):
        checks.parse_frame(frame(0x05, [(1, 1)]) + b"\x00")


# --------------------------------------------------------------------------
# transfer


@pytest.fixture(scope="module")
def ot_session():
    secrets = (BitString(OT_PARAMS.payload_len, 1), BitString(OT_PARAMS.payload_len, 2))
    out = runner.run_ot_session(OT_PARAMS, choice=1, secrets=secrets, seed=0)
    assert out.completed
    return out, secrets


def test_ot_check_accepts_honest_session(ot_session):
    out, secrets = ot_session
    assert checks.check_ot(out, 1, secrets, OT_PARAMS.m) == checks.OK


def test_ot_check_flags_flipped_secret_bit(ot_session):
    out, secrets = ot_session
    tampered = dataclasses.replace(out, output=out.output.flip(0))
    assert checks.check_ot(tampered, 1, secrets, OT_PARAMS.m) == checks.FAILED


def test_ot_check_flags_dependent_queries(ot_session):
    out, secrets = ot_session
    m = OT_PARAMS.m
    q1 = checks.parse_frame(out.transcript[1][1])[1][0][1]
    q2 = checks.parse_frame(out.transcript[3][1])[1][0][1]
    tampered = dataclasses.replace(out, transcript=retag(out.transcript, 5, [(m, q1 ^ q2)]))
    with pytest.raises(checks.CheckError, match="dependent"):
        checks.check_ot(tampered, 1, secrets, m)


def test_ot_check_flags_frame_order(ot_session):
    out, secrets = ot_session
    t = out.transcript
    swapped = (t[1], t[0]) + t[2:]
    with pytest.raises(checks.CheckError):
        checks.check_ot(dataclasses.replace(out, transcript=swapped), 1, secrets, OT_PARAMS.m)
    with pytest.raises(checks.CheckError):
        checks.check_ot(dataclasses.replace(out, transcript=t[:-1]), 1, secrets, OT_PARAMS.m)


# --------------------------------------------------------------------------
# commitment


@pytest.fixture(scope="module")
def commit_session():
    p = COMMIT_PARAMS
    value = BitString.random(p.m, random.Random(1))
    out = runner.run_commit_session(p, value=value, seed=0, transport="socket")
    assert out.accepted
    x = generate(SourceConfig(n=p.n, alpha=p.alpha, delta=p.delta, seed="0:source")).x
    return out, value, x.to_int()


def _check_commit(out, value, x):
    return checks.check_commit(out, value, x, COMMIT_PARAMS.k, COMMIT_PARAMS.digest_len)


def test_commit_check_accepts_honest_session(commit_session):
    assert _check_commit(*commit_session) == checks.OK


@pytest.mark.parametrize("field", [0, 1, 3], ids=["masked", "digest", "seed"])
def test_commit_check_flags_tampered_commitment(commit_session, field):
    out, value, x = commit_session
    fields = checks.parse_frame(out.transcript[1][1])[1]
    bits, v = fields[field]
    fields[field] = (bits, v ^ 1)
    tampered = dataclasses.replace(out, transcript=retag(out.transcript, 1, fields))
    with pytest.raises(checks.CheckError, match="digest|masked"):
        _check_commit(tampered, value, x)


def test_commit_check_flags_opening_off_the_public_string(commit_session):
    out, value, x = commit_session
    with pytest.raises(checks.CheckError, match="public string"):
        _check_commit(out, value, x ^ ((1 << COMMIT_PARAMS.n) - 1))


def test_commit_check_flags_wrong_opened_value(commit_session):
    out, value, x = commit_session
    with pytest.raises(checks.CheckError, match="committed value"):
        _check_commit(dataclasses.replace(out, opened=value.flip(0)), value, x)


# --------------------------------------------------------------------------
# interactive-hashing rate


def test_theta_rate_window():
    trials = 100_000
    p = 63 / 4095
    checks.check_theta_rate(round(p * trials), trials, 12, 6)
    lo, hi = checks.theta_window(12, 6, trials)
    with pytest.raises(checks.CheckError):
        checks.check_theta_rate(int(hi * trials) + 2, trials, 12, 6)
    with pytest.raises(checks.CheckError):
        checks.check_theta_rate(int(lo * trials) - 2, trials, 12, 6)
    # The theta attack's own acceptance bound is far wider than this window.
    with pytest.raises(checks.CheckError):
        checks.check_theta_rate(round(2 * p * trials), trials, 12, 6)


# --------------------------------------------------------------------------
# tracing


def test_union_length_merges_overlaps_and_clips():
    assert spans.union_length([(1, 3), (2, 4), (6, 9)], 0, 8) == pytest.approx(5)
    assert spans.union_length([], 0, 8) == 0


def test_traced_session_counts_match_its_transcript():
    tracer = spans.Tracer({name: importlib.import_module(name) for name in run.MODULES})
    secrets = (BitString(OT_PARAMS.payload_len, 1), BitString(OT_PARAMS.payload_len, 2))
    tracer.install()
    try:
        tracer.begin_op()
        t0 = time.perf_counter()
        out = runner.run_ot_session(OT_PARAMS, choice=0, secrets=secrets, seed=1)
        tracer.end_op(t0, time.perf_counter())
    finally:
        tracer.uninstall()
    assert not hasattr(runner.run_ot_session, "__wrapped__")
    got = {name: value for name, (value, _unit) in tracer.metrics().items()}
    assert out.completed
    assert got["app.framing.frames_per_op"] == len(out.transcript) == 2 * OT_PARAMS.m + 2
    assert got["app.framing.bytes_per_op"] == sum(len(data) for _, data in out.transcript)
    assert got["gf2.solve_affine_pair.calls_per_op"] == 2
    assert got["app.runner.threads_per_op"] == 2
    assert got["ihash.candidates_per_query"] >= 1
    assert got["gf2.solve_affine_pair.ms_per_op"] > 0 and got["commit.parties.ms_per_op"] == 0


# --------------------------------------------------------------------------
# smoke runs


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["ot_n4096_memory", "commit_n65536_socket", "ih_theta_m12"])
def test_smoke_traced_run(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_smoke_end_to_end_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "ih_theta_m12", "--seed", "3", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "ih_theta_m12", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
