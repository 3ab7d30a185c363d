"""Self-test of the benchmark harness, at minimal workload sizes.

    python3 -m pytest benchmarks/test_harness.py -q

Checks that every metric declared in BENCHMARK.json is emitted with its unit,
that wrong outputs are counted as failed operations (so the correctness gate
is not vacuous), that library operations start on cold caches, and that the
benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from diracdunkl import ck, closedform  # noqa: E402
from diracdunkl.exact import Params  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_matches_harness():
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert declared("end_to_end") == dict(run.END_TO_END)
    assert declared("per_layer") == dict(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_unit(workload, trace):
    result, details = run.run_workload(workload, seed=3, seconds=0, trace=trace, small=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert details["failed_ops_ratio"] == 0
    expected = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    env = details["environment"]
    assert env["python"] and env["nproc"] and env["cpu_model"]
    assert len(env["loadavg_at_start"]) == 3 and "git_commit" in env


def _flip_last_digit(path: Path) -> None:
    data = bytearray(path.read_bytes())
    index = max(i for i, byte in enumerate(data) if chr(byte).isdigit())
    data[index] = ord(str((int(chr(data[index])) + 1) % 10))
    path.write_bytes(bytes(data))


def test_planted_wrong_artifact_is_counted(monkeypatch):
    real_spawn = run.spawn

    def corrupting_spawn(argv, stdout_path, stderr_path, deadline):
        proc = real_spawn(argv, stdout_path, stderr_path, deadline)
        if "--out" in argv:
            _flip_last_digit(Path(argv[argv.index("--out") + 1]))
        return proc

    monkeypatch.setattr(run, "spawn", corrupting_spawn)
    result, details = run.run_workload("constructions", seed=3, seconds=0, trace=False, small=True)
    assert not result["correct"]
    assert details["failed_ops_ratio"] > 0
    failed = {line.split(":")[0] for line in details["failures"]}
    # Each of these outputs ends in a value an identity pins down.
    assert {"overlaps", "rep", "moments"} <= failed


def test_digest_mismatch_is_reported(tmp_path):
    out = tmp_path / "moments.json"
    subprocess.run([sys.executable, "-m", "diracdunkl", "moments", "--N", "3", "--mu", "1/2,1/3,2/5",
                    "--out", str(out)], check=True, env={"PYTHONPATH": str(ROOT / "src")})
    args = {"N": 3, "mu": "1/2,1/3,2/5"}
    recorded = checks.digest(out.read_bytes())
    assert checks.check_output("moments", args, out, recorded) is None
    data = bytearray(out.read_bytes())
    data[0] ^= 0x20  # "{" becomes "[": still one byte, wrong digest
    out.write_bytes(bytes(data))
    assert "digest" in checks.check_output("moments", args, out, recorded)


def _small_library_spec() -> dict:
    *_, unit = run.plan_pass("constructions", 3, 0, small=True)
    return unit["spec"]


def test_library_ops_start_cold():
    ck.monogenic_basis(2, Params.parse("1/2,1/3,2/5"))
    closedform.moment(Params.parse("1/2,1/3,2/5"), 1, 0, 0)
    assert worker.cold_start() == [0, 0]
    result = worker.run_library_pass(_small_library_spec(), trace=False)
    assert result["ops"] and all(op["cold"] == [0, 0] and op["error"] is None
                                 for op in result["ops"])


def test_warm_cache_fails_the_op(monkeypatch):
    monkeypatch.setattr(worker, "cold_start", lambda: [1, 0])
    result = worker.run_library_pass(_small_library_spec(), trace=False)
    assert all(op["error"] == "caches not empty at op start" for op in result["ops"])


def test_planted_wrong_library_result_is_counted(monkeypatch):
    real = ck.fischer_decompose

    def wrong(f, params):
        parts = real(f, params)
        return ck.FischerComponents(parts.degree, (parts.components[0].scale(2),)
                                    + parts.components[1:])

    monkeypatch.setattr(ck, "fischer_decompose", wrong)
    result = worker.run_library_pass(_small_library_spec(), trace=False)
    errors = {op["name"]: op["error"] for op in result["ops"]}
    assert errors["fischer N=2"] == "reconstruction differs from the input"
    assert errors["match N=2"] is None


def test_tracer_restores_the_library():
    from diracdunkl import exact, operators, poly

    before = (exact.GRational.__mul__, poly.ScalarPoly.__mul__, operators.LinOp.__call__,
              operators.dunkl, ck.dunkl, ck.monogenic_basis)
    tracer = worker.Tracer()
    tracer.install()
    assert operators.dunkl is not before[3] and ck.dunkl is not before[4]
    tracer.uninstall()
    after = (exact.GRational.__mul__, poly.ScalarPoly.__mul__, operators.LinOp.__call__,
             operators.dunkl, ck.dunkl, ck.monogenic_basis)
    assert after == before


def test_refuses_to_run_without_sources():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "constructions", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
