import hashlib
import json
import subprocess
import sys

import pytest

from diracdunkl import birep, ck, cli, closedform, suites

MU = "1/2,1/3,2/5"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "diracdunkl", *args],
        capture_output=True,
        text=True,
    )


def test_rep_command_first_degree_flat():
    result = run_cli("rep", "--N", "1", "--mu", "0,0,0")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["lambda"] == ["1/2", "-3/2"]
    assert payload["A"] == ["3/2", "0/1"]
    assert payload["C"] == ["0/1", "1/2"]
    assert payload["V"] == ["-1/1", "0/1"]
    assert payload["muN"] == "-2/1"


def test_verify_passes_and_exit_code_zero(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("verify", "--degree", "1", "--mu", MU, "--out", str(out))
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["status"] == "pass"
    assert payload["failures"] == []
    sections = {s["section"] for s in payload["sections"]}
    assert sections == {
        "osp12", "symmetry", "monogenic", "closedform",
        "orthogonality", "representation", "fischer",
    }


def test_verify_output_is_byte_reproducible(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        result = run_cli("verify", "--degree", "1", "--mu", MU, "--out", str(path))
        assert result.returncode == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_seeded_sweep_is_deterministic(tmp_path):
    runs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        result = run_cli("verify", "--degree", "0", "--seed", "7", "--out", str(out))
        assert result.returncode == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert len(payload["mu_samples"]) == 5


def test_verify_rejects_negative_mu():
    result = run_cli("verify", "--degree", "2", "--mu", "-1,0,0")
    assert result.returncode == 2
    assert "mu must be non-negative" in result.stderr


def test_verify_rejects_malformed_mu():
    result = run_cli("verify", "--mu", "1/2,1/3")
    assert result.returncode == 2


def test_mutation_fails_with_named_counterexample():
    result = run_cli(
        "verify", "--degree", "2", "--mu", MU, "--mutate", "gamma3+1"
    )
    assert result.returncode == 1
    assert result.stderr.startswith("FAIL ")
    payload = json.loads(result.stdout)
    assert payload["status"] == "fail"
    first = payload["failures"][0]
    assert first["name"]
    assert first["counterexample"] is not None


def test_basis_command_schema():
    result = run_cli("basis", "--N", "2", "--mu", MU)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["N"] == 2
    assert payload["mu"] == ["1/2", "1/3", "2/5"]
    assert len(payload["elements"]) == 6
    labels = [(e["k"], e["sign"]) for e in payload["elements"]]
    assert labels == [(0, "+"), (0, "-"), (1, "+"), (1, "-"), (2, "+"), (2, "-")]
    entry = payload["elements"][0]["poly"]
    assert set(entry) == {"up", "down"}
    for term in entry["up"]:
        assert set(term) == {"exp", "coef"}
        assert set(term["coef"]) == {"re", "im"}


def test_wavefunctions_command_schema():
    for family in ("psi", "upsilon"):
        result = run_cli(
            "wavefunctions", "--N", "1", "--mu", MU, "--basis", family
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["basis"] == family
        assert len(payload["elements"]) == 4
        for element in payload["elements"]:
            assert set(element) == {"N", "k", "sign", "poly", "squared_norm"}


def test_overlaps_command_schema():
    result = run_cli("overlaps", "--N", "1", "--mu", MU)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert len(payload["overlaps"]) == 4
    assert len(payload["overlaps"][0]) == 4
    assert len(payload["gram_psi"]) == 4
    assert len(payload["gram_upsilon"]) == 4


def test_moments_command():
    result = run_cli("moments", "--N", "1", "--mu", "1/2,1/2,1/2")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    values = {tuple(m["half_exponents"]): m["value"] for m in payload["moments"]}
    assert values[(0, 0, 0)] == "1/1"
    assert values[(1, 0, 0)] == "1/3"


def test_rejects_negative_n():
    result = run_cli("basis", "--N", "-1", "--mu", MU)
    assert result.returncode == 2


@pytest.mark.parametrize("flag", ["--degree", "-d"])
def test_degree_flag_spellings(flag):
    result = run_cli("verify", flag, "0", "--mu", "0,0,0")
    assert result.returncode == 0


@pytest.mark.parametrize("extra, returncode, digest", [
    ((), 0, "081e46b0bdacbf794e708910d52766f64568c9764bc2e3e9b4ab14907a41b628"),
    (("--mutate", "quad+1"), 1,
     "d8a154d9219374c0c975c7ccc5f03888b857ff04758efae75c60106ebf22de6d"),
    (("--mutate", "gamma3+1"), 1,
     "fd876c6b65556d8a6424dfc238001d185ec83d1bb8a123e99978acc6cb8705f2"),
    (("--mu", "0,0,0"), 0,
     "b29d053ca91361f06f337eeda3b1bc76c86f18b0860c2c13ed015bd4ab771a2f"),
    (("--mu", "1e3,1,1"), 0,
     "c2567642e77839d319bc038a30c596bd617fee618c159a5be37a7a2be2c0b2ca"),
    (("--mutate", "component*2"), 1,
     "4f06ef464f9fbe56fc1341d87838868d6c9e07700b55915cc6914b8a47c458f3"),
    (("--mutate", "eigenvalue+1"), 1,
     "f24523f771d91e28b02e242771c39e213bd05507fa4d96ee489f1b24c2bb6e19"),
    (("--mutate", "lift-parameter+1"), 1,
     "395f437e165bcb30db3ec2b6865dd8a0a02e462e0d1c013a447b7351fbc21b45"),
    (("--mutate", "omega3+1"), 1,
     "e8f7bec42a50ecc231d78ed14c8d926bd33e415e688cc2b535c84a09b053532c"),
    (("--mutate", "norm-factor*2"), 1,
     "c80ae1bf5f7a73867cf8e33d0b1e939e546acb3359289a40d1d33eb53d84dd18"),
])
def test_verify_report_golden_digest(extra, returncode, digest):
    # SHA-256 of the full report, recorded before the identity checker
    # cached operator columns (the first two rows), evaluated operators
    # on Gaussian-integer columns (the next three), built the extension
    # tower from operator trees (the next three) or stored representations
    # as band data only (the last two); any change to checks, counts or
    # counterexamples shows here.  A later --mu replaces MU.
    result = run_cli("verify", "--degree", "2", "--mu", MU, *extra)
    assert result.returncode == returncode
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_verify_sweep_golden_digest():
    # SHA-256 of the report of a seeded five-triple sweep, recorded before
    # spinor polynomials were stored as reduced Gaussian-integer columns.
    result = run_cli("verify", "--degree", "2", "--seed", "2")
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "568dc5eadbcd1c1e7f3819b96e09e6a889ec91ebaac1b4612b6158ff7daa1b7f"
    )


def test_verify_default_degree_sweep_golden_digest():
    # SHA-256 of the report of a seeded five-triple sweep at the default
    # degree, recorded before closed-form operators were built once per
    # (N, k) and identity memos were kept for a whole batch.
    result = run_cli("verify", "--seed", "7")
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "6bf7b175dc629450f48a128f2ddf9351d041cb328de7a44d166f6db231bf3d9c"
    )


@pytest.mark.parametrize("args, digest", [
    (("basis", "--N", "4", "--mu", MU),
     "ae29f050e074192d0519f10fc89f3a614f1e80d99dfed549f45846f9756cba81"),
    (("rep", "--N", "6", "--mu", MU),
     "b2368fd64f0e1a5ae5ac233bd4d6d37728edffdb2dc12b3a6e2fd59b1a699fce"),
    (("rep", "--N", "40", "--mu", MU),
     "4d3c1940331013cd263702ab8aec08951a402980a8b84697cfe9d7107057d373"),
    (("overlaps", "--N", "6", "--mu", MU),
     "8058c49283d407b6b506595e32448ca85325e0422213d73b9c10048ff92c57c0"),
    (("overlaps", "--N", "4", "--mu", "0,0,0"),
     "189bf0ed2b997e4da2b4a4c75eb911fd001729764c39e615512cde4a47b73cad"),
    (("overlaps", "--N", "4", "--mu", "1e3,1,1"),
     "73af9daad70ecd947695179a755bc29ef8366f4f019e52ee7523a613a7c0a2f7"),
    (("moments", "--N", "12", "--mu", MU),
     "e10e7a1111dea6a63e0d86b0a05085ecfd9b96251f6c39f460ff4b9c21cef380"),
    (("moments", "--N", "8", "--mu", "0,0,0"),
     "e3439e38cc53cde235e07cf0f32b5d14fb13f046e8cba9156cb8a3eed1b29bfb"),
    (("wavefunctions", "--N", "4", "--mu", MU, "--basis", "upsilon"),
     "b99bec4b4f890983db7537982784f6a81083fefec6910a9ba44da6b85e48e9ff"),
    (("basis", "--N", "12", "--mu", MU),
     "ee12857bcef048fd23a062742e5d513100c9e777999823cc63aa6f444dc10fe2"),
    (("wavefunctions", "--N", "12", "--mu", MU, "--basis", "upsilon"),
     "a074b005e96faaa9700abdad409c873810879c8174d4e56bc1fee90d976594e4"),
    (("wavefunctions", "--N", "6", "--mu", MU),
     "bb891ff9a4e44efbb92e12f4b5856ce2163dc4d9fc50af3467573e58984b97a9"),
    (("overlaps", "--N", "10", "--mu", MU),
     "9a9eea0163cd58d646ecf0479f4cc4184fa123eea6a1096c0ec1ba12390bb3a4"),
    (("wavefunctions", "--N", "10", "--basis", "psi", "--mu", "0,0,0"),
     "925403c8e67b4502bea2c747b3bf05c6d92a9ea6e418d1910795e6af2958d4bc"),
])
def test_artifact_golden_digest(args, digest):
    # SHA-256 of the artifact JSON, recorded before the extension tower was
    # built from operator trees (basis), before representations were
    # stored as band data only (rep) and before scalar products ran as one
    # integer bilinear form with moments by recurrence (overlaps, moments,
    # wavefunctions), or before elimination ran on Gaussian-integer rows and
    # operators kept their compiled graphs (basis and wavefunctions at
    # N = 12), or before spinor polynomials were stored as reduced
    # Gaussian-integer columns (psi wavefunctions at N = 6), or before each
    # closed-form operator was built once on integer Jacobi factors (the last
    # two rows).
    result = run_cli(*args)
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("mu", ["1e1000000,1,1", "1e100000000,1,1", "1" * 5000 + ",1,1"],
                         ids=["exponent-1e6", "exponent-1e8", "5000-digits"])
def test_verify_rejects_huge_mu_literals(mu):
    result = run_cli("verify", "--degree", "0", "--mu", mu)
    assert result.returncode == 2
    assert "too large" in result.stderr


# The library call each command's work starts with.
WORK = {
    "verify": (suites, "run_verify"),
    "basis": (ck, "monogenic_basis"),
    "wavefunctions": (closedform, "wavefunctions"),
    "rep": (birep, "rep_matrices"),
    "overlaps": (closedform, "overlap_matrix"),
    "moments": (closedform, "moment"),
}


class WorkStarted(Exception):
    pass


def _stub_work(monkeypatch):
    def started(*args, **kwargs):
        raise WorkStarted

    for module, name in WORK.values():
        monkeypatch.setattr(module, name, started)


def _exit_code(argv) -> int:
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    return info.value.code


@pytest.mark.parametrize("size", ["limit+1", "10^9"])
@pytest.mark.parametrize("command", sorted(cli.MAX_N))
def test_artifact_size_above_limit_exits_before_work(command, size, monkeypatch, capsys):
    _stub_work(monkeypatch)
    limit = cli.MAX_N[command]
    n = limit + 1 if size == "limit+1" else 10**9
    assert _exit_code([command, "--N", str(n), "--mu", MU]) == 2
    assert f"N must be <= {limit} for {command}" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["limit+1", "10^9"])
@pytest.mark.parametrize("mu", [(), ("--mu", MU)], ids=["sweep", "one-triple"])
def test_verify_degree_above_limit_exits_before_work(size, mu, monkeypatch, capsys):
    _stub_work(monkeypatch)
    degree = cli.MAX_DEGREE + 1 if size == "limit+1" else 10**9
    assert _exit_code(["verify", "--degree", str(degree), *mu]) == 2
    assert f"degree must be <= {cli.MAX_DEGREE}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--degree", str(cli.MAX_DEGREE)],
    ["verify", "--degree", "8"],
    *([command, "--N", str(limit), "--mu", MU] for command, limit in sorted(cli.MAX_N.items())),
    ["rep", "--N", "40", "--mu", MU],
    ["moments", "--N", "30", "--mu", MU],
    ["basis", "--N", "12", "--mu", MU],
    ["overlaps", "--N", "10", "--mu", MU],
    ["wavefunctions", "--N", "12", "--mu", MU],
])
def test_sizes_up_to_the_limit_are_accepted(argv, monkeypatch):
    _stub_work(monkeypatch)
    with pytest.raises(WorkStarted):
        cli.main(argv)


def test_huge_size_exits_promptly():
    for args in (("verify", "--degree", str(10**9)), ("overlaps", "--N", str(10**9), "--mu", MU)):
        result = subprocess.run(
            [sys.executable, "-m", "diracdunkl", *args],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "must be <=" in result.stderr
