#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the diracdunkl engine.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from `src/`, so
nothing has to be installed.  The load is a closed loop: one client runs the
workload's operations one after another until `--seconds` is used up (at
least one pass).  Each CLI operation is its own process; the library calls of
a pass share one worker process.  A pass is the workload's fixed
list of operations on inputs derived from the seed and the pass number.
Every operation starts on cold library caches, as a fresh `diracdunkl`
process does.  Outputs are checked after each operation, outside its timed
region.

The last line of standard output is the result:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` each pass runs twice on the
same inputs, untraced and then traced, and the metrics are the per-layer
ones, per traced pass, plus the tracing overhead.  The line before it holds
the environment and the raw per-pass figures.  Workloads and metrics are
described in `benchmarks/README.md`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
from tracer import SECTIONS  # noqa: E402

WORKLOADS = ("verify-sweep", "constructions")

# (command, arguments) of the artifact commands in a constructions pass; the
# small variant is for the harness self-test.
ARTIFACTS = {
    False: (("overlaps", {"N": 10}), ("basis", {"N": 12}),
            ("wavefunctions", {"N": 12, "basis": "upsilon"}),
            ("rep", {"N": 40}), ("moments", {"N": 30})),
    True: (("overlaps", {"N": 2}), ("basis", {"N": 2}),
           ("wavefunctions", {"N": 2, "basis": "upsilon"}),
           ("rep", {"N": 3}), ("moments", {"N": 3})),
}
# (library function, degree or dimension) of the library calls in a
# constructions pass.
LIBRARY = {
    False: (("fischer", 6), ("fischer", 7), ("match", 6), ("match", 8), ("verify_rep", 20)),
    True: (("fischer", 2), ("fischer", 3), ("match", 2), ("match", 3), ("verify_rep", 4)),
}
VERIFY_DEGREE = {False: 4, True: 1}
CLI_COMMANDS = ("verify", "basis", "wavefunctions", "rep", "overlaps", "moments")

# Set-ups timed before each pass and after the last one.  Spreading them over
# the run keeps their median from resting on one moment of a machine whose
# speed drifts.
SETUP_REPEATS = 3
# Children still running this long after the start are killed and their
# operations fail, so that a run always ends within the driver's 180 s.
RUN_DEADLINE_S = 165

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
# Per-layer figures are per traced pass, except the cache size (a maximum)
# and the ratios.
PER_LAYER = (
    ("exact.grational_mul.calls", "count/pass"),
    ("exact.grational_addsub.calls", "count/pass"),
    ("exact.grational_div.calls", "count/pass"),
    ("exact.mul_real_real_ratio", "ratio"),
    ("poly.scalarpoly_mul.calls", "count/pass"),
    ("poly.dunkl.calls", "count/pass"),
    ("poly.pauli.calls", "count/pass"),
    ("poly.reflect.calls", "count/pass"),
    ("operators.verify_identity.s", "s/pass"),
    ("operators.basis_applications", "count/pass"),
    ("operators.linop_calls", "count/pass"),
    ("operators.linop_calls_per_application", "ratio"),
    *((f"suites.{section}.s", "s/pass") for section in SECTIONS),
    ("suites.checks", "count/pass"),
    ("linalg.rank.calls", "count/pass"),
    ("linalg.solve.calls", "count/pass"),
    ("linalg.entries", "count/pass"),
    ("linalg.s", "s/pass"),
    ("ck.monogenic_basis.s", "s/pass"),
    ("ck.monogenic_basis.cache_hit_ratio", "ratio"),
    ("ck.fischer_decompose.s", "s/pass"),
    ("ck.extend.calls", "count/pass"),
    ("closedform.inner_product.calls", "count/pass"),
    ("closedform.inner_product.s", "s/pass"),
    ("closedform.moment.cache_hit_ratio", "ratio"),
    ("closedform.moment.cache_entries", "count"),
    ("closedform.overlap_matrix.s", "s/pass"),
    ("birep.verify_rep.s", "s/pass"),
    ("birep.match_function_realization.s", "s/pass"),
    ("birep.rep_matrices.s", "s/pass"),
    ("cli.json_emit.s", "s/pass"),
    ("cli.json_bytes", "bytes/pass"),
    *((f"cli.command.{name}.s", "s/pass") for name in CLI_COMMANDS),
    ("trace.overhead_s", "s/pass"),
)


# -- inputs ---------------------------------------------------------------

def random_mu(rng: random.Random) -> str:
    """A non-negative rational triple, numerators and denominators <= 12."""
    parts = (Fraction(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(3))
    return ",".join(f"{p.numerator}/{p.denominator}" for p in parts)


def plan_pass(workload: str, seed: int, k: int, small: bool = False) -> list[dict]:
    """The units of pass k: CLI operations, then at most one library process."""
    if workload == "verify-sweep":
        # Pass 0 is exactly `diracdunkl verify --seed <seed>`.
        args = {"seed": seed + 100_000 * k, "degree": VERIFY_DEGREE[small]}
        argv = ["verify", "--seed", str(args["seed"]), "--degree", str(args["degree"])]
        return [{"kind": "cli", "command": "verify", "args": args, "argv": argv}]
    if workload != "constructions":
        raise ValueError(f"unknown workload {workload!r}")
    # The artifact commands and the library calls draw their triples from
    # separate streams; the stream names fix the inputs that the recorded
    # digests in digests.json belong to.
    rng = random.Random(f"artifacts:{seed}:{k}")
    mu = random_mu(rng)
    units = []
    for command, sizes in ARTIFACTS[small]:
        args = dict(sizes, mu=mu)
        argv = [command, "--N", str(args["N"]), "--mu", mu]
        if "basis" in args:
            argv += ["--basis", args["basis"]]
        units.append({"kind": "cli", "command": command, "args": args, "argv": argv})
    rng = random.Random(f"library-constructions:{seed}:{k}")
    mu = random_mu(rng)
    ops = [[kind, size, rng.randrange(2**32)] for kind, size in LIBRARY[small]]
    units.append({"kind": "library", "spec": {"mu": mu, "ops": ops}})
    return units


def setup_spec(units: list[dict]) -> dict:
    """What a set-up process prepares: the library inputs, if any."""
    return units[-1]["spec"] if units[-1]["kind"] == "library" else {}


# -- processes ------------------------------------------------------------

class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout()


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path, deadline: float) -> dict:
    """Run one child to completion, or kill it at the deadline (a
    `time.perf_counter` value); wall time, CPU time and peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            try:
                signal.setitimer(signal.ITIMER_REAL, max(deadline - start, 0.01))
                _, status, usage = os.wait4(proc.pid, 0)
                signal.setitimer(signal.ITIMER_REAL, 0)
            except BaseException as exc:
                signal.setitimer(signal.ITIMER_REAL, 0)
                proc.kill()
                proc.wait()
                if not isinstance(exc, ChildTimeout):
                    raise
                return {"code": None, "wall_s": time.perf_counter() - start,
                        "cpu_s": 0.0, "rss_mb": 0.0}
            wall = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def exit_error(proc: dict, stderr_path: Path) -> str:
    if proc["code"] is None:
        return "killed at the run deadline"
    lines = stderr_path.read_text(errors="replace").strip().splitlines()
    return f"exit code {proc['code']}: {lines[-1][:300] if lines else ''}"


def run_unit(unit: dict, work: Path, tag: str, traced: bool, digests: dict,
             deadline: float) -> list[dict]:
    """Run one unit; one record per operation, with its check verdict.  Its
    files in `work` are named after `tag`."""
    stdout_path, stderr_path = work / f"{tag}.stdout", work / f"{tag}.stderr"
    trace_path = work / f"{tag}.trace.json"
    if unit["kind"] == "cli":
        out_path = work / f"{tag}.json"
        cli_argv = unit["argv"] + ["--out", str(out_path)]
        if traced:
            argv = [sys.executable, str(BENCH / "worker.py"), "cli", str(trace_path), "--", *cli_argv]
        else:
            argv = [sys.executable, "-m", "diracdunkl", *cli_argv]
        proc = spawn(argv, stdout_path, stderr_path, deadline)
        record = {"name": unit["command"], "wall_s": proc["wall_s"], "cpu_s": proc["cpu_s"],
                  "rss_mb": proc["rss_mb"], "json_bytes": 0, "trace": None}
        if proc["code"] != 0:
            record["error"] = exit_error(proc, stderr_path)
        else:
            expected = digests.get(" ".join(unit["argv"]))
            record["error"] = checks.check_output(unit["command"], unit["args"], out_path, expected)
            if out_path.exists():
                record["json_bytes"] = out_path.stat().st_size
            if traced:
                record["trace"] = json.loads(trace_path.read_text())
        return [record]

    result_path = work / f"{tag}.result.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "library",
            json.dumps(unit["spec"]), str(result_path)]
    if traced:
        argv.append(str(trace_path))
    proc = spawn(argv, stdout_path, stderr_path, deadline)
    if proc["code"] != 0:
        error = exit_error(proc, stderr_path)
        return [{"name": f"{kind} N={size}", "wall_s": 0.0, "cpu_s": 0.0, "rss_mb": proc["rss_mb"],
                 "json_bytes": 0, "trace": None, "error": error}
                for kind, size, _ in unit["spec"]["ops"]]
    records = json.loads(result_path.read_text())["ops"]
    for record in records:
        record.update(rss_mb=proc["rss_mb"], json_bytes=0, trace=None)
    if traced:
        # The library process traces all its ops together; the summary rides
        # on the first record.
        records[0]["trace"] = json.loads(trace_path.read_text())
    return records


def run_pass(units: list[dict], work: Path, traced: bool, digests: dict,
             deadline: float) -> dict:
    ops = []
    for index, unit in enumerate(units):
        ops.extend(run_unit(unit, work, str(index), traced, digests, deadline))
    return {
        "traced": traced,
        "wall_s": sum(op["wall_s"] for op in ops),
        "cpu_s": sum(op["cpu_s"] for op in ops),
        "ops": ops,
    }


def time_setup(spec: dict, work: Path, deadline: float) -> float:
    """Interpreter start, `import diracdunkl` and input generation."""
    argv = [sys.executable, str(BENCH / "worker.py"), "setup", json.dumps(spec)]
    proc = spawn(argv, work / "setup.stdout", work / "setup.stderr", deadline)
    if proc["code"] != 0:
        raise RuntimeError(f"set-up failed: {exit_error(proc, work / 'setup.stderr')}")
    return proc["wall_s"]


# -- metrics --------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(passes: list[dict], setup: list[float]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    values = {
        # The mean over passes: each pass has other inputs, and the host's
        # speed drifts in spells of seconds to minutes, which a mean of the
        # run's passes averages where a median of three or four would not.
        "wall_s": statistics.fmean(p["wall_s"] for p in plain),
        "cpu_s": statistics.fmean(p["cpu_s"] for p in plain),
        "peak_rss_mb": max(op["rss_mb"] for p in plain for op in p["ops"]),
        "setup_s": statistics.median(setup),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    n = len(traced)
    counts: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    caches = {key: {"hits": 0, "misses": 0, "entries": 0}
              for key in ("ck.monogenic_basis", "closedform.moment")}
    json_bytes = 0
    for p in traced:
        for op in p["ops"]:
            json_bytes += op["json_bytes"]
            trace = op["trace"]
            if trace is None:
                continue
            for key, value in trace["counts"].items():
                counts[key] = counts.get(key, 0) + value
            for key, value in trace["inclusive_s"].items():
                inclusive[key] = inclusive.get(key, 0.0) + value
            for key, stats in trace["caches"].items():
                caches[key]["hits"] += stats["hits"]
                caches[key]["misses"] += stats["misses"]
                caches[key]["entries"] = max(caches[key]["entries"], stats["entries"])

    def per_pass_count(key):
        return counts.get(key, 0) / n

    def per_pass_s(key):
        return inclusive.get(key, 0.0) / n

    def hit_ratio(key):
        return _ratio(caches[key]["hits"], caches[key]["hits"] + caches[key]["misses"])

    plain_walls = [p["wall_s"] for p in passes if not p["traced"]]
    values = {
        "exact.mul_real_real_ratio": _ratio(counts.get("exact.grational_mul.real_real", 0),
                                            counts.get("exact.grational_mul.calls", 0)),
        "operators.linop_calls_per_application": _ratio(
            counts.get("operators.linop_calls_in_verify", 0),
            counts.get("operators.basis_applications", 0)),
        "ck.monogenic_basis.cache_hit_ratio": hit_ratio("ck.monogenic_basis"),
        "closedform.moment.cache_hit_ratio": hit_ratio("closedform.moment"),
        "closedform.moment.cache_entries": caches["closedform.moment"]["entries"],
        "cli.json_bytes": json_bytes / n,
        "trace.overhead_s": statistics.mean(
            p["wall_s"] - w for p, w in zip(traced, plain_walls)),
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".s"):
            value = per_pass_s(name[:-2])
        else:
            value = per_pass_count(name)
        out[name] = {"value": value, "unit": unit}
    return out


# -- environment ----------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    """Recorded with every result: runs from different machines, or of
    different sources, must not be compared."""
    source = hashlib.sha256()
    for path in sorted((SRC / "diracdunkl").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


# -- driver ---------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> tuple[dict, dict]:
    """Run one benchmark; returns (result line, details)."""
    env = environment()
    digests = checks.load_digests()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    work.mkdir()
    try:
        first = plan_pass(workload, seed, 0, small)
        deadline = time.perf_counter() + RUN_DEADLINE_S
        setup: list[float] = []
        passes = []
        start = time.perf_counter()
        k = 0
        while True:
            units = first if k == 0 else plan_pass(workload, seed, k, small)
            setup += [time_setup(setup_spec(units), work, deadline) for _ in range(SETUP_REPEATS)]
            passes.append(run_pass(units, work, False, digests, deadline))
            if trace:
                passes.append(run_pass(units, work, True, digests, deadline))
            k += 1
            elapsed = time.perf_counter() - start
            # Start another pass only if it should end within --seconds.
            # Set-ups never start within 5 s of the deadline, so none is killed.
            if elapsed + elapsed / k > seconds or time.perf_counter() > deadline - 5:
                break
        if time.perf_counter() < deadline - 5:
            setup += [time_setup(setup_spec(first), work, deadline) for _ in range(SETUP_REPEATS)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]]
    failures = [f"{op['name']}: {op['error']}" for op in ops if op["error"]]
    metrics = per_layer_metrics(passes) if trace else end_to_end_metrics(passes, setup)
    result = {"correct": not failures, "attempted": len(ops), "failed": len(failures),
              "metrics": metrics}
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "setup_s": setup,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
                    "ops": {op["name"]: op["wall_s"] for op in p["ops"]}} for p in passes],
        "failed_ops_ratio": len(failures) / len(ops),
        "failures": failures[:10],
    }
    if trace:
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        spans = [{"pass": i, "op": op["name"], **op["trace"]}
                 for i, p in enumerate(passes) for op in p["ops"] if op["trace"]]
        trace_file.write_text(json.dumps({"environment": env, "traces": spans}))
        details["trace_file"] = str(trace_file.relative_to(ROOT))
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diracdunkl" / "__init__.py").is_file():
        print(f"benchmark: no diracdunkl sources under {SRC}", file=sys.stderr)
        return 2
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
