"""Child process of the benchmark: one process per set-up, library pass or
traced CLI operation.

    python3 benchmarks/worker.py setup SPEC
    python3 benchmarks/worker.py library SPEC RESULT_PATH [TRACE_PATH]
    python3 benchmarks/worker.py cli TRACE_PATH -- CLI_ARGS...

SPEC is a JSON object with the parameter triple "mu" and, for library
passes, the list of "ops".  `library` runs each op on cold library caches,
times it, then checks its result outside the timed region and writes one
record per op to RESULT_PATH.  `cli` runs `diracdunkl` in this process with
the tracer installed and writes the trace to TRACE_PATH.  Run it with `src`
on PYTHONPATH; `benchmarks/run.py` does.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from diracdunkl import birep, ck, cli, closedform  # noqa: E402
from diracdunkl.exact import GRational, Params  # noqa: E402
from diracdunkl.poly import SpinorPoly, spinor_basis_labels  # noqa: E402

from tracer import Tracer  # noqa: E402

# The library's unbounded caches, captured before a tracer wraps them.  A
# fresh `diracdunkl` process starts with both empty, so every op does too.
CACHES = {
    "ck.monogenic_basis": ck.monogenic_basis,
    "closedform.moment": closedform.moment,
}


def cold_start() -> list[int]:
    """Empty both caches and return their sizes afterwards (all zero)."""
    for cached in CACHES.values():
        cached.cache_clear()
    return [cached.cache_info().currsize for cached in CACHES.values()]


def cache_stats() -> dict:
    out = {}
    for key, cached in CACHES.items():
        info = cached.cache_info()
        out[key] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
    return out


def random_homogeneous(seed: int, degree: int) -> SpinorPoly:
    """Dense homogeneous spinor polynomial with small Gaussian-rational
    coefficients, the same distribution as the verify suite's Fischer inputs."""
    rng = random.Random(seed)
    out = SpinorPoly.zero()
    while not out:
        for exps, sign in spinor_basis_labels(degree):
            coef = GRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
            )
            if coef:
                out = out + SpinorPoly.monomial(exps, sign, coef)
    return out


def prepare(spec: dict) -> tuple[Params, list]:
    """Parse the triple and build each library op's input."""
    params = Params.parse(spec["mu"]) if "mu" in spec else None
    ops = []
    for op in spec.get("ops", ()):
        kind, size = op[0], op[1]
        arg = random_homogeneous(op[2], size) if kind == "fischer" else size
        ops.append((kind, size, arg))
    return params, ops


def _run_op(kind: str, arg, params: Params):
    if kind == "fischer":
        return ck.fischer_decompose(arg, params)
    if kind == "match":
        return birep.match_function_realization(arg, params)
    if kind == "verify_rep":
        return birep.verify_rep(arg, params)
    raise ValueError(f"unknown library op {kind!r}")


def _check_op(kind: str, size: int, arg, result) -> str | None:
    """Return None when the result is right, else what is wrong."""
    if kind == "fischer":
        if len(result.components) != size + 1:
            return f"{len(result.components)} components for degree {size}"
        if result.reconstruct() != arg:
            return "reconstruction differs from the input"
        return None
    if not result.passed:
        return f"report failed: {json.dumps(result.counterexample)}"
    return None


def run_library_pass(spec: dict, trace: bool) -> dict:
    """Run a pass's library ops one after another, each on cold caches."""
    params, ops = prepare(spec)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    records = []
    totals = {key: {"hits": 0, "misses": 0, "entries": 0} for key in CACHES}
    try:
        for kind, size, arg in ops:
            cold = cold_start()
            record = {"name": f"{kind} N={size}", "cold": cold}
            if any(cold):
                record.update(wall_s=0.0, cpu_s=0.0, error="caches not empty at op start")
                records.append(record)
                continue
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = _run_op(kind, arg, params)
                error = None
            except Exception as exc:  # a failed op is counted, the pass goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            record["wall_s"] = time.perf_counter() - wall0
            record["cpu_s"] = time.process_time() - cpu0
            for key, stats in cache_stats().items():
                totals[key]["hits"] += stats["hits"]
                totals[key]["misses"] += stats["misses"]
                totals[key]["entries"] = max(totals[key]["entries"], stats["entries"])
            record["error"] = error if error else _check_op(kind, size, arg, result)
            records.append(record)
    finally:
        if tracer:
            tracer.uninstall()
    out = {"ops": records}
    if tracer:
        out["trace"] = dict(tracer.summary(), caches=totals)
    return out


def run_traced_cli(argv: list[str], trace_path: str) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.run_span(f"cli.command.{argv[0]}", cli.main, argv)
    finally:
        tracer.uninstall()
        summary = dict(tracer.summary(), caches=cache_stats())
        Path(trace_path).write_text(json.dumps(summary))
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        prepare(json.loads(argv[1]))
        return 0
    if mode == "library":
        result = run_library_pass(json.loads(argv[1]), trace=len(argv) > 3)
        trace = result.pop("trace", None)
        Path(argv[2]).write_text(json.dumps(result))
        if trace is not None:
            Path(argv[3]).write_text(json.dumps(trace))
        return 0
    if mode == "cli":
        if argv[2] != "--":
            raise SystemExit("usage: worker.py cli TRACE_PATH -- CLI_ARGS...")
        return run_traced_cli(argv[3:], argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
