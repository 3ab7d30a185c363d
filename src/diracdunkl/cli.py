"""Command-line front end.

Subcommands run the exact verification suites or emit JSON artifacts for the
bases, wavefunctions, representation matrices, overlaps and moments.  All
output is deterministic: identical arguments (including the seed) produce
byte-identical files.  Exit codes: 0 on success, 1 when a verification check
fails, 2 on a usage error or on output that cannot be written: an `--out`
path that cannot be opened or written, or a standard output that fails,
such as a pipe whose reader has closed it (`moments --N 60 ... | head -1`).
Each write error is one `diracdunkl: error: cannot write ...` line on
stderr.  A directory, or a file in a directory that does not exist, is
refused as `--out` before any work starts.  An output value with more digits
than the interpreter converts to text (`sys.get_int_max_str_digits()`) is
also exit code 2 with one error line, before anything is written.

Each command imports only the modules it runs: `suites`, and with it every
module, only for `verify`.  The JSON text is that of
`json.dumps(payload, indent=2)` and a newline, made by one recursive writer
(`_write_json`) and written in pieces.

`verify --degree` and each artifact command's `--N` have an upper limit,
checked before any work starts.  Each limit is the size whose run took about
a minute or about 0.4-0.5 GB of peak memory, whichever came first, on
CPython 3.11.7 with the triple 5/7,3/4,2/9 (the default five-triple sweep for
`verify`).  Parameters of greater height cost more.  `verify` runs on every
usable CPU (`suites.run_verify`), so its minute is CPU time summed over its
processes, which does not depend on how many there are.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import MUTATIONS
from .exact import DigitLimitError, Params, rational_str

# Measured at the limit: verify 10-11.7 s CPU, 5.2-6.1 s wall on 2 shared CPUs,
# 52 MB in its largest process (CPython 3.11.7, 5 runs); basis 5-6 s / 163 MB;
# wavefunctions 8 s / 162 MB; rep 41 s / 385 MB; overlaps 53 s / 251 MB;
# moments 5 s / 227 MB (with streamed JSON, basis, wavefunctions, moments: below the rule).
MAX_DEGREE = 16
MAX_N = {
    "basis": 60,
    "wavefunctions": 60,
    "rep": 400_000,
    "overlaps": 48,
    "moments": 100,
}


def _parse_mu(parser: argparse.ArgumentParser, text: str) -> Params:
    try:
        return Params.parse(text)
    except ValueError as exc:
        parser.error(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracdunkl",
        description=(
            "Exact verification and construction tools for the Dirac-Dunkl "
            "operator on the two-sphere and its Bannai-Ito symmetry algebra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the exact identity suites")
    verify.add_argument("--degree", "-d", type=int, default=4,
                        help="maximal monomial degree for operator identities "
                             f"(0 to {MAX_DEGREE})")
    verify.add_argument("--mu", help="three comma-separated rationals, e.g. 1/2,1/3,2/5")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for the pseudorandom parameter sweep")
    verify.add_argument("--mutate", choices=sorted(MUTATIONS),
                        help="plant a deliberate defect (sensitivity self-check)")
    verify.add_argument("--out", help="write the JSON report to this path")

    for name, help_text in (
        ("basis", "emit a monogenic basis as JSON"),
        ("wavefunctions", "emit normalized wavefunctions as JSON"),
        ("rep", "emit exact representation matrices as JSON"),
        ("overlaps", "emit the overlap matrix of the two eigenbases"),
        ("moments", "emit normalized even moments of the weight"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--N", type=int, required=True, help=f"0 to {MAX_N[name]}")
        cmd.add_argument("--mu", required=True)
        cmd.add_argument("--out")
        if name == "wavefunctions":
            cmd.add_argument("--basis", choices=("psi", "upsilon"), default="psi")
    return parser


def _fail(message: str):
    sys.stderr.write(f"diracdunkl: error: {message}\n")
    raise SystemExit(2)


def _unwritable(target: str, reason: str):
    _fail(f"cannot write {target}: {reason}")


# Parts joined into one write: the text is written in pieces, never whole.
_PIECE = 1 << 12
# The text of each scalar, by its exact type.
_SCALAR = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def _write_json(value, write) -> None:
    """Write the text of json.dumps(value, indent=2) through write(), one
    piece per _PIECE parts; a part is one scalar, empty container or closing
    bracket, with the separator, key and opening brackets before it.  value
    is made of dicts with str keys, lists, tuples, and scalars of exactly
    the types str, int, bool and None; any other type, float included,
    raises TypeError."""
    parts = []
    append = parts.append

    def flush() -> None:
        write("".join(parts))
        parts.clear()

    def encode(value, newline: str, prefix: str) -> None:
        # Append prefix and the text of value, whose lines after the first
        # start with newline.  Scalar items are written in the loops, which
        # saves a call per leaf.
        if isinstance(value, dict):
            if not value:
                append(prefix + "{}")
                return
            inner = newline + "  "
            sep = prefix + "{" + inner
            for key, item in value.items():
                head = sep + encode_basestring_ascii(key) + ": "
                scalar = _SCALAR.get(item.__class__)
                if scalar is None:
                    encode(item, inner, head)
                else:
                    append(head + scalar(item))
                sep = "," + inner
                if len(parts) >= _PIECE:
                    flush()
            append(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                append(prefix + "[]")
                return
            inner = newline + "  "
            sep = prefix + "[" + inner
            for item in value:
                scalar = _SCALAR.get(item.__class__)
                if scalar is None:
                    encode(item, inner, sep)
                else:
                    append(sep + scalar(item))
                sep = "," + inner
                if len(parts) >= _PIECE:
                    flush()
            append(newline + "]")
        elif value.__class__ in _SCALAR:
            append(prefix + _SCALAR[value.__class__](value))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    encode(value, "\n", "")
    flush()


def _emit(payload: dict, out: str | None) -> None:
    """Write payload as indented JSON and a newline to --out or stdout."""
    if out:
        try:
            with open(out, "w") as handle:
                _write_json(payload, handle.write)
                handle.write("\n")
        except OSError as exc:
            _unwritable(f"--out {out}", exc.strerror or str(exc))
    else:
        try:
            _write_json(payload, sys.stdout.write)
            sys.stdout.write("\n")
            sys.stdout.flush()
        except OSError as exc:
            # A closed pipe, say: the interpreter flushes stdout again at
            # exit, so point it at the null device, where that cannot fail.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            _unwritable("stdout", exc.strerror or str(exc))


def _formatted(build, *args):
    """build(*args), which formats the output values as it goes: a value
    with more digits than the interpreter converts to text is a usage error,
    reported before anything is written."""
    try:
        return build(*args)
    except DigitLimitError:
        _fail(
            f"an output value has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for integer string conversion "
            "(PYTHONINTMAXSTRDIGITS raises it)"
        )


def _artifact(command: str, N: int, params: Params, basis: str | None) -> dict:
    """The payload of an artifact command, from the modules it runs."""
    if command == "basis":
        from . import ck

        return ck.basis_to_json_dict(ck.monogenic_basis(N, params))
    if command == "rep":
        from . import birep

        return birep.rep_matrices(N, params).to_json_dict()
    from . import closedform

    if command == "wavefunctions":
        waves = closedform.wavefunctions(N, params, basis)
        return {
            "basis": basis,
            "N": N,
            "mu": params.mu_strings(),
            "elements": [w.to_json_dict() for w in waves],
        }
    if command == "overlaps":
        return closedform.overlap_matrix(N, params).to_json_dict()
    from .poly import monomial_exponents

    entries = [
        {
            "half_exponents": list(half),
            "value": rational_str(closedform.moment(params, *half)),
        }
        for total in range(N + 1)
        for half in monomial_exponents(total)
    ]
    return {"mu": params.mu_strings(), "N": N, "moments": entries}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Join "--mu <value>" into "--mu=<value>" so values with a leading minus
    # sign reach our validation instead of being read as option strings.
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token == "--mu" and i + 1 < len(argv):
            merged.append(f"--mu={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    parser = build_parser()
    args = parser.parse_args(merged)
    if args.out:
        if os.path.isdir(args.out):
            _unwritable(f"--out {args.out}", "is a directory")
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            _unwritable(f"--out {args.out}", "no such directory")

    if args.command == "verify":
        from . import suites

        if args.mu is not None:
            mu_list = [_parse_mu(parser, args.mu)]
        else:
            mu_list = suites.seeded_mu_samples(5, args.seed)
        if args.degree < 0:
            parser.error("degree must be >= 0")
        if args.degree > MAX_DEGREE:
            parser.error(f"degree must be <= {MAX_DEGREE}")
        report = _formatted(suites.run_verify, mu_list, args.degree, args.mutate, args.seed)
        _emit(report, args.out)
        if report["failures"]:
            first = report["failures"][0]
            sys.stderr.write(
                f"FAIL {first['name']} (section {first['section']}, "
                f"mu = {','.join(first['mu'])}): "
                f"counterexample {json.dumps(first['counterexample'])}\n"
            )
            return 1
        return 0

    if args.N < 0:
        parser.error("N must be >= 0")
    if args.N > MAX_N[args.command]:
        parser.error(f"N must be <= {MAX_N[args.command]} for {args.command}")
    params = _parse_mu(parser, args.mu)
    payload = _formatted(_artifact, args.command, args.N, params, getattr(args, "basis", None))
    _emit(payload, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
