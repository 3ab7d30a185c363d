"""Command-line front end.

Subcommands run the exact verification suites or emit JSON artifacts for the
bases, wavefunctions, representation matrices, overlaps and moments.  All
output is deterministic: identical arguments (including the seed) produce
byte-identical files.  Exit codes: 0 on success, 1 when a verification check
fails, 2 on a usage error.

`verify --degree` and each artifact command's `--N` have an upper limit,
checked before any work starts.  Each limit is the size whose run took about
a minute or about 0.4-0.5 GB of peak memory, whichever came first, on
CPython 3.11.7 with the triple 5/7,3/4,2/9 (the default five-triple sweep for
`verify`).  Parameters of greater height cost more.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import birep, ck, closedform, suites
from .exact import Params, rational_str

# Measured at the limit: verify 36 s / 58 MB; basis 22 s / 404 MB;
# wavefunctions 8 s / 401 MB; rep 49 s / 384 MB; overlaps 56 s / 251 MB;
# moments 9 s / 491 MB.
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
    verify.add_argument("--mutate", choices=sorted(suites.MUTATIONS),
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


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


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

    if args.command == "verify":
        if args.mu is not None:
            mu_list = [_parse_mu(parser, args.mu)]
        else:
            mu_list = suites.seeded_mu_samples(5, args.seed)
        if args.degree < 0:
            parser.error("degree must be >= 0")
        if args.degree > MAX_DEGREE:
            parser.error(f"degree must be <= {MAX_DEGREE}")
        report = suites.run_verify(mu_list, args.degree, args.mutate, args.seed)
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

    if args.command == "basis":
        payload = ck.basis_to_json_dict(ck.monogenic_basis(args.N, params))
    elif args.command == "wavefunctions":
        waves = closedform.wavefunctions(args.N, params, args.basis)
        payload = {
            "basis": args.basis,
            "N": args.N,
            "mu": params.mu_strings(),
            "elements": [w.to_json_dict() for w in waves],
        }
    elif args.command == "rep":
        payload = birep.rep_matrices(args.N, params).to_json_dict()
    elif args.command == "overlaps":
        payload = closedform.overlap_matrix(args.N, params).to_json_dict()
    elif args.command == "moments":
        entries = []
        for total in range(args.N + 1):
            for a in range(total, -1, -1):
                for b in range(total - a, -1, -1):
                    c = total - a - b
                    entries.append({
                        "half_exponents": [a, b, c],
                        "value": rational_str(closedform.moment(params, a, b, c)),
                    })
        payload = {"mu": params.mu_strings(), "N": args.N, "moments": entries}
    else:  # pragma: no cover
        parser.error(f"unknown command {args.command!r}")
    _emit(payload, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
