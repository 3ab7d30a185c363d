#!/usr/bin/env python3
"""Record SHA-256 digests of the CLI outputs for the benchmark's shipped seeds.

    python3 benchmarks/record_digests.py --workload constructions --seeds 0-10 --passes 6

Runs each CLI operation of the given passes that has no digest yet, refuses
to record an output that fails its semantic check, and merges the digests, keyed by the
operation's arguments, into `benchmarks/digests.json`.  Record only from a
commit whose outputs are known to be right: `run.py` then flags any later
output that differs byte for byte.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-10")
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)

    digests = checks.load_digests()
    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / "record-digests"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        for seed in args.seeds:
            for k in range(args.passes):
                for unit in run.plan_pass(args.workload, seed, k):
                    key = " ".join(unit["argv"]) if unit["kind"] == "cli" else None
                    if key is None or key in digests:
                        continue
                    out = work / "out.json"
                    argv_ = [sys.executable, "-m", "diracdunkl", *unit["argv"], "--out", str(out)]
                    proc = run.spawn(argv_, work / "stdout", work / "stderr",
                                     time.perf_counter() + 600)
                    error = (run.exit_error(proc, work / "stderr") if proc["code"] != 0
                             else checks.check_output(unit["command"], unit["args"], out, None))
                    if error:
                        print(f"not recorded: {key}: {error}", file=sys.stderr)
                        return 1
                    digests[key] = checks.digest(out.read_bytes())
                    print(f"{proc['wall_s']:7.2f} s  {key}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
