"""`verify` on a pool of worker processes: the report does not depend on the
number of workers, an error inside a task reaches the caller, and no worker
outlives a killed run."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from diracdunkl import cli, suites
from diracdunkl.exact import Params

MU = Params.parse("1/2,1/3,2/5")
SRC = Path(__file__).resolve().parent.parent / "src"


def _env() -> dict:
    """The environment of a child process that imports the library from
    the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _workers(monkeypatch, count: int) -> list:
    """Run `verify` as if count CPUs were usable; the returned list records
    each call that reaches the pool."""
    pools = []
    forked = suites._map_forked

    def recording(fn, tasks, workers):
        pools.append(workers)
        return forked(fn, tasks, workers)

    monkeypatch.setattr(suites, "_usable_cpus", lambda: count)
    monkeypatch.setattr(suites, "_map_forked", recording)
    return pools


CASES = [
    ("sweep seed 2", suites.seeded_mu_samples(5, 2), 2, None),
    ("one triple", [MU], 3, None),
    *((mutation, [MU], 2, mutation) for mutation in sorted(suites.MUTATIONS)),
]


@pytest.mark.parametrize(
    "mu_list, degree, mutation", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_report_is_the_same_on_one_and_on_two_workers(monkeypatch, mu_list, degree, mutation):
    texts = []
    for count in (1, 2):
        pools = _workers(monkeypatch, count)
        report = suites.run_verify(mu_list, degree, mutation)
        texts.append(json.dumps(report, indent=2))
        assert pools == ([] if count == 1 else [2])
    assert texts[0] == texts[1]
    assert (json.loads(texts[0])["status"] == "pass") == (mutation is None)


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "2", "--degree", "1"],
    ["verify", "--degree", "2", "--mu", "1/2,1/3,2/5", "--mutate", "eigenvalue+1"],
])
def test_cli_output_is_the_same_on_one_and_on_two_workers(monkeypatch, capsys, argv):
    outcomes = []
    for count in (1, 2):
        _workers(monkeypatch, count)
        code = cli.main(argv)
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    code, _, err = outcomes[0]
    assert code == (1 if "--mutate" in argv else 0)
    assert err.startswith("FAIL ") == (code == 1)


class PlantedError(Exception):
    pass


def _raise_planted(params, degree, mutation=None):
    raise PlantedError(os.getpid())


@pytest.mark.parametrize("count", [1, 2])
def test_an_error_in_a_task_reaches_the_caller(monkeypatch, count):
    pools = _workers(monkeypatch, count)
    monkeypatch.setattr(suites, "suite_symmetry", _raise_planted)
    with pytest.raises(PlantedError) as info:
        suites.run_verify([MU, MU], 1)
    raised_here = info.value.args[0] == os.getpid()
    assert raised_here == (count == 1)
    assert pools == ([] if count == 1 else [2])


# The library modules each artifact command loads besides `cli`: only those
# it runs, and never `suites` or `linalg`.
CLOSED_FORM = ["closedform", "exact", "operators", "poly"]
ARTIFACT_MODULES = {
    "overlaps": CLOSED_FORM,
    "wavefunctions": CLOSED_FORM,
    "moments": CLOSED_FORM,
    "basis": sorted(["ck", *CLOSED_FORM]),
    "rep": sorted(["birep", "ck", *CLOSED_FORM]),
}


@pytest.mark.parametrize("command", sorted(ARTIFACT_MODULES))
def test_artifact_commands_do_not_import_the_pool(command):
    code = (
        "import sys; from diracdunkl import cli; "
        f"cli.main([{command!r}, '--N', '2', '--mu', '1/2,1/3,2/5', '--out', sys.argv[1]]); "
        "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing')))); "
        "print(sorted(m[11:] for m in sys.modules if m.startswith('diracdunkl.')))"
    )
    done = subprocess.run([sys.executable, "-c", code, os.devnull], env=_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", str(sorted(["cli", *ARTIFACT_MODULES[command]]))]


def _children(pid: int) -> list[int]:
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(child) for child in path.read_text().split()]


def _running(pid: int) -> bool:
    """Whether pid has not exited; a zombie nobody reaps has."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
    or not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs two usable CPUs and /proc/<pid>/task/<pid>/children",
)
def test_no_worker_outlives_a_killed_run():
    proc = subprocess.Popen(
        [sys.executable, "-m", "diracdunkl", "verify", "--degree", "8"],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = min(15, len(os.sched_getaffinity(0)))
    children: list[int] = []
    try:
        deadline = time.monotonic() + 30
        while len(children) < workers and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
            children = _children(proc.pid)
        assert len(children) == workers, "the run started no pool"
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=5)
        deadline = time.monotonic() + 5
        while any(map(_running, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, children))
    finally:
        proc.kill()
        proc.wait()
        for child in children:
            if _running(child):
                os.kill(child, signal.SIGKILL)


def test_report_does_not_depend_on_the_order_of_the_tasks(monkeypatch):
    # A map that runs the tasks in reverse order: the report still lists
    # the sections triple by triple, as each task computes them alone.
    mu_list = suites.seeded_mu_samples(3, 2)
    handed = []

    def reversed_map(fn, tasks):
        handed.extend(task[:2] for task in tasks)
        return [fn(task) for task in tasks[::-1]][::-1]

    monkeypatch.setattr(suites, "_map_tasks", reversed_map)
    report = suites.run_verify(mu_list, 2)
    assert report["sections"] == [
        {"section": section, "mu": params.mu_strings(), "checks": checks}
        for params in mu_list for part in ("osp12", "symmetry", "constructions")
        for section, checks in suites._run_part((part, params, 2, None))
    ]
    assert report["status"] == "pass"
    # Tasks go out part by part over all triples, the short osp12 ones last.
    assert handed == [
        (part, params) for part in ("symmetry", "constructions", "osp12") for params in mu_list
    ]
