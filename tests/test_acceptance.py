"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance (exact
equality throughout; wall-clock targets where stated) and prints one
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s` to see the
lines as they happen.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from conftest import mu_triples

from diracdunkl import suites
from diracdunkl.exact import Params

MU = "1/2,1/3,2/5"


def _report(label: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"[acceptance] {label}: {status}{tail}")
    assert ok


def _all_pass(checks: list[dict]) -> tuple[bool, str]:
    bad = [c for c in checks if c["status"] != "pass"]
    return not bad, bad[0]["name"] if bad else ""


def test_criterion_1_osp12_suite():
    # Ten commutation relations, exact on all monomial spinors of degree <= 6,
    # for five random rational parameter triples; target below 30 s.
    start = time.monotonic()
    ok = True
    first = ""
    for params in mu_triples(5, seed=101):
        good, name = _all_pass(suites.suite_osp12(params, 6))
        if not good:
            ok, first = False, name
            break
    elapsed = time.monotonic() - start
    _report(
        "criterion 1, osp(1|2) relations exact on degree <= 6",
        ok and elapsed < 30.0,
        first or f"{elapsed:.1f}s",
    )


def test_criterion_2_symmetry_suite():
    # Symmetry, involution, Bannai-Ito (with central extension), Casimir and
    # quadratic relations, exact on degree <= 4, five triples; below 60 s.
    start = time.monotonic()
    ok = True
    first = ""
    for params in mu_triples(5, seed=102):
        good, name = _all_pass(suites.suite_symmetry(params, 4))
        if not good:
            ok, first = False, name
            break
    elapsed = time.monotonic() - start
    _report(
        "criterion 2, symmetry algebra exact on degree <= 4",
        ok and elapsed < 60.0,
        first or f"{elapsed:.1f}s",
    )


def test_criterion_3_monogenic_construction():
    ok = True
    first = ""
    for params in mu_triples(3, seed=103):
        good, name = _all_pass(suites.suite_monogenic(params, 5))
        if not good:
            ok, first = False, name
            break
    _report(
        "criterion 3, monogenic bases (dimension, kernel, eigenvalues) N <= 5",
        ok,
        first,
    )


def test_criterion_4_closed_form_equivalence():
    ok = True
    first = ""
    for params in mu_triples(3, seed=104):
        good, name = _all_pass(suites.suite_closedform(params, 5))
        if not good:
            ok, first = False, name
            break
    # The basis read at mu3 + 1, the lift-parameter+1 mutant, must disagree
    # with the tower, which stays at the true parameters.
    if ok:
        params = Params(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
        variant = suites.suite_closedform(params, 3, mutation="lift-parameter+1")
        good, name = _all_pass(variant)
        if good:
            ok, first = False, "shifted variant unexpectedly consistent"
    _report("criterion 4, closed forms equal extension towers N <= 5", ok, first)


def test_criterion_5_orthogonality():
    ok = True
    first = ""
    for params in mu_triples(2, seed=105) + [Params(0, 0, 0)]:
        good, name = _all_pass(suites.suite_orthogonality(params, 3))
        if not good:
            ok, first = False, name
            break
    _report(
        "criterion 5, gram diagonality, cycled eigenbasis, overlap sum rule N <= 3",
        ok,
        first,
    )


def test_criterion_6_representation_suite():
    ok = True
    first = ""
    for params in mu_triples(5, seed=106):
        good, name = _all_pass(suites.suite_representation(params, 6, 4))
        if not good:
            ok, first = False, name
            break
    _report(
        "criterion 6, representation relations N <= 6 and realization match N <= 4",
        ok,
        first,
    )


def test_criterion_7_fischer_decomposition():
    ok = True
    first = ""
    for params in mu_triples(3, seed=107):
        good, name = _all_pass(suites.suite_fischer(params, 4))
        if not good:
            ok, first = False, name
            break
    _report("criterion 7, fischer reconstruction and dimension audit N <= 4", ok, first)


def test_criterion_8_mutation_sensitivity():
    # Every suite must fail, through the command line with exit code 1 and a
    # named counterexample, under its planted perturbation; and the unmutated
    # run must pass.
    ok = True
    detail = ""
    clean = subprocess.run(
        [sys.executable, "-m", "diracdunkl", "verify", "--degree", "2", "--mu", MU],
        capture_output=True,
        text=True,
    )
    if clean.returncode != 0:
        ok, detail = False, "clean run failed"
    section_of = {
        "gamma3+1": "osp12",
        "quad+1": "symmetry",
        "eigenvalue+1": "monogenic",
        "lift-parameter+1": "closedform",
        "norm-factor*2": "orthogonality",
        "omega3+1": "representation",
        "component*2": "fischer",
    }
    assert set(section_of) == set(suites.MUTATIONS)
    for mutation, section in section_of.items():
        if not ok:
            break
        result = subprocess.run(
            [
                sys.executable, "-m", "diracdunkl", "verify",
                "--degree", "2", "--mu", MU, "--mutate", mutation,
            ],
            capture_output=True,
            text=True,
        )
        payload = json.loads(result.stdout)
        failing_sections = {f["section"] for f in payload["failures"]}
        named = all(
            f["name"] and f["counterexample"] is not None
            for f in payload["failures"]
        )
        if result.returncode != 1:
            ok, detail = False, f"{mutation}: exit {result.returncode}"
        elif failing_sections != {section}:
            ok, detail = False, f"{mutation}: failed {sorted(failing_sections)}"
        elif not named or "FAIL " not in result.stderr:
            ok, detail = False, f"{mutation}: missing named counterexample"
    _report("criterion 8, every suite is mutation-sensitive via the CLI", ok, detail)
