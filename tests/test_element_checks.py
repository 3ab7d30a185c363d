"""The kernel and eigenvalue checks on basis elements, run as operator
identities over element keys, against the reference that applies each
operator to one element at a time (`reference`).  One defect is planted at a
time; both paths must report the same check dicts, counterexamples
included."""

import dataclasses
from fractions import Fraction

import pytest
import reference

from diracdunkl import birep, ck, closedform, suites
from diracdunkl.exact import GRational, Params
from diracdunkl.operators import (
    dirac,
    embedding_op,
    first_failures,
    matrix_op,
    spinor_keys,
    zero_op,
)
from diracdunkl.poly import SpinorPoly, spinor_basis_labels

P = Params(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
N_MAX = 3


def _off_at(original, position, value, delta):
    """original with delta added to its result when argument `position`
    equals value."""
    def planted(*args):
        out = original(*args)
        return out + delta if args[position] == value else out
    return planted


def _replace_element(elements, N):
    """The elements with (k, sign) = (1, +) replaced by x1^N chi+, which is
    not monogenic for N >= 1."""
    return tuple(
        dataclasses.replace(el, poly=SpinorPoly.monomial((N, 0, 0), 1))
        if (el.k, el.sign) == (1, 1) else el
        for el in elements
    )


def _plant(monkeypatch, defect):
    """Plant each " and "-separated part of defect."""
    for part in (defect or "").split(" and "):
        if part == "k3 eigenvalue off at k=1":
            monkeypatch.setattr(birep, "k3_eigenvalue", _off_at(birep.k3_eigenvalue, 0, 1, 1))
        elif part.startswith("k1 eigenvalue off at s="):
            s = int(part[-1])
            monkeypatch.setattr(birep, "k1_eigenvalue", _off_at(birep.k1_eigenvalue, 0, s, 1))
        elif part == "sign sector flipped at (1, -)":
            original = birep.z3_eigenvalue
            monkeypatch.setattr(birep, "z3_eigenvalue", lambda N, k, sign: (
                -original(N, k, sign) if (k, sign) == (1, -1) else original(N, k, sign)
            ))
        elif part == "non-monogenic basis element":
            basis, waves = ck.monogenic_basis, closedform.wavefunctions

            def replaced_basis(N, params):
                out = basis(N, params)
                return dataclasses.replace(out, elements=_replace_element(out.elements, N))

            monkeypatch.setattr(ck, "monogenic_basis", replaced_basis)
            monkeypatch.setattr(birep, "monogenic_basis", replaced_basis)
            monkeypatch.setattr(closedform, "wavefunctions", lambda N, params, family="psi": (
                _replace_element(waves(N, params, family), N)
            ))
        elif part in ("A_0 + 1/3", "w2 + 1/3"):
            field, index = ("upper", 0) if part == "A_0 + 1/3" else ("omega", 1)
            original_rep = birep.rep_matrices

            def bumped(N, params):
                rep = original_rep(N, params)
                values = list(getattr(rep, field))
                values[index] += Fraction(1, 3)
                return dataclasses.replace(rep, **{field: tuple(values)})

            monkeypatch.setattr(birep, "rep_matrices", bumped)
        elif part == "casimir value + 1":
            original_q = birep.casimir_value
            monkeypatch.setattr(birep, "casimir_value",
                                lambda N, params: original_q(N, params) + 1)


def _element_check_dicts(params):
    """The element checks of the library and of the reference: monogenic,
    cycled family and function realization."""
    ref_monogenic = [
        check for N in range(N_MAX + 1)
        for check in reference.monogenic_element_checks(params, N)
    ]
    names = {check["name"] for check in ref_monogenic}
    monogenic = [c for c in suites.suite_monogenic(params, N_MAX) if c["name"] in names]
    cycled = [
        c for c in suites.suite_orthogonality(params, N_MAX)
        if c["name"].startswith("cycled family")
    ]
    realization = [
        birep.match_function_realization(N, params).to_json_dict() for N in range(N_MAX + 1)
    ]
    ref_realization = [reference.function_realization(N, params) for N in range(N_MAX + 1)]
    return (
        (monogenic, cycled, realization),
        (ref_monogenic, reference.cycled_family_checks(params, N_MAX), ref_realization),
    )


# The first failure of each defect at mu = P: (name, counterexample) of the
# monogenic and cycled-family checks, and the counterexample of the function
# realization.
FIRST_FAILURES = {
    None: {},
    "k3 eigenvalue off at k=1": {
        "monogenic": ("monogenic N=1: third generator eigenvalue",
                      {"N": 1, "k": 1, "sign": "+"}),
        "realization": {"check": "K3 eigenvalue", "k": 1, "sign": 1},
    },
    "k1 eigenvalue off at s=1": {
        "cycled": ("cycled family eigenvalue equations N=1", {"N": 1, "s": 1, "sign": "+"}),
    },
    "sign sector flipped at (1, -)": {
        "monogenic": ("monogenic N=1: sign sector eigenvalue",
                      {"N": 1, "k": 1, "sign": "-"}),
        "cycled": ("cycled family eigenvalue equations N=1", {"N": 1, "s": 1, "sign": "-"}),
        "realization": {"check": "Z3 eigenvalue", "k": 1, "sign": -1},
    },
    "non-monogenic basis element": {
        "monogenic": ("monogenic N=1: kernel of the Dirac operator",
                      {"N": 1, "k": 1, "sign": "+"}),
        "cycled": ("cycled family eigenvalue equations N=1", {"N": 1, "s": 1, "sign": "+"}),
        # x1 chi+ is no eigenvector of K3.
        "realization": {"check": "K3 eigenvalue", "k": 1, "sign": 1},
    },
    "casimir value + 1": {
        "realization": {"check": "casimir eigenvalue", "k": 0, "sign": 1},
    },
    # A_0 is an entry of rho(K1) from N = 1 on; w2 sits on the diagonal of
    # rho(K2) at every N.
    "A_0 + 1/3": {
        "realization": {"check": "K1 E = E rho(K1)^T", "k": 0, "sign": 1},
    },
    "w2 + 1/3": {
        "realization": {"check": "K2 E = E rho(K2)^T", "k": 0, "sign": 1},
    },
    # From N = 2 on, two equations of the cycled family fail, at (2, +) and
    # at (1, -); the counterexample is the earlier element, (1, -).
    "k1 eigenvalue off at s=2 and sign sector flipped at (1, -)": {
        "monogenic": ("monogenic N=1: sign sector eigenvalue",
                      {"N": 1, "k": 1, "sign": "-"}),
        "cycled": ("cycled family eigenvalue equations N=1", {"N": 1, "s": 1, "sign": "-"}),
        "realization": {"check": "Z3 eigenvalue", "k": 1, "sign": -1},
    },
}


def _first_failure(checks):
    return next(((c["name"], c["counterexample"]) for c in checks if c["status"] != "pass"),
                None)


@pytest.mark.parametrize("defect", list(FIRST_FAILURES), ids=str)
@pytest.mark.parametrize("params", [P, Params(0, 0, 0)], ids=str)
def test_element_checks_match_the_reference(monkeypatch, params, defect):
    _plant(monkeypatch, defect)
    (monogenic, cycled, realization), expected = _element_check_dicts(params)
    assert (monogenic, cycled, realization) == expected
    assert len(monogenic) == 4 * (N_MAX + 1) and len(cycled) == N_MAX + 1
    if params != P:
        return
    planted = FIRST_FAILURES[defect]
    assert _first_failure(monogenic) == planted.get("monogenic")
    assert _first_failure(cycled) == planted.get("cycled")
    assert next((r["counterexample"] for r in realization if r["counterexample"]),
                None) == planted.get("realization")
    if "s=2" in str(defect):
        assert cycled[2]["counterexample"] == {"N": 2, "s": 1, "sign": "-"}


def test_element_identity_on_keys():
    # D E = 0 on the element keys holds exactly for the monogenic elements;
    # a planted x1^2 chi+ is the first key to fail.
    elements = ck.monogenic_basis(2, P).elements
    columns = {(el.k, el.sign): el.poly.column for el in elements}
    keys = list(columns)
    embed = embedding_op(columns)
    assert first_failures([(dirac(P) * embed, zero_op())], [keys]) == [None]
    planted = {**columns, (1, -1): SpinorPoly.monomial((2, 0, 0), 1).column}
    ((position, left, right),) = first_failures(
        [(dirac(P) * embedding_op(planted), zero_op())], [keys]
    )
    assert keys[position] == (1, -1) and left[1] and right == (1, {})
    # The embedding built on integer entries equals the matrix operator of
    # the same rational entries on the packed rows, and E diag(lambda)
    # scales each element.
    packed = dict(zip(
        [(sign, exps) for exps, sign in spinor_basis_labels(2)], spinor_keys(2)
    ))
    entries = {
        (packed[row], key): GRational(Fraction(re, den), Fraction(im, den))
        for key, (den, column) in columns.items() for row, (re, im) in column.items()
    }
    assert first_failures([
        (embed, matrix_op(entries)),
        (embed * matrix_op({(key, key): 3 for key in keys}), 3 * embed),
    ], [keys]) == [None, None]
