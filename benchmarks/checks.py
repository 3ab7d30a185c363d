"""Correctness checks of the CLI outputs, run after each timed operation.

Two kinds of check apply to every output file:

* a digest check: for seeds the benchmark ships digests for
  (`digests.json`, recorded from the seed commit), the SHA-256 of the output
  must match, because identical arguments give byte-identical JSON;
* a semantic check that also works for a fresh seed, from identities the
  output must satisfy: the verify report passes; basis elements and
  wavefunctions are homogeneous and in the kernel of the Dirac-Dunkl
  operator; the overlap sum rule; the representation spectrum and Casimir
  value; the moment recurrence on the sphere.

Each check returns None when the output is right, else a short reason.
Parsing uses only the standard library, never the code under test.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def load_digests() -> dict:
    if DIGESTS_PATH.exists():
        return json.loads(DIGESTS_PATH.read_text())
    return {}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cplx(value: dict) -> tuple[Fraction, Fraction]:
    return Fraction(value["re"]), Fraction(value["im"])


def _mu(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",")]


def _spinor_degrees(poly: dict) -> set[int]:
    return {sum(term["exp"]) for comp in ("up", "down") for term in poly[comp]}


def _dirac_dunkl_image(poly: dict, mu: list[Fraction]) -> dict:
    """Apply sum_i sigma_i T_i to a JSON spinor polynomial, where the Dunkl
    derivative sends x_i^a to (a + 2 mu_i [a odd]) x_i^(a-1); returns the
    nonzero terms of the image keyed by (component, exponents)."""
    comps = {c: {tuple(t["exp"]): _cplx(t["coef"]) for t in poly[c]} for c in ("up", "down")}
    image: dict = {}

    def add(comp, exps, value):
        re, im = image.get((comp, exps), (0, 0))
        image[(comp, exps)] = (re + value[0], im + value[1])

    for i in range(3):
        for comp, terms in comps.items():
            for exps, (re, im) in terms.items():
                a = exps[i]
                if a == 0:
                    continue
                factor = a if a % 2 == 0 else a + 2 * mu[i]
                low = exps[:i] + (a - 1,) + exps[i + 1:]
                re, im = re * factor, im * factor
                # Pauli matrices on (up, down): sigma1 swaps, sigma2 swaps
                # with -i on up and +i on down, sigma3 negates down.
                if i == 0:
                    add("down" if comp == "up" else "up", low, (re, im))
                elif comp == "up" and i == 1:
                    add("down", low, (-im, re))
                elif i == 1:
                    add("up", low, (im, -re))
                else:
                    add(comp, low, (re, im) if comp == "up" else (-re, -im))
    return {key: value for key, value in image.items() if value != (0, 0)}


def check_verify(payload: dict, args: dict) -> str | None:
    if payload.get("status") != "pass" or payload.get("failures"):
        return "verify report does not pass"
    samples = payload["mu_samples"]
    if len(samples) != 5:
        return f"{len(samples)} parameter triples, expected 5"
    sections = payload["sections"]
    if len(sections) != 7 * len(samples):
        return f"{len(sections)} sections, expected {7 * len(samples)}"
    if payload["degree"] != args["degree"]:
        return "report degree differs from the requested one"
    for section in sections:
        if not section["checks"]:
            return f"section {section['section']} ran no checks"
        if any(check["status"] != "pass" for check in section["checks"]):
            return f"a check of section {section['section']} failed"
    return None


def _monogenic_error(elements: list[dict], n: int, mu: list[Fraction], what: str) -> str | None:
    for el in elements:
        if _spinor_degrees(el["poly"]) != {n}:
            return f"{what} k={el['k']} is not homogeneous of degree {n}"
        if _dirac_dunkl_image(el["poly"], mu):
            return f"{what} k={el['k']} is not in the kernel of the Dirac-Dunkl operator"
    return None


def check_basis(payload: dict, args: dict) -> str | None:
    """2(N + 1) monogenic elements, homogeneous of degree N."""
    n = args["N"]
    labels = [(el["k"], el["sign"]) for el in payload["elements"]]
    expected = [(k, sign) for k in range(n + 1) for sign in ("+", "-")]
    if labels != expected:
        return "basis labels differ from k ascending, + before -"
    return _monogenic_error(payload["elements"], n, _mu(args["mu"]), "basis element")


def check_wavefunctions(payload: dict, args: dict) -> str | None:
    """2(N + 1) monogenic wavefunctions of degree N with positive squared norms."""
    n = args["N"]
    if payload["basis"] != args["basis"] or payload["N"] != n:
        return "family or degree differs from the request"
    labels = [(el["k"], el["sign"]) for el in payload["elements"]]
    if labels != [(k, sign) for k in range(n + 1) for sign in ("+", "-")]:
        return "wavefunction labels differ from k ascending, + before -"
    for el in payload["elements"]:
        if Fraction(el["squared_norm"]) <= 0:
            return f"wavefunction k={el['k']} has a non-positive squared norm"
    return _monogenic_error(payload["elements"], n, _mu(args["mu"]), "wavefunction")


def check_rep(payload: dict, args: dict) -> str | None:
    """Third-generator spectrum (-1)^k (k + mu1 + mu2 + 1/2), the Casimir
    value and the truncation of the tridiagonal data."""
    n = args["N"]
    mu1, mu2, mu3 = _mu(args["mu"])
    lam = [Fraction(v) for v in payload["lambda"]]
    if lam != [(-1) ** k * (k + mu1 + mu2 + Fraction(1, 2)) for k in range(n + 1)]:
        return "eigenvalues differ from (-1)^k (k + mu1 + mu2 + 1/2)"
    total = n + mu1 + mu2 + mu3 + 1
    casimir = total * total + mu1 * mu1 + mu2 * mu2 + mu3 * mu3 - Fraction(1, 4)
    if Fraction(payload["casimir"]) != casimir:
        return "Casimir value differs from the closed form"
    upper, lower = payload["A"], payload["C"]
    if len(upper) != n + 1 or Fraction(upper[-1]) or Fraction(lower[0]):
        return "tridiagonal data is not truncated at A_N = C_0 = 0"
    return None


def check_overlaps(payload: dict, args: dict) -> str | None:
    """Overlaps vanish across sign sectors, and within each sector
    sum_i conj(O_i j1) O_i j2 / g_i = delta_j1j2 G_j1 (the overlap sum rule)."""
    n = args["N"]
    rows = [(lab["index"], 1 if lab["sign"] == "+" else -1) for lab in payload["upsilon_labels"]]
    cols = [(lab["index"], 1 if lab["sign"] == "+" else -1) for lab in payload["psi_labels"]]
    if len(rows) != 2 * (n + 1) or len(cols) != 2 * (n + 1):
        return "overlap matrix has the wrong size"
    overlaps = [[_cplx(v) for v in row] for row in payload["overlaps"]]
    gram_u = [Fraction(v) for v in payload["gram_upsilon"]]
    gram_p = [Fraction(v) for v in payload["gram_psi"]]
    if min(gram_u + gram_p) <= 0:
        return "a Gram diagonal entry is not positive"

    def sector(label):
        return label[1] * (-1) ** (n - label[0])

    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            if sector(row) != sector(col) and overlaps[i][j] != (0, 0):
                return f"overlap ({i}, {j}) couples different sign sectors"
    for s in (1, -1):
        r_idx = [i for i, row in enumerate(rows) if sector(row) == s]
        c_idx = [j for j, col in enumerate(cols) if sector(col) == s]
        for j1 in c_idx:
            for j2 in c_idx:
                re = im = Fraction(0)
                for i in r_idx:
                    (a, b), (c, d) = overlaps[i][j1], overlaps[i][j2]
                    # conj(a + bi) (c + di) = (ac + bd) + (ad - bc) i
                    re += (a * c + b * d) / gram_u[i]
                    im += (a * d - b * c) / gram_u[i]
                if (re, im) != ((gram_p[j1] if j1 == j2 else 0), 0):
                    return f"overlap sum rule fails at columns ({j1}, {j2})"
    return None


def check_moments(payload: dict, args: dict) -> str | None:
    """Total mass 1 and m(a,b,c) = m(a+1,b,c) + m(a,b+1,c) + m(a,b,c+1),
    since x1^2 + x2^2 + x3^2 = 1 on the sphere."""
    n = args["N"]
    table = {tuple(e["half_exponents"]): Fraction(e["value"]) for e in payload["moments"]}
    if len(table) != (n + 1) * (n + 2) * (n + 3) // 6:
        return "wrong number of moments"
    if table.get((0, 0, 0)) != 1:
        return "total mass is not 1"
    for (a, b, c), value in table.items():
        if value <= 0:
            return f"moment {(a, b, c)} is not positive"
        if a + b + c < n:
            if table[(a + 1, b, c)] + table[(a, b + 1, c)] + table[(a, b, c + 1)] != value:
                return f"sphere recurrence fails at {(a, b, c)}"
    return None


SEMANTIC = {
    "verify": check_verify,
    "basis": check_basis,
    "wavefunctions": check_wavefunctions,
    "rep": check_rep,
    "overlaps": check_overlaps,
    "moments": check_moments,
}


def check_output(command: str, args: dict, path: Path, expected_digest: str | None) -> str | None:
    """Digest check when one is recorded, then the semantic check."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return f"no output: {exc}"
    if expected_digest is not None and digest(data) != expected_digest:
        return "output digest differs from the one recorded at the seed commit"
    try:
        payload = json.loads(data)
        return SEMANTIC[command](payload, args)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
