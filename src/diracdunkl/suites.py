"""Named verification suites, grouped as the sections of the `verify` command.

Each suite returns JSON-ready check dicts with at least "name" and "status";
failing checks carry a counterexample.  The optional `mutation` argument
plants one deliberate defect in exactly one suite, which the test suite uses
to demonstrate that every section is sensitive (no check is vacuous).
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import birep, ck, closedform, linalg, operators
from .exact import GRational, I, Params
from .operators import (
    anticommutator,
    bi_generator,
    casimir,
    central_element,
    commutator,
    dirac,
    identity,
    image_columns,
    involution,
    laplace,
    laplace_explicit,
    laplace_s2,
    norm_sq,
    pauli_op,
    reflect_op,
    scalar_op,
    spherical_dirac,
    spherical_dirac_commutator,
    symmetry,
    verify_identities,
    x_underline,
    zero_op,
)
from .poly import SpinorPoly, spinor_basis_labels

MUTATIONS = {
    "gamma3+1": "osp12: shift the conformal constant in expected right sides",
    "quad+1": "symmetry: shift the constant of the quadratic relation",
    "eigenvalue+1": "monogenic: shift the expected degree eigenvalue",
    "lift-parameter+1": "closedform: shift a Jacobi parameter of the lift factor",
    "norm-factor*2": "orthogonality: scale odd-index squared norm factors",
    "omega3+1": "representation: shift a structure constant in expected relations",
    "component*2": "fischer: scale one solved component before reconstructing",
}


def _check(name: str, ok: bool, counterexample: dict | None = None) -> dict:
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "counterexample": None if ok else (counterexample or {}),
    }


def suite_osp12(params: Params, degree: int, mutation: str | None = None) -> list[dict]:
    """The nine-plus-one commutation relations of the osp(1|2) realization."""
    gamma = params.gamma3 + (1 if mutation == "gamma3+1" else 0)
    dd = dirac(params)
    xx = x_underline()
    r2 = norm_sq()
    lap = laplace(params)
    hh = operators.euler_op() + scalar_op(gamma)
    items = [
        ("{x, x} = 2 |x|^2", anticommutator(xx, xx), 2 * r2),
        ("{D, D} = 2 laplacian", anticommutator(dd, dd), 2 * lap),
        ("{x, D} = 2 (euler + gamma3)", anticommutator(xx, dd), 2 * hh),
        ("[D, |x|^2] = 2 x", commutator(dd, r2), 2 * xx),
        ("[euler + gamma3, x] = x", commutator(hh, xx), xx),
        ("[euler + gamma3, D] = -D", commutator(hh, dd), -dd),
        ("[laplacian, x] = 2 D", commutator(lap, xx), 2 * dd),
        ("[euler + gamma3, laplacian] = -2 laplacian", commutator(hh, lap), -2 * lap),
        ("[euler + gamma3, |x|^2] = 2 |x|^2", commutator(hh, r2), 2 * r2),
        ("[laplacian, |x|^2] = 4 (euler + gamma3)", commutator(lap, r2), 4 * hh),
    ]
    return [report.to_json_dict() for report in verify_identities(items, degree)]


def suite_symmetry(params: Params, degree: int, mutation: str | None = None) -> list[dict]:
    """Symmetries of the spherical operator and their Bannai-Ito relations."""
    gamma_op = spherical_dirac(params)
    scas = gamma_op + scalar_op(1)  # commutes with even, anticommutes with odd
    dd = dirac(params)
    xx = x_underline()
    r2 = norm_sq()
    lap = laplace(params)
    lap_sphere = laplace_s2(params)
    ee = operators.euler_op()
    ident = identity()
    zero = zero_op()
    ang = {i: operators.angular(params, i) for i in (1, 2, 3)}
    sym = {i: symmetry(params, i) for i in (1, 2, 3)}
    inv = {i: involution(i) for i in (1, 2, 3)}
    gen = {i: bi_generator(params, i) for i in (1, 2, 3)}
    cas = casimir(params)
    central = central_element(params)
    mu = {i: params.mu(i) for i in (1, 2, 3)}
    musum = params.mu_sum
    quad_const = musum * (musum + 1) + (1 if mutation == "quad+1" else 0)

    items: list[tuple[str, operators.LinOp, operators.LinOp]] = []

    # Definitions agree across their alternative constructions.
    items.append(("laplacian: composed squares = explicit form", lap, laplace_explicit(params)))
    items.append((
        "spherical dirac: definition = commutator form",
        gamma_op,
        spherical_dirac_commutator(params),
    ))
    planar_comm = commutator(x_underline(axes=(1, 2)), dirac(params, axes=(1, 2)))
    items.append((
        "K3 as a planar commutator",
        gen[3],
        Fraction(-1, 2) * ((planar_comm + ident) * reflect_op(1) * reflect_op(2)),
    ))

    # sCasimir behaviour against the osp(1|2) generators.
    items.append(("sCasimir anticommutes with x", anticommutator(scas, xx), zero))
    items.append(("sCasimir anticommutes with D", anticommutator(scas, dd), zero))
    items.append(("sCasimir commutes with euler", commutator(scas, ee), zero))
    items.append(("sCasimir commutes with |x|^2", commutator(scas, r2), zero))
    items.append(("sCasimir commutes with laplacian", commutator(scas, lap), zero))

    # Angular momentum commutation relations.
    for i in (1, 2, 3):
        j, k = operators.cyclic(i)
        items.append((
            f"[L{i}, L{j}] = i L{k} (1 + 2 mu{k} R{k})",
            commutator(ang[i], ang[j]),
            I * (ang[k] * (ident + (2 * mu[k]) * reflect_op(k))),
        ))
        items.append((f"[L{i}, R{i}] = 0", commutator(ang[i], reflect_op(i)), zero))
        items.append((f"{{L{i}, R{j}}} = 0", anticommutator(ang[i], reflect_op(j)), zero))
        items.append((f"{{L{i}, R{k}}} = 0", anticommutator(ang[i], reflect_op(k)), zero))

    # Spherical laplacian through the angular momenta.
    cross = zero_op()
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        cross = cross + (2 * mu[i] * mu[j]) * (ident - reflect_op(i) * reflect_op(j))
    refl = zero_op()
    for i in (1, 2, 3):
        refl = refl + mu[i] * (ident - reflect_op(i))
    items.append((
        "spherical laplacian via angular momenta",
        -1 * lap_sphere,
        ang[1] * ang[1] + ang[2] * ang[2] + ang[3] * ang[3] - cross - refl,
    ))

    # Quadratic relation between the spherical operators.
    items.append((
        "quadratic relation",
        gamma_op * gamma_op + gamma_op,
        -1 * lap_sphere + scalar_op(quad_const),
    ))

    # Symmetries of the spherical operator.
    for i in (1, 2, 3):
        items.append((f"[Gamma, J{i}] = 0", commutator(gamma_op, sym[i]), zero))
        items.append((f"[Gamma, Z{i}] = 0", commutator(gamma_op, inv[i]), zero))
        items.append((f"[Gamma, K{i}] = 0", commutator(gamma_op, gen[i]), zero))
    gamma_via_sym = zero_op()
    for i in (1, 2, 3):
        gamma_via_sym = gamma_via_sym + pauli_op(i) * sym[i]
        gamma_via_sym = gamma_via_sym - mu[i] * reflect_op(i)
    items.append((
        "spherical dirac via its symmetries",
        gamma_op,
        gamma_via_sym - scalar_op(Fraction(3, 2)),
    ))

    # Commutation relations of the symmetries.
    for i in (1, 2, 3):
        j, k = operators.cyclic(i)
        items.append((
            f"[J{i}, J{j}] algebra relation",
            commutator(sym[i], sym[j]),
            I * (
                sym[k]
                + (2 * mu[k]) * (scas * pauli_op(k) * reflect_op(k))
                + (2 * mu[i] * mu[j]) * (pauli_op(k) * reflect_op(i) * reflect_op(j))
            ),
        ))
        items.append((f"[J{i}, Z{i}] = 0", commutator(sym[i], inv[i]), zero))
        items.append((f"{{J{i}, Z{j}}} = 0", anticommutator(sym[i], inv[j]), zero))
        items.append((f"{{J{i}, Z{k}}} = 0", anticommutator(sym[i], inv[k]), zero))
        items.append((f"Z{i}^2 = 1", inv[i] * inv[i], ident))
        items.append((f"{{Z{i}, Z{j}}} = 0", anticommutator(inv[i], inv[j]), zero))

    # Bannai-Ito relations with the central extension.
    for i in (1, 2, 3):
        j, k = operators.cyclic(i)
        items.append((
            f"{{K{i}, K{j}}} = K{k} + 2 mu{k} central + 2 mu{i} mu{j}",
            anticommutator(gen[i], gen[j]),
            gen[k] + (2 * mu[k]) * central + scalar_op(2 * mu[i] * mu[j]),
        ))
    gamma_via_gen = (
        gen[1] * reflect_op(2) * reflect_op(3)
        + gen[2] * reflect_op(1) * reflect_op(3)
        + gen[3] * reflect_op(1) * reflect_op(2)
    )
    for i in (1, 2, 3):
        gamma_via_gen = gamma_via_gen - mu[i] * reflect_op(i)
    items.append((
        "spherical dirac via the generators",
        gamma_op,
        gamma_via_gen - scalar_op(Fraction(3, 2)),
    ))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            items.append((f"[K{i}, Z{j}] = 0", commutator(gen[i], inv[j]), zero))

    # Casimir element.
    items.append((
        "casimir via the sCasimir",
        cas,
        scas * scas
        + scalar_op(mu[1] ** 2 + mu[2] ** 2 + mu[3] ** 2 - Fraction(1, 4)),
    ))
    for i in (1, 2, 3):
        items.append((f"[Q, K{i}] = 0", commutator(cas, gen[i]), zero))
        items.append((f"[Q, Z{i}] = 0", commutator(cas, inv[i]), zero))

    return [report.to_json_dict() for report in verify_identities(items, degree)]


def suite_monogenic(params: Params, n_max: int, mutation: str | None = None) -> list[dict]:
    """Construction of the monogenic bases and their eigenvalue data."""
    shift = 1 if mutation == "eigenvalue+1" else 0
    dd = dirac(params)
    scas = spherical_dirac(params) + scalar_op(1)
    gen3 = bi_generator(params, 3)
    inv3 = involution(3)
    checks = []
    for N in range(n_max + 1):
        basis = ck.monogenic_basis(N, params)
        elements = basis.elements
        ok_count = len(elements) == 2 * (N + 1)
        ok_rank = linalg.rank([el.poly.column for el in elements]) == 2 * (N + 1)
        checks.append(_check(
            f"monogenic N={N}: dimension and independence",
            ok_count and ok_rank,
            {"expected": 2 * (N + 1)},
        ))

        keys = [(sign, exps) for exps, sign in spinor_basis_labels(N)]
        (images,) = image_columns([dd], keys)
        nullity = len(keys) - linalg.rank(images)
        checks.append(_check(
            f"monogenic N={N}: span equals the full kernel",
            nullity == 2 * (N + 1),
            {"kernel_dimension": nullity, "expected": 2 * (N + 1)},
        ))

        expected_degree_eig = N + params.mu_sum + 1 + shift
        for el in elements:
            ce = {"N": N, "k": el.k, "sign": "+" if el.sign == 1 else "-"}
            if not (el.poly.is_homogeneous() and el.poly.degree() == N):
                checks.append(_check(f"monogenic N={N}: homogeneity", False, ce))
                break
        else:
            checks.append(_check(f"monogenic N={N}: homogeneity", True))
        for name, ok_fn in (
            (f"monogenic N={N}: kernel of the Dirac operator",
             lambda el: not dd(el.poly)),
            (f"monogenic N={N}: degree eigenvalue",
             lambda el: scas(el.poly) == el.poly.scale(expected_degree_eig)),
            (f"monogenic N={N}: third generator eigenvalue",
             lambda el: gen3(el.poly)
             == el.poly.scale(birep.k3_eigenvalue(el.k, params))),
            (f"monogenic N={N}: sign sector eigenvalue",
             lambda el: inv3(el.poly)
             == el.poly.scale(Fraction(el.sign * (-1) ** (N - el.k)))),
        ):
            bad = next((el for el in elements if not ok_fn(el)), None)
            checks.append(_check(
                name,
                bad is None,
                None if bad is None else {
                    "N": N, "k": bad.k, "sign": "+" if bad.sign == 1 else "-",
                },
            ))
    return checks


def suite_closedform(params: Params, n_max: int, mutation: str | None = None) -> list[dict]:
    """Closed-form basis spinors against the extension-tower construction.
    The pair (k, k) is the planar monogenic, as its lift factor is the
    identity."""
    shift = 1 if mutation == "lift-parameter+1" else 0
    closed = {}  # (N, k, sign) -> closed-form spinor
    for N in range(n_max + 1):
        for k in range(N + 1):
            pair = closedform.closed_basis_pair(N, k, params, even_parameter_shift=shift)
            closed.update(((N, k, sign), poly) for sign, poly in zip((1, -1), pair))
    checks = []
    for k in range(n_max + 1):
        bad = next((
            sign for sign in (1, -1)
            if closed[k, k, sign]
            != ck.ck_extend_x2(SpinorPoly.monomial((k, 0, 0), sign), params)
        ), None)
        checks.append(_check(
            f"planar monogenic closed form k={k}",
            bad is None,
            None if bad is None else {"k": k, "sign": "+" if bad == 1 else "-"},
        ))
    for N in range(n_max + 1):
        bad = next((
            el for el in ck.monogenic_basis(N, params).elements
            if closed[N, el.k, el.sign] != el.poly
        ), None)
        checks.append(_check(
            f"closed form equals extension tower N={N}",
            bad is None,
            None if bad is None else {
                "N": N, "k": bad.k, "sign": "+" if bad.sign == 1 else "-",
            },
        ))
    return checks


def suite_orthogonality(params: Params, n_max: int, mutation: str | None = None) -> list[dict]:
    """Gram structure of the wavefunctions, the cycled family's eigenvalue
    equations, and the overlap sum rule.  Both families are built once, and
    every scalar product comes from one `scalar_products` call over them."""
    scale_odd = mutation == "norm-factor*2"
    checks = []

    waves = []
    ups = []
    for N in range(n_max + 1):
        waves.extend(closedform.wavefunctions(N, params, "psi"))
        ups.extend(closedform.wavefunctions(N, params, "upsilon"))
    n = len(waves)  # upsilon wavefunction i is operand n + i
    product = closedform.scalar_products([w.poly for w in waves + ups], params)
    gram = [product(i, i) for i in range(n + len(ups))]
    ok = True
    ce = None
    for i, a in enumerate(waves):
        for j, b in enumerate(waves[i + 1:], i + 1):
            if product(i, j):
                ok = False
                ce = {"left": [a.N, a.k, a.sign], "right": [b.N, b.k, b.sign]}
                break
        if not ok:
            break
    checks.append(_check(f"gram matrix diagonal through N={n_max}", ok, ce))

    common = None
    ok = True
    ce = None
    for i, w in enumerate(waves):
        factor = w.squared_norm_factor
        if scale_odd and w.k % 2 == 1:
            factor *= 2
        value = gram[i] * factor
        if common is None:
            common = value
        elif value != common:
            ok = False
            ce = {"N": w.N, "k": w.k, "value": str(value), "common": str(common)}
            break
    checks.append(_check("common squared diagonal constant", ok, ce))

    scas = spherical_dirac(params) + scalar_op(1)
    gen1 = bi_generator(params, 1)
    inv3 = involution(3)
    for N in range(n_max + 1):
        ok = True
        ce = None
        for u in ups:
            if u.N != N:
                continue
            eig = N + params.mu_sum + 1
            k1_eig = birep.k1_eigenvalue(u.k, params)
            z3_eig = Fraction(u.sign * (-1) ** (N - u.k))
            if (
                scas(u.poly) != u.poly.scale(eig)
                or gen1(u.poly) != u.poly.scale(k1_eig)
                or inv3(u.poly) != u.poly.scale(z3_eig)
            ):
                ok = False
                ce = {"N": N, "s": u.k, "sign": "+" if u.sign == 1 else "-"}
                break
        checks.append(_check(f"cycled family eigenvalue equations N={N}", ok, ce))

    def sector(w) -> int:
        return w.sign * (-1) ** (w.N - w.k)

    for N in range(n_max + 1):
        rows = [(n + i, u) for i, u in enumerate(ups) if u.N == N]
        cols = [(j, w) for j, w in enumerate(waves) if w.N == N]
        overlaps = [[product(i, j) for j, _ in cols] for i, _ in rows]
        ok = True
        ce = None
        for r, (_, u) in enumerate(rows):
            for c, (_, w) in enumerate(cols):
                if sector(u) != sector(w) and overlaps[r][c]:
                    ok = False
                    ce = {"N": N, "s": u.k, "k": w.k}
                    break
            if not ok:
                break
        checks.append(_check(f"overlap sign sectors decouple N={N}", ok, ce))

        ok = True
        ce = None
        for side in (1, -1):
            in_rows = [r for r, (_, u) in enumerate(rows) if sector(u) == side]
            in_cols = [c for c, (_, w) in enumerate(cols) if sector(w) == side]
            for c1 in in_cols:
                for c2 in in_cols:
                    total = GRational(0)
                    for r in in_rows:
                        total = total + (
                            overlaps[r][c1].conjugate()
                            * overlaps[r][c2]
                            / gram[rows[r][0]]
                        )
                    expected = gram[cols[c1][0]] if c1 == c2 else GRational(0)
                    if total != expected:
                        ok = False
                        ce = {"N": N, "sector": side, "cols": [c1, c2]}
                        break
                if not ok:
                    break
            if not ok:
                break
        checks.append(_check(f"overlap sum rule N={N}", ok, ce))
    return checks


def suite_representation(
    params: Params,
    n_max: int,
    n_match: int,
    mutation: str | None = None,
) -> list[dict]:
    shift = 1 if mutation == "omega3+1" else 0
    checks = []
    for N in range(n_max + 1):
        checks.append(birep.verify_rep(N, params, omega3_shift=shift).to_json_dict())
    for N in range(n_match + 1):
        checks.append(birep.match_function_realization(N, params).to_json_dict())
    return checks


def _random_homogeneous(rng: random.Random, N: int) -> SpinorPoly:
    out = SpinorPoly.zero()
    while not out:
        for exps, sign in spinor_basis_labels(N):
            coef = GRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
            )
            if coef:
                out = out + SpinorPoly.monomial(exps, sign, coef)
    return out


def suite_fischer(
    params: Params,
    n_max: int,
    mutation: str | None = None,
    seed: int = 20251,
) -> list[dict]:
    """Exact reconstruction of random homogeneous inputs, plus the dimension
    audit of the decomposition."""
    rng = random.Random(seed)
    mutate = mutation == "component*2"
    checks = []
    for N in range(n_max + 1):
        f = _random_homogeneous(rng, N)
        parts = ck.fischer_decompose(f, params)
        components = list(parts.components)
        if mutate:
            for k in reversed(range(len(components))):
                if components[k]:
                    components[k] = components[k].scale(2)
                    break
        recon = ck.FischerComponents(N, tuple(components)).reconstruct()
        checks.append(_check(
            f"fischer reconstruction N={N}",
            recon == f,
            {"N": N},
        ))
        total = sum(2 * (N - k + 1) for k in range(N + 1))
        expected = (N + 1) * (N + 2)
        columns = []
        for k in range(N + 1):
            power = x_underline() ** k
            for el in ck.monogenic_basis(N - k, params).elements:
                columns.append(power(el.poly).column)
        full_rank = linalg.rank(columns) == expected
        checks.append(_check(
            f"fischer dimension audit N={N}",
            total == expected and full_rank,
            {"sum": total, "expected": expected},
        ))
    return checks


def seeded_mu_samples(count: int, seed: int) -> list[Params]:
    """Deterministic non-negative rational parameter triples, numerators and
    denominators bounded by 12."""
    rng = random.Random(seed)
    return [
        Params(*[Fraction(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(3)])
        for _ in range(count)
    ]


def run_verify(
    mu_list: list[Params],
    degree: int,
    mutation: str | None = None,
    seed: int = 0,
) -> dict:
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")
    sections = []
    for params in mu_list:
        mu_strings = params.mu_strings()
        per_mu = [
            ("osp12", suite_osp12(params, degree, mutation)),
            ("symmetry", suite_symmetry(params, degree, mutation)),
            ("monogenic", suite_monogenic(params, min(degree, 5), mutation)),
            ("closedform", suite_closedform(params, min(degree, 5), mutation)),
            ("orthogonality", suite_orthogonality(params, min(degree, 3), mutation)),
            ("representation", suite_representation(
                params, 6, min(degree, 4), mutation)),
            ("fischer", suite_fischer(params, min(degree, 4), mutation)),
        ]
        for section, check_list in per_mu:
            sections.append({
                "section": section,
                "mu": mu_strings,
                "checks": check_list,
            })
    failures = [
        {"section": s["section"], "mu": s["mu"], "name": c["name"],
         "counterexample": c.get("counterexample")}
        for s in sections
        for c in s["checks"]
        if c["status"] != "pass"
    ]
    return {
        "command": "verify",
        "degree": degree,
        "seed": seed,
        "mutation": mutation,
        "mu_samples": [p.mu_strings() for p in mu_list],
        "sections": sections,
        "failures": failures,
        "status": "pass" if not failures else "fail",
    }
