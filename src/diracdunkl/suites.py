"""Named verification suites, grouped as the sections of the `verify` command.

Each suite returns the JSON dicts of its `IdentityReport`s: "name", "status"
and "counterexample", plus "degrees" and "basis_size" for the identities
checked on a basis.  The kernel and eigenvalue checks on basis elements are
operator identities over the element keys (N, k, sign) (see
`_failing_elements`).  The optional `mutation` argument, a name of
`MUTATIONS`, plants one deliberate defect in exactly one suite, on a value
the suite builds itself, to show that every section is sensitive (no check
is vacuous).  No library function takes a defect of its own.
"""

from __future__ import annotations

import dataclasses
import os
import random
from fractions import Fraction

from . import MUTATIONS, birep, ck, closedform, linalg, operators
from .exact import GRational, I, Params
from .operators import (
    IdentityReport,
    anticommutator,
    bi_generator,
    casimir,
    central_element,
    commutator,
    dirac,
    embedding_op,
    first_failures,
    identity,
    image_columns,
    involution,
    laplace,
    laplace_explicit,
    laplace_s2,
    matrix_op,
    norm_sq,
    pauli_op,
    reflect_op,
    scalar_op,
    spherical_dirac,
    spherical_dirac_commutator,
    spinor_keys,
    symmetry,
    verify_identities,
    x_underline,
    zero_op,
)
from .poly import SpinorPoly, spinor_basis_labels


def _failing_elements(families: dict, equations: list) -> dict:
    """For each degree N of families ({N: {key: column}}, keys in order) and
    each (op, eigenvalue) equation, the first key of degree N whose element
    v fails op v = eigenvalue(N, key) v, or None: {N: [key or None per
    equation]}.  With E_N the embedding of the degree-N elements, this is
    the identity op E_N = E_N diag(eigenvalue) on the keys (N, key); the
    kernel is eigenvalue zero.  Every degree is checked by one
    `first_failures` call, on one merged graph, one slice per degree."""
    pairs = []
    for N, elements in families.items():
        embed = embedding_op({(N, key): column for key, column in elements.items()})
        pairs += [
            (op * embed, embed * matrix_op({
                ((N, key), (N, key)): eigenvalue(N, key) for key in elements
            }))
            for op, eigenvalue in equations
        ]
    slices = [[(N, key) for key in elements] for N, elements in families.items()]
    keys = [key for part in slices for key in part]
    failures = first_failures(pairs, slices)
    count = len(equations)
    return {
        N: [None if failure is None else keys[failure[0]][1]
            for failure in failures[i * count:(i + 1) * count]]
        for i, N in enumerate(families)
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


def _element_key(N: int, key: tuple, k_name: str = "k") -> dict:
    return {"N": N, k_name: key[0], "sign": "+" if key[1] == 1 else "-"}


def suite_monogenic(params: Params, n_max: int, mutation: str | None = None) -> list[dict]:
    """Construction of the monogenic bases and their eigenvalue data."""
    shift = 1 if mutation == "eigenvalue+1" else 0
    dd = dirac(params)
    scas = spherical_dirac(params) + scalar_op(1)
    gen3 = bi_generator(params, 3)
    inv3 = involution(3)
    bases = {N: ck.monogenic_basis(N, params).elements for N in range(n_max + 1)}
    checks = (
        ("kernel of the Dirac operator", dd, lambda N, key: 0),
        ("degree eigenvalue", scas, lambda N, key: N + params.mu_sum + 1 + shift),
        ("third generator eigenvalue", gen3,
         lambda N, key: birep.k3_eigenvalue(key[0], params)),
        ("sign sector eigenvalue", inv3, lambda N, key: birep.z3_eigenvalue(N, *key)),
    )
    failures = _failing_elements(
        {N: {(el.k, el.sign): el.poly.column for el in elements}
         for N, elements in bases.items()},
        [(op, eigenvalue) for _, op, eigenvalue in checks],
    )
    reports = []
    for N, elements in bases.items():
        name = f"monogenic N={N}: "
        ok_count = len(elements) == 2 * (N + 1)
        ok_rank = linalg.rank([el.poly.column for el in elements]) == 2 * (N + 1)
        reports.append(IdentityReport(
            name + "dimension and independence",
            None if ok_count and ok_rank else {"expected": 2 * (N + 1)},
        ))

        keys = spinor_keys(N)
        (images,) = image_columns([dd], keys)
        nullity = len(keys) - linalg.rank(images)
        reports.append(IdentityReport(
            name + "span equals the full kernel",
            None if nullity == 2 * (N + 1)
            else {"kernel_dimension": nullity, "expected": 2 * (N + 1)},
        ))

        bad = next((
            el for el in elements
            if not (el.poly.is_homogeneous() and el.poly.degree() == N)
        ), None)
        reports.append(IdentityReport(
            name + "homogeneity",
            None if bad is None else _element_key(N, (bad.k, bad.sign)),
        ))
        for (label, _, _), key in zip(checks, failures[N]):
            reports.append(IdentityReport(
                name + label, None if key is None else _element_key(N, key)
            ))
    return [report.to_json_dict() for report in reports]


def suite_closedform(params: Params, n_max: int, mutation: str | None = None) -> list[dict]:
    """The closed-form basis `ck.monogenic_basis` emits against the
    extension tower, built here for N <= n_max as the reference: each planar
    extension x1^k chi once, carried to degree N by powers of xt and extended
    into x3.  The pair (k, k) is the planar monogenic, as its lift factor is
    the identity.  The lift-parameter+1 mutant reads the basis at mu3 + 1,
    the axis parameter of the lift into x3, and keeps the tower at params."""
    basis_params = params
    if mutation == "lift-parameter+1":
        basis_params = Params(params.mu1, params.mu2, params.mu3 + 1)
    closed = {  # (N, k, sign) -> closed-form spinor
        (N, el.k, el.sign): el.poly
        for N in range(n_max + 1) for el in ck.monogenic_basis(N, basis_params).elements
    }
    seeds = [(k, sign) for k in range(n_max + 1) for sign in (1, -1)]
    planar = dict(zip(seeds, ck.ck_extend_x2(
        [SpinorPoly.monomial((k, 0, 0), sign) for k, sign in seeds], params)))
    xt = x_underline((1, 2))
    lifted = {}  # (N, k, sign) -> xt^(N-k) times the planar extension of x1^k chi
    for N, k, sign in closed:
        lifted[N, k, sign] = planar[k, sign] if N == k else xt(lifted[N - 1, k, sign])
    tower = dict(zip(lifted, ck.ck_extend_x3(list(lifted.values()), params)))
    reports = []
    for k in range(n_max + 1):
        bad = next((sign for sign in (1, -1) if closed[k, k, sign] != planar[k, sign]), None)
        reports.append(IdentityReport(
            f"planar monogenic closed form k={k}",
            None if bad is None else {"k": k, "sign": "+" if bad == 1 else "-"},
        ))
    for N in range(n_max + 1):
        bad = next((
            (k, sign) for k, sign in seeds[:2 * (N + 1)] if closed[N, k, sign] != tower[N, k, sign]
        ), None)
        reports.append(IdentityReport(
            f"closed form equals extension tower N={N}",
            None if bad is None else _element_key(N, bad),
        ))
    return [report.to_json_dict() for report in reports]


def suite_orthogonality(params: Params, n_max: int, mutation: str | None = None) -> list[dict]:
    """Gram structure of the wavefunctions, the cycled family's eigenvalue
    equations, and the overlap sum rule.  Both families are built once, and
    every scalar product comes from one `scalar_products` call over them."""
    scale_odd = mutation == "norm-factor*2"
    reports = []

    waves = []
    ups = []
    for N in range(n_max + 1):
        waves.extend(closedform.wavefunctions(N, params, "psi"))
        ups.extend(closedform.wavefunctions(N, params, "upsilon"))
    n = len(waves)  # upsilon wavefunction i is operand n + i
    product = closedform.scalar_products([w.poly for w in waves + ups], params)
    gram = [product(i, i) for i in range(n + len(ups))]
    ce = next((
        {"left": [a.N, a.k, a.sign], "right": [b.N, b.k, b.sign]}
        for i, a in enumerate(waves)
        for j, b in enumerate(waves[i + 1:], i + 1)
        if product(i, j)
    ), None)
    reports.append(IdentityReport(f"gram matrix diagonal through N={n_max}", ce))

    values = [
        gram[i] * w.squared_norm_factor * (2 if scale_odd and w.k % 2 == 1 else 1)
        for i, w in enumerate(waves)
    ]
    ce = next((
        {"N": w.N, "k": w.k, "value": str(value), "common": str(values[0])}
        for w, value in zip(waves, values) if value != values[0]
    ), None)
    reports.append(IdentityReport("common squared diagonal constant", ce))

    # The first element of each degree that fails any of the three
    # eigenvalue equations.
    scas = spherical_dirac(params) + scalar_op(1)
    gen1 = bi_generator(params, 1)
    inv3 = involution(3)
    families = {N: {} for N in range(n_max + 1)}
    for u in ups:
        families[u.N][u.k, u.sign] = u.poly.column
    failures = _failing_elements(families, [
        (scas, lambda N, key: N + params.mu_sum + 1),
        (gen1, lambda N, key: birep.k1_eigenvalue(key[0], params)),
        (inv3, lambda N, key: birep.z3_eigenvalue(N, *key)),
    ])
    for N, elements in families.items():
        keys = list(elements)
        key = min((key for key in failures[N] if key is not None),
                  key=keys.index, default=None)
        reports.append(IdentityReport(
            f"cycled family eigenvalue equations N={N}",
            None if key is None else _element_key(N, key, "s"),
        ))

    def sector(w) -> int:
        return birep.z3_eigenvalue(w.N, w.k, w.sign)

    for N in range(n_max + 1):
        rows = [(n + i, u) for i, u in enumerate(ups) if u.N == N]
        cols = [(j, w) for j, w in enumerate(waves) if w.N == N]
        overlaps = [[product(i, j) for j, _ in cols] for i, _ in rows]
        ce = next((
            {"N": N, "s": u.k, "k": w.k}
            for r, (_, u) in enumerate(rows)
            for c, (_, w) in enumerate(cols)
            if sector(u) != sector(w) and overlaps[r][c]
        ), None)
        reports.append(IdentityReport(f"overlap sign sectors decouple N={N}", ce))

        # Each overlap divided once by its row's Gram entry; None for a zero
        # entry, as a zero wavefunction has no place in an orthogonal basis.
        weighted = [[o / gram[i] for o in row] if gram[i] else None
                    for (i, _), row in zip(rows, overlaps)]

        def sum_rule_holds(side: int, c1: int, c2: int) -> bool:
            total = GRational(0)
            for r, (_, u) in enumerate(rows):
                if sector(u) == side:
                    if weighted[r] is None:
                        return False
                    total = total + overlaps[r][c1].conjugate() * weighted[r][c2]
            return total == (gram[cols[c1][0]] if c1 == c2 else GRational(0))

        in_sector = {side: [c for c, (_, w) in enumerate(cols) if sector(w) == side]
                     for side in (1, -1)}
        ce = next((
            {"N": N, "sector": side, "cols": [c1, c2]}
            for side in (1, -1) for c1 in in_sector[side] for c2 in in_sector[side]
            if not sum_rule_holds(side, c1, c2)
        ), None)
        reports.append(IdentityReport(f"overlap sum rule N={N}", ce))
    return [report.to_json_dict() for report in reports]


def suite_representation(
    params: Params,
    n_max: int,
    n_match: int,
    mutation: str | None = None,
) -> list[dict]:
    reports = []
    for N in range(n_max + 1):
        rep = birep.rep_matrices(N, params)
        if mutation == "omega3+1":
            w1, w2, w3 = rep.omega
            rep = dataclasses.replace(rep, omega=(w1, w2, w3 + 1))
        reports.append(birep.verify_band_data(rep))
    reports += [birep.match_function_realization(N, params) for N in range(n_match + 1)]
    return [report.to_json_dict() for report in reports]


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


# The seed of the random homogeneous inputs that `suite_fischer` decomposes.
FISCHER_SEED = 20251


def suite_fischer(params: Params, n_max: int, mutation: str | None = None) -> list[dict]:
    """Per degree N, the decomposition of a random homogeneous input must
    reconstruct it from components M_(N-k) that are zero or monogenic of
    degree N - k; and the columns x^k M_(N-k) over the bases (degree N's: the
    degree-N basis, then x times degree N - 1's) must number (N + 1)(N + 2)
    and have that rank.  A failing audit reports both numbers."""
    rng = random.Random(FISCHER_SEED)
    mutate = mutation == "component*2"
    d, x = dirac(params), x_underline()
    polys = []  # x^k M over the bases of degrees N - k
    reports = []
    for N in range(n_max + 1):
        f = _random_homogeneous(rng, N)
        components = list(ck.fischer_decompose(f, params).components)
        if mutate:
            for k in reversed(range(len(components))):
                if components[k]:
                    components[k] = components[k].scale(2)
                    break
        bad = next((k for k, part in enumerate(components) if part and (
            d(part) or not part.is_homogeneous() or part.degree() != N - k)), None)
        counterexample = None if bad is None else {"N": N, "k": bad}
        if ck.FischerComponents(N, tuple(components)).reconstruct() != f:
            counterexample = {"N": N}
        reports.append(IdentityReport(f"fischer reconstruction N={N}", counterexample))
        expected = (N + 1) * (N + 2)
        polys = [el.poly for el in ck.monogenic_basis(N, params).elements] + [x(p) for p in polys]
        rank = linalg.rank([p.column for p in polys])
        reports.append(IdentityReport(
            f"fischer dimension audit N={N}",
            None if len(polys) == rank == expected
            else {"columns": len(polys), "rank": rank, "expected": expected},
        ))
    return [report.to_json_dict() for report in reports]


def seeded_mu_samples(count: int, seed: int) -> list[Params]:
    """Deterministic non-negative rational parameter triples, numerators and
    denominators bounded by 12."""
    rng = random.Random(seed)
    return [
        Params(*[Fraction(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(3)])
        for _ in range(count)
    ]


# A verify run splits into three tasks per triple, reported in this order.
# The five construction sections form one task, as they share the closed-form
# caches, `ck.monogenic_basis` (built from `closedform._planar_images`) among them.
_PARTS = ("osp12", "symmetry", "constructions")
# The order in which the tasks are handed to the workers, part by part over
# all triples: the long ones first and the short osp12 tasks last, so that
# no worker idles while another runs a long task that was handed out late.
_RUN_ORDER = ("symmetry", "constructions", "osp12")


def _run_part(task: tuple) -> list[tuple[str, list[dict]]]:
    """The (section, checks) pairs of one (part, params, degree, mutation)
    task."""
    part, params, degree, mutation = task
    if part == "osp12":
        return [("osp12", suite_osp12(params, degree, mutation))]
    if part == "symmetry":
        return [("symmetry", suite_symmetry(params, degree, mutation))]
    return [
        ("monogenic", suite_monogenic(params, min(degree, 5), mutation)),
        ("closedform", suite_closedform(params, min(degree, 5), mutation)),
        ("orthogonality", suite_orthogonality(params, min(degree, 3), mutation)),
        ("representation", suite_representation(params, 6, min(degree, 4), mutation)),
        ("fischer", suite_fischer(params, min(degree, 4), mutation)),
    ]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _map_tasks(fn, tasks: list) -> list:
    """[fn(task) for task in tasks], computed by min(tasks, usable CPUs)
    forked worker processes.  It runs in this process instead when that
    number is 1, when the platform cannot fork, or when this process runs
    other threads, which a fork would copy in whatever state they are."""
    workers = min(len(tasks), _usable_cpus())
    if workers > 1:
        import multiprocessing
        import threading

        if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
            return _map_forked(fn, tasks, workers)
    return [fn(task) for task in tasks]


def _map_forked(fn, tasks: list, workers: int) -> list:
    """`_map_tasks` on a pool of forked workers.  Each worker exits as soon
    as nothing holds the write end of a pipe any more: when this process
    ends, however it ends, or closes its end after an error, so that no
    worker outlives the run or finishes a task nobody will read."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    read_end, write_end = os.pipe()
    try:
        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_exit_with_parent, initargs=(read_end, write_end),
        )
        try:
            return list(pool.map(fn, tasks))
        except BaseException:
            os.close(write_end)
            write_end = None
            raise
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)


def _exit_with_parent(read_end: int, write_end: int) -> None:
    """Worker initializer: leave SIGINT to the parent, and exit at once
    when the pipe's read end reaches end of file."""
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.close(write_end)
    threading.Thread(target=_exit_at_eof, args=(read_end,), daemon=True).start()


def _exit_at_eof(read_end: int) -> None:
    os.read(read_end, 1)  # nothing is ever written: this returns at end of file
    os._exit(1)


def run_verify(
    mu_list: list[Params],
    degree: int,
    mutation: str | None = None,
    seed: int = 0,
) -> dict:
    """The `verify` report.  Its (part, triple) tasks share no state and run
    on every usable CPU (`_map_tasks`) in `_RUN_ORDER`; the report lists
    them triple by triple, and does not depend on how many CPUs run them or
    in which order."""
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")
    order = [(part, index) for part in _RUN_ORDER for index in range(len(mu_list))]
    tasks = [(part, mu_list[index], degree, mutation) for part, index in order]
    results = dict(zip(order, _map_tasks(_run_part, tasks)))
    sections = [
        {"section": section, "mu": params.mu_strings(), "checks": check_list}
        for index, params in enumerate(mu_list)
        for part in _PARTS
        for section, check_list in results[part, index]
    ]
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
