import gc
import random
from fractions import Fraction

import pytest
from conftest import EDGE_MUS, mu_triples, random_spinor
from reference import scalar_column

from diracdunkl import operators
from diracdunkl.exact import GRational, I, Params, as_grational
from diracdunkl.operators import (
    anticommutator,
    image_columns,
    matrix_op,
    coordinate_op,
    dunkl_op,
    identity,
    multiply_op,
    angular,
    bi_generator,
    casimir,
    central_element,
    commutator,
    dirac,
    euler_op,
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
    verify_identity,
    x_underline,
    zero_op,
)
from diracdunkl.poly import (
    ScalarPoly,
    SpinorPoly,
    coordinate_multiply,
    dunkl,
    euler,
    pauli,
    reflect,
    spinor_basis_labels,
)

P = Params(Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
CHI_PLUS = SpinorPoly.unit(1)
CHI_MINUS = SpinorPoly.unit(-1)


def up(exps, coef=1):
    return SpinorPoly.monomial(exps, 1, coef)


def down(exps, coef=1):
    return SpinorPoly.monomial(exps, -1, coef)


def test_dirac_examples():
    d = dirac(P)
    assert d(CHI_PLUS) == SpinorPoly.zero()
    assert d(x_underline()(CHI_PLUS)) == CHI_PLUS.scale(2 * P.mu_sum + 3)
    f = down((2, 1, 0))
    assert d(d(f)) == laplace(P)(f)


def test_laplace_examples():
    lap = laplace(P)
    assert lap(norm_sq()(CHI_PLUS)) == CHI_PLUS.scale(6 + 4 * P.mu_sum)
    assert lap(up((1, 0, 0))) == SpinorPoly.zero()
    assert lap(up((2, 0, 0))) == CHI_PLUS.scale(2 * (1 + 2 * P.mu1))


def test_laplace_forms_agree():
    report = verify_identity(
        laplace(P), laplace_explicit(P), 5, name="laplacian forms"
    )
    assert report.passed


def test_laplace_s2_examples():
    lap_sphere = laplace_s2(P)
    assert lap_sphere(CHI_PLUS) == SpinorPoly.zero()
    classical = laplace_s2(Params(0, 0, 0))
    assert classical(up((1, 0, 0))) == up((1, 0, 0), -2)


def test_laplace_s2_through_angular_momenta():
    ang = {i: angular(P, i) for i in (1, 2, 3)}
    total = ang[1] * ang[1] + ang[2] * ang[2] + ang[3] * ang[3]
    ident = scalar_op(1)
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        total = total - (2 * P.mu(i) * P.mu(j)) * (ident - reflect_op(i) * reflect_op(j))
    for i in (1, 2, 3):
        total = total - P.mu(i) * (ident - reflect_op(i))
    report = verify_identity(-1 * laplace_s2(P), total, 4, name="spherical laplacian")
    assert report.passed


def test_angular_examples():
    # The Dunkl factor appears in the commutation with x1: T1 x1 = 1 + 2 mu1.
    ell3 = angular(P, 3)
    assert ell3(up((1, 0, 0))) == up((0, 1, 0), I * (1 + 2 * P.mu1))
    assert angular(Params(0, 0, 0), 3)(up((1, 0, 0))) == up((0, 1, 0), I)
    assert ell3(CHI_MINUS) == SpinorPoly.zero()


def test_angular_commutation():
    for params in mu_triples(2, seed=21):
        ang = {i: angular(params, i) for i in (1, 2, 3)}
        for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            rhs = I * (ang[k] * (scalar_op(1) + (2 * params.mu(k)) * reflect_op(k)))
            report = verify_identity(
                commutator(ang[i], ang[j]), rhs, 3, name=f"[L{i},L{j}]"
            )
            assert report.passed


def test_spherical_dirac_examples():
    gamma = spherical_dirac(P)
    assert gamma(CHI_PLUS) == CHI_PLUS.scale(P.mu_sum)
    assert gamma(CHI_MINUS) == CHI_MINUS.scale(P.mu_sum)
    report = verify_identity(
        gamma, spherical_dirac_commutator(P), 4, name="commutator form"
    )
    assert report.passed


def test_quadratic_relation():
    gamma = spherical_dirac(P)
    lhs = gamma * gamma + gamma
    rhs = -1 * laplace_s2(P) + scalar_op(P.mu_sum * (P.mu_sum + 1))
    assert verify_identity(lhs, rhs, 4, name="quadratic relation").passed


def test_symmetry_examples():
    gamma = spherical_dirac(P)
    for i in (1, 2, 3):
        assert verify_identity(
            commutator(gamma, symmetry(P, i)), zero_op(), 4, name=f"[Gamma,J{i}]"
        ).passed
    assert symmetry(P, 3)(CHI_PLUS) == CHI_PLUS.scale(P.mu1 + P.mu2 + Fraction(1, 2))
    via = zero_op()
    for i in (1, 2, 3):
        via = via + pauli_op(i) * symmetry(P, i) - P.mu(i) * reflect_op(i)
    via = via - scalar_op(Fraction(3, 2))
    assert verify_identity(gamma, via, 4, name="Gamma via symmetries").passed


def test_involution_examples():
    z = {i: involution(i) for i in (1, 2, 3)}
    assert z[3](CHI_PLUS) == CHI_PLUS
    assert verify_identity(
        anticommutator(z[1], z[2]), zero_op(), 4, name="{Z1,Z2}"
    ).passed
    gamma = spherical_dirac(P)
    for i in (1, 2, 3):
        assert verify_identity(
            commutator(gamma, z[i]), zero_op(), 4, name=f"[Gamma,Z{i}]"
        ).passed
        assert verify_identity(z[i] * z[i], scalar_op(1), 3, name=f"Z{i}^2").passed


def test_bi_generator_examples():
    k3 = bi_generator(P, 3)
    eig = P.mu1 + P.mu2 + Fraction(1, 2)
    assert k3(CHI_PLUS) == CHI_PLUS.scale(eig)
    assert k3(CHI_MINUS) == CHI_MINUS.scale(eig)
    k1 = bi_generator(P, 1)
    k2 = bi_generator(P, 2)
    central = central_element(P)
    rhs = k3 + (2 * P.mu3) * central + scalar_op(2 * P.mu1 * P.mu2)
    assert verify_identity(
        anticommutator(k1, k2), rhs, 4, name="{K1,K2}"
    ).passed
    gamma = spherical_dirac(P)
    via = (
        k1 * reflect_op(2) * reflect_op(3)
        + k2 * reflect_op(1) * reflect_op(3)
        + k3 * reflect_op(1) * reflect_op(2)
    )
    for i in (1, 2, 3):
        via = via - P.mu(i) * reflect_op(i)
    via = via - scalar_op(Fraction(3, 2))
    assert verify_identity(gamma, via, 4, name="Gamma via generators").passed


def test_casimir_examples():
    q = casimir(P)
    scas = spherical_dirac(P) + scalar_op(1)
    shift = P.mu1**2 + P.mu2**2 + P.mu3**2 - Fraction(1, 4)
    assert verify_identity(
        q, scas * scas + scalar_op(shift), 3, name="casimir expression"
    ).passed
    expected = (P.mu_sum + 1) ** 2 + shift
    assert q(CHI_PLUS) == CHI_PLUS.scale(expected)
    assert casimir(Params(0, 0, 0))(CHI_PLUS) == CHI_PLUS.scale(Fraction(3, 4))


def test_verify_identity_reports():
    hh = euler_op() + scalar_op(P.gamma3)
    ok = verify_identity(
        anticommutator(x_underline(), dirac(P)), 2 * hh, 5, name="susy bracket"
    )
    assert ok.passed
    assert ok.basis_size == 2 * (1 + 3 + 6 + 10 + 15 + 21)
    assert ok.to_json_dict()["counterexample"] is None

    scas = spherical_dirac(P) + scalar_op(1)
    assert verify_identity(
        anticommutator(scas, dirac(P)), zero_op(), 5, name="odd pairing"
    ).passed

    bad = verify_identity(
        anticommutator(x_underline(), dirac(P)),
        2 * (euler_op() + scalar_op(P.gamma3 + 1)),
        2,
        name="perturbed",
    )
    assert not bad.passed
    assert bad.counterexample["degree"] == 0
    payload = bad.to_json_dict()
    assert payload["status"] == "fail"
    assert set(payload) == {"name", "degrees", "basis_size", "status", "counterexample"}
    assert payload["counterexample"]["spinor"] == "+"


def test_degree_six_invariants():
    # The symmetry commutation relations and the two constructions of the
    # spherical operator agree on the full basis through degree 6.
    gamma = spherical_dirac(P)
    assert verify_identity(
        gamma, spherical_dirac_commutator(P), 6, name="commutator form, deep"
    ).passed
    scas = gamma + scalar_op(1)
    syms = {i: symmetry(P, i) for i in (1, 2, 3)}
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        rhs = I * (
            syms[k]
            + (2 * P.mu(k)) * (scas * pauli_op(k) * reflect_op(k))
            + (2 * P.mu(i) * P.mu(j)) * (pauli_op(k) * reflect_op(i) * reflect_op(j))
        )
        assert verify_identity(
            commutator(syms[i], syms[j]), rhs, 6, name=f"[J{i},J{j}] deep"
        ).passed


def test_linop_linearity():
    rng = random.Random(23)
    gamma = spherical_dirac(P)
    k1 = bi_generator(P, 1)
    # gamma and k1 each feed both sides of the commutator's difference, so
    # one call of the bracket applies them through their cached columns.
    bracket = commutator(gamma, k1)
    f = random_spinor(rng, 3)
    g = random_spinor(rng, 3)
    assert f.up and f.down and not f.is_homogeneous()
    a = GRational(Fraction(2, 3), Fraction(-1, 5))
    b = GRational(Fraction(-3), Fraction(1, 2))
    h = f.scale(a) + g.scale(b)
    for op in (gamma, bracket):
        assert op(h) == op(f).scale(a) + op(g).scale(b)
    # The cached-column path agrees with calls in which every node has one
    # parent and applies to the whole inhomogeneous input at once.
    assert bracket(h) == gamma(k1(h)) - k1(gamma(h))
    assert bracket(f).scale(a) + bracket(g).scale(b) == gamma(k1(h)) - k1(gamma(h))


def test_verify_identities_matches_one_item_calls():
    gamma = spherical_dirac(P)
    lap_sphere = laplace_s2(P)
    quad = P.mu_sum * (P.mu_sum + 1)
    items = [
        ("quadratic relation", gamma * gamma + gamma, -1 * lap_sphere + scalar_op(quad)),
        ("quadratic relation, shifted", gamma * gamma + gamma,
         -1 * lap_sphere + scalar_op(quad + 1)),
        ("commutator form", gamma, spherical_dirac_commutator(P)),
        ("euler added", gamma + euler_op(), gamma),
    ]
    batch = verify_identities(items, 3)
    single = [verify_identity(lhs, rhs, 3, name=name) for name, lhs, rhs in items]
    assert [r.to_json_dict() for r in batch] == [r.to_json_dict() for r in single]
    assert [r.status for r in batch] == ["pass", "fail", "pass", "fail"]
    assert [r.basis_size for r in batch] == [40, 1, 40, 3]
    assert batch[3].counterexample["degree"] == 1
    assert batch[1].counterexample["lhs"] != batch[1].counterexample["rhs"]


def _raising_and_lowering_items(params):
    """Identities whose sides raise and lower the degree through shared
    nodes; three fail, first at degrees 0, 5 and 1."""
    x1, t1, t2 = coordinate_op(1), dunkl_op(1, params), dunkl_op(2, params)
    dd, xx = dirac(params), x_underline()
    return [
        ("x T = T x", x1 * t1, t1 * x1),
        ("[T1, x1] = 1 + 2 mu1 R1", commutator(t1, x1),
         identity() + (2 * params.mu1) * reflect_op(1)),
        ("T T = laplacian", dd * dd, laplace(params)),
        ("x1^3 T1^3 = x1^3 T1 T1 T1", x1**3 * t1**3, x1 * x1 * x1 * t1 * t1 * t1),
        ("x1^5 T1^5 = 0", x1**5 * t1**5, zero_op()),
        ("{x, D} = 2 (euler + gamma3)", anticommutator(xx, dd),
         2 * (euler_op() + scalar_op(params.gamma3))),
        ("T1 T2 x1 = x1 T1 T2", t1 * t2 * x1, x1 * t1 * t2),
        ("x T T x = T x x T", xx * dd * dd * xx, dd * xx * xx * dd),
    ]


def _fresh_slice_reports(make_items, max_degree):
    """The reports of `verify_identities`, applying fresh operators, built
    anew for each degree slice, one basis element at a time."""
    failed = {}
    basis_size = 0
    for degree in range(max_degree + 1):
        items = make_items()
        for exps, sign in spinor_basis_labels(degree):
            basis_size += 1
            f = SpinorPoly.monomial(exps, sign)
            for name, lhs, rhs in items:
                if name in failed:
                    continue
                left, right = lhs(f), rhs(f)
                if left != right:
                    failed[name] = {
                        "name": name, "degrees": [0, max_degree], "basis_size": basis_size,
                        "status": "fail", "counterexample": {
                            "degree": degree, "exponents": list(exps),
                            "spinor": "+" if sign == 1 else "-",
                            "lhs": left.to_json_dict(), "rhs": right.to_json_dict(),
                        },
                    }
    return [
        failed.get(name) or {
            "name": name, "degrees": [0, max_degree], "basis_size": basis_size,
            "status": "pass", "counterexample": None,
        }
        for name, _, _ in make_items()
    ]


@pytest.mark.parametrize("params", EDGE_MUS[:3] + [P], ids=str)
def test_batch_across_degrees_matches_fresh_slices(params):
    # One batch keeps the memos of its shared nodes from degree 0 to 6, so
    # lowering operators read images computed in lower slices.
    def make_items():
        return _raising_and_lowering_items(params)

    batch = [r.to_json_dict() for r in verify_identities(make_items(), 6)]
    assert batch == _fresh_slice_reports(make_items, 6)
    failures = {r["name"]: r["counterexample"]["degree"] for r in batch if r["counterexample"]}
    assert failures == {"x T = T x": 0, "x1^5 T1^5 = 0": 5, "T1 T2 x1 = x1 T1 T2": 1}


def test_verify_identity_rejects_negative_degree():
    with pytest.raises(ValueError):
        verify_identity(zero_op(), zero_op(), -1)
    with pytest.raises(ValueError):
        verify_identities([], -1)


def _mixed_coefficient(rng):
    dens = (1, 2, 3, 7, 12, 997)
    return GRational(
        Fraction(rng.randint(-9, 9), rng.choice(dens)),
        Fraction(rng.randint(-9, 9), rng.choice(dens)),
    )


def _mixed_spinor(rng, max_degree=4):
    """Inhomogeneous spinor polynomial with non-real coefficients whose
    denominators differ from term to term."""
    out = SpinorPoly.zero()
    for degree in range(max_degree + 1):
        for exps, sign in spinor_basis_labels(degree):
            if rng.random() < 0.4:
                out = out + SpinorPoly.monomial(exps, sign, _mixed_coefficient(rng))
    return out


def _mixed_scalar(rng):
    out = ScalarPoly.zero()
    for degree in range(3):
        for exps, sign in spinor_basis_labels(degree):
            if sign == 1 and rng.random() < 0.5:
                out = out + ScalarPoly.monomial(exps, _mixed_coefficient(rng))
    return out


def test_primitive_kernels_match_poly_references():
    rng, top_rng = random.Random(31), random.Random(37)
    for params in EDGE_MUS:
        for _ in range(3):
            f = _mixed_spinor(rng)
            assert f.up and f.down and not f.is_homogeneous()
            for axis in (1, 2, 3):
                assert dunkl_op(axis, params)(f) == dunkl(f, axis, params)
                assert pauli_op(axis)(f) == pauli(f, axis)
                assert reflect_op(axis)(f) == reflect(f, axis)
                assert coordinate_op(axis)(f) == coordinate_multiply(f, axis)
            assert euler_op()(f) == euler(f)
            for value in (0, 1, Fraction(-997, 3), _mixed_coefficient(rng), I):
                assert scalar_op(value)(f) == f.scale(value)
            scalar = _mixed_scalar(rng)
            assert multiply_op(scalar_column(scalar))(f) == (
                SpinorPoly(f.up * scalar, f.down * scalar))
            assert multiply_op((1, {}))(f) == SpinorPoly.zero()
            composed = SpinorPoly.zero()
            for a in (1, 2, 3):
                composed = composed + dunkl(dunkl(f, a, params), a, params)
            assert laplace_explicit(params)(f) == composed
            assert laplace(params)(f) == composed
            dd = xx = r2 = SpinorPoly.zero()
            for a in (1, 2, 3):
                dd = dd + pauli(dunkl(f, a, params), a)
                xx = xx + pauli(coordinate_multiply(f, a), a)
                r2 = r2 + coordinate_multiply(coordinate_multiply(f, a), a)
            assert dirac(params)(f) == dd
            assert x_underline()(f) == xx
            assert norm_sq()(f) == r2
        assert dirac(params)(SpinorPoly.zero()) == SpinorPoly.zero()
        _check_kernels_at_the_top_of_the_field(params, top_rng)


def _check_kernels_at_the_top_of_the_field(params, rng):
    """The kernels on monomials whose exponents fill their packed fields,
    and the coordinates on monomials one below: no carry, borrow or parity
    reaches a neighbouring field or the sign bit."""
    top = (1 << operators._FIELD) - 1
    f = (up((top, top, top), _mixed_coefficient(rng)) + down((top, 0, top - 1))
         + up((0, top - 1, top), _mixed_coefficient(rng)) + down((1, top, 0), I))
    for axis in (1, 2, 3):
        assert dunkl_op(axis, params)(f) == dunkl(f, axis, params)
        assert pauli_op(axis)(f) == pauli(f, axis)
        assert reflect_op(axis)(f) == reflect(f, axis)
    assert euler_op()(f) == euler(f)
    composed = SpinorPoly.zero()
    for a in (1, 2, 3):
        composed = composed + dunkl(dunkl(f, a, params), a, params)
    assert laplace_explicit(params)(f) == composed == laplace(params)(f)
    g = up((top - 1, top - 1, top - 1), _mixed_coefficient(rng)) + down((0, top - 1, 1))
    for axis in (1, 2, 3):
        assert coordinate_op(axis)(g) == coordinate_multiply(g, axis)
        assert (dunkl_op(axis, params) * coordinate_op(axis))(g) == (
            dunkl(coordinate_multiply(g, axis), axis, params))


def test_exponents_beyond_the_field_are_refused():
    # An exponent that does not fit its field, in an input, in an embedded
    # column or in a multiplier, is a ValueError rather than a carry into
    # the next field.
    big = 1 << operators._FIELD
    with pytest.raises(ValueError):
        identity()(up((0, big, 0)))
    with pytest.raises(ValueError):
        dirac(P)(down((big, 0, 0)))
    with pytest.raises(ValueError):
        operators.embedding_op({(0,): up((0, 0, big)).column})
    with pytest.raises(ValueError):
        multiply_op((1, {(big, 0, 0): (1, 0)}))(CHI_PLUS)
    assert identity()(up((0, big - 1, 0))) == up((0, big - 1, 0))


def test_graphs_that_could_raise_past_the_field_are_refused():
    # The rise of a graph is bounded when it is compiled: a coordinate
    # raises by one, a composition by the sum and a sum by the largest; an
    # embedding by the largest exponent of its columns.  A lowering factor
    # counts zero, so x1 T1 is refused at the top of the field too.
    top = (1 << operators._FIELD) - 1
    x1 = coordinate_op(1)
    for op in (x1, x1 * dunkl_op(1, P), dunkl_op(1, P) + x1 * x1, x_underline()):
        with pytest.raises(ValueError):
            op(up((top, 0, 0)))
    assert (dunkl_op(1, P) * x1)(up((top - 1, 0, 0))) == dunkl(
        coordinate_multiply(up((top - 1, 0, 0)), 1), 1, P)
    with pytest.raises(ValueError):
        norm_sq()(down((0, 0, top - 1)))
    with pytest.raises(ValueError):
        (x1 ** 2)(down((top - 1, 0, 0)))
    with pytest.raises(ValueError):
        multiply_op((1, {(top, 0, 0): (1, 0)}))(up((0, 1, 0)))
    embed = operators.embedding_op({(0,): up((0, top, 0)).column})
    assert image_columns([dirac(P) * embed], [(0,)])[0][0][1]
    with pytest.raises(ValueError):
        image_columns([coordinate_op(3) * embed], [(0,)])
    with pytest.raises(ValueError):
        operators.first_failures([(coordinate_op(3) * embed, zero_op())], [[(0,)]])


def test_columns_are_reduced():
    # Each identity holds only if equal images reduce to equal columns.
    for params in EDGE_MUS:
        for axis in (1, 2, 3):
            t, x = dunkl_op(axis, params), coordinate_op(axis)
            rhs = identity() + (2 * params.mu(axis)) * reflect_op(axis)
            assert verify_identity(commutator(t, x), rhs, 3).passed
        third = Fraction(1, 3) * identity()
        assert verify_identity(third + third + third, identity(), 2).passed
        assert verify_identity(scalar_op(997) * scalar_op(Fraction(1, 997)), identity(), 2).passed


# Keys of mixed tuple shapes, all mutually comparable.
MATRIX_KEYS = [(k,) for k in range(4)] + [(0, 1), (2, 3, 5)]


def _random_matrix(rng, keys=MATRIX_KEYS):
    """Sparse {(row, column): value} matrix with Gaussian-rational and
    rational entries, some of them explicit zeros."""
    out = {}
    for row in keys:
        for column in keys:
            if rng.random() < 0.3:
                out[row, column] = rng.choice(
                    (_mixed_coefficient(rng), Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                )
    return out


def _dense_of(entries, keys=MATRIX_KEYS):
    return [[as_grational(entries.get((r, c), 0)) for c in keys] for r in keys]


def _dense_mul(a, b):
    return [
        [sum((x * b[k][j] for k, x in enumerate(row)), GRational(0)) for j in range(len(b[0]))]
        for row in a
    ]


def _dense_lin(*terms):
    """Sum of coefficient * matrix over (coefficient, matrix) terms."""
    n = len(terms[0][1])
    return [
        [sum((as_grational(c) * m[i][j] for c, m in terms), GRational(0)) for j in range(n)]
        for i in range(n)
    ]


def _dense_from_columns(columns, keys=MATRIX_KEYS):
    out = [[GRational(0)] * len(keys) for _ in keys]
    index = {key: i for i, key in enumerate(keys)}
    for j, (den, entries) in enumerate(columns):
        for key, (re, im) in entries.items():
            out[index[key]][j] = GRational(Fraction(re, den), Fraction(im, den))
    return out


def test_matrix_op_matches_dense_products():
    rng = random.Random(43)
    eye = _dense_of({(k, k): 1 for k in MATRIX_KEYS})
    for _ in range(20):
        a, b, c = (_random_matrix(rng) for _ in range(3))
        s, t = _mixed_coefficient(rng), Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        A, B, C = (matrix_op(m) for m in (a, b, c))
        da, db, dc = (_dense_of(m) for m in (a, b, c))
        cases = [
            (A, da),
            (A + B - C, _dense_lin((1, da), (1, db), (-1, dc))),
            (s * A - B * t, _dense_lin((s, da), (-t, db))),
            (A * B, _dense_mul(da, db)),
            ((A + B) * C * A, _dense_mul(_dense_mul(_dense_lin((1, da), (1, db)), dc), da)),
            (scalar_op(s), _dense_lin((s, eye))),
            (scalar_op(t) * A + A * scalar_op(s) - scalar_op(0) * B,
             _dense_lin((t + s, da))),
            (anticommutator(A, B) - scalar_op(t) * (A ** 2),
             _dense_lin((1, _dense_mul(da, db)), (1, _dense_mul(db, da)), (-t, _dense_mul(da, da)))),
        ]
        got = image_columns([op for op, _ in cases], MATRIX_KEYS)
        for index, (columns, (_, expected)) in enumerate(zip(got, cases)):
            assert _dense_from_columns(columns) == expected, index
    # A key that is no column of the matrix goes to zero.
    assert image_columns([matrix_op({((0,), (1,)): 2})], [(1,), (2,)]) == [
        [(1, {(0,): (2, 0)}), (1, {})]
    ]


def test_equal_matrices_merge_to_one_node():
    rng = random.Random(47)
    entries = _random_matrix(rng)
    entries[(1,), (2, 3, 5)] = 0  # an explicit zero is no entry
    same = dict(rng.sample(list(entries.items()), len(entries)))
    del same[(1,), (2, 3, 5)]
    a, b = matrix_op(entries), matrix_op(same)
    assert a is not b and a.payload == b.payload
    x = matrix_op(_random_matrix(rng))
    roots = operators._compile([a * x, b * x, a])
    assert roots[0] is roots[1]
    assert roots[0].args[0] is roots[2]
    assert roots[2].kind == "primitive" and roots[2].payload == a.payload


# Operators applied many times: each keeps its compiled graph and the memos
# of its shared nodes across calls.
REUSED_OPERATORS = {
    "dirac": dirac,
    "x_underline^3": lambda params: x_underline() ** 3,
    "spherical dirac + 1": lambda params: spherical_dirac(params) + scalar_op(1),
    "K1": lambda params: bi_generator(params, 1),
    "casimir": casimir,
    "laplace_s2": laplace_s2,
    "central element": central_element,
}


@pytest.mark.parametrize("name", sorted(REUSED_OPERATORS))
def test_reused_operator_matches_fresh_copies(name):
    build = REUSED_OPERATORS[name]
    rng = random.Random(59)
    for params in EDGE_MUS[:4]:
        op = build(params)
        inputs = [
            random_spinor(rng, 3), SpinorPoly.zero(), CHI_MINUS, up((0, 2, 1)),
            random_spinor(rng, 1), SpinorPoly.monomial((1, 0, 3), -1, I),
            random_spinor(rng, 2), CHI_PLUS,
        ]
        # Interleaved degrees and spins, then the same inputs again, now
        # partly from the kept memos.
        for f in inputs + inputs[::-1]:
            assert op(f) == build(params)(f), (name, params)
        assert not op(SpinorPoly.zero())
        # Being a subtree of other operators leaves op's own graph intact.
        outer = op * op + scalar_op(2) * op
        for f in inputs[:3]:
            assert outer(f) == build(params)(build(params)(f)) + build(params)(f).scale(2)
            assert op(f) == build(params)(f)


def test_operator_compiles_once(monkeypatch):
    calls = []
    compile_ = operators._compile

    def counted(roots):
        calls.append(len(roots))
        return compile_(roots)

    monkeypatch.setattr(operators, "_compile", counted)
    op = casimir(P)
    for f in (CHI_PLUS, up((1, 1, 0)), CHI_MINUS, up((1, 1, 0))):
        op(f)
    assert calls == [1]
    (op + op)(CHI_PLUS)
    assert calls == [1, 1]


def test_operators_with_other_payloads_share_no_memo_entries():
    # Equal trees over different mu, and trees whose shared nodes differ only
    # in mu, applied alternately to the same inputs: each gives its own
    # reference image.
    rng = random.Random(61)
    inputs = [random_spinor(rng, 3) for _ in range(3)] + [up((3, 0, 0)), CHI_MINUS]
    ops = [(params, casimir(params), dirac(params) * dirac(params)) for params in EDGE_MUS]
    for f in inputs:
        for params, cas, square in ops:
            assert cas(f) == casimir(params)(f)
            expected = dirac(params)(dirac(params)(f))
            assert square(f) == expected
    first, second = EDGE_MUS[1], EDGE_MUS[3]
    mixed = dunkl_op(1, first) * dunkl_op(1, second) + dunkl_op(1, second) * dunkl_op(1, first)
    for f in inputs:
        assert mixed(f) == (
            dunkl(dunkl(f, 1, second), 1, first) + dunkl(dunkl(f, 1, first), 1, second)
        )
    assert dunkl_op(1, first)(up((1, 0, 0))) != dunkl_op(1, second)(up((1, 0, 0)))


def test_evaluation_leaves_no_reference_cycles():
    # A reference cycle through a compiled graph would keep it, and the memo
    # columns of its shared nodes, alive until the cyclic collector runs.
    items = [
        ("D^2 = Laplace", dirac(P) * dirac(P), laplace(P)),
        ("K1 K1 = K1^2", bi_generator(P, 1) * bi_generator(P, 1), bi_generator(P, 1) ** 2),
        ("failing", x_underline(), zero_op()),
    ]
    gc.collect()
    gc.disable()
    try:
        verify_identities(items, 2)
        assert gc.collect() == 0
        casimir(P)(up((1, 1, 0)) + down((0, 0, 2), I))
        assert gc.collect() == 0
    finally:
        gc.enable()
