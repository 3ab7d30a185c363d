import random
from fractions import Fraction

from diracdunkl.exact import GRational, Params
from diracdunkl.poly import SpinorPoly, spinor_basis_labels


def mu_triples(count: int, seed: int) -> list[Params]:
    """Deterministic non-negative rational parameter triples for sweeps."""
    rng = random.Random(seed)
    return [
        Params(*[Fraction(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(3)])
        for _ in range(count)
    ]


# Zeros, mixed zeros and large heights next to seeded small triples, for
# comparing the integer kernels and the extension with their references.
EDGE_MUS = [
    Params(0, 0, 0),
    Params(0, Fraction(1, 2), 0),
    Params(1000, 1, 1),
    Params(Fraction(997, 3), 0, Fraction(2, 5)),
] + mu_triples(2, seed=41)


def on_axes(labels: list, axes: tuple[int, ...]) -> list:
    """The (exponents, sign) labels whose exponents vanish off the given
    axes, in their order."""
    return [
        (exps, sign) for exps, sign in labels
        if not any(e for axis, e in enumerate(exps, 1) if axis not in axes)
    ]


def random_spinor(rng: random.Random, max_degree: int, axes=(1, 2, 3)) -> SpinorPoly:
    """Random spinor polynomial with small Gaussian-rational coefficients."""
    out = SpinorPoly.zero()
    for degree in range(max_degree + 1):
        for exps, sign in on_axes(spinor_basis_labels(degree), axes):
            if rng.random() < 0.5:
                coef = GRational(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                )
                if coef:
                    out = out + SpinorPoly.monomial(exps, sign, coef)
    return out
