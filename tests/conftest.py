from fractions import Fraction
from math import lcm

import pytest
from hypothesis import settings

from vermatheta import BOREL, PARABOLIC, ModuleSpec, QMatrix, VermaModule, mat_scalar_shift, rank

settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("ci")

#: the three guard-passing Borel weights used for replication
WEIGHTS = (
    (Fraction(7, 3), Fraction(5, 7)),
    (Fraction(11, 5), Fraction(-3, 7)),
    (Fraction(13, 4), Fraction(9, 11)),
)

LAMBDA1S = tuple(l1 for l1, _ in WEIGHTS)


@pytest.fixture(scope="session")
def borel_modules():
    return {w: VermaModule(ModuleSpec(BOREL, w[0], w[1], 12)) for w in WEIGHTS}


@pytest.fixture(scope="session")
def borel_module(borel_modules):
    return borel_modules[WEIGHTS[0]]


@pytest.fixture(scope="session")
def parabolic_modules():
    out = {}
    for v in (0, 1, 2, 3):
        for l1 in LAMBDA1S:
            out[(l1, v)] = VermaModule(ModuleSpec(PARABOLIC, l1, v, 12))
    return out


# -- readers and builders the library does not need -------------------------------


def qmatrix(rows) -> QMatrix:
    """The QMatrix of nonempty rows of rationals, over their denominators' lcm."""
    entries = [Fraction(x) for row in rows for x in row]
    den = lcm(*(x.denominator for x in entries))
    num = [x.numerator * (den // x.denominator) for x in entries]
    return QMatrix.from_integers(len(rows), len(rows[0]), num, den)


def matrix_rows(m: QMatrix) -> list:
    """The entries of ``m`` as rows of Fractions."""
    c = m.cols
    return [[Fraction(x, m.den) for x in m.num[i * c : (i + 1) * c]] for i in range(m.rows)]


def shifted(m: QMatrix, c) -> QMatrix:
    """m - c*I for a rational c: ``m`` restated over a denominator that c's
    divides, then shifted by c's numerator over it."""
    c = Fraction(c)
    den = lcm(m.den, c.denominator)
    restated = QMatrix.from_integers(m.rows, m.cols, [x * (den // m.den) for x in m.num], den)
    return mat_scalar_shift(restated, c.numerator * (den // c.denominator))


def eigenvalues(module: VermaModule, pairs) -> tuple:
    """``kappa_spectrum``'s (numerator, multiplicity) pairs as (Fraction, multiplicity)."""
    return tuple((Fraction(v, module.denom), c) for v, c in pairs)


def straighten(module: VermaModule, word) -> dict:
    """Normal-ordered expansion of a generator word applied to v."""
    element = {(0, 0, 0): Fraction(1)}
    for g in reversed(word):
        element = module.apply_gen(g, element)
    return element


def singular_dimension(module: VermaModule, root, n: int, m: int) -> int:
    """Dimension of the kernel of the root's raising generator on (n, m)."""
    mat = module.operator_matrix(root.raising, (n, m))
    return mat.cols - rank(mat)
