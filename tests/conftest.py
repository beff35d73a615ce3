from fractions import Fraction
from math import lcm

import pytest
from hypothesis import settings

from vermatheta import BOREL, PARABOLIC, ModuleSpec, QMatrix, VermaModule, rank
from vermatheta.exactalg import mat_scalar_shift
from vermatheta.verma import Gen, Root

settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("ci")

#: the three guard-passing Borel weights used for replication
WEIGHTS = (
    (Fraction(7, 3), Fraction(5, 7)),
    (Fraction(11, 5), Fraction(-3, 7)),
    (Fraction(13, 4), Fraction(9, 11)),
)

LAMBDA1S = tuple(l1 for l1, _ in WEIGHTS)

RAISING = tuple(root.raising for root in Root)


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


def zero_raising_matrix(monkeypatch, weight, space) -> list:
    """Serve the zero matrix for every raising generator on ``space`` of a
    module at ``weight``; the returned list gets ``space`` per matrix served."""
    real = VermaModule.operator_matrix
    served = []

    def perturbed(module, op, source):
        mat = real(module, op, source)
        spec = module.spec
        if op in RAISING and source == space and (spec.lambda1, spec.lambda2) == weight:
            served.append(source)
            return QMatrix.from_integers(mat.rows, mat.cols, [0] * len(mat.num), mat.den)
        return mat

    monkeypatch.setattr(VermaModule, "operator_matrix", perturbed)
    return served


def singular_dimension(module: VermaModule, root, n: int, m: int) -> int:
    """Dimension of the kernel of the root's raising generator on (n, m)."""
    mat = module.operator_matrix(root.raising, (n, m))
    return mat.cols - rank(mat)


# -- the commutation rule, from matrix units ---------------------------------------

MATRIX_UNITS = {
    Gen.E12: {(0, 1): 1},
    Gen.E23: {(1, 2): 1},
    Gen.E13: {(0, 2): 1},
    Gen.E21: {(1, 0): 1},
    Gen.E32: {(2, 1): 1},
    Gen.E31: {(2, 0): 1},
    Gen.H12: {(0, 0): 1, (1, 1): -1},
    Gen.H23: {(1, 1): 1, (2, 2): -1},
}


def mat_mult(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if j == k:
                out[(i, l)] = out.get((i, l), 0) + x * y
    return {k: v for k, v in out.items() if v}


def decompose(m: dict) -> tuple:
    """Express a traceless 3x3 matrix in the eight-generator basis."""
    parts = []
    diag = [m.get((i, i), 0) for i in range(3)]
    assert sum(diag) == 0, "commutator is not traceless"
    if diag[0]:
        parts.append((diag[0], Gen.H12))
    if diag[2]:
        parts.append((-diag[2], Gen.H23))
    for gen, units in MATRIX_UNITS.items():
        if gen in (Gen.H12, Gen.H23):
            continue
        ((i, j),) = units.keys()
        if m.get((i, j), 0):
            parts.append((m[(i, j)], gen))
    return tuple(parts)


def commutator(g: Gen, h: Gen) -> tuple:
    """[g, h] as a tuple of (integer coefficient, generator), from the
    matrix-unit product rule."""
    a, b = MATRIX_UNITS[g], MATRIX_UNITS[h]
    bracket = mat_mult(a, b)
    for k, v in mat_mult(b, a).items():
        bracket[k] = bracket.get(k, 0) - v
    return decompose({k: v for k, v in bracket.items() if v})


class WordStraightener:
    """Straightening by recursion over words of ``Gen`` letters, as the
    package did before it worked on exponent triples; an oracle that shares
    no code with ``VermaModule``, whose action is read off closed formulas.

    ``hw`` replaces the spec's highest weight, say by symbols, and ``expand``
    normalizes each coefficient before it is tested for zero.
    """

    def __init__(self, spec, hw=None, expand=lambda c: c):
        if spec.kind == BOREL:
            self.letters = (Gen.E21, Gen.E32, Gen.E31)
        else:
            self.letters = (Gen.E21, Gen.E31, Gen.E32)
        pos = {g: i for i, g in enumerate(self.letters)}
        self.order = {g: pos.get(g, 10 if g in (Gen.H12, Gen.H23) else 20) for g in Gen}
        self.hw = dict(zip((Gen.H12, Gen.H23), hw or (spec.lambda1, spec.lambda2)))
        self.expand = expand
        self.cap = spec.cap
        self.cache = {}

    def word_ok(self, word):
        return self.cap is None or word.count(Gen.E32) <= self.cap

    def apply(self, g, word):
        key = (g, word)
        if key in self.cache:
            return self.cache[key]
        if not word:
            if g in self.letters:
                result = {(g,): Fraction(1)} if self.word_ok((g,)) else {}
            elif g in self.hw:
                result = {(): self.hw[g]}
            else:
                result = {}
        elif self.order[g] <= self.order[word[0]]:
            new = (g,) + word
            result = {new: Fraction(1)} if self.word_ok(new) else {}
        else:
            x, rest = word[0], word[1:]
            acc = {}
            for w2, c2 in self.apply(g, rest).items():
                for w3, c3 in self.apply(x, w2).items():
                    acc[w3] = acc.get(w3, Fraction(0)) + c2 * c3
            for coeff, gi in commutator(g, x):
                for w3, c3 in self.apply(gi, rest).items():
                    acc[w3] = acc.get(w3, Fraction(0)) + coeff * c3
            result = {w: e for w, c in acc.items() if (e := self.expand(c))}
        self.cache[key] = result
        return result

    def apply_gen(self, g, exps):
        word = tuple(letter for letter, e in zip(self.letters, exps) for _ in range(e))
        out = {}
        for w, c in self.apply(g, word).items():
            e2 = tuple(w.count(letter) for letter in self.letters)
            out[e2] = out.get(e2, Fraction(0)) + c
        return {e: x for e, c in out.items() if (x := self.expand(c))}
