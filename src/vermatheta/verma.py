"""sl(3) Borel and parabolic Verma modules over exact rationals.

Conventions
-----------
Generators are the matrix units E_ij (i != j) together with the Cartan
elements h1 = E11 - E22 and h2 = E22 - E33.  All commutators are derived
from the matrix-unit product rule, never hardcoded per case.

Weights are written as hw - n*a12 - m*a23 with n, m >= 0, where a12, a23
are the simple positive roots and hw is the highest weight (L1, L2) read
off through h1, h2.  In these coordinates the h-values of the (n, m)
weight space are h1 = L1 - 2n + m and h2 = L2 + n - 2m.

PBW monomials:

* Borel module: E21^a E32^b E31^c v, weight coordinates (n, m) = (a+c, b+c).
  Weight-space bases are ordered by increasing E31 exponent, matching the
  ladder bases used for the sl(2) action formulas.
* Parabolic module (L2 a nonnegative integer, E32^(L2+1) v = 0):
  E21^a E31^c E32^i v with 0 <= i <= L2, weight coordinates (a+c, c+i).
  Bases are ordered by increasing E32 exponent.

The highest-weight parameters are substituted as exact rationals before any
matrix is formed; genericity is certified by the guard below and by
re-running structural checks at several guard-passing weights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .errors import GenericityError, TruncationError, UsageError, VerificationError
from .exactalg import QMatrix
from .qseries import ExponentForm, FormalSeries, Monomial, Window


class Gen(Enum):
    E12 = "E12"
    E23 = "E23"
    E13 = "E13"
    E21 = "E21"
    E32 = "E32"
    E31 = "E31"
    H12 = "H12"
    H23 = "H23"


_MATRIX_UNITS = {
    Gen.E12: {(0, 1): 1},
    Gen.E23: {(1, 2): 1},
    Gen.E13: {(0, 2): 1},
    Gen.E21: {(1, 0): 1},
    Gen.E32: {(2, 1): 1},
    Gen.E31: {(2, 0): 1},
    Gen.H12: {(0, 0): 1, (1, 1): -1},
    Gen.H23: {(1, 1): 1, (2, 2): -1},
}


def _mat_mult(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if j == k:
                out[(i, l)] = out.get((i, l), 0) + x * y
    return {k: v for k, v in out.items() if v}


def _decompose(m: dict) -> tuple:
    """Express a traceless 3x3 matrix in the eight-generator basis."""
    parts = []
    diag = [m.get((i, i), 0) for i in range(3)]
    if sum(diag) != 0:
        raise VerificationError("commutator is not traceless")
    if diag[0]:
        parts.append((diag[0], Gen.H12))
    if diag[2]:
        parts.append((-diag[2], Gen.H23))
    for gen, units in _MATRIX_UNITS.items():
        if gen in (Gen.H12, Gen.H23):
            continue
        ((i, j),) = units.keys()
        if m.get((i, j), 0):
            parts.append((m[(i, j)], gen))
    return tuple(parts)


def commutator(g: Gen, h: Gen) -> tuple:
    """[g, h] as a tuple of (integer coefficient, generator)."""
    a, b = _MATRIX_UNITS[g], _MATRIX_UNITS[h]
    bracket = _mat_mult(a, b)
    for k, v in _mat_mult(b, a).items():
        bracket[k] = bracket.get(k, 0) - v
    return _decompose({k: v for k, v in bracket.items() if v})


_COMM = {(g, h): commutator(g, h) for g in Gen for h in Gen if g is not h}

# weight step of each generator in (n, m) coordinates
_WEIGHT_STEP = {
    Gen.E21: (1, 0),
    Gen.E12: (-1, 0),
    Gen.E32: (0, 1),
    Gen.E23: (0, -1),
    Gen.E31: (1, 1),
    Gen.E13: (-1, -1),
    Gen.H12: (0, 0),
    Gen.H23: (0, 0),
}


class Root(Enum):
    A12 = "12"
    A23 = "23"
    A13 = "13"

    @property
    def raising(self) -> Gen:
        return {Root.A12: Gen.E12, Root.A23: Gen.E23, Root.A13: Gen.E13}[self]

    @property
    def lowering(self) -> Gen:
        return {Root.A12: Gen.E21, Root.A23: Gen.E32, Root.A13: Gen.E31}[self]

    @property
    def down_step(self) -> tuple[int, int]:
        return {Root.A12: (1, 0), Root.A23: (0, 1), Root.A13: (1, 1)}[self]


BOREL = "borel"
PARABOLIC = "parabolic"


@dataclass(frozen=True)
class ModuleSpec:
    kind: str
    lambda1: Fraction
    lambda2: Fraction
    depth: int

    def __post_init__(self):
        if self.kind not in (BOREL, PARABOLIC):
            raise UsageError(f"unknown module kind {self.kind!r}")
        object.__setattr__(self, "lambda1", Fraction(self.lambda1))
        object.__setattr__(self, "lambda2", Fraction(self.lambda2))
        if self.depth < 0:
            raise UsageError("depth must be nonnegative")
        if self.kind == PARABOLIC and (
            self.lambda2.denominator != 1 or self.lambda2 < 0
        ):
            raise UsageError("parabolic modules need lambda2 a nonnegative integer")

    @property
    def lambda2_int(self) -> int:
        if self.lambda2.denominator != 1:
            raise UsageError("lambda2 is not an integer")
        return int(self.lambda2)

    def with_depth(self, depth: int) -> "ModuleSpec":
        return replace(self, depth=depth)

    def with_weight(self, l1, l2) -> "ModuleSpec":
        return replace(self, lambda1=Fraction(l1), lambda2=Fraction(l2))


def genericity_guard(l1, l2, depth: int, kind: str = BOREL) -> bool:
    """True when no ladder coefficient of the form (weight + integer) can
    vanish at the given depth.

    The avoidance set is Z intersected with [-3*depth-3, 3*depth+3], applied
    to L1, L2 and L1+L2 for the Borel module and to L1 alone for the
    parabolic module (whose L2 is integral by construction).
    """
    l1, l2 = Fraction(l1), Fraction(l2)
    bound = 3 * depth + 3

    def hits(x: Fraction) -> bool:
        return x.denominator == 1 and -bound <= x <= bound

    if kind == BOREL:
        return not (hits(l1) or hits(l2) or hits(l1 + l2))
    if kind == PARABOLIC:
        if l2.denominator != 1 or l2 < 0:
            return False
        return not hits(l1)
    raise UsageError(f"unknown module kind {kind!r}")


def h_form(kind: str, lambda2, root: Root, n: int, m: int) -> ExponentForm:
    """h-value of the (n, m) weight space along ``root`` as an affine form.

    For the parabolic module the integer L2 is folded into the constant
    part, so parabolic forms always have c2 = 0.
    """
    if kind == BOREL:
        if root is Root.A12:
            return ExponentForm(m - 2 * n, 1, 0)
        if root is Root.A23:
            return ExponentForm(n - 2 * m, 0, 1)
        return ExponentForm(-n - m, 1, 1)
    v = int(Fraction(lambda2))
    if root is Root.A12:
        return ExponentForm(m - 2 * n, 1, 0)
    if root is Root.A23:
        return ExponentForm(v + n - 2 * m, 0, 0)
    return ExponentForm(v - n - m, 1, 0)


class VermaModule:
    """Straightening engine and weight-space bookkeeping for one module."""

    def __init__(self, spec: ModuleSpec):
        if not genericity_guard(spec.lambda1, spec.lambda2, spec.depth, spec.kind):
            raise GenericityError(
                f"weight ({spec.lambda1}, {spec.lambda2}) fails the genericity "
                f"guard at depth {spec.depth} for the {spec.kind} module"
            )
        self.spec = spec
        if spec.kind == BOREL:
            self._letters = (Gen.E21, Gen.E32, Gen.E31)
        else:
            self._letters = (Gen.E21, Gen.E31, Gen.E32)
        self._letter_pos = {g: i for i, g in enumerate(self._letters)}
        self._order = {g: self._letter_pos.get(g, 10 if g in (Gen.H12, Gen.H23) else 20) for g in Gen}
        self._hw = {Gen.H12: spec.lambda1, Gen.H23: spec.lambda2}
        self._e32_cap = spec.lambda2_int if spec.kind == PARABOLIC else None
        self._cache: dict = {}

    # -- PBW words ---------------------------------------------------------

    def _word_ok(self, word: tuple) -> bool:
        if self._e32_cap is None:
            return True
        return sum(1 for g in word if g is Gen.E32) <= self._e32_cap

    def word_of(self, exps: tuple[int, int, int]) -> tuple:
        out = []
        for letter, e in zip(self._letters, exps):
            out.extend([letter] * e)
        return tuple(out)

    def exps_of(self, word: tuple) -> tuple[int, int, int]:
        return tuple(sum(1 for g in word if g is letter) for letter in self._letters)

    def weight_of(self, exps: tuple[int, int, int]) -> tuple[int, int]:
        a, x, y = exps
        if self.spec.kind == BOREL:
            return (a + y, x + y)  # exps = (E21, E32, E31)
        return (a + x, x + y)  # exps = (E21, E31, E32)

    def weight_space(self, n: int, m: int) -> tuple:
        """Ordered PBW basis of the (n, m) weight space."""
        if n < 0 or m < 0:
            return ()
        basis = []
        if self.spec.kind == BOREL:
            for c in range(min(n, m) + 1):
                basis.append((n - c, m - c, c))
        else:
            cap = self._e32_cap
            for c in range(min(n, m), max(0, m - cap) - 1, -1):
                basis.append((n - c, c, m - c))
        return tuple(basis)

    def dim(self, n: int, m: int) -> int:
        return len(self.weight_space(n, m))

    # -- straightening -----------------------------------------------------

    def _apply(self, g: Gen, word: tuple) -> dict:
        key = (g, word)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if not word:
            if g in self._letter_pos:
                result = {(g,): Fraction(1)} if self._word_ok((g,)) else {}
            elif g in (Gen.H12, Gen.H23):
                result = {(): self._hw[g]}
            else:
                result = {}
        else:
            x = word[0]
            rest = word[1:]
            if self._order[g] <= self._order[x]:
                new = (g,) + word
                result = {new: Fraction(1)} if self._word_ok(new) else {}
            else:
                acc: dict = {}
                for w2, c2 in self._apply(g, rest).items():
                    for w3, c3 in self._apply(x, w2).items():
                        acc[w3] = acc.get(w3, Fraction(0)) + c2 * c3
                for coeff, gi in _COMM[(g, x)]:
                    for w3, c3 in self._apply(gi, rest).items():
                        acc[w3] = acc.get(w3, Fraction(0)) + coeff * c3
                result = {w: c for w, c in acc.items() if c}
        self._cache[key] = result
        return result

    def apply_gen(self, g: Gen, element: dict) -> dict:
        """Act by a generator on a rational combination of PBW monomials."""
        out: dict = {}
        for exps, coeff in element.items():
            for w, c in self._apply(g, self.word_of(exps)).items():
                e2 = self.exps_of(w)
                out[e2] = out.get(e2, Fraction(0)) + coeff * c
        return {e: c for e, c in out.items() if c}

    def straighten(self, word) -> dict:
        """Normal-ordered expansion of a generator word applied to v."""
        element = {(0, 0, 0): Fraction(1)}
        for g in reversed(list(word)):
            element = self.apply_gen(g, element)
        return element

    # -- operator matrices ---------------------------------------------------

    def _coords(self, element: dict, target: tuple, where: str) -> list[Fraction]:
        index = {exps: i for i, exps in enumerate(target)}
        col = [Fraction(0)] * len(target)
        for exps, coeff in element.items():
            if exps not in index:
                raise VerificationError(f"straightened term left its weight space in {where}")
            col[index[exps]] = coeff
        return col

    def operator_matrix(self, op, source: tuple[int, int]) -> QMatrix:
        """Matrix of a generator, or of the quadratic Casimir of a root sl(2),
        on the (n, m) weight space; columns follow the source basis order.
        """
        n, m = source
        if n + m > self.spec.depth:
            raise TruncationError(f"weight space {source} lies beyond depth {self.spec.depth}")
        basis = self.weight_space(n, m)
        if isinstance(op, Root):
            dn, dm = op.down_step
            if n + m + dn + dm > self.spec.depth:
                raise TruncationError(
                    f"casimir at {source} needs the ({n + dn}, {m + dm}) space "
                    f"beyond depth {self.spec.depth}"
                )
            target = basis
            images = []
            for exps in basis:
                vec = {exps: Fraction(1)}
                down_up = self.apply_gen(op.raising, self.apply_gen(op.lowering, vec))
                up_down = self.apply_gen(op.lowering, self.apply_gen(op.raising, vec))
                img = dict(down_up)
                for e, c in up_down.items():
                    img[e] = img.get(e, Fraction(0)) + c
                images.append({e: c for e, c in img.items() if c})
            label = f"casimir({op.value})"
        else:
            dn, dm = _WEIGHT_STEP[op]
            tn, tm = n + dn, m + dm
            if tn + tm > self.spec.depth:
                raise TruncationError(
                    f"target space ({tn}, {tm}) lies beyond depth {self.spec.depth}"
                )
            target = self.weight_space(tn, tm)
            images = [self.apply_gen(op, {exps: Fraction(1)}) for exps in basis]
            label = op.value
        cols = [self._coords(img, target, label) for img in images]
        data = [cols[j][i] for i in range(len(target)) for j in range(len(basis))]
        return QMatrix(len(target), len(basis), data)

    # -- characters ----------------------------------------------------------

    def character_bruteforce(self, t_bound: int) -> FormalSeries:
        """Sum of t1^(h1-L1) t2^(h2-L2) over the PBW basis, windowed at
        |t-degree| <= t_bound (weights recorded relative to the highest one).
        """
        window = Window(0, 0, t_bound)
        terms: dict[Monomial, Fraction] = {}
        for n in range(t_bound + 1):
            for m in range(t_bound + 1):
                d = self.dim(n, m)
                if not d:
                    continue
                mono = Monomial(ExponentForm(0, 0, 0), m - 2 * n, n - 2 * m)
                if window.contains(mono):
                    terms[mono] = terms.get(mono, Fraction(0)) + d
        return FormalSeries(terms, window)
