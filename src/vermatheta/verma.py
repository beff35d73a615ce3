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

Straightening lives in ``Straightener``, one per module structure (the kind
and ``ModuleSpec.cap``: the parabolic module's integral L2, which caps E32,
or None for the Borel module) and one set of Cartan values.  It caches each
generator's image of each PBW monomial in one dict per generator index (its
position in ``Gen``), keyed by the exponent triple.  There are two kinds:

* A weight-bound straightener works at one highest weight, held as integers
  (p1, p2) over the weight denominator ``denom``; a cached coefficient of a
  generator is an integer over that generator's scale (see
  ``Straightener.__init__``).  A module at a single weight (``branch``,
  ``spectrum``, ``character``) owns one: one weight has nothing to share,
  and packed ints cost it more time and memory than its small ones.
* A packed straightener works at a symbolic weight.  The raising and Cartan
  generators' coefficients are affine in (L1, L2), and the lowering ones'
  are integers, so a coefficient c0 + c1*L1 + c2*L2 is held as the one int
  c0 + c1*2^64 + c2*2^192: each ci is a balanced 64-bit digit, in slots 0,
  1 and 3.  A product of two nonconstant forms lands in an empty slot (L1^2
  in slot 2, L1*L2 in slot 4, L2^2 in slot 6), and ``unpack`` refuses a
  nonzero empty slot, so affinity is checked, not assumed.  The parabolic
  ``cap`` stays the integer it is and is folded into c0, as ``h_form`` does.
  The sample modules of a trace, one per weight sample in each pipeline, share
  the one packed straightener of their structure.  It keeps each operator
  matrix once, as the row-major list of its entries' affine forms that every
  sample evaluates at its own weight; only ``VermaModule`` reads them.
  ``shared_straightener`` keeps the last one alive, so the two pipelines of a
  trace and consecutive traces of one structure reuse it; a trace of another
  structure drops it.

A module holds its highest weight as integers over ``denom``, and
``numerator`` evaluates an affine form there to an integer over it;
``operator_matrix`` builds its matrix as integer numerators over one
denominator, so the pipelines never build a Fraction and their series have
int coefficients.  Fractions are built only at the edges: ``ModuleSpec`` and
the genericity guard hold the weight as Fractions, ``apply_gen`` returns
them for callers outside the pipelines, and reports print eigenvalues
through them.

The highest-weight parameters are substituted as exact rationals before any
matrix is formed; genericity is certified by the guard below and by
re-running structural checks at several guard-passing weights.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .errors import GenericityError, TruncationError, UsageError, VerificationError, shown
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


_GEN_INDEX = {g: i for i, g in enumerate(Gen)}

# [g, h] by generator index, as ((integer coefficient, generator index), ...)
_COMMUTATORS = tuple(
    tuple(tuple((c, _GEN_INDEX[x]) for c, x in commutator(g, h)) for h in Gen) for g in Gen
)

class Root(Enum):
    A12 = ("12", Gen.E12, Gen.E21, (1, 0))
    A23 = ("23", Gen.E23, Gen.E32, (0, 1))
    A13 = ("13", Gen.E13, Gen.E31, (1, 1))

    def __new__(cls, label: str, raising: Gen, lowering: Gen, down_step: tuple[int, int]):
        member = object.__new__(cls)
        member._value_ = label
        member.raising, member.lowering, member.down_step = raising, lowering, down_step
        return member


# weight step of each generator in (n, m) coordinates: a lowering letter steps
# down its root, a raising one back up, and a Cartan stays put
_WEIGHT_STEP = {
    Gen.H12: (0, 0),
    Gen.H23: (0, 0),
    **{r.lowering: r.down_step for r in Root},
    **{r.raising: (-r.down_step[0], -r.down_step[1]) for r in Root},
}


BOREL = "borel"
PARABOLIC = "parabolic"


class _SpecFields(NamedTuple):
    kind: str
    lambda1: Fraction
    lambda2: Fraction
    depth: int


class ModuleSpec(_SpecFields):
    """A module kind, its highest weight (L1, L2) as Fractions and its depth."""

    __slots__ = ()

    def __new__(cls, kind: str, lambda1, lambda2, depth: int):
        if kind not in (BOREL, PARABOLIC):
            raise UsageError(f"unknown module kind {shown(kind)}")
        lambda1, lambda2 = Fraction(lambda1), Fraction(lambda2)
        if depth < 0:
            raise UsageError("depth must be nonnegative")
        if kind == PARABOLIC and (lambda2.denominator != 1 or lambda2 < 0):
            raise UsageError("parabolic modules need lambda2 a nonnegative integer")
        return super().__new__(cls, kind, lambda1, lambda2, depth)

    @property
    def cap(self) -> int | None:
        """The parabolic module's integral L2, which caps the E32 exponent;
        None for the Borel module."""
        return int(self.lambda2) if self.kind == PARABOLIC else None

    def with_depth(self, depth: int) -> "ModuleSpec":
        return ModuleSpec(self.kind, self.lambda1, self.lambda2, depth)

    def with_weight(self, l1, l2) -> "ModuleSpec":
        return ModuleSpec(self.kind, l1, l2, self.depth)


def guard_band(depth: int) -> int:
    """The genericity guard's band at ``depth``: it avoids integers in [-band, band]."""
    return 3 * depth + 3


def genericity_guard(l1, l2, depth: int, kind: str = BOREL) -> bool:
    """True when no ladder coefficient of the form (weight + integer) can
    vanish at the given depth.

    The avoidance set is the integers in ``guard_band``, applied to L1, L2
    and L1+L2 for the Borel module and to L1 alone for the parabolic module
    (whose L2 is integral by construction).
    """
    l1, l2 = Fraction(l1), Fraction(l2)
    bound = guard_band(depth)

    def hits(x: Fraction) -> bool:
        return x.denominator == 1 and -bound <= x <= bound

    if kind == BOREL:
        return not (hits(l1) or hits(l2) or hits(l1 + l2))
    if kind == PARABOLIC:
        if l2.denominator != 1 or l2 < 0:
            return False
        return not hits(l1)
    raise UsageError(f"unknown module kind {kind!r}")


def check_genericity(spec: ModuleSpec) -> None:
    """Raise GenericityError when ``spec``'s weight fails the guard at its depth."""
    if not genericity_guard(spec.lambda1, spec.lambda2, spec.depth, spec.kind):
        raise GenericityError(
            f"weight ({spec.lambda1}, {spec.lambda2}) fails the genericity guard for the "
            f"{spec.kind} module at depth {spec.depth}; pick a non-integral weight"
        )


def h_form(cap: int | None, root: Root, n: int, m: int) -> ExponentForm:
    """h-value of the (n, m) weight space along ``root`` as an affine form:
    h1 = (m - 2n) + L1, h2 = (n - 2m) + L2, and h1 + h2 for root 13.

    A parabolic ``cap``, the module's integral L2, is folded into the
    constant part, so parabolic forms always have c2 = 0; the Borel module
    has ``cap`` None and keeps L2 symbolic.
    """
    h1, h2 = ExponentForm(m - 2 * n, 1, 0), ExponentForm(n - 2 * m, 0, 1)
    c0, c1, c2 = h1 if root is Root.A12 else h2 if root is Root.A23 else h1 + h2
    if cap is not None:
        c0, c2 = c0 + c2 * cap, 0
    return ExponentForm(c0, c1, c2)


#: The PBW letters of each module kind, leftmost first.
_LETTERS = {BOREL: (Gen.E21, Gen.E32, Gen.E31), PARABOLIC: (Gen.E21, Gen.E31, Gen.E32)}

# The packed point: L1 and L2 in slots 1 and 3 of 64 bits each (see the
# module docstring).  Every |ci| < 2^63 holds with room to spare: the
# coefficients grow about cubically with depth, and over every generator
# and root Casimir on every space the largest has 14 bits (Borel, depth
# 40), 16 bits (Borel, depth 70) and 12 bits (parabolic L2 2, depth 60),
# so about 2^20 at the depth cap of 150.
_SLOT = 64
_PACKED_L1, _PACKED_L2 = 1 << _SLOT, 1 << 3 * _SLOT
_HALF, _DIGIT = 1 << _SLOT - 1, (1 << _SLOT) - 1


def unpack(packed: int) -> ExponentForm:
    """The affine form c0 + c1*L1 + c2*L2 a packed coefficient holds; a
    nonzero empty slot is a coefficient that is not affine in the weight."""
    if -_HALF <= packed < _HALF:  # a constant, such as every lowering coefficient
        return ExponentForm(packed, 0, 0)
    digits = []
    for _ in range(4):
        digit = ((packed + _HALF) & _DIGIT) - _HALF
        digits.append(digit)
        packed = (packed - digit) >> _SLOT
    c0, c1, empty, c2 = digits
    if empty or packed:
        raise VerificationError("a straightened coefficient is not affine in the weight")
    return ExponentForm(c0, c1, c2)


class Straightener:
    """PBW straightening for one module structure, the kind and the
    parabolic ``cap`` on E32, with the Cartans acting on v by ``hw``.

    A weight-bound straightener has ``hw`` the numerators (p1, p2) of one
    weight over ``denom``.  A packed one has ``hw`` the packed point and
    ``denom`` 1, so its coefficients are the affine forms themselves, and
    it keeps the operator matrices that modules assemble on it.
    """

    def __init__(self, kind: str, cap: int | None, hw: tuple, denom: int, packed: bool = False):
        letters = _LETTERS[kind]
        self._letters = tuple(_GEN_INDEX[g] for g in letters)
        # PBW position of each generator index; None for the Cartans and raisings
        self._pos = tuple(letters.index(g) if g in letters else None for g in Gen)
        # a cached coefficient c of generator g stands for c / scale[g]; lowering
        # letters commute only into lowering letters, so their scale stays 1
        self._scale = tuple(1 if g in letters else denom for g in Gen)
        cartan = {Gen.H12: hw[0], Gen.H23: hw[1]}
        self._hw = tuple(cartan.get(g, 0) for g in Gen)
        self._cap = cap
        self._cache = tuple({} for _ in Gen)
        #: operator matrices by (op, n, m), each the row-major list of its
        #: entries' affine forms as ``unpack`` gives them; None unless packed
        self.matrices = {} if packed else None

    def image(self, g: int, exps: tuple) -> dict:
        """Generator index ``g`` times the PBW monomial ``exps``, as
        {exponents: integer coefficient over ``self._scale[g]``}.

        Unless g is a PBW letter at or left of the leading letter x, it commutes
        past x: g x r = x (g r) + [g, x] r.  The chain of peeled monomials r is
        filled bottom-up, so the stack grows with commutator nesting only."""
        cache = self._cache[g]
        pos = self._pos[g]
        chain = []
        e = exps
        while e not in cache:
            a, b, c = e
            lead = 0 if a else 1 if b else 2 if c else None
            if pos is not None and (lead is None or pos <= lead):
                if pos == 2 and self._cap is not None and c >= self._cap:
                    cache[e] = {}
                else:
                    cache[e] = {(a + (pos == 0), b + (pos == 1), c + (pos == 2)): 1}
            elif lead is None:
                hw = self._hw[g]  # a Cartan acts on v by its weight; a raising kills v
                cache[e] = {e: hw} if hw else {}
            else:
                rest = (a - 1, b, c) if lead == 0 else (0, b - 1, c) if lead == 1 else (0, 0, c - 1)
                chain.append((e, rest, self._letters[lead]))
                e = rest
        comm = _COMMUTATORS[g]
        scale = self._scale
        for e, rest, x in reversed(chain):
            x_cache = self._cache[x]
            acc: dict = {}
            for w2, c2 in cache[rest].items():
                sub = x_cache.get(w2)
                if sub is None:
                    sub = self.image(x, w2)
                for w3, c3 in sub.items():
                    acc[w3] = acc.get(w3, 0) + c2 * c3
            for coeff, gi in comm[x]:
                coeff = coeff * scale[g] // scale[gi]
                for w3, c3 in self.image(gi, rest).items():
                    acc[w3] = acc.get(w3, 0) + coeff * c3
            cache[e] = {w: v for w, v in acc.items() if v}
        return cache[exps]

    def act(self, g: int, element: dict) -> dict:
        """Generator index ``g`` on an integer combination of PBW monomials,
        with coefficients as ``image`` gives them."""
        cache = self._cache[g]
        out: dict = {}
        for exps, coeff in element.items():
            image = cache.get(exps)
            if image is None:
                image = self.image(g, exps)
            for e2, c in image.items():
                out[e2] = out.get(e2, 0) + coeff * c
        return {e: c for e, c in out.items() if c}


@lru_cache(maxsize=1)
def shared_straightener(kind: str, cap: int | None) -> Straightener:
    """The packed straightener of a module structure.  Only the last one
    asked for stays alive, so the two pipelines of a trace, and consecutive
    traces of one structure, reuse it."""
    return Straightener(kind, cap, (_PACKED_L1, _PACKED_L2 if cap is None else cap), 1, packed=True)


def _label(op) -> str:
    """An operator's name in messages: a generator, or a root's Casimir."""
    return f"casimir({op.value})" if isinstance(op, Root) else op.value


class VermaModule:
    """Weight-space bookkeeping and operator matrices for one module at one
    highest weight, straightened by a weight-bound straightener of its own
    or, when ``shared``, by the packed one of its structure."""

    def __init__(self, spec: ModuleSpec, shared: bool = False):
        check_genericity(spec)
        self.spec = spec
        # the highest weight (L1, L2) = (p1, p2) / denom, denom = lcm(den L1, den L2)
        l1, l2 = spec.lambda1, spec.lambda2
        self.denom = lcm(l1.denominator, l2.denominator)
        self._p1 = l1.numerator * (self.denom // l1.denominator)
        self._p2 = l2.numerator * (self.denom // l2.denominator)
        # the denominator of each generator's coefficients at this weight
        self._scale = tuple(1 if g in _LETTERS[spec.kind] else self.denom for g in Gen)
        # a plain attribute, as ``dim`` reads it on every call
        self.cap = spec.cap
        if shared:
            self.straightener = shared_straightener(spec.kind, self.cap)
        else:
            self.straightener = Straightener(spec.kind, self.cap, (self._p1, self._p2), self.denom)

    def numerator(self, form: ExponentForm) -> int:
        """``form`` at this module's highest weight, as an integer over ``denom``."""
        return form.c0 * self.denom + form.c1 * self._p1 + form.c2 * self._p2

    # -- PBW monomials -------------------------------------------------------

    def weight_space(self, n: int, m: int) -> tuple:
        """Ordered PBW basis of the (n, m) weight space."""
        if n < 0 or m < 0:
            return ()
        basis = []
        if self.cap is None:
            for c in range(min(n, m) + 1):
                basis.append((n - c, m - c, c))
        else:
            for c in range(min(n, m), max(0, m - self.cap) - 1, -1):
                basis.append((n - c, c, m - c))
        return tuple(basis)

    def dim(self, n: int, m: int) -> int:
        """Size of ``weight_space(n, m)``, counted without building it."""
        if n < 0 or m < 0:
            return 0
        if self.cap is None:
            return min(n, m) + 1
        return max(0, min(n, m) - max(0, m - self.cap) + 1)

    def apply_gen(self, g: Gen, element: dict) -> dict:
        """Act by a generator on a rational combination of PBW monomials."""
        gi = _GEN_INDEX[g]
        image = self.straightener.image
        packed = self.straightener.matrices is not None
        out: dict = {}
        for exps, coeff in element.items():
            for e, c in image(gi, exps).items():
                value = (Fraction(self.numerator(unpack(c)), self.denom) if packed
                         else Fraction(c, self._scale[gi]))
                out[e] = out.get(e, 0) + coeff * value
        return {e: c for e, c in out.items() if c}

    # -- operator matrices ---------------------------------------------------

    def operator_matrix(self, op, source: tuple[int, int]) -> QMatrix:
        """Matrix of a generator, or of the quadratic Casimir of a root sl(2),
        on the (n, m) weight space; columns follow the source basis order.
        """
        n, m = source
        if isinstance(op, Root):  # lowers, then raises back: one root step below the source
            (dn, dm), target = op.down_step, source
            den = self._scale[_GEN_INDEX[op.raising]] * self._scale[_GEN_INDEX[op.lowering]]
        else:
            dn, dm = _WEIGHT_STEP[op]
            target = (n + dn, m + dm)
            den = self._scale[_GEN_INDEX[op]]
        # the deepest space the operator touches: its source or one step below
        if n + m + max(0, dn + dm) > self.spec.depth:
            raise TruncationError(f"{_label(op)} on the weight space {source} reaches past "
                                  f"depth {self.spec.depth}")
        shape = self.dim(*target), self.dim(n, m)
        matrices = self.straightener.matrices
        if matrices is None:
            return QMatrix.from_integers(*shape, self._assemble(op, source, target), den)
        forms = matrices.get((op, n, m))
        if forms is None:
            forms = matrices[op, n, m] = [unpack(c) for c in self._assemble(op, source, target)]
        if den == self.denom:
            p1, p2 = self._p1, self._p2
            num = [c0 * den + c1 * p1 + c2 * p2 for c0, c1, c2 in forms]
        else:  # a lowering letter, whose coefficients are integers
            num = [c0 for c0, _, _ in forms]
        return QMatrix.from_integers(*shape, num, den)

    def weight_free(self, op, n: int, m: int) -> bool:
        """True when the packed straightener holds ``op``'s matrix on (n, m)
        and no entry depends on the weight, every c1 and c2 zero, so every
        weight sample poses the same problem, scaled by its ``denom``.  False
        for a weight-bound module, which keeps no coefficients."""
        forms = (self.straightener.matrices or {}).get((op, n, m))
        return forms is not None and not any(c1 or c2 for _, c1, c2 in forms)

    def diagonal_forms(self, op, n: int, m: int) -> list | None:
        """The diagonal of ``op``'s affine matrix on (n, m), when the packed
        straightener holds it square, upper or lower triangular, with
        pairwise distinct diagonal forms: then they are its eigenvalues, each
        of multiplicity 1, at every weight where their values stay distinct.
        None otherwise.  The orientation is decided on the matrix itself; a
        diagonal matrix is both."""
        forms, d = (self.straightener.matrices or {}).get((op, n, m)), self.dim(n, m)
        if forms is None or len(forms) != d * d:
            return None
        nonzero = [divmod(k, d) for k, form in enumerate(forms) if any(form)]
        if any(i < j for i, j in nonzero) and any(i > j for i, j in nonzero):
            return None
        diagonal = forms[::d + 1]
        return diagonal if len(set(diagonal)) == d else None

    def _assemble(self, op, source: tuple[int, int], target: tuple[int, int]) -> list:
        """The straightener's coefficients of ``op`` from the source space to
        the target space, as a row-major list."""
        basis = self.weight_space(*source)
        act = self.straightener.act
        if isinstance(op, Root):
            up, down = _GEN_INDEX[op.raising], _GEN_INDEX[op.lowering]
            images = []
            for exps in basis:
                vec = {exps: 1}
                img = act(up, act(down, vec))
                for e, c in act(down, act(up, vec)).items():
                    img[e] = img.get(e, 0) + c
                images.append(img)
        else:
            gi = _GEN_INDEX[op]
            images = [act(gi, {exps: 1}) for exps in basis]
        index = {exps: i for i, exps in enumerate(self.weight_space(*target))}
        cols = len(basis)
        num = [0] * (len(index) * cols)
        for j, img in enumerate(images):
            for e, c in img.items():
                i = index.get(e)
                if i is None:
                    raise VerificationError(f"straightened term left its weight space in {_label(op)}")
                num[i * cols + j] = c
        return num

    # -- characters ----------------------------------------------------------

    def character_bruteforce(self, t_bound: int) -> FormalSeries:
        """Sum of t1^(h1-L1) t2^(h2-L2) over the PBW basis, windowed at
        |t-degree| <= t_bound (weights recorded relative to the highest one).
        """
        pairs = ((Monomial(ExponentForm(0, 0, 0), m - 2 * n, n - 2 * m), self.dim(n, m))
                 for n in range(t_bound + 1) for m in range(t_bound + 1))
        return FormalSeries(pairs, Window(0, 0, t_bound))
