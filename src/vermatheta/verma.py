"""sl(3) Borel and parabolic Verma modules over exact rationals.

Conventions
-----------
Generators are the matrix units E_ij (i != j) together with the Cartan
elements h1 = E11 - E22 and h2 = E22 - E33.

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

The action
----------
Every generator maps a PBW monomial to at most two monomials, with
coefficients affine in (L1, L2).  ``action`` reads them off two tables,
derived once from the commutation rule [E_ij, E_kl] = d_jk E_il - d_li E_kj
by moving the generator rightwards to v, which a raising generator kills
and a Cartan scales by its weight.  On the Borel module, (a, b, c) goes to:

    E21  (a+1, b, c)
    E31  (a, b, c+1)
    E32  (a, b+1, c) + a (a-1, b, c+1)
    E12  a(L1 - a + b - c + 1) (a-1, b, c) - c (a, b+1, c-1)
    E23  b(L2 - b + 1) (a, b-1, c) + c (a+1, b, c-1)
    E13  c(L1 + L2 - a - b - c + 1) (a, b, c-1) - ab(L2 - b + 1) (a-1, b-1, c)
    H12  (L1 - 2a + b - c) (a, b, c);  H23  (L2 + a - 2b - c) (a, b, c)

On the parabolic module, with the cap k = L2, (a, c, i) goes to:

    E21  (a+1, c, i)
    E31  (a, c+1, i)
    E32  (a, c, i+1) + a (a-1, c+1, i)
    E12  a(L1 - a - c + i + 1) (a-1, c, i) - c (a, c-1, i+1)
    E23  c (a+1, c-1, i) + i(k - i + 1) (a, c, i-1)
    E13  c(L1 + k - a - c - i + 1) (a, c-1, i) - a i(k - i + 1) (a-1, c, i-1)
    H12  (L1 - 2a - c + i) (a, c, i);  H23  (k + a - c - 2i) (a, c, i)

A term whose exponent would go negative or pass the cap is dropped.  The
cap stays the integer it is and is folded into c0, as ``h_form`` does, so
parabolic forms have c2 = 0.  The lowering letters E21, E31 and E32 have
integer coefficients on either kind.

A module at a single weight (``branch``, ``spectrum``, ``character``)
evaluates each matrix at its weight and keeps nothing: one weight has
nothing to share.  The sample modules of a trace, one per weight sample in
each pipeline, share ``shared_forms`` of their structure (the parabolic cap,
or None for the Borel module).  It keeps each operator matrix once, as the
row-major list of its entries' affine forms that every sample evaluates at
its own weight; only ``VermaModule`` reads them.  Only the last structure's
forms stay alive, so the two pipelines of a trace and consecutive traces of
one structure reuse them; a trace of another structure drops them.

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

from .errors import GenericityError, TruncationError, UsageError, shown
from .exactalg import QMatrix
from .qseries import ExponentForm, FormalSeries, Monomial, Window


class Gen(Enum):
    # members are singletons, so identity hashing agrees with ==; Enum's own
    # __hash__ is a Python call on every table and matrix-cache lookup
    __hash__ = object.__hash__
    E12 = "E12"
    E23 = "E23"
    E13 = "E13"
    E21 = "E21"
    E32 = "E32"
    E31 = "E31"
    H12 = "H12"
    H23 = "H23"


class Root(Enum):
    __hash__ = object.__hash__  # as Gen's
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
    if root is Root.A12:
        c0, c1, c2 = m - 2 * n, 1, 0
    elif root is Root.A23:
        c0, c1, c2 = n - 2 * m, 0, 1
    else:
        c0, c1, c2 = -n - m, 1, 1
    if cap is None:
        return ExponentForm(c0, c1, c2)
    return ExponentForm(c0 + c2 * cap, c1, 0)


# The action tables.  A coefficient is the affine form (c0, c1, c2), that is
# c0 + c1*L1 + c2*L2; the parabolic tables take the cap k for L2.
_BOREL_ACTION = {
    Gen.E21: lambda a, b, c: (((a + 1, b, c), (1, 0, 0)),),
    Gen.E31: lambda a, b, c: (((a, b, c + 1), (1, 0, 0)),),
    Gen.E32: lambda a, b, c: (((a, b + 1, c), (1, 0, 0)), ((a - 1, b, c + 1), (a, 0, 0))),
    Gen.E12: lambda a, b, c: (((a - 1, b, c), (a * (b - a - c + 1), a, 0)),
                              ((a, b + 1, c - 1), (-c, 0, 0))),
    Gen.E23: lambda a, b, c: (((a, b - 1, c), (b * (1 - b), 0, b)), ((a + 1, b, c - 1), (c, 0, 0))),
    Gen.E13: lambda a, b, c: (((a, b, c - 1), (c * (1 - a - b - c), c, c)),
                              ((a - 1, b - 1, c), (a * b * (b - 1), 0, -a * b))),
    Gen.H12: lambda a, b, c: (((a, b, c), (b - 2 * a - c, 1, 0)),),
    Gen.H23: lambda a, b, c: (((a, b, c), (a - 2 * b - c, 0, 1)),),
}
_PARABOLIC_ACTION = {
    Gen.E21: lambda a, c, i, k: (((a + 1, c, i), (1, 0, 0)),),
    Gen.E31: lambda a, c, i, k: (((a, c + 1, i), (1, 0, 0)),),
    Gen.E32: lambda a, c, i, k: (((a, c, i + 1), (1, 0, 0)), ((a - 1, c + 1, i), (a, 0, 0))),
    Gen.E12: lambda a, c, i, k: (((a - 1, c, i), (a * (i - a - c + 1), a, 0)),
                                 ((a, c - 1, i + 1), (-c, 0, 0))),
    Gen.E23: lambda a, c, i, k: (((a + 1, c - 1, i), (c, 0, 0)),
                                 ((a, c, i - 1), (i * (k - i + 1), 0, 0))),
    Gen.E13: lambda a, c, i, k: (((a, c - 1, i), (c * (k - a - c - i + 1), c, 0)),
                                 ((a - 1, c, i - 1), (-a * i * (k - i + 1), 0, 0))),
    Gen.H12: lambda a, c, i, k: (((a, c, i), (i - 2 * a - c, 1, 0)),),
    Gen.H23: lambda a, c, i, k: (((a, c, i), (k + a - c - 2 * i, 0, 0)),),
}

_ZERO = (0, 0, 0)

#: The lowering letters: their coefficients are integers, on either kind.
_LOWERING = frozenset(r.lowering for r in Root)


def action(cap: int | None, g: Gen, exps: tuple) -> list:
    """The generator ``g`` on the PBW monomial ``exps``, by the table of the
    module with E32 capped at ``cap`` (None for the Borel module): at most
    two (monomial, affine coefficient) terms.  A term whose coefficient is
    zero, or whose exponent would go negative or pass the cap, is dropped."""
    if cap is None:
        return [t for t in _BOREL_ACTION[g](*exps) if any(t[1]) and min(t[0]) >= 0]
    return [t for t in _PARABOLIC_ACTION[g](*exps, cap)
            if any(t[1]) and min(t[0]) >= 0 and t[0][2] <= cap]


@lru_cache(maxsize=1)
def shared_forms(cap: int | None) -> dict:
    """The operator matrices of a module structure's trace samples, by
    (op, n, m), each the row-major list of its entries' affine forms.  Only
    the last structure asked for stays alive, so the two pipelines of a
    trace, and consecutive traces of one structure, reuse it."""
    return {}


def _label(op) -> str:
    """An operator's name in messages: a generator, or a root's Casimir."""
    return f"casimir({op.value})" if isinstance(op, Root) else op.value


class VermaModule:
    """Weight-space bookkeeping and operator matrices for one module at one
    highest weight.  A ``shared`` module, one of a trace's weight samples,
    keeps its matrices' affine forms in ``shared_forms`` of its structure;
    any other keeps nothing."""

    def __init__(self, spec: ModuleSpec, shared: bool = False):
        check_genericity(spec)
        self.spec = spec
        # the highest weight (L1, L2) = (p1, p2) / denom, denom = lcm(den L1, den L2)
        l1, l2 = spec.lambda1, spec.lambda2
        self.denom = lcm(l1.denominator, l2.denominator)
        self._p1 = l1.numerator * (self.denom // l1.denominator)
        self._p2 = l2.numerator * (self.denom // l2.denominator)
        # a plain attribute, as ``dim`` reads it on every call
        self.cap = spec.cap
        self.matrix_forms = shared_forms(self.cap) if shared else None

    def numerator(self, form: ExponentForm) -> int:
        """``form`` at this module's highest weight, as an integer over ``denom``."""
        c0, c1, c2 = form
        return c0 * self.denom + c1 * self._p1 + c2 * self._p2

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
        out: dict = {}
        for exps, coeff in element.items():
            for e, form in action(self.cap, g, exps):
                out[e] = out.get(e, 0) + coeff * Fraction(self.numerator(form), self.denom)
        return {e: c for e, c in out.items() if c}

    # -- operator matrices ---------------------------------------------------

    def operator_matrix(self, op, source: tuple[int, int]) -> QMatrix:
        """Matrix of a generator, or of the quadratic Casimir of a root sl(2),
        on the (n, m) weight space; columns follow the source basis order.
        A lowering letter's matrix is over 1, any other over ``denom``.
        """
        n, m = source
        if isinstance(op, Root):  # lowers, then raises back: one root step below the source
            (dn, dm), target = op.down_step, source
        else:
            dn, dm = _WEIGHT_STEP[op]
            target = (n + dn, m + dm)
        # the deepest space the operator touches: its source or one step below
        if n + m + max(0, dn + dm) > self.spec.depth:
            raise TruncationError(f"{_label(op)} on the weight space {source} reaches past "
                                  f"depth {self.spec.depth}")
        shape = self.dim(*target), self.dim(n, m)
        cache = self.matrix_forms
        forms = None if cache is None else cache.get((op, n, m))
        if forms is None:
            forms = self._forms(op, source, target, shape[0])
            if cache is not None:
                cache[op, n, m] = forms
        if op in _LOWERING:
            return QMatrix.from_integers(*shape, [c0 for c0, _, _ in forms], 1)
        den, p1, p2 = self.denom, self._p1, self._p2
        return QMatrix.from_integers(*shape, [c0 * den + c1 * p1 + c2 * p2 for c0, c1, c2 in forms],
                                     den)

    def weight_free(self, op, n: int, m: int) -> bool:
        """True when this shared module's structure holds ``op``'s matrix on
        (n, m) and no entry depends on the weight, every c1 and c2 zero, so
        every weight sample poses the same problem, scaled by its ``denom``.
        False for a module that is not shared, which keeps no forms."""
        forms = (self.matrix_forms or {}).get((op, n, m))
        return forms is not None and not any(c1 or c2 for _, c1, c2 in forms)

    def diagonal_forms(self, op, n: int, m: int) -> list | None:
        """The diagonal of ``op``'s affine matrix on (n, m), when this shared
        module's structure holds it square, upper or lower triangular, with
        pairwise distinct diagonal forms: then they are its eigenvalues, each
        of multiplicity 1, at every weight where their values stay distinct.
        None otherwise.  The orientation is decided on the matrix itself; a
        diagonal matrix is both."""
        forms, d = (self.matrix_forms or {}).get((op, n, m)), self.dim(n, m)
        if forms is None or len(forms) != d * d:
            return None
        nonzero = [divmod(k, d) for k, form in enumerate(forms) if any(form)]
        if any(i < j for i, j in nonzero) and any(i > j for i, j in nonzero):
            return None
        diagonal = forms[::d + 1]
        return diagonal if len(set(diagonal)) == d else None

    def _forms(self, op, source: tuple[int, int], target: tuple[int, int], rows: int) -> list:
        """``op``'s matrix from the source space to the target space of
        dimension ``rows``, as the row-major list of its entries' affine
        forms, read off the action table.  A Casimir E F + F E passes through
        the spaces one root step below and above the source; one factor of
        each product is a lowering letter's integer, so the product is affine."""
        cap = self.cap
        basis = self.weight_space(*source)
        cols = len(basis)
        forms = [_ZERO] * (rows * cols)
        # bases are ordered by the last exponent, E31's or E32's, so a target
        # monomial's row is that exponent less the first basis element's
        tn, tm = target
        low = 0 if cap is None else max(0, tm - tn)
        for j, exps in enumerate(basis):
            if isinstance(op, Root):
                image: dict = {}
                for first, second in ((op.lowering, op.raising), (op.raising, op.lowering)):
                    for mid, (p0, p1, p2) in action(cap, first, exps):
                        for e, (q0, q1, q2) in action(cap, second, mid):
                            c0, c1, c2 = image.get(e, _ZERO)
                            image[e] = (c0 + p0 * q0, c1 + p0 * q1 + p1 * q0, c2 + p0 * q2 + p2 * q0)
                terms = image.items()
            else:
                terms = action(cap, op, exps)
            for e, form in terms:
                forms[(e[2] - low) * cols + j] = form
        return forms

    # -- characters ----------------------------------------------------------

    def character_bruteforce(self, t_bound: int) -> FormalSeries:
        """Sum of t1^(h1-L1) t2^(h2-L2) over the PBW basis, windowed at
        |t-degree| <= t_bound (weights recorded relative to the highest one).
        """
        pairs = ((Monomial(ExponentForm(0, 0, 0), m - 2 * n, n - 2 * m), self.dim(n, m))
                 for n in range(t_bound + 1) for m in range(t_bound + 1))
        return FormalSeries(pairs, Window(0, 0, t_bound))
