"""Formal Laurent series in q, t1, t2 with affine q-exponents.

A q-exponent is an affine form c0 + c1*L1 + c2*L2 in the two highest-weight
parameters, stored as the integer triple (c0, c1, c2).  A monomial is a
q-exponent together with integer powers of the regularization variables t1,
t2.  A series is a finitely supported rational-coefficient sum of monomials,
exact on an explicit comparison window.

Window semantics: a monomial is kept iff 0 <= c1 <= B, 0 <= c2 <= B,
-D <= c0 <= +D and |t1|, |t2| <= T.  The constant bound is symmetric so that
every non-unit monomial escapes the window under iterated powers.

For modules whose second weight parameter is a fixed nonnegative integer, the
convention throughout the package is to fold that integer into c0, so those
series always have c2 = 0.  Series that track weights multiplicatively in
(t1, t2) record them relative to the highest weight, i.e. the global factor
t1^L1 t2^L2 is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import UsageError


class ExponentForm(NamedTuple):
    c0: int
    c1: int
    c2: int

    def __add__(self, other):
        return ExponentForm(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def scaled(self, k: int) -> "ExponentForm":
        return ExponentForm(self.c0 * k, self.c1 * k, self.c2 * k)

    def evaluate(self, l1: Fraction, l2: Fraction) -> Fraction:
        return Fraction(self.c0) + self.c1 * l1 + self.c2 * l2


EXP_ZERO = ExponentForm(0, 0, 0)


class Monomial(NamedTuple):
    qexp: ExponentForm
    t1: int
    t2: int

    def __mul__(self, other):
        return Monomial(self.qexp + other.qexp, self.t1 + other.t1, self.t2 + other.t2)

    def power(self, k: int) -> "Monomial":
        return Monomial(self.qexp.scaled(k), self.t1 * k, self.t2 * k)

    def inverse(self) -> "Monomial":
        return self.power(-1)

    def sort_key(self):
        c0, c1, c2 = self.qexp
        return (c1, c2, -c0, self.t1, self.t2)


MONO_ONE = Monomial(EXP_ZERO, 0, 0)


def qpow(form: ExponentForm) -> Monomial:
    """The monomial q^form."""
    return Monomial(form, 0, 0)


def tmono(t1: int, t2: int) -> Monomial:
    return Monomial(EXP_ZERO, t1, t2)


@dataclass(frozen=True)
class Window:
    B: int  # cap on |lambda1|, |lambda2| coefficients: 0 <= c1, c2 <= B
    D: int  # cap on the constant part: -D <= c0 <= D
    T: int  # cap on regularization degrees: |t1|, |t2| <= T

    def __post_init__(self):
        if self.B < 0 or self.D < 0 or self.T < 0:
            raise UsageError("window bounds must be nonnegative")

    def contains(self, mono: Monomial) -> bool:
        c0, c1, c2 = mono.qexp
        return (
            0 <= c1 <= self.B
            and 0 <= c2 <= self.B
            and -self.D <= c0 <= self.D
            and abs(mono.t1) <= self.T
            and abs(mono.t2) <= self.T
        )

    def intersect(self, other: "Window") -> "Window":
        return Window(min(self.B, other.B), min(self.D, other.D), min(self.T, other.T))

    def covers(self, other: "Window") -> bool:
        return self.B >= other.B and self.D >= other.D and self.T >= other.T

    def as_dict(self) -> dict:
        return {"B": self.B, "D": self.D, "T": self.T}


class Comparison(NamedTuple):
    """Outcome of an exact windowed comparison."""

    passed: bool
    monomial: Monomial | None
    left: Fraction | None
    right: Fraction | None


class FormalSeries:
    """Finitely supported map Monomial -> Fraction, exact on ``window``."""

    __slots__ = ("terms", "window")

    def __init__(self, terms, window: Window):
        pruned = {}
        for mono, coeff in terms.items() if isinstance(terms, dict) else terms:
            coeff = Fraction(coeff)
            if coeff and window.contains(mono):
                pruned[mono] = pruned.get(mono, Fraction(0)) + coeff
        object.__setattr__(self, "terms", {m: c for m, c in pruned.items() if c})
        object.__setattr__(self, "window", window)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSeries is immutable")

    @classmethod
    def zero(cls, window: Window) -> "FormalSeries":
        return cls({}, window)

    def coeff(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def iter_sorted(self):
        return ((m, self.terms[m]) for m in sorted(self.terms, key=Monomial.sort_key))

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, FormalSeries)
            and self.window == other.window
            and self.terms == other.terms
        )

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        window = self.window.intersect(other.window)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return FormalSeries(out, window)

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return self + other.scale(-1)

    def scale(self, coeff) -> "FormalSeries":
        coeff = Fraction(coeff)
        return FormalSeries({m: c * coeff for m, c in self.terms.items()}, self.window)

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        # products landing outside the window are dropped; when supports lie
        # in a cone the window truncates monotonically (e.g. c0 <= 0 only),
        # dropped terms can never re-enter and multiplication associates
        window = self.window.intersect(other.window)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                if window.contains(m):
                    out[m] = out.get(m, Fraction(0)) + c1 * c2
        return FormalSeries(out, window)

    def equal_on(self, other: "FormalSeries", window: Window) -> Comparison:
        """Exact comparison; reports the canonically first differing monomial."""
        if not (self.window.covers(window) and other.window.covers(window)):
            raise UsageError("comparison window exceeds a series' exactness window")
        monos = set(self.terms) | set(other.terms)
        for mono in sorted(monos, key=Monomial.sort_key):
            if not window.contains(mono):
                continue
            left = self.coeff(mono)
            right = other.coeff(mono)
            if left != right:
                return Comparison(False, mono, left, right)
        return Comparison(True, None, None, None)

    def substitute_lambda(self, l1, l2) -> dict[tuple[Fraction, int, int], Fraction]:
        """Evaluate q-exponents at exact (l1, l2); colliding terms are summed."""
        l1 = Fraction(l1)
        l2 = Fraction(l2)
        out: dict[tuple[Fraction, int, int], Fraction] = {}
        for mono, coeff in self.terms.items():
            key = (mono.qexp.evaluate(l1, l2), mono.t1, mono.t2)
            out[key] = out.get(key, Fraction(0)) + coeff
        return {k: v for k, v in out.items() if v}

    def to_records(self) -> list[dict]:
        records = []
        for mono, coeff in self.iter_sorted():
            c0, c1, c2 = mono.qexp
            records.append(
                {
                    "c0": c0,
                    "c1": c1,
                    "c2": c2,
                    "t1": mono.t1,
                    "t2": mono.t2,
                    "num": coeff.numerator,
                    "den": coeff.denominator,
                }
            )
        return records

    def __repr__(self):
        return f"FormalSeries({len(self.terms)} terms on {self.window})"

