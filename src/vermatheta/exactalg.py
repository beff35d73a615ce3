"""Exact linear algebra over arbitrary-precision rationals: dense
elimination, and the nullities of scalar shifts, which an unreduced
tridiagonal matrix gives by a determinant recurrence instead.

A ``QMatrix`` holds integer numerators over one positive common denominator,
so elimination runs on the numerators directly: scaling by a positive
constant changes neither rank nor null space.  A scalar shift is likewise an
integer numerator over the matrix's denominator, and null-space vectors are
integral, so nothing here builds a ``fractions.Fraction`` except ``rat``,
which parses user input.  Elimination is fraction-free (Bareiss), with the
pivot always the first nonzero entry scanning top to bottom, so results are
deterministic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import UsageError, shown


#: The most digits a parsed numerator or denominator may have, and the largest
#: exponent a parsed string may carry: the interpreter's default limit on
#: int-string conversion, so every accepted value prints in a report.
MAX_DIGITS = 4300

_EXPONENT = re.compile(r"e([-+]?[\d_]+)\Z", re.IGNORECASE)


def rat(value) -> Fraction:
    """Parse a rational from an int, Fraction or a string like '7/3' or '1e-3';
    an exponent past ``MAX_DIGITS`` is refused before it is expanded."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        exponent = _EXPONENT.search(text)
        try:
            q = None if exponent and abs(int(exponent[1])) > MAX_DIGITS else Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            if q is not None and max(abs(q.numerator), q.denominator) < 10**MAX_DIGITS:
                return q
            raise UsageError(f"{shown(value)} is past the limit of {MAX_DIGITS} digits")
    raise UsageError(f"cannot interpret {shown(value)} as an exact rational")


class QMatrix:
    """Immutable dense rational matrix: integer numerators ``num``
    (row-major) over one positive common denominator ``den``."""

    __slots__ = ("rows", "cols", "num", "den")

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def from_integers(cls, rows: int, cols: int, num, den: int = 1) -> "QMatrix":
        """The matrix with integer numerators ``num`` (row-major) over ``den``."""
        num = tuple(num)
        if len(num) != rows * cols:
            raise UsageError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(num)}")
        if den <= 0:
            raise UsageError("matrix denominator must be positive")
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "num", num)
        object.__setattr__(m, "den", den)
        return m


def mat_scalar_shift(a: QMatrix, shift: int) -> QMatrix:
    """Return a - (shift / a.den)*I for a square matrix a: the shift is an
    integer numerator over the matrix's own denominator, so only the
    diagonal numerators change."""
    if a.rows != a.cols:
        raise UsageError("scalar shift needs a square matrix")
    if not isinstance(shift, int):
        raise UsageError(f"scalar shift must be an integer numerator, got {shift!r}")
    num = list(a.num)
    for i in range(0, a.rows * a.cols, a.cols + 1):
        num[i] -= shift
    return QMatrix.from_integers(a.rows, a.cols, num, a.den)


def _numerator_rows(m: QMatrix) -> list[list[int]]:
    """The numerators row by row; none for a matrix with no columns."""
    num, cols = m.num, m.cols
    return [list(num[i : i + cols]) for i in range(0, m.rows * cols, cols or 1)]


def _echelon(rows: list[list[int]]) -> list[int]:
    """Fraction-free in-place row reduction; returns the pivot columns."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivot_cols = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][c]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            row_i = rows[i]
            row_r = rows[r]
            for j in range(c, ncols):
                row_i[j] = (p * row_i[j] - f * row_r[j]) // prev
        prev = p
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def rank(m: QMatrix) -> int:
    return len(_echelon(_numerator_rows(m)))


def _tridiagonal(a: QMatrix):
    """(diagonal, products) of an unreduced tridiagonal ``a`` of one or more
    rows: its diagonal numerators and each product a[k-1][k] * a[k][k-1],
    none zero; None for any other matrix."""
    d = a.rows
    if not d or a.cols != d:
        return None
    num = a.num
    products = [num[(k - 1) * d + k] * num[k * d + k - 1] for k in range(1, d)]
    if not all(products):
        return None
    for i in range(d):
        row = i * d
        if any(num[row : row + max(i - 1, 0)]) or any(num[row + i + 2 : row + d]):
            return None
    return num[:: d + 1], products


def nullities(a: QMatrix, shifts):
    """Yield dim ker(a - (s / a.den)*I) for each integer numerator s of
    ``shifts``, in order and lazily, for a square matrix a.

    Whether a is unreduced tridiagonal, every entry off its three bands zero
    and every sub- and super-diagonal entry nonzero, is decided once.  If it
    is, delete the first row and the last column of a - s*I: what is left is
    triangular with the sub-diagonal on its diagonal, so the rank is at
    least d - 1, the nullity at most 1, and the nullity is 1 exactly when
    the determinant vanishes.  On the numerators, f_0 = 1,
    f_1 = a[0][0] - s and
    f_(k+1) = (a[k][k] - s) * f_k - a[k-1][k] * a[k][k-1] * f_(k-1)
    give that determinant, f_d, in O(d) integer steps.  Any other matrix
    takes d - rank(a - s*I).
    """
    band = _tridiagonal(a)
    if band is None:
        for s in shifts:
            yield a.cols - rank(mat_scalar_shift(a, s))
        return
    (first, *rest), products = band
    for s in shifts:
        before, det = 1, first - s
        for x, p in zip(rest, products):
            before, det = det, (x - s) * det - p * before
        yield int(det == 0)


def kernel_basis(m: QMatrix) -> list[tuple[int, ...]]:
    """Basis of the right null space, one integral vector per free column.

    Each vector is positive at its free column, zero at the other free
    columns and primitive (its entries have no common factor).  It is solved
    by back substitution in integers: when a pivot p does not divide the sum
    s it must cancel, the whole vector is first scaled by |p| / gcd(s, p).
    Vectors are ordered by free column index.
    """
    rows = _numerator_rows(m)
    pivot_cols = _echelon(rows)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [0] * m.cols
        v[f] = 1
        for i in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[i]
            row = rows[i]
            s = sum(row[j] * v[j] for j in range(pc + 1, m.cols) if v[j])
            if s:
                # scale v by t = |p|/g > 0 so that p divides the scaled sum t*s
                p = row[pc]
                g = gcd(s, p)
                t = abs(p) // g
                if t != 1:
                    v = [x * t for x in v]
                v[pc] = -(s // g) if p > 0 else s // g
        content = gcd(*v)
        basis.append(tuple(x // content for x in v) if content != 1 else tuple(v))
    return basis
