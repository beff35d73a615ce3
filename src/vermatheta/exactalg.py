"""Exact dense linear algebra over arbitrary-precision rationals.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator).  Elimination is fraction-free: each row is scaled to integers
and reduced Bareiss-style, with the pivot always the first nonzero entry
scanning top to bottom, so results are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import UsageError


def rat(value) -> Fraction:
    """Parse a rational from an int, Fraction or a string like '7/3'."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(f"cannot interpret {value!r} as an exact rational")


class QMatrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        data = tuple(Fraction(x) for x in data)
        if len(data) != rows * cols:
            raise UsageError(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise UsageError("ragged rows")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"


def mat_scalar_shift(a: QMatrix, c) -> QMatrix:
    """Return a - c*I for a square matrix a."""
    if a.rows != a.cols:
        raise UsageError("scalar shift needs a square matrix")
    c = Fraction(c)
    data = list(a.data)
    for i in range(a.rows):
        data[i * a.cols + i] -= c
    return QMatrix(a.rows, a.cols, data)


def _integer_rows(m: QMatrix) -> list[list[int]]:
    # Row scaling by a positive integer changes neither rank nor null space.
    rows = []
    for i in range(m.rows):
        entries = m.row(i)
        scale = lcm(*(x.denominator for x in entries)) if entries else 1
        rows.append([int(x * scale) for x in entries])
    return rows


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
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(_echelon(_integer_rows(m)))


def kernel_basis(m: QMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space, one vector per free column.

    Each vector has value 1 at its free column and is solved exactly by
    back substitution; vectors are ordered by free column index.
    """
    if m.cols == 0:
        return []
    if m.rows == 0:
        basis = []
        for f in range(m.cols):
            v = [Fraction(0)] * m.cols
            v[f] = Fraction(1)
            basis.append(tuple(v))
        return basis
    rows = _integer_rows(m)
    pivot_cols = _echelon(rows)
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[i]
            s = sum((Fraction(rows[i][j]) * v[j] for j in range(pc + 1, m.cols)), Fraction(0))
            v[pc] = -s / rows[i][pc]
        basis.append(tuple(v))
    return basis
