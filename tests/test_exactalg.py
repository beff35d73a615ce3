from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vermatheta import QMatrix, kernel_basis, mat_scalar_shift, rank, rat
from vermatheta.errors import UsageError

F = Fraction


def gauss_rank(rows):
    """Plain Gaussian elimination over Fraction: the independent rank oracle."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_rat_parses_strings_and_numbers():
    assert rat("7/3") == F(7, 3)
    assert rat("-3/7") == F(-3, 7)
    assert rat(4) == F(4)
    for bad in (object(), "abc", "1/0", ""):
        with pytest.raises(UsageError):
            rat(bad)


def test_rank_zero_matrix():
    assert rank(QMatrix.zero(3, 3)) == 0


def test_rank_ones_matrix():
    m = QMatrix.from_rows([[1, 1], [1, 1]])
    assert rank(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(QMatrix.identity(2)) == []


def test_kernel_ones_matrix():
    (v,) = kernel_basis(QMatrix.from_rows([[1, 1], [1, 1]]))
    assert v[0] != 0 and v[1] / v[0] == F(-1)


def test_kernel_vectors_annihilate():
    m = QMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 3 - rank(m)
    for v in basis:
        for i in range(m.rows):
            assert sum(m.entry(i, j) * v[j] for j in range(m.cols)) == 0


def test_scalar_shift_of_identity_is_zero():
    assert mat_scalar_shift(QMatrix.identity(2), 1) == QMatrix.zero(2, 2)


def test_scalar_shift_requires_square():
    with pytest.raises(UsageError):
        mat_scalar_shift(QMatrix.zero(2, 3), 1)


def test_raising_matrix_rank_via_straightening_oracle():
    # E12 from the Borel (1,1) space to (0,1): one singular vector survives
    from vermatheta import BOREL, ModuleSpec, Root, VermaModule

    mod = VermaModule(ModuleSpec(BOREL, F(7, 3), F(5, 7), 6))
    m = mod.operator_matrix(Root.A12.raising, (1, 1))
    assert (m.rows, m.cols) == (1, 2)
    assert rank(m) == 1
    assert len(kernel_basis(m)) == 1


def test_raising_matrix_bijective_below_diagonal():
    from vermatheta import BOREL, ModuleSpec, Root, VermaModule

    mod = VermaModule(ModuleSpec(BOREL, F(7, 3), F(5, 7), 6))
    m = mod.operator_matrix(Root.A12.raising, (2, 1))
    assert kernel_basis(m) == []


def test_casimir_annihilation_product():
    # (kappa13 - 22/21) (kappa13 - 50/7) kills the Borel (1,1) space at (7/3, 5/7)
    from vermatheta import BOREL, ModuleSpec, Root, VermaModule

    mod = VermaModule(ModuleSpec(BOREL, F(7, 3), F(5, 7), 6))
    k = mod.operator_matrix(Root.A13, (1, 1))
    a, b = mat_scalar_shift(k, F(22, 21)), mat_scalar_shift(k, F(50, 7))
    product = [
        [sum(a.entry(i, l) * b.entry(l, j) for l in range(a.cols)) for j in range(b.cols)]
        for i in range(a.rows)
    ]
    assert product == [[0, 0], [0, 0]]


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(st.lists(small_fracs, min_size=rows * cols, max_size=rows * cols))
    return QMatrix(rows, cols, data)


@given(matrices())
def test_rank_matches_plain_gauss(m):
    rows = [m.row(i) for i in range(m.rows)]
    assert rank(m) == gauss_rank(rows)


@given(matrices())
def test_rank_plus_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation_and_scaling(m, rng):
    rows = [list(m.row(i)) for i in range(m.rows)]
    rng.shuffle(rows)
    scales = [F(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 7])) for _ in rows]
    scaled = [[s * x for x in row] for s, row in zip(scales, rows)]
    assert rank(QMatrix.from_rows(scaled)) == rank(m)


@given(matrices())
def test_kernel_exactness(m):
    for v in kernel_basis(m):
        for i in range(m.rows):
            assert sum(m.entry(i, j) * v[j] for j in range(m.cols)) == 0


def test_elimination_is_deterministic():
    m = QMatrix.from_rows([[F(1, 2), 1, 0], [1, 2, F(1, 3)], [0, 1, 1]])
    assert kernel_basis(m) == kernel_basis(m)
    assert rank(m) == rank(m)
