from fractions import Fraction

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from vermatheta import QMatrix, exactalg, kernel_basis, mat_scalar_shift, nullities, rank, rat
from vermatheta.errors import UsageError

from conftest import matrix_rows, qmatrix, shifted

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


def test_rat_refuses_oversized_values_before_expanding_them():
    assert rat("1e4299") == 10**4299
    assert rat("-1e-4299") == F(-1, 10**4299)
    for big in ("1e5000", "1e4300", "1e-4300", "2.5e-4301", "1E+4_400", "1e100000000",
                "1e" + "9" * 5000):
        with pytest.raises(UsageError):
            rat(big)


def test_empty_matrices_have_rank_0():
    no_rows = QMatrix.from_integers(0, 3, [], 1)
    no_cols = QMatrix.from_integers(3, 0, [], 1)
    assert rank(no_rows) == rank(no_cols) == 0
    assert kernel_basis(no_rows) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert kernel_basis(no_cols) == []


def test_rank_zero_matrix():
    assert rank(qmatrix([[0] * 3] * 3)) == 0


def test_rank_ones_matrix():
    m = qmatrix([[1, 1], [1, 1]])
    assert rank(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(qmatrix([[1, 0], [0, 1]])) == []


def test_kernel_ones_matrix():
    (v,) = kernel_basis(qmatrix([[1, 1], [1, 1]]))
    assert v[0] != 0 and v[1] / v[0] == F(-1)


def test_kernel_vectors_annihilate():
    m = qmatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 3 - rank(m)
    for v in basis:
        for row in matrix_rows(m):
            assert sum(x * y for x, y in zip(row, v)) == 0


def test_scalar_shift_of_identity_is_zero():
    assert matrix_rows(mat_scalar_shift(qmatrix([[1, 0], [0, 1]]), 1)) == [[0, 0], [0, 0]]


def test_scalar_shift_by_negative_rational_keeps_denominator_positive():
    m = qmatrix([[F(1, 3), 2], [0, F(5, 7)]])
    result = shifted(m, F(-3, 4))
    assert result.den > 0
    assert matrix_rows(result) == [[F(1, 3) + F(3, 4), 2], [0, F(5, 7) + F(3, 4)]]


def test_scalar_shift_requires_square():
    with pytest.raises(UsageError):
        mat_scalar_shift(qmatrix([[0] * 3] * 2), 1)


def test_scalar_shift_takes_an_integer_numerator():
    m = qmatrix([[F(1, 3), 2], [0, F(5, 7)]])
    assert matrix_rows(mat_scalar_shift(m, -7)) == [[F(2, 3), 2], [0, F(22, 21)]]
    with pytest.raises(UsageError):
        mat_scalar_shift(m, F(-1, 3))


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
    assert k.den == 21
    a = matrix_rows(mat_scalar_shift(k, 22))
    b = matrix_rows(mat_scalar_shift(k, 150))
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    assert product == [[0, 0], [0, 0]]


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(st.lists(small_fracs, min_size=rows * cols, max_size=rows * cols))
    return qmatrix([data[i * cols : (i + 1) * cols] for i in range(rows)])


@given(matrices())
def test_rank_matches_plain_gauss(m):
    assert rank(m) == gauss_rank(matrix_rows(m))


@given(matrices())
def test_rank_plus_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation_and_scaling(m, rng):
    rows = matrix_rows(m)
    rng.shuffle(rows)
    scales = [F(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 7])) for _ in rows]
    scaled = [[s * x for x in row] for s, row in zip(scales, rows)]
    assert rank(qmatrix(scaled)) == rank(m)


@given(matrices())
def test_kernel_exactness(m):
    for v in kernel_basis(m):
        for row in matrix_rows(m):
            assert sum(x * y for x, y in zip(row, v)) == 0


def test_elimination_is_deterministic():
    m = qmatrix([[F(1, 2), 1, 0], [1, 2, F(1, 3)], [0, 1, 1]])
    assert kernel_basis(m) == kernel_basis(m)
    assert rank(m) == rank(m)


def test_kernel_vectors_are_integral_multiples_of_sympy_nullspace():
    # each vector is integral, positive at its own free column and zero at
    # the others, so it is a positive multiple of sympy's vector for that
    # column (which is 1 there and 0 at the other free columns)
    sympy = pytest.importorskip("sympy")
    import random

    rng = random.Random(8)
    for rows, cols in [(r, c) for r in range(1, 7) for c in range(1, 7)] * 2:
        m = _random_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)))
        oracle = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in matrix_rows(m)])
        _, pivots = oracle.rref()
        free = [c for c in range(cols) if c not in pivots]
        basis = kernel_basis(m)
        assert len(basis) == len(free) == len(oracle.nullspace())
        for f, v, theirs in zip(free, basis, oracle.nullspace()):
            assert all(type(x) is int for x in v)
            assert v[f] > 0 and all(v[g] == 0 for g in free if g != f)
            assert [sympy.Integer(x) for x in v] == [v[f] * y for y in theirs], (rows, cols, f)


def _random_matrix(rng, rows, cols, rank_cap):
    """A rows x cols rational matrix of rank at most rank_cap: a product of
    random rows x rank_cap and rank_cap x cols factors."""
    def entry():
        return F(rng.randint(-6, 6), rng.randint(1, 5))

    left = [[entry() for _ in range(rank_cap)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank_cap)]
    return qmatrix(
        [[sum((left[i][k] * right[k][j] for k in range(rank_cap)), F(0)) for j in range(cols)]
         for i in range(rows)]
    )


def test_elimination_matches_sympy_oracle():
    # elimination is shared by both trace pipelines, so their agreement
    # cannot catch a fault here; sympy is an independent implementation
    sympy = pytest.importorskip("sympy")
    import random

    rng = random.Random(20261018)
    shapes = [(r, c) for r in range(1, 7) for c in range(1, 7)]
    for rows, cols in shapes * 2:
        m = _random_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)))
        entries = matrix_rows(m)
        oracle = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in entries])
        assert rank(m) == oracle.rank(), (rows, cols)
        basis = kernel_basis(m)
        theirs = oracle.nullspace()
        assert len(basis) == len(theirs) == cols - rank(m)
        for v in basis:
            assert all(sum(x * y for x, y in zip(r, v)) == 0 for r in entries)
        if basis:
            ours = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v] for v in basis])
            both = ours.col_join(sympy.Matrix.hstack(*theirs).T)
            assert ours.rank() == both.rank() == len(basis)
    # m = d + c*I with d singular has eigenvalue c, so the shift by c drops the rank
    for size in range(1, 7):
        for _ in range(4):
            c = F(rng.randint(-9, 9), rng.randint(1, 6))
            d = _random_matrix(rng, size, size, rng.randint(0, size - 1))
            entries = [[x + c * (i == j) for j, x in enumerate(r)] for i, r in enumerate(matrix_rows(d))]
            m = qmatrix(entries)
            oracle = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in entries])
            for shift in (c, F(rng.randint(-9, 9), rng.randint(1, 6))):
                want = (oracle - sympy.Rational(shift.numerator, shift.denominator) * sympy.eye(size)).rank()
                assert rank(shifted(m, shift)) == want, (size, shift)
                assert shift != c or want < size


# -- nullities of shifted matrices -------------------------------------------------

#: the shapes ``nullities`` tells apart: an unreduced tridiagonal band takes
#: the determinant recurrence, every other shape the rank
SHAPES = ("unreduced-tridiagonal", "reduced-tridiagonal", "upper-bidiagonal",
          "lower-bidiagonal", "dense", "1x1")


@st.composite
def shaped_matrices(draw, shape):
    """A square integer matrix of the given one of ``SHAPES``.

    A bidiagonal matrix draws its diagonal from two values, so they repeat.
    Any other matrix may have its diagonal set so that every row sums to one
    value s0, which makes s0 an eigenvalue with the all-ones eigenvector;
    a reduced band set so can have nullity 2 there, which the recurrence
    would read as 1."""
    d = 1 if shape == "1x1" else draw(st.integers(2, 6))
    entry, nonzero = st.integers(-3, 3), st.sampled_from((1, -1, 2, -2, 3, -3))
    num = [0] * (d * d)
    if shape.endswith("bidiagonal"):
        values = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
        for k in range(d):
            num[k * d + k] = draw(st.sampled_from(values))
        upper = shape == "upper-bidiagonal"
        for k in range(1, d):
            num[(k - 1) * d + k if upper else k * d + k - 1] = draw(entry)
    else:
        if shape == "dense":
            cells = [(i, j) for i in range(d) for j in range(d)]
        else:
            cells = [(i, j) for i in range(d) for j in range(max(i - 1, 0), min(i + 2, d))]
        unreduced = shape == "unreduced-tridiagonal"
        for i, j in cells:
            num[i * d + j] = draw(nonzero if unreduced and i != j else entry)
        if shape == "reduced-tridiagonal":
            k = draw(st.integers(1, d - 1))
            num[(k - 1) * d + k if draw(st.booleans()) else k * d + k - 1] = 0
        if draw(st.booleans()):
            s0 = draw(entry)
            for i in range(d):
                num[i * d + i] = s0 - sum(num[i * d : i * d + d]) + num[i * d + i]
    return QMatrix.from_integers(d, d, num, draw(st.integers(1, 3)))


@pytest.mark.parametrize("shape", SHAPES)
@given(data=st.data())
def test_nullities_match_the_rank_of_each_shift(shape, data):
    # every integer eigenvalue of the numerators lies in their Gershgorin
    # range, so the shifts, in a drawn order, meet each one
    a = data.draw(shaped_matrices(shape))
    d = a.rows
    bound = max(sum(map(abs, a.num[i * d : i * d + d])) for i in range(d))
    shifts = data.draw(st.permutations(range(-bound, bound + 1)))
    want = [d - rank(mat_scalar_shift(a, s)) for s in shifts]
    assert list(nullities(a, shifts)) == want
    for nullity in sorted(set(want)):
        event(f"nullity {nullity}")


def test_nullities_take_a_rank_only_off_an_unreduced_band(monkeypatch):
    # an unreduced band, 1x1 included, takes no rank, any other matrix one
    # per shift, and the shifts are read one at a time
    ranked = []
    real_rank = exactalg.rank
    monkeypatch.setattr(exactalg, "rank", lambda m: ranked.append(m) or real_rank(m))
    band = qmatrix([[1, 2, 0], [3, 1, 2], [0, 3, 1]])  # eigenvalues 1 and 1 +- 2*sqrt(3)
    assert list(nullities(band, [0, 1, 2, -1])) == [0, 1, 0, 0] and ranked == []
    reduced = qmatrix([[1, 0, 0], [3, 1, 2], [0, 3, 1]])
    assert list(nullities(reduced, [1, 0])) == [1, 0] and len(ranked) == 2
    # a 1x1 matrix is an unreduced band too: f_1 = a[0][0] - s
    assert list(nullities(qmatrix([[F(5, 2)]]), [5, 4])) == [1, 0] and len(ranked) == 2
    shifts = iter([1, 2, 3])
    assert next(nullities(band, shifts)) == 1
    assert list(shifts) == [2, 3]
    with pytest.raises(UsageError, match="square"):
        list(nullities(qmatrix([[1, 2]]), [0]))
