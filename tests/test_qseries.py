from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vermatheta import ExponentForm, FormalSeries, Monomial, Window
from vermatheta.errors import DivergenceError, UsageError
from vermatheta.qseries import MONO_ONE, qpow
from vermatheta.theta import _expand_term

F = Fraction


def series(window, *terms):
    return FormalSeries({m: F(c) for m, c in terms}, window)


def geometric(mono, window):
    """1/(1 - mono) on the window, expanded by the closed-form expander."""
    return _expand_term([(1, MONO_ONE)], [mono], window)


def brute_mul(a: FormalSeries, b: FormalSeries, window: Window) -> dict:
    """Independent convolution oracle: plain dict product, then filter."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = Monomial(
                ExponentForm(
                    m1.qexp.c0 + m2.qexp.c0,
                    m1.qexp.c1 + m2.qexp.c1,
                    m1.qexp.c2 + m2.qexp.c2,
                ),
                m1.t1 + m2.t1,
                m1.t2 + m2.t2,
            )
            out[m] = out.get(m, F(0)) + c1 * c2
    return {m: c for m, c in out.items() if c and window.contains(m)}


def test_add_zero_is_identity():
    w = Window(2, 4, 2)
    a = series(w, (qpow(ExponentForm(-1, 1, 0)), 3), (MONO_ONE, F(1, 2)))
    assert (a + FormalSeries.zero(w)) == a


def test_monomial_product_adds_exponents():
    assert qpow(ExponentForm(0, 1, 0)) * qpow(ExponentForm(0, 0, 1)) == qpow(
        ExponentForm(0, 1, 1)
    )
    w = Window(2, 2, 0)
    prod = series(w, (qpow(ExponentForm(0, 1, 0)), 1)) * series(w, (qpow(ExponentForm(0, 0, 1)), 1))
    assert prod == series(w, (qpow(ExponentForm(0, 1, 1)), 1))


def test_telescoping_product_truncates_to_one():
    d = 3
    w = Window(0, d, 0)
    left = series(w, (MONO_ONE, 1), (qpow(ExponentForm(-1, 0, 0)), -1))
    right = FormalSeries(
        {qpow(ExponentForm(-j, 0, 0)): F(1) for j in range(d + 1)}, w
    )
    expected = brute_mul(left, right, w)
    assert (left * right).terms == expected
    assert (left * right) == series(w, (MONO_ONE, 1))


def test_geometric_expand_simple_q():
    w = Window(0, 3, 0)
    got, notes = geometric(qpow(ExponentForm(-1, 0, 0)), w)
    assert got == FormalSeries(
        {qpow(ExponentForm(-j, 0, 0)): F(1) for j in range(4)}, w
    )
    assert notes == []


def test_geometric_expand_mixed_t_exits_by_degree():
    w = Window(0, 4, 4)
    m = Monomial(ExponentForm(-2, 0, 0), -2, 1)
    got, _ = geometric(m, w)
    assert got.terms == {MONO_ONE: F(1), m: F(1), m.power(2): F(1)}


def test_geometric_expand_unit_diverges():
    with pytest.raises(DivergenceError):
        geometric(MONO_ONE, Window(2, 2, 2))


def test_equal_on_reflexive_and_outside_window():
    w = Window(2, 4, 0)
    a = series(w, (qpow(ExponentForm(-2, 1, 0)), 5))
    assert a.equal_on(a, w).passed
    big = Window(2, 6, 0)
    b = series(big, (MONO_ONE, 1))
    c = series(big, (MONO_ONE, 1), (qpow(ExponentForm(-5, 0, 0)), 1))
    assert b.equal_on(c, Window(0, 4, 0)).passed
    cmp = b.equal_on(c, Window(0, 5, 0))
    assert not cmp.passed
    assert cmp.monomial == qpow(ExponentForm(-5, 0, 0))
    assert (cmp.left, cmp.right) == (F(0), F(1))
    # symmetric up to swapping the reported sides
    rev = c.equal_on(b, Window(0, 5, 0))
    assert (rev.passed, rev.monomial, rev.left, rev.right) == (False, cmp.monomial, F(1), F(0))


def test_equal_on_requires_covering_windows():
    a = series(Window(1, 1, 1), (MONO_ONE, 1))
    with pytest.raises(UsageError):
        a.equal_on(a, Window(2, 2, 2))


def test_substitute_lambda_evaluates_exponents():
    w = Window(2, 2, 0)
    a = series(w, (qpow(ExponentForm(0, 1, 0)), 1))
    assert a.substitute_lambda(2, 0) == {(F(2), 0, 0): F(1)}


def test_substitute_lambda_sums_collisions():
    w = Window(2, 2, 0)
    a = series(w, (qpow(ExponentForm(0, 1, 0)), 1), (qpow(ExponentForm(0, 0, 1)), 1))
    assert a.substitute_lambda(F(1, 2), F(1, 2)) == {(F(1, 2), 0, 0): F(2)}


def test_sorted_records_are_canonical():
    w = Window(2, 4, 2)
    a = series(
        w,
        (Monomial(ExponentForm(-1, 1, 0), 0, 0), 2),
        (Monomial(ExponentForm(0, 1, 0), 0, 0), 1),
        (Monomial(ExponentForm(0, 0, 1), -1, 1), F(1, 3)),
    )
    recs = a.to_records()
    assert [(r["c0"], r["c1"], r["c2"]) for r in recs] == [(0, 0, 1), (0, 1, 0), (-1, 1, 0)]
    assert recs[0] == {"c0": 0, "c1": 0, "c2": 1, "t1": -1, "t2": 1, "num": 1, "den": 3}


small_exp = st.integers(-3, 3)
small_nonneg = st.integers(0, 2)


@st.composite
def monomials(draw):
    return Monomial(
        ExponentForm(draw(small_exp), draw(small_nonneg), draw(small_nonneg)),
        draw(small_exp),
        draw(small_exp),
    )


@st.composite
def cone_monomials(draw):
    # supports where every coordinate moves one way, so window truncation is
    # monotone and dropped products can never re-enter
    return Monomial(
        ExponentForm(draw(st.integers(-3, 0)), draw(small_nonneg), draw(small_nonneg)),
        draw(st.integers(-3, 0)),
        draw(st.integers(-3, 0)),
    )


@st.composite
def small_series(draw, window, mono_strategy=monomials):
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        m = draw(mono_strategy())
        terms[m] = terms.get(m, 0) + draw(
            st.fractions(min_value=-3, max_value=3, max_denominator=3)
        )
    return FormalSeries(terms, window)


W0 = Window(2, 5, 4)


@given(small_series(W0), small_series(W0))
def test_add_commutes(a, b):
    assert (a + b) == (b + a)


@given(small_series(W0), small_series(W0))
def test_mul_commutes_and_matches_oracle(a, b):
    assert (a * b) == (b * a)
    assert (a * b).terms == brute_mul(a, b, W0)


@given(small_series(W0), small_series(W0), small_series(W0))
def test_add_associates(a, b, c):
    assert ((a + b) + c) == (a + (b + c))


@given(
    small_series(W0, cone_monomials),
    small_series(W0, cone_monomials),
    small_series(W0, cone_monomials),
)
def test_mul_associates_on_monotone_supports(a, b, c):
    # truncating multiplication cannot associate for arbitrary supports (a
    # dropped intermediate product may re-enter the window); on a monotone
    # cone re-entry is impossible and associativity holds exactly
    assert ((a * b) * c) == (a * (b * c))


def test_mul_truncation_breaks_associativity_outside_cones():
    w = Window(0, 5, 0)
    a = series(w, (qpow(ExponentForm(3, 0, 0)), 1))
    c = series(w, (qpow(ExponentForm(-3, 0, 0)), 1))
    assert ((a * a) * c) != (a * (a * c))


@given(monomials())
def test_one_minus_m_times_geometric_is_one(m):
    w = W0
    try:
        geo, notes = geometric(m, w)
    except DivergenceError:
        return  # m has neither t- nor q-degree, so no direction escapes
    wide = Window(99, 99, 99)
    if notes:
        # expanded as -f/(1 - f) with f = 1/m: multiplying by 1 - f leaves -f
        f = m.inverse()
        prod_terms = brute_mul(FormalSeries({MONO_ONE: F(1), f: F(-1)}, wide), geo, w)
        assert prod_terms == ({f: F(-1)} if w.contains(f) else {})
    else:
        prod_terms = brute_mul(FormalSeries({MONO_ONE: F(1), m: F(-1)}, wide), geo, w)
        assert prod_terms == {MONO_ONE: F(1)}
    # in both cases the telescoped boundary term falls outside the window
