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


def test_monomial_product_adds_exponents():
    assert qpow(ExponentForm(0, 1, 0)) * qpow(ExponentForm(0, 0, 1)) == qpow(
        ExponentForm(0, 1, 1)
    )


def test_telescoping_product_truncates_to_one():
    # (1 - 1/q) / (1 - 1/q) through the closed-form expander: the boundary
    # term q^-(d+1) of the telescoped product falls outside the window
    d = 3
    w = Window(0, d, 0)
    q_inv = qpow(ExponentForm(-1, 0, 0))
    got, notes = _expand_term([(1, MONO_ONE), (-1, q_inv)], [q_inv], w)
    left = series(w, (MONO_ONE, 1), (q_inv, -1))
    right = FormalSeries({q_inv.power(j): F(1) for j in range(d + 1)}, w)
    assert got.terms == brute_mul(left, right, w) == {MONO_ONE: F(1)}
    assert notes == []


def test_geometric_expand_simple_q():
    w = Window(0, 3, 0)
    got, notes = geometric(qpow(ExponentForm(-1, 0, 0)), w)
    assert got.terms == {qpow(ExponentForm(-j, 0, 0)): F(1) for j in range(4)}
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
def small_series(draw, window):
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        m = draw(monomials())
        terms[m] = terms.get(m, 0) + draw(
            st.fractions(min_value=-3, max_value=3, max_denominator=3)
        )
    return FormalSeries(terms, window)


W0 = Window(2, 5, 4)


@given(st.lists(st.tuples(monomials(), st.integers(-3, 3)), max_size=12), st.data())
def test_series_is_the_windowed_sum_of_its_pairs(pairs, data):
    # the constructor is the one accumulator: any order of the pairs, and
    # any prefix summed into a series first, give the sum-then-window oracle
    want = {}
    for mono, c in pairs:
        want[mono] = want.get(mono, 0) + c
    want = {m: c for m, c in want.items() if c and W0.contains(m)}
    shuffled = data.draw(st.permutations(pairs))
    cut = data.draw(st.integers(0, len(pairs)))
    head = FormalSeries(shuffled[:cut], W0)
    for got in (FormalSeries(pairs, W0), FormalSeries(shuffled, W0),
                FormalSeries([*head.terms.items(), *shuffled[cut:]], W0)):
        assert got.terms == want
        assert all(type(c) is int for c in got.terms.values())  # never coerced


@given(small_series(W0), small_series(W0))
def test_mul_commutes_and_matches_oracle(a, b):
    # the monomial product the closed-form expander convolves with, summed
    # and windowed by FormalSeries, against the exponent-by-exponent oracle
    product = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            assert m1 * m2 == m2 * m1
            product[m1 * m2] = product.get(m1 * m2, F(0)) + c1 * c2
    assert FormalSeries(product, W0).terms == brute_mul(a, b, W0)


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
