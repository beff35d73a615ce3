from fractions import Fraction
from itertools import product

import pytest

from vermatheta import BOREL, PARABOLIC, ModuleSpec, Window
from vermatheta.cli import main
from vermatheta.errors import UsageError, VerificationError
from vermatheta.qseries import MONO_ONE, ExponentForm, FormalSeries, Monomial, tmono
from vermatheta.theta import (
    CATALOG,
    ClosedFormId,
    borel_character_closed_form,
    catalog_terms,
    closed_form_with_notes,
    verify_identity,
)

from conftest import WEIGHTS, zero_raising_matrix

F = Fraction

BSPEC = ModuleSpec(BOREL, F(7, 3), F(5, 7), 10)


def pspec(v):
    return ModuleSpec(PARABOLIC, F(7, 3), v, 10)


def ok(report):
    return report["status"] == report["pipelineAgreement"] == "pass"


# -- closed-form builders -----------------------------------------------------


def test_borel_13_leading_term_expansion():
    # k = 0 only: q^(L1+L2) / (1 - 1/q)^2 = q^(L1+L2) (1 + 2/q + 3/q^2 + ...)
    series = closed_form_with_notes(ClosedFormId.BOREL_TRACE_13, BSPEC, Window(1, 4, 0))[0]
    want = {ExponentForm(-j, 1, 1): F(j + 1) for j in range(5)}
    assert {tuple(m.qexp): c for m, c in series.terms.items()} == {
        tuple(k): v for k, v in want.items()
    }


def test_borel_13_substitution_leading_exponent():
    series = closed_form_with_notes(ClosedFormId.BOREL_TRACE_13, BSPEC, Window(1, 0, 0))[0]
    ((mono, coeff),) = series.terms.items()
    c0, c1, c2 = mono.qexp
    assert (c0 + c1 * F(7, 3) + c2 * F(5, 7), mono.t1, mono.t2, coeff) == (F(64, 21), 0, 0, 1)


def brute_fraction_expansion(numerators, factors, caps):
    """Independent oracle: expand each 1/(1-f) to a fixed power cap and
    convolve dicts by hand."""
    acc = {}
    for coeff, mono in numerators:
        acc[mono] = acc.get(mono, F(0)) + coeff
    for f, cap in zip(factors, caps):
        nxt = {}
        for j in range(cap + 1):
            fj = f.power(j)
            for m, c in acc.items():
                key = m * fj
                nxt[key] = nxt.get(key, F(0)) + c
        acc = nxt
    return {m: c for m, c in acc.items() if c}


def test_parabolic_character_zero_shell_matches_hand_expansion():
    window = Window(0, 0, 4)
    series = closed_form_with_notes(ClosedFormId.PARABOLIC_CHARACTER, pspec(0), window)[0]
    from vermatheta.qseries import tmono

    oracle = brute_fraction_expansion(
        [(F(1), tmono(0, 0))], [tmono(-2, 1), tmono(-1, -1)], [8, 8]
    )
    want = {m: c for m, c in oracle.items() if window.contains(m)}
    assert series.terms == want


def test_parabolic_13_hand_coefficients():
    # lambda2 = 1, k = 0 term: q^(L1+1)(1 - q^-2)/(1-1/q)^2
    window = Window(1, 3, 0)
    series = closed_form_with_notes(ClosedFormId.PARABOLIC_TRACE_13, pspec(1), window)[0]
    got = {m.qexp.c0: c for m, c in series.terms.items()}
    # (1 + 2/q + 3/q^2 + 4/q^3 + ...) - q^-2 (1 + 2/q + ...) shifted: 1,2,2,2 at c0 = 1,0,-1,-2
    assert got == {1: 1, 0: 2, -1: 2, -2: 2, -3: 2}


def test_parabolic_trace12_literal_is_window_empty():
    series = closed_form_with_notes(ClosedFormId.PARABOLIC_TRACE_12, pspec(1), Window(5, 8, 8))[0]
    assert len(series) == 0


def test_trace23_variants_differ_by_junk_terms():
    window = Window(5, 8, 0)
    lit, _ = closed_form_with_notes(ClosedFormId.PARABOLIC_TRACE_23, pspec(1), window)
    alt, _ = closed_form_with_notes(ClosedFormId.PARABOLIC_TRACE_23_ALT_LIMIT, pspec(1), window)
    # the extra k = i+1 slot of each constituent contributes q^(-i-2)
    diff = {m: lit.coeff(m) - alt.coeff(m) for m in {*lit.terms, *alt.terms}}
    got = {m.qexp.c0: c for m, c in diff.items() if c}
    assert got == {-(i + 2): F(min(i, 1) + 1) for i in range(7)}


def test_borel_reg_trace_23_is_the_dynkin_flip_of_12():
    # the flip swaps L1 with L2 and t1 with t2; checked away from the one
    # golden window, so a wrong flip of any factor or k-term shows
    def flipped(series):
        return {Monomial(ExponentForm(m.qexp.c0, m.qexp.c2, m.qexp.c1), m.t2, m.t1): c
                for m, c in series.terms.items()}

    for B, D, T in product(range(8), (0, 3, 8, 15), (0, 2, 5, 9)):
        window = Window(B, D, T)
        reg12, _ = closed_form_with_notes(ClosedFormId.BOREL_REG_TRACE_12, BSPEC, window)
        reg23, _ = closed_form_with_notes(ClosedFormId.BOREL_REG_TRACE_23, BSPEC, window)
        assert reg23.terms == flipped(reg12), window
        assert reg23.terms or not B


def test_catalog_covers_every_identity_in_declaration_order():
    assert list(CATALOG) == list(ClosedFormId)
    for identity, entry in CATALOG.items():
        assert identity.value.startswith(entry.kind)
        assert (entry.root is None) == (identity is ClosedFormId.PARABOLIC_CHARACTER)


def test_closed_form_kind_validation():
    with pytest.raises(UsageError):
        closed_form_with_notes(ClosedFormId.PARABOLIC_TRACE_13, BSPEC, Window(3, 3, 0))


def test_verify_identity_refuses_a_spec_of_the_wrong_kind():
    # an integral lambda2 lets a Borel spec pass for a parabolic one; the
    # verifier must not rebuild it as the catalog's kind and report a pass
    spec = ModuleSpec(BOREL, F(7, 3), 1, 10)
    for identity in (ClosedFormId.PARABOLIC_TRACE_13, ClosedFormId.PARABOLIC_CHARACTER):
        with pytest.raises(UsageError, match="needs a parabolic module spec"):
            verify_identity(identity, spec, Window(3, 4, 0))


def test_borel_character_closed_form_dims():
    window = Window(0, 0, 3)
    series = borel_character_closed_form(window)
    # coefficient of the trivial monomial counts PBW monomials of weight (0,0)
    assert series.coeff(Monomial(ExponentForm(0, 0, 0), 0, 0)) == 1
    # weight (1,1): two monomials
    assert series.coeff(Monomial(ExponentForm(0, 0, 0), -1, -1)) == 2


def unbroken_expansion(base, factors, window):
    """(sum of base) / prod (1 - f) with every power of each factor up to its
    t-degree budget, windowed only at the end; every factor has phi_t > 0."""
    phi = lambda mono: -(mono.t1 + mono.t2)
    acc: dict = {}
    for c, m in base:
        acc[m] = acc.get(m, 0) + F(c)
    phi_base = min(phi(m) for _, m in base)
    for f in factors:
        assert phi(f) > 0
        nxt: dict = {}
        for m, c in acc.items():
            for j in range(max(0, 2 * window.T - phi_base) // phi(f) + 1):
                nxt[m * f.power(j)] = nxt.get(m * f.power(j), 0) + c
        acc = nxt
    return FormalSeries(acc, window)


def test_expansion_stopped_at_the_window_matches_the_unbroken_one():
    window = Window(0, 0, 12)
    want = unbroken_expansion([(1, MONO_ONE)], [tmono(-2, 1), tmono(1, -2), tmono(-1, -1)], window)
    assert borel_character_closed_form(window).terms == want.terms
    window = Window(5, 8, 12)
    for v in (0, 1, 3):
        base = [(1, tmono(i, -2 * i)) for i in range(v + 1)]
        want = unbroken_expansion(base, [tmono(-2, 1), tmono(-1, -1)], window)
        got = closed_form_with_notes(ClosedFormId.PARABOLIC_CHARACTER, pspec(v), window)[0]
        assert got.terms == want.terms


def test_parabolic_character_ignores_lambda2_past_the_t_cap():
    # t1^i t2^(-2i) has t-degree i and both factors raise it, so the base
    # terms past 2T add nothing and every lambda2 >= 2T gives one character
    for T in (3, 8):
        window = Window(5, 8, T)
        for v in (2 * T - 1, 2 * T + 1):
            base = [(1, tmono(i, -2 * i)) for i in range(v + 1)]
            want = unbroken_expansion(base, [tmono(-2, 1), tmono(-1, -1)], window)
            got = closed_form_with_notes(ClosedFormId.PARABOLIC_CHARACTER, pspec(v), window)[0]
            assert got.terms == want.terms
        at_cap = closed_form_with_notes(ClosedFormId.PARABOLIC_CHARACTER, pspec(2 * T), window)
        far = closed_form_with_notes(ClosedFormId.PARABOLIC_CHARACTER, pspec(10**6), window)
        assert (far[0].terms, far[1]) == (at_cap[0].terms, at_cap[1])


# -- verifier -------------------------------------------------------------------


def test_borel_13_three_way_small_window():
    report = verify_identity(ClosedFormId.BOREL_TRACE_13, BSPEC, Window(3, 5, 0))
    assert report["status"] == "pass"
    assert report["pipelineAgreement"] == "pass"


def test_regularized_three_way_small_window():
    for identity in (ClosedFormId.BOREL_REG_TRACE_12, ClosedFormId.BOREL_REG_TRACE_23):
        report = verify_identity(identity, BSPEC, Window(3, 5, 5))
        assert ok(report), (identity, report.get("firstMismatch"))
        assert any("inverted" not in n for n in report["notes"]) or not report["notes"]


def test_trace12_variant_pair_mechanical_decision():
    window = Window(5, 8, 8)
    literal = verify_identity(ClosedFormId.PARABOLIC_TRACE_12, pspec(1), window)
    alt = verify_identity(ClosedFormId.PARABOLIC_TRACE_12_ALT_SIGN, pspec(1), window)
    assert literal["pipelineAgreement"] == "pass"
    assert alt["pipelineAgreement"] == "pass"
    assert (literal["status"], alt["status"]) == ("mismatch", "pass")
    # the first in-window divergence is the leading trace term q^(L1 + L2)
    assert literal["firstMismatch"]["monomial"] == {"c0": 1, "c1": 1, "c2": 0, "t1": 0, "t2": 0}
    assert (literal["firstMismatch"]["left"], literal["firstMismatch"]["right"]) == ("0", "1")


def test_trace23_variant_pair_mechanical_decision():
    window = Window(5, 8, 8)
    literal = verify_identity(ClosedFormId.PARABOLIC_TRACE_23, pspec(1), window)
    alt = verify_identity(ClosedFormId.PARABOLIC_TRACE_23_ALT_LIMIT, pspec(1), window)
    assert (literal["status"], alt["status"]) == ("mismatch", "pass")
    assert literal["pipelineAgreement"] == "pass"
    assert literal["firstMismatch"]["monomial"] == {"c0": -2, "c1": 0, "c2": 0, "t1": 0, "t2": 0}


def test_parabolic_character_verifies(parabolic_modules):
    for v in (0, 1, 2, 3):
        report = verify_identity(ClosedFormId.PARABOLIC_CHARACTER, pspec(v), Window(0, 0, 6))
        assert ok(report), (v, report.get("firstMismatch"))


def test_pass_is_monotone_under_window_shrink():
    big = Window(5, 8, 0)
    small = Window(3, 4, 0)
    for identity, spec in (
        (ClosedFormId.BOREL_TRACE_13, BSPEC),
        (ClosedFormId.PARABOLIC_TRACE_13, pspec(1)),
    ):
        closed_big = closed_form_with_notes(identity, spec, big)[0]
        closed_small = closed_form_with_notes(identity, spec, small)[0]
        assert closed_big.equal_on(closed_small, small).passed
        assert ok(verify_identity(identity, spec, big))
        assert ok(verify_identity(identity, spec, small))


def test_expansion_direction_notes_recorded():
    _, notes = closed_form_with_notes(
        ClosedFormId.PARABOLIC_TRACE_13, pspec(1), Window(3, 4, 0)
    )
    assert notes == []
    _, notes = closed_form_with_notes(
        ClosedFormId.PARABOLIC_TRACE_12, pspec(1), Window(3, 4, 0)
    )
    assert any("inverted" in n for n in notes)


FINITE_SUMS = (ClosedFormId.PARABOLIC_TRACE_23, ClosedFormId.PARABOLIC_TRACE_23_ALT_LIMIT)


@pytest.mark.parametrize("identity", list(ClosedFormId), ids=lambda i: i.value)
def test_catalog_term_counts(identity):
    # a k-sum yields one term per k = 0 ... (B-1)//2, none at B = 0, two on the
    # regularized Borel pair; the parabolic character is one term, and the
    # parabolic-trace-23 pair's finite sums, one per top weight, have no factors
    specs = [BSPEC] if CATALOG[identity].kind == BOREL else [pspec(v) for v in range(4)]
    for spec, B, T in product(specs, (0, 1, 5, 9), (0, 8)):
        window = Window(B, 6, T)
        terms = list(catalog_terms(identity, spec, window))
        if identity in FINITE_SUMS:
            assert len(terms) == window.D + 1
            assert all(factors == [] for _, factors in terms)
        elif identity is ClosedFormId.PARABOLIC_CHARACTER:
            assert len(terms) == 1
        else:
            per_k = 2 if CATALOG[identity].regularized else 1
            assert len(terms) == per_k * ((B + 1) // 2)


def test_verify_replicates_across_borel_weights():
    for weight in WEIGHTS:
        spec = ModuleSpec(BOREL, weight[0], weight[1], 10)
        report = verify_identity(ClosedFormId.BOREL_TRACE_13, spec, Window(3, 5, 0))
        assert ok(report)


def test_borel_13_passes_up_to_b7_d10():
    for weight in WEIGHTS:
        spec = ModuleSpec(BOREL, weight[0], weight[1], 12)
        report = verify_identity(ClosedFormId.BOREL_TRACE_13, spec, Window(7, 10, 0))
        assert ok(report), (weight, report.get("firstMismatch"), report.get("pipelineMismatch"))


def test_tables_differing_across_samples_is_a_verification_error(monkeypatch, capsys):
    # the second weight sample finds two singular vectors for E13 on (1, 1), not one
    served = zero_raising_matrix(monkeypatch, WEIGHTS[1], (1, 1))
    with pytest.raises(VerificationError, match="branching tables differ across weight samples"):
        verify_identity(ClosedFormId.BOREL_TRACE_13, BSPEC.with_depth(6), Window(1, 2, 0))
    argv = ["verify", "--identity", "borel-trace-13", "--B", "1", "--D", "2", "--T", "0",
            "--depth", "6"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "verification failure: branching tables differ across weight samples\n")
    assert served == [(1, 1), (1, 1)]
