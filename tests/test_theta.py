from dataclasses import replace
from fractions import Fraction

import pytest

from vermatheta import BOREL, PARABOLIC, ModuleSpec, Window, theta
from vermatheta.cli import main
from vermatheta.errors import UsageError, VerificationError
from vermatheta.qseries import ExponentForm, Monomial, qpow
from vermatheta.theta import (
    CATALOG,
    ClosedFormId,
    borel_character_closed_form,
    closed_form,
    closed_form_with_notes,
    verify_identity,
)

from conftest import WEIGHTS

F = Fraction

BSPEC = ModuleSpec(BOREL, F(7, 3), F(5, 7), 10)


def pspec(v):
    return ModuleSpec(PARABOLIC, F(7, 3), v, 10)


# -- closed-form builders -----------------------------------------------------


def test_borel_13_leading_term_expansion():
    # k = 0 only: q^(L1+L2) / (1 - 1/q)^2 = q^(L1+L2) (1 + 2/q + 3/q^2 + ...)
    series = closed_form(ClosedFormId.BOREL_TRACE_13, BSPEC, Window(1, 4, 0))
    want = {ExponentForm(-j, 1, 1): F(j + 1) for j in range(5)}
    assert {tuple(m.qexp): c for m, c in series.terms.items()} == {
        tuple(k): v for k, v in want.items()
    }


def test_borel_13_substitution_leading_exponent():
    series = closed_form(ClosedFormId.BOREL_TRACE_13, BSPEC, Window(1, 0, 0))
    values = series.substitute_lambda(F(7, 3), F(5, 7))
    assert values == {(F(64, 21), 0, 0): F(1)}


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
    series = closed_form(ClosedFormId.PARABOLIC_CHARACTER, pspec(0), window)
    from vermatheta.qseries import tmono

    oracle = brute_fraction_expansion(
        [(F(1), tmono(0, 0))], [tmono(-2, 1), tmono(-1, -1)], [8, 8]
    )
    want = {m: c for m, c in oracle.items() if window.contains(m)}
    assert series.terms == want


def test_parabolic_13_hand_coefficients():
    # lambda2 = 1, k = 0 term: q^(L1+1)(1 - q^-2)/(1-1/q)^2
    window = Window(1, 3, 0)
    series = closed_form(ClosedFormId.PARABOLIC_TRACE_13, pspec(1), window)
    got = {m.qexp.c0: c for m, c in series.terms.items()}
    # (1 + 2/q + 3/q^2 + 4/q^3 + ...) - q^-2 (1 + 2/q + ...) shifted: 1,2,2,2 at c0 = 1,0,-1,-2
    assert got == {1: 1, 0: 2, -1: 2, -2: 2, -3: 2}


def test_parabolic_trace12_literal_is_window_empty():
    series = closed_form(ClosedFormId.PARABOLIC_TRACE_12, pspec(1), Window(5, 8, 8))
    assert len(series) == 0


def test_trace23_variants_differ_by_junk_terms():
    lit = closed_form(ClosedFormId.PARABOLIC_TRACE_23, pspec(1), Window(5, 8, 0))
    alt = closed_form(ClosedFormId.PARABOLIC_TRACE_23_ALT_LIMIT, pspec(1), Window(5, 8, 0))
    diff = lit - alt
    # the extra k = i+1 slot of each constituent contributes q^(-i-2)
    got = {m.qexp.c0: c for m, c in diff.terms.items()}
    assert got == {-(i + 2): F(min(i, 1) + 1) for i in range(7)}


def test_catalog_covers_every_identity_in_declaration_order():
    assert list(CATALOG) == list(ClosedFormId)
    for identity, entry in CATALOG.items():
        assert identity.value.startswith(entry.kind)
        assert (entry.root is None) == (identity is ClosedFormId.PARABOLIC_CHARACTER)


def test_closed_form_kind_validation():
    with pytest.raises(UsageError):
        closed_form(ClosedFormId.PARABOLIC_TRACE_13, BSPEC, Window(3, 3, 0))


def test_borel_character_closed_form_dims():
    window = Window(0, 0, 3)
    series = borel_character_closed_form(window)
    # coefficient of the trivial monomial counts PBW monomials of weight (0,0)
    assert series.coeff(Monomial(ExponentForm(0, 0, 0), 0, 0)) == 1
    # weight (1,1): two monomials
    assert series.coeff(Monomial(ExponentForm(0, 0, 0), -1, -1)) == 2


# -- verifier -------------------------------------------------------------------


def test_borel_13_three_way_small_window():
    report = verify_identity(ClosedFormId.BOREL_TRACE_13, BSPEC, Window(3, 5, 0))
    assert report.status == "pass"
    assert report.pipeline_agreement == "pass"
    assert report.ok


def test_regularized_three_way_small_window():
    for identity in (ClosedFormId.BOREL_REG_TRACE_12, ClosedFormId.BOREL_REG_TRACE_23):
        report = verify_identity(identity, BSPEC, Window(3, 5, 5))
        assert report.ok, (identity, report.first_mismatch)
        assert any("inverted" not in n for n in report.notes) or not report.notes


def test_trace12_variant_pair_mechanical_decision():
    window = Window(5, 8, 8)
    literal = verify_identity(ClosedFormId.PARABOLIC_TRACE_12, pspec(1), window)
    alt = verify_identity(ClosedFormId.PARABOLIC_TRACE_12_ALT_SIGN, pspec(1), window)
    assert literal.pipeline_agreement == "pass"
    assert alt.pipeline_agreement == "pass"
    assert (literal.status, alt.status) == ("mismatch", "pass")
    # the first in-window divergence is the leading trace term q^(L1 + L2)
    assert literal.first_mismatch.monomial == qpow(ExponentForm(1, 1, 0))
    assert (literal.first_mismatch.left, literal.first_mismatch.right) == (F(0), F(1))


def test_trace23_variant_pair_mechanical_decision():
    window = Window(5, 8, 8)
    literal = verify_identity(ClosedFormId.PARABOLIC_TRACE_23, pspec(1), window)
    alt = verify_identity(ClosedFormId.PARABOLIC_TRACE_23_ALT_LIMIT, pspec(1), window)
    assert (literal.status, alt.status) == ("mismatch", "pass")
    assert literal.pipeline_agreement == "pass"
    assert literal.first_mismatch.monomial == qpow(ExponentForm(-2, 0, 0))


def test_parabolic_character_verifies(parabolic_modules):
    for v in (0, 1, 2, 3):
        report = verify_identity(ClosedFormId.PARABOLIC_CHARACTER, pspec(v), Window(0, 0, 6))
        assert report.ok, (v, report.first_mismatch)


def test_pass_is_monotone_under_window_shrink():
    big = Window(5, 8, 0)
    small = Window(3, 4, 0)
    for identity, spec in (
        (ClosedFormId.BOREL_TRACE_13, BSPEC),
        (ClosedFormId.PARABOLIC_TRACE_13, pspec(1)),
    ):
        closed_big = closed_form(identity, spec, big)
        closed_small = closed_form(identity, spec, small)
        assert closed_big.equal_on(closed_small, small).passed
        assert verify_identity(identity, spec, big).ok
        assert verify_identity(identity, spec, small).ok


def test_expansion_direction_notes_recorded():
    _, notes = closed_form_with_notes(
        ClosedFormId.PARABOLIC_TRACE_13, pspec(1), Window(3, 4, 0)
    )
    assert notes == []
    _, notes = closed_form_with_notes(
        ClosedFormId.PARABOLIC_TRACE_12, pspec(1), Window(3, 4, 0)
    )
    assert any("inverted" in n for n in notes)


def test_verify_replicates_across_borel_weights():
    for weight in WEIGHTS:
        spec = ModuleSpec(BOREL, weight[0], weight[1], 10)
        report = verify_identity(ClosedFormId.BOREL_TRACE_13, spec, Window(3, 5, 0))
        assert report.ok


def test_borel_13_passes_up_to_b7_d10():
    for weight in WEIGHTS:
        spec = ModuleSpec(BOREL, weight[0], weight[1], 12)
        report = verify_identity(ClosedFormId.BOREL_TRACE_13, spec, Window(7, 10, 0))
        assert report.ok, (weight, report.first_mismatch, report.pipeline_mismatch)


def test_tables_differing_across_samples_is_a_verification_error(monkeypatch, capsys):
    real = theta.branching_table
    calls = []

    def perturbed(module, root, depth=None):
        table = real(module, root, depth)
        calls.append(table)
        if len(calls) % 3 == 2:  # the second of the three weight samples
            first = replace(table.terms[0], multiplicity=table.terms[0].multiplicity + 1)
            table = replace(table, terms=(first,) + table.terms[1:])
        return table

    monkeypatch.setattr(theta, "branching_table", perturbed)
    with pytest.raises(VerificationError):
        verify_identity(ClosedFormId.BOREL_TRACE_13, BSPEC.with_depth(6), Window(1, 2, 0))
    argv = ["verify", "--identity", "borel-trace-13", "--B", "1", "--D", "2", "--T", "0",
            "--depth", "6"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("verification failure:")
