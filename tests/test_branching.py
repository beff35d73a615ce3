from fractions import Fraction

import pytest

from vermatheta import (
    BOREL,
    PARABOLIC,
    ModuleSpec,
    Root,
    VermaModule,
    Window,
    branching_table,
    kappa_spectrum,
    singular_dimension,
    trace_brute_force,
    trace_from_branching,
)
from vermatheta.branching import (
    FINITE,
    VERMA,
    BranchingTable,
    BranchingTerm,
    candidate_forms,
    is_divergent,
    lift_samples,
    predicted_spectrum,
    tables_match,
)
from vermatheta.errors import UsageError
from vermatheta.qseries import ExponentForm

from conftest import LAMBDA1S, WEIGHTS

F = Fraction


# -- singular vectors ------------------------------------------------------------


@pytest.mark.parametrize("weight", WEIGHTS)
def test_borel_singular_pattern(borel_modules, weight):
    module = borel_modules[weight]
    for n in range(6):
        for m in range(6 - n):
            assert singular_dimension(module, Root.A12, n, m) == (1 if n <= m else 0)
            assert singular_dimension(module, Root.A23, n, m) == (1 if m <= n else 0)
            assert singular_dimension(module, Root.A13, n, m) == 1


def test_parabolic_singular_pattern(parabolic_modules):
    module = parabolic_modules[(F(7, 3), 1)]
    v = 1
    for n in range(6):
        for m in range(6 - n):
            if not module.dim(n, m):
                continue
            got12 = singular_dimension(module, Root.A12, n, m)
            assert got12 == (1 if n <= m else 0)
            got13 = singular_dimension(module, Root.A13, n, m)
            assert got13 == (1 if m <= v else 0)
            got23 = singular_dimension(module, Root.A23, n, m)
            assert got23 == (1 if m <= min(n, v) else 0)


# -- branching tables --------------------------------------------------------------


def test_borel_13_table_is_one_constituent_per_space(borel_module):
    table = branching_table(borel_module, Root.A13, depth=6)
    seen = {}
    for term in table.terms:
        assert term.kind == VERMA
        assert term.multiplicity == 1
        n, m = term.origin
        assert term.hw == ExponentForm(-n - m, 1, 1)
        seen[term.origin] = term
    assert set(seen) == {(n, m) for n in range(7) for m in range(7 - n)}


def test_borel_12_table_upper_triangle(borel_module):
    table = branching_table(borel_module, Root.A12, depth=6)
    origins = {term.origin for term in table.terms}
    assert origins == {(n, m) for n in range(7) for m in range(7 - n) if n <= m}
    for term in table.terms:
        n, m = term.origin
        assert term.hw == ExponentForm(m - 2 * n, 1, 0)


def test_parabolic_12_table_matches_double_sum(parabolic_modules):
    # constituents M_{L1 + r - s} for r = 0..L2, s >= 0, sitting at (s, r+s)
    v = 2
    module = parabolic_modules[(F(7, 3), v)]
    table = branching_table(module, Root.A12, depth=8)
    want = {}
    for s in range(9):
        for r in range(v + 1):
            if s + (r + s) <= 8:
                want[(s, r + s)] = ExponentForm(r - s, 1, 0)
    got = {term.origin: term.hw for term in table.terms}
    assert got == want
    assert all(t.kind == VERMA and t.multiplicity == 1 for t in table.terms)


def test_parabolic_13_table_matches_double_sum(parabolic_modules):
    v = 2
    module = parabolic_modules[(F(7, 3), v)]
    table = branching_table(module, Root.A13, depth=8)
    want = {}
    for s in range(9):
        for r in range(v + 1):
            if s + r <= 8:
                want[(s, r)] = ExponentForm(v - r - s, 1, 0)
    got = {term.origin: term.hw for term in table.terms}
    assert got == want


def test_parabolic_23_finite_multiplicities(parabolic_modules):
    # L_i with multiplicity min(i, L2) + 1, all finite, detected in-module
    v = 1
    module = parabolic_modules[(F(7, 3), v)]
    table = branching_table(module, Root.A23, depth=9)
    mults: dict[int, int] = {}
    for term in table.terms:
        assert term.kind == FINITE
        mults[term.finite_hw] = mults.get(term.finite_hw, 0) + term.multiplicity
    # origins (i - v + 2*m0, m0) for m0 <= v need n + m <= 9: complete for small i
    for i in range(5):
        assert mults[i] == min(i, v) + 1


def test_tables_replicate_across_weights(borel_modules):
    for root in Root:
        tables = [branching_table(borel_modules[w], root, depth=6) for w in WEIGHTS]
        assert tables_match(tables[0], tables[1])
        assert tables_match(tables[0], tables[2])


def test_accounting_failure_is_detected(borel_module):
    table = branching_table(borel_module, Root.A13, depth=4)
    broken = BranchingTable(
        table.kind, table.root, table.terms[:-1], table.depth_covered
    )
    n, m = table.terms[-1].origin
    assert broken.local_dimension(n, m) != borel_module.dim(n, m)


# -- spectra ------------------------------------------------------------------------


def test_kappa_on_highest_weight_space(borel_module):
    l1, l2 = borel_module.spec.lambda1, borel_module.spec.lambda2
    assert kappa_spectrum(borel_module, Root.A12, 0, 0) == ((l1, 1),)
    assert kappa_spectrum(borel_module, Root.A13, 0, 0) == ((l1 + l2, 1),)


def test_kappa_depth_one_string(borel_module):
    l1, l2 = borel_module.spec.lambda1, borel_module.spec.lambda2
    got = dict(kappa_spectrum(borel_module, Root.A13, 1, 1))
    assert got == {3 * (l1 + l2) - 2: 1, l1 + l2 - 2: 1}


def test_finite_module_interior_eigenvalue(parabolic_modules):
    # inside L_1 the h-value -1 slot (depth 1) carries eigenvalue 3*1-2 = 1
    module = parabolic_modules[(F(7, 3), 1)]
    spaces = [(n, m) for n in range(5) for m in range(5 - n) if module.dim(n, m)]
    for n, m in spaces:
        if module.spec.lambda2 + n - 2 * m == -1:  # the h2-value of (n, m)
            got = dict(kappa_spectrum(module, Root.A23, n, m))
            assert any(value == 1 for value in got)
            break
    else:
        raise AssertionError("no weight space with h23-value -1 found")


@pytest.mark.parametrize("root", list(Root))
def test_spectrum_matches_branching_prediction(borel_modules, root):
    for weight in WEIGHTS:
        module = borel_modules[weight]
        table = branching_table(module, root, depth=6)
        for n in range(5):
            for m in range(5 - n):
                got = kappa_spectrum(module, root, n, m)
                want = predicted_spectrum(table, root, n, m, *weight)
                assert got == want


@pytest.mark.parametrize("root", list(Root))
def test_parabolic_spectrum_matches_branching_prediction(parabolic_modules, root):
    for v in (0, 1, 2):
        module = parabolic_modules[(F(7, 3), v)]
        table = branching_table(module, root, depth=6)
        for n in range(5):
            for m in range(5 - n):
                if not module.dim(n, m):
                    continue
                got = kappa_spectrum(module, root, n, m)
                want = predicted_spectrum(table, root, n, m, F(7, 3), v)
                assert got == want


def test_candidate_forms_are_affine_and_cover_string(borel_module):
    forms = candidate_forms(borel_module, Root.A13, 2, 2)
    assert ExponentForm(-4, 1, 1) in forms  # local highest weight, k = 0
    assert ExponentForm(3 * -2 - 2, 3, 3) in forms  # k = 1: 3u - 2 at u = (-2,1,1)
    assert ExponentForm(5 * 0 - 8, 5, 5) in forms  # k = 2: 5u - 8 at u = (0,1,1)
    assert len(forms) == 3


# -- trace assembly ------------------------------------------------------------------


def test_trace_of_single_verma_constituent():
    window = Window(5, 8, 0)
    hw = ExponentForm(0, 1, 1)
    table = BranchingTable(BOREL, Root.A13, (BranchingTerm(VERMA, hw, 1, (0, 0)),), 0)
    series = trace_from_branching(table, window)
    want = {}
    for k in range(3):  # 2k+1 <= 5
        want[(-2 * k * k, 2 * k + 1, 2 * k + 1)] = 1
    assert {tuple(m.qexp): c for m, c in series.terms.items()} == want


def test_trace_of_single_finite_constituent_is_2q():
    window = Window(5, 8, 0)
    table = BranchingTable(
        PARABOLIC, Root.A23, (BranchingTerm(FINITE, ExponentForm(1, 0, 0), 1, (0, 0)),), 0
    )
    series = trace_from_branching(table, window)
    assert {tuple(m.qexp): c for m, c in series.terms.items()} == {(1, 0, 0): 2}


@pytest.mark.parametrize(
    "kind,v,root,regularized",
    [
        (BOREL, F(5, 7), Root.A13, False),
        (BOREL, F(5, 7), Root.A12, True),
        (BOREL, F(5, 7), Root.A23, True),
        (PARABOLIC, 0, Root.A12, False),
        (PARABOLIC, 1, Root.A23, False),
        (PARABOLIC, 2, Root.A13, False),
        (PARABOLIC, 1, Root.A12, True),
        (PARABOLIC, 2, Root.A23, True),
        (PARABOLIC, 1, Root.A13, True),
    ],
)
def test_pipelines_agree_on_small_windows(kind, v, root, regularized):
    window = Window(3, 5, 5)
    spec = ModuleSpec(kind, F(7, 3), v, 24)
    module = VermaModule(spec)
    table = branching_table(module, root)
    branch = trace_from_branching(table, window, regularized, spec=spec)
    brute = trace_brute_force(spec, root, window, regularized)
    cmp = brute.equal_on(branch, window)
    assert cmp.passed, (cmp.monomial, cmp.left, cmp.right)


def test_brute_trace_depth_zero_shell_is_leading_monomial():
    spec = ModuleSpec(BOREL, F(7, 3), F(5, 7), 6)
    series = trace_brute_force(spec, Root.A13, Window(1, 0, 0))
    assert {tuple(m.qexp): c for m, c in series.terms.items()} == {(0, 1, 1): F(1)}


def test_divergent_trace_requires_explicit_depth():
    spec = ModuleSpec(BOREL, F(7, 3), F(5, 7), 10)
    assert is_divergent(BOREL, Root.A12, False)
    assert not is_divergent(BOREL, Root.A12, True)
    assert not is_divergent(PARABOLIC, Root.A12, False)
    with pytest.raises(UsageError):
        trace_brute_force(spec, Root.A12, Window(3, 4, 0))


def test_divergent_window_sums_agree_at_fixed_depth():
    window = Window(3, 4, 0)
    spec = ModuleSpec(BOREL, F(7, 3), F(5, 7), 8)
    module = VermaModule(spec)
    table = branching_table(module, Root.A12, depth=7)
    branch = trace_from_branching(table, window, slot_depth=7)
    brute = trace_brute_force(spec, Root.A12, window, divergent_depth=7)
    assert brute.equal_on(branch, window).passed


def test_trace_depth_certification_enforced():
    spec = ModuleSpec(BOREL, F(7, 3), F(5, 7), 4)
    with pytest.raises(UsageError):
        trace_brute_force(spec, Root.A13, Window(5, 8, 0))


def test_lift_samples_require_affine_independence():
    spec = ModuleSpec(BOREL, F(7, 3), F(5, 7), 6)
    with pytest.raises(UsageError):
        trace_brute_force(
            spec,
            Root.A13,
            Window(1, 2, 0),
            samples=[(F(7, 3), F(5, 7))] * 3,
        )


def test_lift_samples_defaults(borel_module):
    samples = lift_samples(borel_module.spec)
    assert samples == WEIGHTS
    pspec = ModuleSpec(PARABOLIC, F(7, 3), 1, 6)
    psamples = lift_samples(pspec)
    assert [l2 for _, l2 in psamples] == [1, 1, 1]
    assert [l1 for l1, _ in psamples] == list(LAMBDA1S)
