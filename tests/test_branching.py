import re
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from vermatheta import (
    BOREL,
    PARABOLIC,
    ModuleSpec,
    QMatrix,
    Root,
    VermaModule,
    Window,
    branching_table,
    kappa_spectrum,
    kernel_basis,
    trace_brute_force,
    trace_from_branching,
)
from vermatheta import branching, exactalg, verma
from vermatheta.branching import (
    FINITE,
    VERMA,
    BranchingTable,
    BranchingTerm,
    bruteforce_region,
    candidate_forms,
    is_divergent,
    lift_samples,
    lift_space,
    predicted_spectrum,
    required_depth,
    trace_branching,
    trace_pipelines,
    triangle,
)
from vermatheta.errors import UsageError, VerificationError
from vermatheta.qseries import ExponentForm, Monomial
from vermatheta.theta import CATALOG, closed_form_with_notes
from vermatheta.verma import Gen, h_form

from conftest import LAMBDA1S, WEIGHTS, WordStraightener, eigenvalues, singular_dimension

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
    table = branching_table(borel_module, Root.A13, region=triangle(6))
    seen = {}
    for term in table.terms:
        assert term.kind == VERMA
        assert term.multiplicity == 1
        n, m = term.origin
        assert term.hw == ExponentForm(-n - m, 1, 1)
        seen[term.origin] = term
    assert set(seen) == {(n, m) for n in range(7) for m in range(7 - n)}


def test_borel_12_table_upper_triangle(borel_module):
    table = branching_table(borel_module, Root.A12, region=triangle(6))
    origins = {term.origin for term in table.terms}
    assert origins == {(n, m) for n in range(7) for m in range(7 - n) if n <= m}
    for term in table.terms:
        n, m = term.origin
        assert term.hw == ExponentForm(m - 2 * n, 1, 0)


def test_parabolic_12_table_matches_double_sum(parabolic_modules):
    # constituents M_{L1 + r - s} for r = 0..L2, s >= 0, sitting at (s, r+s)
    v = 2
    module = parabolic_modules[(F(7, 3), v)]
    table = branching_table(module, Root.A12, region=triangle(8))
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
    table = branching_table(module, Root.A13, region=triangle(8))
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
    table = branching_table(module, Root.A23, region=triangle(9))
    mults: dict[int, int] = {}
    for term in table.terms:
        assert term.kind == FINITE
        mults[term.hw.c0] = mults.get(term.hw.c0, 0) + term.multiplicity
    # origins (i - v + 2*m0, m0) for m0 <= v need n + m <= 9: complete for small i
    for i in range(5):
        assert mults[i] == min(i, v) + 1


def test_tables_replicate_across_weights(borel_modules):
    for root in Root:
        tables = [branching_table(borel_modules[w], root, region=triangle(6)) for w in WEIGHTS]
        assert tables[0] == tables[1] == tables[2]


def test_accounting_failure_is_detected(borel_module):
    table = branching_table(borel_module, Root.A13, region=triangle(4))
    broken = BranchingTable(
        table.kind, table.root, table.terms[:-1], table.region
    )
    n, m = table.terms[-1].origin
    assert broken.local_dimension(n, m) != borel_module.dim(n, m)


# -- spectra ------------------------------------------------------------------------


def test_kappa_on_highest_weight_space(borel_module):
    l1, l2 = borel_module.spec.lambda1, borel_module.spec.lambda2
    assert eigenvalues(borel_module, kappa_spectrum(borel_module, Root.A12, 0, 0)) == ((l1, 1),)
    assert eigenvalues(borel_module, kappa_spectrum(borel_module, Root.A13, 0, 0)) == ((l1 + l2, 1),)


def test_kappa_depth_one_string(borel_module):
    l1, l2 = borel_module.spec.lambda1, borel_module.spec.lambda2
    got = dict(eigenvalues(borel_module, kappa_spectrum(borel_module, Root.A13, 1, 1)))
    assert got == {3 * (l1 + l2) - 2: 1, l1 + l2 - 2: 1}


def test_finite_module_interior_eigenvalue(parabolic_modules):
    # inside L_1 the h-value -1 slot (depth 1) carries eigenvalue 3*1-2 = 1
    module = parabolic_modules[(F(7, 3), 1)]
    spaces = [(n, m) for n in range(5) for m in range(5 - n) if module.dim(n, m)]
    for n, m in spaces:
        if module.spec.lambda2 + n - 2 * m == -1:  # the h2-value of (n, m)
            got = dict(eigenvalues(module, kappa_spectrum(module, Root.A23, n, m)))
            assert any(value == 1 for value in got)
            break
    else:
        raise AssertionError("no weight space with h23-value -1 found")


@pytest.mark.parametrize("root", list(Root))
def test_spectrum_matches_branching_prediction(borel_modules, root):
    for weight in WEIGHTS:
        module = borel_modules[weight]
        table = branching_table(module, root, region=triangle(6))
        for n in range(5):
            for m in range(5 - n):
                got = kappa_spectrum(module, root, n, m)
                want = predicted_spectrum(table, module, n, m)
                assert got == want


@pytest.mark.parametrize("root", list(Root))
def test_parabolic_spectrum_matches_branching_prediction(parabolic_modules, root):
    for v in (0, 1, 2):
        module = parabolic_modules[(F(7, 3), v)]
        table = branching_table(module, root, region=triangle(6))
        for n in range(5):
            for m in range(5 - n):
                if not module.dim(n, m):
                    continue
                got = kappa_spectrum(module, root, n, m)
                want = predicted_spectrum(table, module, n, m)
                assert got == want


def up_string_candidates(module, root, n, m):
    """The candidate list as built by walking up the root string from (n, m),
    one dim and h_form call per step."""
    dn, dm = root.down_step
    forms = []
    k = 0
    while n - k * dn >= 0 and m - k * dm >= 0 and module.dim(n - k * dn, m - k * dm):
        w_up = h_form(module.cap, root, n - k * dn, m - k * dm)
        form = w_up.scaled(2 * k + 1) + ExponentForm(-2 * k * k, 0, 0)
        if form not in forms:
            forms.append(form)
        k += 1
    return forms


@pytest.mark.parametrize("root", list(Root))
def test_candidate_forms_match_the_up_string_walk(borel_module, parabolic_modules, root):
    for module in (borel_module, parabolic_modules[(F(7, 3), 0)], parabolic_modules[(F(7, 3), 2)]):
        for n in range(13):
            for m in range(13 - n):
                if module.dim(n, m):
                    want = up_string_candidates(module, root, n, m)
                    assert candidate_forms(module, root, n, m) == want, (root, n, m)


def test_candidate_forms_are_affine_and_cover_string(borel_module):
    forms = candidate_forms(borel_module, Root.A13, 2, 2)
    assert ExponentForm(-4, 1, 1) in forms  # local highest weight, k = 0
    assert ExponentForm(3 * -2 - 2, 3, 3) in forms  # k = 1: 3u - 2 at u = (-2,1,1)
    assert ExponentForm(5 * 0 - 8, 5, 5) in forms  # k = 2: 5u - 8 at u = (0,1,1)
    assert len(forms) == 3


@pytest.mark.parametrize("root", list(Root))
def test_a_missing_candidate_is_a_verification_error(borel_module, parabolic_modules, root):
    # kappa_spectrum's completeness check is what turns a candidate list
    # that misses an eigenvalue into an error
    cases = 0
    for module in (borel_module, parabolic_modules[(F(7, 3), 2)]):
        for n, m in triangle(6):
            if not module.dim(n, m):
                continue
            forms = candidate_forms(module, root, n, m)
            if dict(kappa_spectrum(module, root, n, m, forms)).get(module.numerator(forms[-1])):
                with pytest.raises(VerificationError, match="eigenvalue candidates incomplete"):
                    kappa_spectrum(module, root, n, m, forms[:-1])
                cases += 1
    assert cases > 10


# -- trace assembly ------------------------------------------------------------------


@pytest.mark.parametrize("key", list(dict.fromkeys(e for e in CATALOG.values() if e.root)),
                         ids=lambda e: f"{e.kind}-{e.root.value}")
def test_region_table_is_the_full_table_over_the_region(key):
    # both pipelines sum over the brute-force region, so only a table over
    # the full triangle checks that no space outside it reaches the window
    window = Window(5, 8, 8)
    l2s = (F(5, 7),) if key.kind == BOREL else (0, 2)
    for l2 in l2s:
        spec = ModuleSpec(key.kind, F(7, 3), l2, 10)
        spec = spec.with_depth(required_depth(spec, key.root, window, key.regularized))
        module = VermaModule(spec)
        region = bruteforce_region(spec, key.root, window, key.regularized)
        full = branching_table(module, key.root)
        part = branching_table(module, key.root, region=region)
        inside = set(region)
        assert part.terms == tuple(t for t in full.terms if t.origin in inside)
        series = [trace_from_branching(t, window, key.regularized, spec=spec) for t in (part, full)]
        assert series[0].terms == series[1].terms
        assert series[0].terms


#: parabolic root-12 windows with B much larger than D, where slots far down
#: the string carry small L-coefficients but large constant parts
WIDE_WINDOWS = (Window(7, 1, 2), Window(9, 0, 2), Window(5, 8, 8))


def _slot_depth(lambda2: int, window: Window) -> int:
    """The depth of a triangle holding every parabolic root-12 slot the window's
    B admits: the k-th slot has L-coefficient 2k+1, so k <= j = (B-1)//2, and
    on a nonempty space (m <= n + lambda2) its constant part stays >= -D only
    if (2k+1)(n - lambda2) <= D + 2k(k+1), so n <= lambda2 + D + 2j(j+1); the
    deepest such space, plus one root step."""
    j = max(0, (window.B - 1) // 2)
    n_top = lambda2 + window.D + 2 * j * (j + 1)
    return 2 * n_top + lambda2 + 1


@pytest.mark.parametrize("window", WIDE_WINDOWS, ids=lambda w: f"B{w.B}-D{w.D}")
def test_parabolic_12_region_is_sound_where_B_exceeds_D(window):
    # the region does not grow with B: its trace must still be the trace
    # over a triangle deep enough for every slot B admits
    for l2 in (0, 2, 5):
        spec = ModuleSpec(PARABOLIC, F(7, 3), l2, _slot_depth(l2, window))
        module = VermaModule(spec)
        region = bruteforce_region(spec, Root.A12, window, False)
        part = branching_table(module, Root.A12, region=region)
        full = branching_table(module, Root.A12)
        series = [trace_from_branching(t, window, spec=spec) for t in (part, full)]
        assert series[0].terms == series[1].terms, l2
        assert series[0].terms


@pytest.mark.parametrize("window", [w for w in WIDE_WINDOWS if w.D >= 1],
                         ids=lambda w: f"B{w.B}-D{w.D}")
def test_parabolic_12_region_one_row_shorter_loses_a_term(window):
    lost = []
    for l2 in (0, 2, 5):
        spec = ModuleSpec(PARABOLIC, F(7, 3), l2, 10)
        region = bruteforce_region(spec, Root.A12, window, False)
        n_top = region[-1][0]
        spec = spec.with_depth(required_depth(spec, Root.A12, window))
        module = VermaModule(spec)
        series = [trace_from_branching(branching_table(module, Root.A12, region=r), window)
                  for r in (region, tuple((n, m) for n, m in region if n < n_top))]
        lost.append(series[0].terms != series[1].terms)
    assert any(lost)


@given(st.integers(0, 100), st.integers(-1000, 1000), st.integers(0, 50))
def test_an_in_window_candidate_floors_its_space(k, w0, slack):
    # bruteforce_region's lemma: if the k-th candidate's constant part
    # (2k+1)*w0 + 2k(k+1) lies in [-D, D], then w0 >= -D.  Every D >= |c|
    # admits the candidate, and slack 0 gives the least one
    c = (2 * k + 1) * w0 + 2 * k * (k + 1)
    D = abs(c) + slack
    assert w0 >= -D
    # the bound is reached at k = 0, where the candidate is w0 itself: w0 = -D
    # is in the window and w0 = -D - 1 is not
    assert [-D <= w <= D for w in (-D, -D - 1)] == [True, False]


def unfloored_shape(kind: str, root: Root, regularized: bool, l2, window: Window) -> tuple:
    """A non-divergent trace's region without its floor, n-major: the square
    n, m <= T when regularized, otherwise n <= D + L2 (L2 read as 0 on the
    Borel module) under the root's line."""
    if regularized:
        return tuple((n, m) for n in range(window.T + 1) for m in range(window.T + 1))
    n_top = window.D + (l2 if kind == PARABOLIC else 0)
    last = {Root.A13: lambda n: n_top - n, Root.A12: lambda n: n + l2, Root.A23: lambda n: n_top}[root]
    return tuple((n, m) for n in range(n_top + 1) for m in range(last(n) + 1))


def floor_value(spec: ModuleSpec, root: Root, regularized: bool, n: int, m: int) -> int:
    """What a trace region floors at (n, m): the constant part of its h-value,
    or when regularized its t-exponent along the root, h - L."""
    return h_form(None if regularized else spec.cap, root, n, m).c0


def test_floor_drops_no_space_in_reach():
    # the region is exactly the unfloored shape's spaces on or above the
    # floor, once each and n-major: w0 >= -D on a convergent trace, the
    # t-exponent >= -T on a regularized root-12 or root-23 square.  Every
    # space of the shape with an in-window candidate lies in it with each
    # nonempty space up its root string, and the floor never cuts the
    # shape's deepest n + m
    cases = 0
    for kind, l2 in [(BOREL, F(5, 7)), *((PARABOLIC, l2) for l2 in range(6))]:
        spec = ModuleSpec(kind, F(7, 3), l2, 10)
        module = VermaModule(spec)
        monomials: dict = {}
        for root, regularized in product(Root, (False, True)):
            if is_divergent(kind, root, regularized):
                continue
            dn, dm = root.down_step
            for B, D, T in product((0, 1, 3, 5, 9, 301), (0, 1, 2, 3, 5, 8, 13, 20),
                                   (0, 1, 2, 5, 8, 11) if regularized else (0,)):
                window = Window(B, D, T)
                shape = unfloored_shape(kind, root, regularized, l2, window)
                region = bruteforce_region(spec, root, window, regularized)
                bound = window.T if regularized else window.D
                unfloored = regularized and root is Root.A13
                assert region == tuple(
                    (n, m) for n, m in shape
                    if unfloored or floor_value(spec, root, regularized, n, m) >= -bound
                ), (kind, l2, root, regularized, window)
                assert list(region) == sorted(set(region))
                inside = set(region)
                for n, m in shape:
                    key = (root, regularized, n, m)
                    if key not in monomials:
                        t_part = (m - 2 * n, n - 2 * m) if regularized else (0, 0)
                        monomials[key] = [Monomial(f, *t_part)
                                          for f in candidate_forms(module, root, n, m)]
                    if any(map(window.contains, monomials[key])):
                        k = 0
                        while module.dim(n - k * dn, m - k * dm):
                            assert (n - k * dn, m - k * dm) in inside, (kind, l2, root, window, n, m, k)
                            k += 1
                deepest = [max(n + m for n, m in r) for r in (shape, region)]
                assert deepest[0] == deepest[1], (kind, l2, root, regularized, window)
                cases += 1
    # 48 (B, D) pairs, times 6 T values when regularized: 4 Borel traces
    # and 6 parabolic ones at each of 6 lambda2 values
    assert cases == 48 * (1 + 3 * 6) + 6 * 48 * (3 + 3 * 6)


#: floored traces: parabolic root 12 at B 9, D 20, lambda2 2, and the
#: regularized Borel 12 and 23 traces at the default window
FLOORED = [
    pytest.param(PARABOLIC, 2, Root.A12, Window(9, 20, 8), False, id="parabolic-12"),
    pytest.param(BOREL, F(5, 7), Root.A12, Window(5, 8, 8), True, id="borel-reg-12"),
    pytest.param(BOREL, F(5, 7), Root.A23, Window(5, 8, 8), True, id="borel-reg-23"),
]


@pytest.mark.parametrize("kind, l2, root, window, regularized", FLOORED)
def test_floor_one_unit_higher_loses_a_term(kind, l2, root, window, regularized):
    spec = ModuleSpec(kind, F(7, 3), l2, 0)
    region = bruteforce_region(spec, root, window, regularized)
    bound = window.T if regularized else window.D
    if not regularized:
        # the live space (10, 0) sits on the parabolic root-12 floor 2n - m <= D
        assert (10, 0) in region and floor_value(spec, root, False, 10, 0) == -20
    raised = tuple(s for s in region if floor_value(spec, root, regularized, *s) > -bound)
    spec = spec.with_depth(required_depth(spec, root, window, regularized))
    module = VermaModule(spec)
    series = [trace_from_branching(branching_table(module, root, region=r), window, regularized)
              for r in (region, raised)]
    assert series[0].terms != series[1].terms


def test_convergent_regions_do_not_depend_on_B():
    traces = dict.fromkeys(e for e in CATALOG.values()
                           if e.root and not e.regularized and not is_divergent(e.kind, e.root, False))
    assert len(traces) == 4
    for key, l2, (D, T) in product(traces, (0, 2, 5), ((0, 0), (1, 2), (8, 8))):
        spec = ModuleSpec(key.kind, F(7, 3), F(5, 7) if key.kind == BOREL else l2, 10)
        regions = {bruteforce_region(spec, key.root, Window(B, D, T), False) for B in (1, 9, 301)}
        assert len(regions) == 1, (key, l2, D, T)


@pytest.mark.parametrize("key", list(dict.fromkeys(e for e in CATALOG.values() if e.root)),
                         ids=lambda e: f"{e.kind}-{e.root.value}")
def test_required_depth_is_the_region_depth_plus_one_root_step(key):
    # the working depth the depth cap is checked against: the brute force
    # builds the Casimir on every region space, which reaches one root step
    # below it; a character enumerates n, m <= T
    l2s = (F(5, 7),) if key.kind == BOREL else (0, 2)
    windows = (Window(5, 8, 8), Window(9, 20, 8), Window(21, 1, 2))
    for l2, window, depth in product(l2s, windows, (0, 10, 200)):
        spec = ModuleSpec(key.kind, F(7, 3), l2, depth)
        region = bruteforce_region(spec, key.root, window, key.regularized)
        deepest = max(n + m for n, m in region) + sum(key.root.down_step)
        got = required_depth(spec, key.root, window, key.regularized)
        assert got >= depth
        assert got == max(depth, deepest), (l2, window, depth)
        assert required_depth(spec, None, window) == max(depth, 2 * window.T)


def test_region_must_be_closed_upward(borel_module):
    # (1, 1) lies in the region m <= n <= 3; its root-12 up-neighbour (0, 1) does not
    with pytest.raises(VerificationError, match=re.escape(
            "the region is not closed upward along root 12: it holds (1, 1) but not (0, 1)")):
        branching_table(borel_module, Root.A12, region=tuple((n, m) for n in range(4)
                                                             for m in range(n + 1)))


def test_table_refused_for_a_window_outside_its_region(borel_module):
    spec = borel_module.spec
    table = branching_table(borel_module, Root.A13, region=triangle(4))
    assert trace_from_branching(table, Window(3, 4, 0), spec=spec).terms
    # the window needs triangle(8), whose first space past triangle(4) is (0, 5)
    with pytest.raises(UsageError, match=re.escape(
            "window needs constituents at (0, 5), outside the table's region")):
        trace_from_branching(table, Window(3, 8, 0), spec=spec)
    # the regularized window needs the floored square n, m <= 3: a triangle
    # holds its corner (3, 3) from n+m <= 6 on, not at n+m <= 5
    for top, fits in ((6, True), (5, False)):
        table = branching_table(borel_module, Root.A12, region=triangle(top))
        if fits:
            assert trace_from_branching(table, Window(3, 4, 3), True, spec=spec).terms
        else:
            with pytest.raises(UsageError, match=re.escape("constituents at (3, 3), outside")):
                trace_from_branching(table, Window(3, 4, 3), True, spec=spec)


@pytest.mark.parametrize("kind, l2, root, window, regularized", FLOORED)
def test_table_refused_for_a_floor_above_the_window(kind, l2, root, window, regularized):
    # containment sees the floor: a table floored one unit too high is
    # refused, and a full triangle, as ``branch`` builds, serves the window
    window = Window(window.B, 4, 3)
    spec = ModuleSpec(kind, F(7, 3), l2, 0)
    spec = spec.with_depth(required_depth(spec, root, window, regularized))
    module = VermaModule(spec)
    need = bruteforce_region(spec, root, window, regularized)
    bound = window.T if regularized else window.D
    on_floor = [s for s in need if floor_value(spec, root, regularized, *s) == -bound]
    raised = branching_table(module, root, region=tuple(s for s in need if s not in on_floor))
    with pytest.raises(UsageError, match=re.escape(
            f"window needs constituents at {on_floor[0]}, outside the table's region")):
        trace_from_branching(raised, window, regularized, spec=spec)
    series = [trace_from_branching(branching_table(module, root, region=r), window, regularized,
                                   spec=spec)
              for r in (need, None)]
    assert series[0].terms == series[1].terms
    assert series[0].terms


def test_trace_of_single_verma_constituent():
    # the region holds the string's slots (k, k) for k <= 4
    window = Window(5, 8, 0)
    hw = ExponentForm(0, 1, 1)
    table = BranchingTable(BOREL, Root.A13, (BranchingTerm(VERMA, hw, 1, (0, 0)),), triangle(8))
    series = trace_from_branching(table, window)
    want = {}
    for k in range(3):  # 2k+1 <= 5
        want[(-2 * k * k, 2 * k + 1, 2 * k + 1)] = 1
    assert {tuple(m.qexp): c for m, c in series.terms.items()} == want


def test_trace_of_single_finite_constituent_is_2q():
    # L_1 has slots (0, 0) and (0, 1), both in the region; (0, 2) is not a slot
    window = Window(5, 8, 0)
    table = BranchingTable(
        PARABOLIC, Root.A23, (BranchingTerm(FINITE, ExponentForm(1, 0, 0), 1, (0, 0)),), triangle(2)
    )
    series = trace_from_branching(table, window)
    assert {tuple(m.qexp): c for m, c in series.terms.items()} == {(1, 0, 0): 2}


def test_trace_counts_only_slots_inside_the_table_region():
    # the root-13 string of (0, 0) leaves the region {(0, 0), (1, 0)} after
    # k = 0, so its in-window slots k = 1, 2 at (1, 1), (2, 2) are not counted
    window = Window(5, 8, 0)
    hw = ExponentForm(0, 1, 1)
    table = BranchingTable(BOREL, Root.A13, (BranchingTerm(VERMA, hw, 1, (0, 0)),), ((0, 0), (1, 0)))
    series = trace_from_branching(table, window)
    assert {tuple(m.qexp): c for m, c in series.terms.items()} == {(0, 1, 1): 1}


def test_constant_weight_verma_constituent_is_a_verification_error():
    # no module yields one: Borel h-forms carry L1 or L2, and on the
    # parabolic module every root-23 constituent is finite
    table = BranchingTable(
        PARABOLIC, Root.A23, (BranchingTerm(VERMA, ExponentForm(1, 0, 0), 1, (0, 0)),), triangle(0)
    )
    with pytest.raises(VerificationError, match="constant highest weight"):
        trace_from_branching(table, Window(5, 8, 0))


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
    table = branching_table(module, Root.A12, region=triangle(7))
    branch = trace_from_branching(table, window)
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


# -- the affine lift at a held-out weight ---------------------------------------------

#: guard-passing at every depth (L1, L2 and L1 + L2 not integral), and
#: neither weight nor lambda1 is a lift sample
HELD_OUT = (F(17, 6), F(4, 13))


@pytest.mark.parametrize("key", list(dict.fromkeys(e for e in CATALOG.values() if e.root)),
                         ids=lambda e: f"{e.kind}-{e.root.value}")
def test_lifted_forms_predict_the_spectrum_at_a_held_out_weight(key):
    # the lift matches forms to spectra at the samples only; at a weight no
    # sample uses, the lifted forms must still give the measured spectrum
    window = Window(3, 4, 3)
    l2s = (F(5, 7),) if key.kind == BOREL else (0, 1, 2)
    for l2 in l2s:
        spec = ModuleSpec(key.kind, F(7, 3), l2, 10)
        spec = spec.with_depth(required_depth(spec, key.root, window, key.regularized))
        samples = lift_samples(spec)
        held_out = (HELD_OUT[0], HELD_OUT[1] if key.kind == BOREL else l2)
        assert held_out not in samples and held_out[0] not in {l1 for l1, _ in samples}
        modules = [VermaModule(spec.with_weight(*w)) for w in samples]
        probe = VermaModule(spec.with_weight(*held_out))
        spaces = 0
        for n, m in bruteforce_region(spec, key.root, window, key.regularized):
            if not probe.dim(n, m):
                continue
            forms = candidate_forms(modules[0], key.root, n, m)
            predicted: dict = {}
            for form, count in zip(forms, lift_space(modules, key.root, n, m, forms)):
                if count:
                    value = probe.numerator(form)
                    predicted[value] = predicted.get(value, 0) + count
            assert tuple(sorted(predicted.items())) == kappa_spectrum(probe, key.root, n, m), (l2, n, m)
            spaces += 1
        assert spaces


@pytest.mark.parametrize("key", list(dict.fromkeys(e for e in CATALOG.values() if e.root)),
                         ids=lambda e: f"{e.kind}-{e.root.value}")
def test_candidate_values_are_distinct_at_every_lift_sample(key):
    # lift_space reads each form's count off the multiplicity of its value,
    # so at no sample may two candidates of a measured space share a value
    window = Window(5, 8, 8)
    l2s = (F(5, 7),) if key.kind == BOREL else (0, 1, 2)
    for l2 in l2s:
        spec = ModuleSpec(key.kind, F(7, 3), l2, 10)
        spec = spec.with_depth(required_depth(spec, key.root, window, key.regularized))
        modules = [VermaModule(spec.with_weight(*w)) for w in lift_samples(spec)]
        spaces = 0
        for n, m in bruteforce_region(spec, key.root, window, key.regularized):
            if not modules[0].dim(n, m):
                continue
            forms = candidate_forms(modules[0], key.root, n, m)
            for module in modules:
                values = [module.numerator(f) for f in forms]
                assert len(set(values)) == len(values), (l2, n, m, module.spec.lambda1)
            spaces += 1
        assert spaces


def test_lift_space_refuses_a_duplicated_form(borel_modules):
    modules = [borel_modules[w] for w in WEIGHTS]
    forms = candidate_forms(modules[0], Root.A13, 2, 2)
    assert lift_space(modules, Root.A13, 2, 2, forms) == [1, 1, 1]
    with pytest.raises(VerificationError, match="ambiguous affine lift"):
        lift_space(modules, Root.A13, 2, 2, [*forms, forms[0]])


@pytest.mark.parametrize("off", range(3))
def test_lift_space_refuses_counts_that_differ_across_samples(borel_modules, monkeypatch, off):
    # each sample's counts must be the first sample's: one module whose
    # Casimir loses an eigenvalue, whichever it is, fails the lift.  The
    # Borel root-13 Casimir is triangular, so its leading block keeps the
    # other eigenvalues: at the first sample its spectrum is complete, and
    # only the counts' sum, one short of the space, shows the loss
    modules = [borel_modules[w] for w in WEIGHTS]
    forms = candidate_forms(modules[0], Root.A13, 2, 2)
    assert lift_space(modules, Root.A13, 2, 2, forms) == [1, 1, 1]
    real = modules[off].operator_matrix

    def leading_block(op, source):
        mat = real(op, source)
        d = mat.cols - 1
        kept = [x for i, x in enumerate(mat.num) if i // mat.cols < d and i % mat.cols < d]
        return QMatrix.from_integers(d, d, kept, mat.den) if op is Root.A13 else mat

    monkeypatch.setattr(modules[off], "operator_matrix", leading_block)
    message = "sum to 2, not the dimension 3" if off == 0 else "lifted multiplicities disagree"
    with pytest.raises(VerificationError, match=message):
        lift_space(modules, Root.A13, 2, 2, forms)


# -- confirmation at later weight samples against a full re-measurement -----------

#: guard-passing Borel weight samples that share no weight with the defaults
HELD_OUT_SAMPLES = ((F(5, 2), F(3, 4)), (F(17, 6), F(-2, 9)), (F(9, 7), F(4, 5)))

TRACES = list(dict.fromkeys(e for e in CATALOG.values() if e.root))


def remeasured_table(module, root, region) -> BranchingTable:
    """A branching table measured in full: every singular vector of every
    nonempty space of the region read by ``kernel_basis`` and classified."""
    terms = []
    for n, m in region:
        if module.dim(n, m):
            counts: dict = {}
            form = h_form(module.cap, root, n, m)
            i, rem = divmod(module.numerator(form), module.denom)
            for vec in kernel_basis(module.operator_matrix(root.raising, (n, m))):
                # only a nonnegative integral h-value can top a finite constituent
                key = ((VERMA, form) if rem or i < 0
                       else branching._classify(module, root, n, m, vec, form, i))
                counts[key] = counts.get(key, 0) + 1
            terms += [BranchingTerm(kind, hw, c, (n, m)) for (kind, hw), c in sorted(counts.items())]
    return BranchingTable(module.spec.kind, root, tuple(terms), region)


@pytest.mark.parametrize("key, l2, samples", [
    *(pytest.param(key, F(5, 7), samples, id=f"borel-reg-{key.root.value}-{name}" if key.regularized
                   else f"borel-{key.root.value}-{name}")
      for key in TRACES if key.kind == BOREL
      for name, samples in (("default", ()), ("held-out", HELD_OUT_SAMPLES))),
    *(pytest.param(key, l2, (), id=f"parabolic-{key.root.value}-lambda2={l2}")
      for key in TRACES if key.kind == PARABOLIC for l2 in (0, 1, 2)),
])
def test_confirmed_traces_equal_a_full_remeasurement(monkeypatch, key, l2, samples):
    # each sample's counts and table, re-measured on a single-weight module,
    # are what the pipelines measured at the first sample and confirmed
    window = Window(3, 4, 3)
    spec = ModuleSpec(key.kind, *(samples[0] if samples else (F(7, 3), l2)), 0)
    spec = spec.with_depth(required_depth(spec, key.root, window, key.regularized))
    samples = lift_samples(spec, samples)
    region = bruteforce_region(spec, key.root, window, key.regularized)
    remeasured = [VermaModule(spec.with_weight(*w)) for w in samples]
    shared = [VermaModule(spec.with_weight(*w), shared=True) for w in samples]
    spaces = 0
    for n, m in region:
        if remeasured[0].dim(n, m):
            forms = candidate_forms(remeasured[0], key.root, n, m)
            counts = lift_space(shared, key.root, n, m, forms)
            for module in remeasured:
                spectrum = dict(kappa_spectrum(module, key.root, n, m, forms))
                assert [spectrum.get(module.numerator(f), 0) for f in forms] == counts, (n, m)
            spaces += 1
    assert spaces
    real, tables = branching.branching_table, []

    def recorded(*args, **kwargs):
        tables.append(real(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(branching, "branching_table", recorded)
    trace_branching(spec, key.root, window, key.regularized, samples)
    assert tables == [remeasured_table(module, key.root, region) for module in remeasured[:1]]
    for module in remeasured[1:]:
        assert remeasured_table(module, key.root, region) == tables[0]


@pytest.mark.parametrize("kind, l2", [(BOREL, F(5, 7)), (PARABOLIC, 0), (PARABOLIC, 1),
                                      (PARABOLIC, 2)])
def test_branch_tables_equal_a_full_remeasurement(kind, l2):
    module = VermaModule(ModuleSpec(kind, F(7, 3), l2, 8))
    for root in Root:
        assert branching_table(module, root) == remeasured_table(module, root, triangle(8))


def test_weight_free_is_decided_per_matrix():
    # over suite's window: every parabolic root-23 Casimir and E23 matrix
    # the traces hold is weight-free and no Borel Casimir is, while raising
    # matrices of one root split both ways, so the decision is each matrix's
    window = Window(5, 8, 8)
    held: dict = {}
    for key in TRACES:
        for l2 in ((F(5, 7),) if key.kind == BOREL else (0, 1, 2)):
            spec = ModuleSpec(key.kind, F(7, 3), l2, 10)
            spec = spec.with_depth(required_depth(spec, key.root, window, key.regularized))
            trace_pipelines(spec, key.root, window, key.regularized)
            module = VermaModule(spec, shared=True)
            for op, n, m in module.matrix_forms:
                if op in (key.root, key.root.raising):  # built by this trace
                    free, total = held.get((key.kind, op), (0, 0))
                    held[key.kind, op] = (free + module.weight_free(op, n, m), total + 1)
    assert held[PARABOLIC, Root.A23] == (182, 182)
    assert held[PARABOLIC, Gen.E23] == (190, 190)
    assert [held[BOREL, root][0] for root in Root] == [0, 0, 0]
    assert all(0 < held[kind, root.raising][0] < held[kind, root.raising][1]
               for kind, root in ((BOREL, Root.A13), (PARABOLIC, Root.A12), (PARABOLIC, Root.A13)))
    # a single-weight module keeps no forms, and a shared one decides only
    # the matrices its structure holds
    spec = ModuleSpec(PARABOLIC, F(7, 3), 1, 6)
    bound, shared = VermaModule(spec), VermaModule(spec, shared=True)
    assert not shared.weight_free(Root.A23, 2, 3)
    for module in (bound, shared):
        module.operator_matrix(Root.A23, (2, 3))
    assert shared.weight_free(Root.A23, 2, 3) and not bound.weight_free(Root.A23, 2, 3)


# -- spectra read off the affine diagonal ----------------------------------------------


def affine(rows) -> list:
    """The row-major entry forms of a matrix whose rows hold (c0, c1, c2)
    entries, as a shared module's structure keeps them."""
    return [ExponentForm(*entry) for row in rows for entry in row]


def with_entry(forms: list, d: int, i: int, j: int, delta: tuple) -> list:
    """``forms`` of a d x d matrix with ``delta`` added to its (i, j) entry."""
    forms = list(forms)
    forms[i * d + j] = ExponentForm(*forms[i * d + j]) + ExponentForm(*delta)
    return forms


A, B, C, Z = (1, 1, 0), (2, 3, 0), (0, 5, -1), (0, 0, 0)


@pytest.mark.parametrize("rows, diagonal", [
    pytest.param([[A, (0, 0, 7)], [Z, B]], [A, B], id="upper"),
    pytest.param([[A, Z], [(0, 0, 7), B]], [A, B], id="lower"),
    pytest.param([[A, Z, Z], [Z, B, Z], [Z, Z, C]], [A, B, C], id="diagonal"),
    pytest.param([[C]], [C], id="1x1"),
    pytest.param([[A, (0, 1, 0), Z], [Z, B, Z], [(0, 0, 7), Z, C]], None, id="entries-both-sides"),
    pytest.param([[A, (3, 0, 0)], [Z, A]], None, id="repeated-diagonal-form"),
])
def test_diagonal_forms_need_a_triangle_and_distinct_forms(monkeypatch, rows, diagonal):
    # an entry counts as nonzero when any of its c0, c1, c2 is, and the
    # orientation is read from the matrix: either triangle, or both; the
    # Borel (d-1, d-1) space has dimension d
    d = len(rows)
    module = VermaModule(ModuleSpec(BOREL, F(7, 3), F(5, 7), 2 * d), shared=True)
    monkeypatch.setitem(module.matrix_forms, (Root.A12, d - 1, d - 1), affine(rows))
    got = module.diagonal_forms(Root.A12, d - 1, d - 1)
    assert got == (diagonal if diagonal is None else affine([diagonal]))


def test_diagonal_forms_need_a_cached_square_matrix(monkeypatch):
    # a single-weight module keeps no forms, and a shared one answers only
    # for a square matrix its structure holds: E32 maps the 2-dimensional (2, 1)
    # space to the 3-dimensional (2, 2), here with a triangle's distinct diagonal
    spec = ModuleSpec(BOREL, F(7, 3), F(5, 7), 6)
    verma.shared_forms.cache_clear()
    bound, shared = VermaModule(spec), VermaModule(spec, shared=True)
    assert shared.diagonal_forms(Root.A12, 2, 3) is None
    for module in (bound, shared):
        module.operator_matrix(Root.A12, (2, 3))
    assert shared.diagonal_forms(Root.A12, 2, 3) and bound.diagonal_forms(Root.A12, 2, 3) is None
    monkeypatch.setitem(shared.matrix_forms, (Gen.E32, 2, 1), affine([[A, Z], [Z, B], [C, Z]]))
    assert shared.diagonal_forms(Gen.E32, 2, 1) is None


def shared_casimir(spec: ModuleSpec, root: Root, n: int, m: int) -> tuple:
    """The shared sample modules of ``spec`` and their structure's cached
    affine Casimir forms on (n, m)."""
    modules = [VermaModule(spec.with_weight(*w), shared=True) for w in lift_samples(spec)]
    modules[0].operator_matrix(root, (n, m))
    return modules, modules[0].matrix_forms[root, n, m]


@pytest.mark.parametrize("root, entry, message", [
    # a diagonal form off the candidates
    (Root.A12, (0, 0), "found 2 of 3"),
    (Root.A13, (0, 0), "found 2 of 3"),
    # an entry across the triangle, mirroring a nonzero one, moves two
    # eigenvalues off the candidates, and the rank path finds that
    (Root.A12, (1, 0), "found 1 of 3"),
    (Root.A13, (0, 1), "found 1 of 3"),
])
def test_lift_space_on_shared_modules_refuses_a_perturbed_casimir(monkeypatch, root, entry, message):
    # a trace's samples share one affine Casimir, so a perturbed entry reaches
    # every sample; Borel root 12 is upper triangular on (2, 2), root 13 lower
    modules, coeffs = shared_casimir(ModuleSpec(BOREL, F(7, 3), F(5, 7), 6), root, 2, 2)
    forms = candidate_forms(modules[0], root, 2, 2)
    assert lift_space(modules, root, 2, 2, forms) == [1, 1, 1]
    i, j = entry
    if i != j:  # the mirror entry is nonzero, so the matrix is no longer triangular
        assert any(coeffs[j * 3 + i])
    monkeypatch.setitem(modules[0].matrix_forms, (root, 2, 2),
                        with_entry(coeffs, 3, i, j, (1, 0, 0)))
    # both paths give "found 2 of 3" on a perturbed diagonal, so the path is checked too
    ranked, real_kappa = [], branching.kappa_spectrum
    monkeypatch.setattr(branching, "kappa_spectrum", lambda *a: ranked.append(a) or real_kappa(*a))
    with pytest.raises(VerificationError, match=re.escape(
            f"eigenvalue candidates incomplete on weight space (2, 2) for root {root.value}: {message}")):
        lift_space(modules, root, 2, 2, forms)
    assert bool(ranked) == (i != j)


def test_a_repeated_diagonal_form_takes_the_rank_path(monkeypatch):
    # e*I and a Jordan block at e both have the one diagonal form e twice, so
    # neither is read off the diagonal: ranks give e multiplicity 2 on the
    # first, and only 1 of 2 on the second, which is not diagonalizable
    modules, coeffs = shared_casimir(ModuleSpec(BOREL, F(7, 3), F(5, 7), 6), Root.A12, 1, 2)
    forms = candidate_forms(modules[0], Root.A12, 1, 2)
    assert lift_space(modules, Root.A12, 1, 2, forms) == [1, 1]
    e = tuple(forms[1])
    matrices = modules[0].matrix_forms
    monkeypatch.setitem(matrices, (Root.A12, 1, 2), affine([[e, Z], [Z, e]]))
    assert lift_space(modules, Root.A12, 1, 2, forms) == [0, 2]
    monkeypatch.setitem(matrices, (Root.A12, 1, 2), affine([[e, (1, 0, 0)], [Z, e]]))
    with pytest.raises(VerificationError, match=re.escape("(1, 2) for root 12: found 1 of 2")):
        lift_space(modules, Root.A12, 1, 2, forms)


def test_root_12_and_13_casimirs_are_read_off_the_diagonal(monkeypatch):
    # over suite's regions every root-12 and root-13 Casimir is triangular
    # with distinct diagonal forms, so lift_space takes no rank there, and
    # no root-23 Casimir of more than one row is, so each reaches
    # kappa_spectrum; upper and lower triangles both occur, so neither can
    # be assumed
    lifted, ranked = [], []
    real_lift, real_kappa = branching.lift_space, branching.kappa_spectrum

    def recorded_lift(modules, root, n, m, forms):
        before = len(ranked)
        counts = real_lift(modules, root, n, m, forms)
        coeffs = modules[0].matrix_forms[root, n, m]
        diagonal = modules[0].diagonal_forms(root, n, m)
        lifted.append((root, modules[0].dim(n, m), coeffs, diagonal, len(ranked) > before))
        return counts

    def recorded_kappa(module, root, n, m, forms=None):
        ranked.append((root, n, m))
        return real_kappa(module, root, n, m, forms)

    monkeypatch.setattr(branching, "lift_space", recorded_lift)
    monkeypatch.setattr(branching, "kappa_spectrum", recorded_kappa)
    window = Window(5, 8, 8)
    for key in TRACES:
        for l2 in ((F(5, 7),) if key.kind == BOREL else (0, 1, 2)):
            spec = ModuleSpec(key.kind, F(7, 3), l2, 10)
            spec = spec.with_depth(required_depth(spec, key.root, window, key.regularized))
            trace_brute_force(spec, key.root, window, key.regularized)
    orientations = set()
    for root, d, coeffs, diagonal, took_ranks in lifted:
        if root is Root.A23:
            assert took_ranks or d == 1
            continue
        assert not took_ranks and diagonal
        nonzero = [divmod(k, d) for k, entry in enumerate(coeffs) if any(entry)]
        orientations.add((any(i < j for i, j in nonzero), any(i > j for i, j in nonzero)))
    assert orientations == {(False, False), (True, False), (False, True)}
    assert any(root is Root.A23 and d > 1 for root, d, _, _, _ in lifted)


def unreduced_tridiagonal(mat) -> bool:
    """Whether a square matrix's entries off its three bands are all zero and
    those on its sub- and super-diagonal all nonzero."""
    d = mat.cols
    entry = lambda i, j: mat.num[i * d + j]
    return (mat.rows == d
            and all(entry(i, j) == 0 for i in range(d) for j in range(d) if abs(i - j) > 1)
            and all(entry(k - 1, k) and entry(k, k - 1) for k in range(1, d)))


def test_root_23_casimirs_take_the_band_recurrence(monkeypatch):
    # over suite's regions, at every weight sample, every root-23 Casimir of
    # more than one row is unreduced tridiagonal, so the root-23 brute force
    # takes no rank at all: every sample's ``kappa_spectrum`` runs the
    # determinant recurrence
    ranked, lifted = [], []
    for module in (exactalg, branching):
        real = module.rank
        monkeypatch.setattr(module, "rank", lambda m, real=real: ranked.append(m) or real(m))
    real_lift = branching.lift_space

    def recorded_lift(modules, root, n, m, forms):
        lifted.append((modules, n, m))
        return real_lift(modules, root, n, m, forms)

    monkeypatch.setattr(branching, "lift_space", recorded_lift)
    window = Window(5, 8, 8)
    for key in TRACES:
        if key.root is not Root.A23:
            continue
        for l2 in ((F(5, 7),) if key.kind == BOREL else (0, 1, 2, 3)):
            spec = ModuleSpec(key.kind, F(7, 3), l2, 10)
            spec = spec.with_depth(required_depth(spec, key.root, window, key.regularized))
            trace_brute_force(spec, key.root, window, key.regularized)
    assert ranked == []
    bands = 0
    for modules, n, m in lifted:
        for module in modules:
            mat = module.operator_matrix(Root.A23, (n, m))
            if mat.cols > 1:
                assert unreduced_tridiagonal(mat), (module.spec, n, m)
                bands += 1
    kinds = {modules[0].spec.kind for modules, n, m in lifted if modules[0].dim(n, m) > 1}
    assert bands and kinds == {BOREL, PARABOLIC}


@pytest.mark.parametrize("kind, l2", [(BOREL, F(5, 7)), (PARABOLIC, 0), (PARABOLIC, 1),
                                      (PARABOLIC, 2)])
def test_lifted_forms_are_the_roots_of_the_symbolic_characteristic_polynomial(kind, l2):
    # over Q[L1, L2] the root Casimir E F + F E, straightened by words, has a
    # characteristic polynomial that splits into linear factors; its roots
    # with multiplicity are the lifted forms, at every weight at once
    l1_sym, l2_sym, x = sympy.symbols("L1 L2 x")
    hw = (l1_sym, l2_sym if kind == BOREL else l2)
    spec = ModuleSpec(kind, F(7, 3), l2, 6)
    oracle = WordStraightener(spec, hw, sympy.expand)
    modules = [VermaModule(spec.with_weight(*w)) for w in lift_samples(spec)]
    cases = 0
    for root in Root:
        for n, m in triangle(4):
            basis = modules[0].weight_space(n, m)
            if not basis:
                continue
            index = {exps: i for i, exps in enumerate(basis)}
            casimir = sympy.zeros(len(basis))
            for j, exps in enumerate(basis):
                for first, second in ((root.raising, root.lowering), (root.lowering, root.raising)):
                    for mid, c1 in oracle.apply_gen(first, exps).items():
                        for out, c2 in oracle.apply_gen(second, mid).items():
                            casimir[index[out], j] += c1 * c2
            roots: dict = {}
            for factor, power in sympy.factor_list(casimir.charpoly(x).as_expr())[1]:
                linear = sympy.Poly(factor, x)
                assert linear.degree() == 1 and linear.nth(1).is_number, (root, n, m, factor)
                value = sympy.expand(-linear.nth(0) / linear.nth(1))
                roots[value] = roots.get(value, 0) + power
            forms = candidate_forms(modules[0], root, n, m)
            lifted: dict = {}
            for form, count in zip(forms, lift_space(modules, root, n, m, forms)):
                if count:
                    value = sympy.expand(form.c0 + form.c1 * l1_sym + form.c2 * l2_sym)
                    lifted[value] = lifted.get(value, 0) + count
            assert roots == lifted, (root, n, m)
            cases += 1
    assert cases == 3 * len([s for s in triangle(4) if modules[0].dim(*s)])


# -- integer invariants of the spectrum path ------------------------------------------


@pytest.mark.parametrize("kind, l2", [(BOREL, F(5, 7)), (BOREL, F(-4, 9)),
                                      (PARABOLIC, 0), (PARABOLIC, 1), (PARABOLIC, 2)])
def test_casimir_denominator_is_the_weight_denominator(kind, l2):
    # kappa_spectrum shifts the Casimir's numerators by candidate numerators
    # over the weight denominator, so the two denominators must be one
    for l1 in (F(7, 3), F(11, 6)):
        module = VermaModule(ModuleSpec(kind, l1, l2, 7))
        assert module.denom == lcm(l1.denominator, module.spec.lambda2.denominator)
        for root in Root:
            for n in range(6):
                for m in range(6 - n):
                    if module.dim(n, m):
                        assert module.operator_matrix(root, (n, m)).den == module.denom, (root, n, m)


def test_casimir_off_the_weight_denominator_is_a_verification_error(monkeypatch):
    module = VermaModule(ModuleSpec(BOREL, F(7, 3), F(5, 7), 4))
    real = module.operator_matrix

    def doubled(op, source):
        mat = real(op, source)
        return QMatrix.from_integers(mat.rows, mat.cols, [2 * x for x in mat.num], 2 * mat.den)

    monkeypatch.setattr(module, "operator_matrix", doubled)
    with pytest.raises(VerificationError, match="weight denominator"):
        kappa_spectrum(module, Root.A12, 1, 0)


def test_branching_and_spectra_make_no_fraction(monkeypatch):
    # singular vectors, their classification, candidate numerators, shifts
    # and ranks, and every series sum stay in integers; only reports build
    # Fractions
    modules = [VermaModule(ModuleSpec(BOREL, F(7, 3), F(5, 7), 10)),
               VermaModule(ModuleSpec(PARABOLIC, F(7, 3), 2, 10))]
    window = Window(5, 8, 8)
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    calls = 0
    series = []
    for module in modules:
        series.append(module.character_bruteforce(5))
        for identity, entry in CATALOG.items():
            if entry.kind == module.spec.kind:
                series.append(closed_form_with_notes(identity, module.spec, window)[0])
        for root in Root:
            table = branching_table(module, root)
            series += [trace_from_branching(table, window, reg) for reg in (False, True)]
            top = module.spec.depth - sum(root.down_step)
            for n in range(top + 1):
                for m in range(top + 1 - n):
                    if module.dim(n, m):
                        kappa_spectrum(module, root, n, m)
                        calls += 1
    monkeypatch.undo()
    assert table.terms and calls == 266
    # parabolic-trace-12's L1 exponents are negative, so it has no term in window
    assert len(series) == 23 and sum(1 for s in series if len(s)) == 22
    assert made == []


# -- Dynkin-flip oracle ---------------------------------------------------------------

#: the diagram automorphism of sl(3) on the root sl(2)s
FLIP = {Root.A12: Root.A23, Root.A23: Root.A12, Root.A13: Root.A13}


def test_dynkin_flip_oracle():
    # the flip maps M(L1, L2) to M(L2, L1) and the (n, m) space to (m, n);
    # the PBW order E21^a E32^b E31^c is not flip invariant, so each side
    # reads other entries of the action table than its mirror
    spec = ModuleSpec(BOREL, F(7, 3), F(5, 7), 12)
    flipped = ModuleSpec(BOREL, F(5, 7), F(7, 3), 12)
    module, mirror = VermaModule(spec), VermaModule(flipped)
    cases = 0
    for root in Root:
        top = spec.depth - sum(root.down_step)
        for n in range(top + 1):
            for m in range(top + 1 - n):
                got = kappa_spectrum(module, root, n, m)
                assert got == kappa_spectrum(mirror, FLIP[root], m, n), (root, n, m)
                cases += 1
    assert cases == 222

    terms = branching_table(module, Root.A12).terms
    flipped_terms = {
        t._replace(hw=ExponentForm(t.hw.c0, t.hw.c2, t.hw.c1), origin=t.origin[::-1])
        for t in terms
    }
    assert len(terms) == len(flipped_terms) == 49
    assert flipped_terms == set(branching_table(mirror, Root.A23).terms)

    window = Window(5, 8, 6)
    for root, regularized, size in ((Root.A12, True, 38), (Root.A13, False, 13)):
        depth = required_depth(spec, root, window, regularized)
        series = trace_brute_force(spec.with_depth(depth), root, window, regularized)
        mirrored = trace_brute_force(flipped.with_depth(depth), FLIP[root], window, regularized)
        assert len(series) == size
        assert {
            Monomial(ExponentForm(mono.qexp.c0, mono.qexp.c2, mono.qexp.c1), mono.t2, mono.t1): c
            for mono, c in series.terms.items()
        } == mirrored.terms, root


# -- the shared forms cache -------------------------------------------------------------


@pytest.mark.parametrize("spec, root, regularized", [
    (ModuleSpec(BOREL, F(7, 3), F(5, 7), 4), Root.A13, False),
    (ModuleSpec(BOREL, F(7, 3), F(5, 7), 4), Root.A12, True),
    (ModuleSpec(PARABOLIC, F(7, 3), 2, 4), Root.A12, False),
])
def test_trace_pipelines_build_one_straightener(monkeypatch, spec, root, regularized):
    # both pipelines and all three weight samples, six modules, keep their
    # matrices in the one forms cache of their structure, built once
    modules = []
    real_init = VermaModule.__init__

    def recorded(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        modules.append(self)

    monkeypatch.setattr(VermaModule, "__init__", recorded)
    verma.shared_forms.cache_clear()
    trace_pipelines(spec, root, Window(3, 4, 1), regularized)
    info = verma.shared_forms.cache_info()
    verma.shared_forms.cache_clear()
    assert info.misses == 1 and modules[0].matrix_forms
    assert len(modules) == 6 and all(m.matrix_forms is modules[0].matrix_forms for m in modules)
    assert len({(m.spec.lambda1, m.spec.lambda2) for m in modules}) == 3
