from fractions import Fraction
from itertools import product

import pytest

from vermatheta import BOREL, PARABOLIC, ModuleSpec, VermaModule, Window, genericity_guard
from vermatheta.errors import GenericityError, TruncationError, UsageError
from vermatheta.qseries import ExponentForm, Monomial
from vermatheta.theta import borel_character_closed_form
from vermatheta.verma import Gen, Root, commutator

from conftest import WEIGHTS

F = Fraction


# -- structure constants -------------------------------------------------------


def test_commutators_follow_matrix_unit_rules():
    assert commutator(Gen.E12, Gen.E21) == ((1, Gen.H12),)
    assert commutator(Gen.E23, Gen.E32) == ((1, Gen.H23),)
    assert set(commutator(Gen.E13, Gen.E31)) == {(1, Gen.H12), (1, Gen.H23)}
    assert commutator(Gen.E12, Gen.E31) == ((-1, Gen.E32),)
    assert commutator(Gen.E23, Gen.E31) == ((1, Gen.E21),)
    assert commutator(Gen.E32, Gen.E21) == ((1, Gen.E31),)
    assert commutator(Gen.E12, Gen.E32) == ()
    assert commutator(Gen.E12, Gen.E23) == ((1, Gen.E13),)
    assert commutator(Gen.H12, Gen.E21) == ((-2, Gen.E21),)
    assert commutator(Gen.H23, Gen.E21) == ((1, Gen.E21),)


# -- straightening --------------------------------------------------------------


def test_straighten_single_lowering_letter(borel_module):
    assert borel_module.straighten([Gen.E21]) == {(1, 0, 0): F(1)}


def test_straighten_raising_on_depth_one(borel_module):
    # E12 E21 E32 v = (L1 + 1) E32 v
    l1 = borel_module.spec.lambda1
    got = borel_module.straighten([Gen.E12, Gen.E21, Gen.E32])
    assert got == {(0, 1, 0): l1 + 1}


def test_straighten_raising_on_pure_string_vector(borel_module):
    # E12 E32^l E31^k v = -k E32^(l+1) E31^(k-1) v
    for l, k in [(0, 1), (1, 2), (2, 3)]:
        got = borel_module.apply_gen(Gen.E12, {(0, l, k): F(1)})
        assert got == {(0, l + 1, k - 1): F(-k)}


def test_cartans_act_by_weight(borel_module):
    l1, l2 = borel_module.spec.lambda1, borel_module.spec.lambda2
    vec = {(1, 2, 1): F(1)}  # weight coordinates (2, 3)
    assert borel_module.apply_gen(Gen.H12, vec) == {(1, 2, 1): l1 - 4 + 3}
    assert borel_module.apply_gen(Gen.H23, vec) == {(1, 2, 1): l2 + 2 - 6}


def ladder_matrix_expected(module, n, m):
    """Expected matrix of the raising generator E12 from the (n, m) space,
    straight from the two-regime ladder formulas:

        E12 x_{k+1} = (n-k)(L1+m+1-k-n) y_{k+1}  -  k y_k

    in the proof bases (E31-degree ascending).  The independent oracle for
    the straightening engine.
    """
    l1 = module.spec.lambda1
    src = min(n, m) + 1
    tgt = min(n - 1, m) + 1 if n >= 1 else 0
    rows = [[F(0)] * src for _ in range(tgt)]
    for k in range(src):  # basis vector x_{k+1} has E31-degree k
        diag = (n - k) * (l1 + m + 1 - k - n)
        if k < tgt:
            rows[k][k] = diag
        elif diag:
            raise AssertionError("coefficient must vanish when y_{k+1} is absent")
        if k >= 1:
            rows[k - 1][k] = -k
    return rows


@pytest.mark.parametrize("weight", WEIGHTS)
def test_raising_matrix_matches_ladder_formulas(borel_modules, weight):
    module = borel_modules[weight]
    for n in range(1, 7):
        for m in range(0, 7 - n):
            got = module.operator_matrix(Gen.E12, (n, m))
            want = ladder_matrix_expected(module, n, m)
            assert [list(got.row(i)) for i in range(got.rows)] == want


def test_parabolic_ladder_block_above_diagonal(parabolic_modules):
    # ladder action on (n, m) = (m0+k, k) spaces: x_{j+1} = E21^(m0+j) E31^(k-j) E32^j v,
    # E12 x_{j+1} = (m0+j)(L1+j+1-m0-k) y_{j+1} - (k-j) y_{j+2}
    module = parabolic_modules[(F(7, 3), 2)]
    l1 = module.spec.lambda1
    m0, k = 2, 2
    src = module.weight_space(m0 + k, k)
    assert src == tuple((m0 + j, k - j, j) for j in range(k + 1))
    got = module.operator_matrix(Gen.E12, (m0 + k, k))
    for j in range(k + 1):
        col = [got.entry(i, j) for i in range(got.rows)]
        want = [F(0)] * got.rows
        want[j] = (m0 + j) * (l1 + j + 1 - m0 - k)
        if j + 1 < got.rows:
            want[j + 1] = -(k - j)
        assert col == want


def test_parabolic_ladder_block_below_diagonal(parabolic_modules):
    # spaces (k, l+k): x_{j+1} = E21^j E31^(k-j) E32^(l+j) v,
    # E12 x_1 = -k y_1 and E12 x_{j+1} = j(L1+l+j-k+1) y_j - (k-j) y_{j+1}
    module = parabolic_modules[(F(7, 3), 3)]
    l1 = module.spec.lambda1
    l, k = 1, 2
    src = module.weight_space(k, l + k)
    assert src == tuple((j, k - j, l + j) for j in range(k + 1))
    got = module.operator_matrix(Gen.E12, (k, l + k))
    for j in range(k + 1):
        col = [got.entry(i, j) for i in range(got.rows)]
        want = [F(0)] * got.rows
        if j >= 1:
            want[j - 1] = j * (l1 + l + j - k + 1)
        if j < got.rows:
            want[j] = -(k - j)
        assert col == want


# -- weight spaces ---------------------------------------------------------------


def test_borel_weight_space_examples(borel_module):
    assert borel_module.weight_space(0, 0) == ((0, 0, 0),)
    assert borel_module.weight_space(1, 1) == ((1, 1, 0), (0, 0, 1))
    assert borel_module.dim(1, 1) == 2


def test_borel_dims_lattice_count(borel_module):
    for n in range(8):
        for m in range(8):
            lattice = [
                (a, b, c)
                for a, b, c in product(range(9), repeat=3)
                if a + c == n and b + c == m
            ]
            assert borel_module.dim(n, m) == len(lattice) == min(n, m) + 1


def test_parabolic_dims_case_formula(parabolic_modules):
    for (l1, v), module in parabolic_modules.items():
        for n in range(9):
            for m in range(9):
                lattice = [
                    (a, c, i)
                    for a, c, i in product(range(10), repeat=3)
                    if a + c == n and c + i == m and i <= v
                ]
                assert module.dim(n, m) == len(lattice)
        # the two-region case formula: k+1 below the shifted diagonal
        for m0 in range(1, 4):
            for k in range(6):
                want = k + 1 if k <= v else v + 1
                assert module.dim(m0 + k, k) == want
        for l in range(v + 1):
            for k in range(6):
                want = k + 1 if k <= v - l else v - l + 1
                assert module.dim(k, l + k) == want


def test_weight_coherence_on_all_basis_vectors(borel_module, parabolic_modules):
    steps = {
        Gen.E12: (-1, 0),
        Gen.E21: (1, 0),
        Gen.E23: (0, -1),
        Gen.E32: (0, 1),
        Gen.E13: (-1, -1),
        Gen.E31: (1, 1),
    }
    for module in (borel_module, parabolic_modules[(F(7, 3), 2)]):
        for n, m in [(n, m) for n in range(6) for m in range(6 - n)]:
            for exps in module.weight_space(n, m):
                for gen, (dn, dm) in steps.items():
                    image = module.apply_gen(gen, {exps: F(1)})
                    for out in image:
                        assert module.weight_of(out) == (n + dn, m + dm)


def test_commutator_soundness_on_low_shells(borel_module, parabolic_modules):
    for module in (borel_module, parabolic_modules[(F(7, 3), 1)]):
        vectors = [
            {exps: F(1)}
            for n in range(5)
            for m in range(5 - n)
            for exps in module.weight_space(n, m)
        ]
        for g in Gen:
            for h in Gen:
                if g is h:
                    continue
                bracket = commutator(g, h)
                for vec in vectors:
                    left = module.apply_gen(g, module.apply_gen(h, vec))
                    right = module.apply_gen(h, module.apply_gen(g, vec))
                    diff = dict(left)
                    for e, c in right.items():
                        diff[e] = diff.get(e, F(0)) - c
                    want = {}
                    for coeff, gi in bracket:
                        for e, c in module.apply_gen(gi, vec).items():
                            want[e] = want.get(e, F(0)) + coeff * c
                    assert {e: c for e, c in diff.items() if c} == {
                        e: c for e, c in want.items() if c
                    }


# -- operator matrix shapes ------------------------------------------------------


def test_operator_matrix_shapes_and_kernel(borel_module):
    m = borel_module.operator_matrix(Gen.E12, (2, 2))
    assert (m.rows, m.cols) == (2, 3)
    from vermatheta import kernel_basis, rank

    assert rank(m) == 2
    assert len(kernel_basis(m)) == 1


def test_casimir_on_highest_weight_vector(borel_module):
    m = borel_module.operator_matrix(Root.A12, (0, 0))
    assert m.data == (borel_module.spec.lambda1,)


def test_casimir_truncation_rejected_beyond_depth():
    mod = VermaModule(ModuleSpec(BOREL, F(7, 3), F(5, 7), 4))
    with pytest.raises(TruncationError):
        mod.operator_matrix(Root.A13, (2, 1))
    with pytest.raises(TruncationError):
        mod.operator_matrix(Gen.E21, (2, 2))


# -- characters -------------------------------------------------------------------


def test_borel_character_equals_free_pbw_product(borel_module):
    t = 5
    brute = borel_module.character_bruteforce(t)
    closed = borel_character_closed_form(Window(0, 0, t))
    assert brute.equal_on(closed, Window(0, 0, t)).passed


def test_parabolic_character_shells(parabolic_modules):
    module = parabolic_modules[(F(7, 3), 1)]
    series = module.character_bruteforce(4)
    # highest shell: v and E32 v, relative t-monomials 1 and t1 t2^-2
    assert series.coeff(Monomial(ExponentForm(0, 0, 0), 0, 0)) == 1
    assert series.coeff(Monomial(ExponentForm(0, 0, 0), 1, -2)) == 1
    zero_shell = parabolic_modules[(F(7, 3), 0)].character_bruteforce(3)
    assert zero_shell.coeff(Monomial(ExponentForm(0, 0, 0), 0, 0)) == 1
    assert zero_shell.coeff(Monomial(ExponentForm(0, 0, 0), 1, -2)) == 0


# -- guard and spec validation ----------------------------------------------------


def test_guard_accepts_generic_weights():
    assert genericity_guard(F(7, 3), F(5, 7), 10, BOREL)


def test_guard_rejects_integral_weight():
    assert not genericity_guard(2, F(5, 7), 10, BOREL)


def test_guard_rejects_integral_sum():
    assert not genericity_guard(F(7, 3), F(2, 3), 10, BOREL)


def test_guard_kind_dependence():
    assert genericity_guard(F(7, 3), 2, 10, PARABOLIC)
    assert not genericity_guard(F(7, 3), 2, 10, BOREL)


def test_module_construction_enforces_guard():
    with pytest.raises(GenericityError):
        VermaModule(ModuleSpec(BOREL, 2, F(5, 7), 10))


def test_parabolic_spec_requires_integer_lambda2():
    with pytest.raises(UsageError):
        ModuleSpec(PARABOLIC, F(7, 3), F(5, 7), 10)
    with pytest.raises(UsageError):
        ModuleSpec(PARABOLIC, F(7, 3), -1, 10)


def test_parabolic_lowering_cap(parabolic_modules):
    module = parabolic_modules[(F(7, 3), 1)]
    assert module.apply_gen(Gen.E32, {(0, 0, 1): F(1)}) == {}
    assert module.straighten([Gen.E32, Gen.E32]) == {}
