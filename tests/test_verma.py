from fractions import Fraction
from itertools import product

import pytest

from vermatheta import (
    BOREL, PARABOLIC, ModuleSpec, QMatrix, VermaModule, Window, genericity_guard, rank,
)
from vermatheta.branching import DEFAULT_WEIGHTS, trace_pipelines
from vermatheta.errors import GenericityError, TruncationError, UsageError, VerificationError
from vermatheta.exactalg import mat_scalar_shift
from vermatheta.qseries import ExponentForm, Monomial
from vermatheta.theta import borel_character_closed_form
from vermatheta.verma import _WEIGHT_STEP, Gen, Root, action, h_form, shared_forms

from conftest import WEIGHTS, WordStraightener, commutator, matrix_rows, singular_dimension, straighten

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


def test_weight_steps_match_the_cartan_commutators():
    # a generator stepping (dn, dm) shifts h1 by -2dn + dm and h2 by dn - 2dm
    for g in Gen:
        dn, dm = _WEIGHT_STEP[g]
        for h, c in ((Gen.H12, -2 * dn + dm), (Gen.H23, dn - 2 * dm)):
            assert commutator(h, g) == (((c, g),) if c else ()), (g, h)


def commutator_step(g: Gen) -> tuple[int, int]:
    """g's weight step (dn, dm), solved from [H12, g] = (-2dn + dm) g and
    [H23, g] = (dn - 2dm) g."""
    a, b = (sum(c for c, x in commutator(h, g) if x is g) for h in (Gen.H12, Gen.H23))
    return -(2 * a + b) // 3, -(a + 2 * b) // 3


# -- straightening --------------------------------------------------------------


def test_straighten_single_lowering_letter(borel_module):
    assert straighten(borel_module, [Gen.E21]) == {(1, 0, 0): F(1)}


def test_straighten_raising_on_depth_one(borel_module):
    # E12 E21 E32 v = (L1 + 1) E32 v
    l1 = borel_module.spec.lambda1
    got = straighten(borel_module, [Gen.E12, Gen.E21, Gen.E32])
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
            assert matrix_rows(got) == want


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
        col = [row[j] for row in matrix_rows(got)]
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
        col = [row[j] for row in matrix_rows(got)]
        want = [F(0)] * got.rows
        if j >= 1:
            want[j - 1] = j * (l1 + l + j - k + 1)
        if j < got.rows:
            want[j] = -(k - j)
        assert col == want


def test_cold_cache_straightening_of_a_long_monomial():
    # E12 E21^a w = a(mu - a + 1) E21^(a-1) w for w = E32^a v of h1-value
    # mu = L1 + a: the sl(2) ladder rule, here on a monomial of 1600 letters
    l1, a = F(7, 3), 800
    module = VermaModule(ModuleSpec(BOREL, l1, F(5, 7), 1602))
    mu = l1 + a
    assert module.apply_gen(Gen.E12, {(a, a, 0): 1}) == {(a - 1, a, 0): a * (mu - a + 1)}


# -- the action table -------------------------------------------------------------


@pytest.mark.parametrize("kind, l2", [(BOREL, None), *((PARABOLIC, k) for k in range(6))])
def test_action_table_matches_the_word_oracle(kind, l2):
    # every generator's table entry on every PBW monomial with n + m <= 24,
    # and ``VermaModule.apply_gen``'s action by it, evaluated at the weight
    # samples: an affine form is fixed by its values at three points off one
    # line, or at two L1 values on the parabolic module, whose forms have no
    # L2 part
    weights = WEIGHTS if kind == BOREL else [(l1, l2) for l1, _ in WEIGHTS[:2]]
    for l1, lambda2 in weights:
        spec = ModuleSpec(kind, l1, lambda2, 24)
        oracle, module = WordStraightener(spec), VermaModule(spec)
        for n, m in ((n, s - n) for s in range(25) for n in range(s + 1)):
            for exps in module.weight_space(n, m):
                for g in Gen:
                    terms = action(spec.cap, g, exps)
                    assert len(terms) <= 2 and all(f[2] == 0 for _, f in terms if kind == PARABOLIC)
                    got = {e: c0 + c1 * l1 + c2 * lambda2 for e, (c0, c1, c2) in terms}
                    want = oracle.apply_gen(g, exps)
                    assert got == want and module.apply_gen(g, {exps: 1}) == want, (spec, g, exps)


def times(a, b):
    """The matrix product a b, over a.den * b.den."""
    num = [sum(a.num[i * a.cols + k] * b.num[k * b.cols + j] for k in range(a.cols))
           for i in range(a.rows) for j in range(b.cols)]
    return QMatrix.from_integers(a.rows, b.cols, num, a.den * b.den)


def over(mat, den: int) -> list:
    """``mat``'s numerators over ``den``, a multiple of its denominator."""
    return [x * (den // mat.den) for x in mat.num]


def bracket(module, x: Gen, y: Gen, space: tuple) -> list:
    """[x, y] on ``space`` as integers over the square of the weight
    denominator, through the spaces one step of x or y away."""
    (n, m), den = space, module.denom ** 2
    sides = []
    for first, second in ((y, x), (x, y)):
        dn, dm = _WEIGHT_STEP[first]
        sides.append(over(times(module.operator_matrix(second, (n + dn, m + dm)),
                                module.operator_matrix(first, space)), den))
    return [p - q for p, q in zip(*sides)]


RELATION_MODULES = [
    *((BOREL, l1, l2) for l1, l2 in DEFAULT_WEIGHTS),
    *((PARABOLIC, l1, k) for k in range(4) for l1, _ in DEFAULT_WEIGHTS),
]


@pytest.mark.parametrize("kind, l1, l2", RELATION_MODULES)
def test_table_matrices_satisfy_the_defining_relations(kind, l1, l2):
    # on every space with n + m <= 12: [E12, E21] = H12, [E23, E32] = H23 and
    # [E13, E31] = H12 + H23 act by h_form's values, as the Casimir 2 F E + H
    # assumes, [E12, E32] = [E23, E21] = 0, E13 = [E12, E23],
    # E31 = [E32, E21], and every raising generator kills v
    module = VermaModule(ModuleSpec(kind, l1, l2, 14))
    den = module.denom ** 2
    for n, m in ((n, s - n) for s in range(13) for n in range(s + 1)):
        d = module.dim(n, m)
        if not d:
            continue
        identity = [int(i == j) for i in range(d) for j in range(d)]
        for root, cartan in ((Root.A12, Gen.H12), (Root.A23, Gen.H23), (Root.A13, None)):
            h = module.numerator(h_form(module.cap, root, n, m)) * module.denom
            if cartan is not None:
                assert over(module.operator_matrix(cartan, (n, m)), den) == [h * e for e in identity]
            assert bracket(module, root.raising, root.lowering, (n, m)) == [h * e for e in identity]
        for x, y in ((Gen.E12, Gen.E32), (Gen.E23, Gen.E21)):
            assert not any(bracket(module, x, y, (n, m))), (x, y, n, m)
        for z, x, y in ((Gen.E13, Gen.E12, Gen.E23), (Gen.E31, Gen.E32, Gen.E21)):
            want = over(module.operator_matrix(z, (n, m)), den)
            assert bracket(module, x, y, (n, m)) == want, (z, n, m)
    for g in (root.raising for root in Root):
        assert action(module.cap, g, (0, 0, 0)) == []


# -- the shared forms cache ------------------------------------------------------

#: Weights the shared forms are checked at, in order: each kind's second
#: weight reads the first one's cached operator matrices.
SHARED_WEIGHTS = [
    (BOREL, F(7, 3), F(5, 7)), (BOREL, F(11, 6), F(-4, 9)),
    *((PARABOLIC, l1, l2) for l2 in range(4) for l1 in (F(7, 3), F(11, 6))),
]


def test_shared_straightener_matches_the_weight_bound_one():
    # every generator and root Casimir on every space to depth 8 gives the
    # same QMatrix on a shared module, evaluated from its structure's cached
    # forms, as on a single-weight module at the same weight
    shared_forms.cache_clear()
    checked = 0
    for kind, l1, l2 in SHARED_WEIGHTS:
        spec = ModuleSpec(kind, l1, l2, 8)
        shared, single = VermaModule(spec, shared=True), VermaModule(spec)
        for n in range(9):
            for m in range(9 - n):
                for op in (*Gen, *Root):
                    try:
                        want = single.operator_matrix(op, (n, m))
                    except TruncationError:
                        with pytest.raises(TruncationError):
                            shared.operator_matrix(op, (n, m))
                        continue
                    got = shared.operator_matrix(op, (n, m))
                    assert (got.rows, got.cols, got.num, got.den) == (
                        want.rows, want.cols, want.num, want.den), (spec, op, n, m)
                    checked += 1
        if kind == PARABOLIC:
            # the integral L2 is folded into c0, as h_form does
            assert all(c2 == 0 for forms in shared.matrix_forms.values() for _, _, c2 in forms)
    assert checked == 4250


def test_sample_modules_share_one_straightener_per_structure():
    shared_forms.cache_clear()
    a, b = (VermaModule(ModuleSpec(BOREL, l1, l2, 4), shared=True)
            for l1, l2 in ((F(7, 3), F(5, 7)), (F(11, 5), F(-3, 7))))
    assert a.matrix_forms is b.matrix_forms
    assert VermaModule(a.spec).matrix_forms is None
    # another structure drops it; at most one is alive
    parabolic = VermaModule(ModuleSpec(PARABOLIC, F(7, 3), 1, 4), shared=True)
    assert parabolic.matrix_forms is not a.matrix_forms
    assert VermaModule(a.spec, shared=True).matrix_forms is not a.matrix_forms
    assert shared_forms.cache_info().currsize == 1


def test_single_weight_modules_keep_no_forms_and_traces_keep_one_structure():
    # a single-weight module evaluates each matrix at its weight and keeps
    # nothing; a trace's sample modules share one structure's forms, the next
    # trace of that structure reuses them, and a trace of another drops them
    shared_forms.cache_clear()
    module = VermaModule(ModuleSpec(BOREL, F(7, 3), F(5, 7), 6))
    for n, m in ((n, s - n) for s in range(5) for n in range(s + 1)):
        for op in (*Gen, *Root):
            module.operator_matrix(op, (n, m))
    assert module.matrix_forms is None and shared_forms.cache_info().currsize == 0
    borel = ModuleSpec(BOREL, F(7, 3), F(5, 7), 4)
    trace_pipelines(borel, Root.A12, Window(3, 4, 1), True)
    held = shared_forms(None)
    size = len(held)
    assert size and all(key[0] in (Root.A12, Gen.E12) for key in held)
    trace_pipelines(borel, Root.A13, Window(3, 4, 1), False)
    assert shared_forms(None) is held and len(held) > size
    trace_pipelines(ModuleSpec(PARABOLIC, F(7, 3), 2, 4), Root.A12, Window(3, 4, 1), False)
    assert shared_forms.cache_info().currsize == 1 and shared_forms(None) is not held
    shared_forms.cache_clear()


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


def test_dim_counts_the_weight_space_basis(borel_module, parabolic_modules):
    for module in (borel_module, *(parabolic_modules[(F(7, 3), v)] for v in (0, 1, 2))):
        for n in range(-3, 34):
            for m in range(-3, 31 - n):
                assert module.dim(n, m) == len(module.weight_space(n, m)), (module.spec, n, m)


#: weight step of each generator in (n, m) coordinates
STEPS = {
    Gen.E12: (-1, 0),
    Gen.E21: (1, 0),
    Gen.E23: (0, -1),
    Gen.E32: (0, 1),
    Gen.E13: (-1, -1),
    Gen.E31: (1, 1),
    Gen.H12: (0, 0),
    Gen.H23: (0, 0),
}


def test_weight_coherence_on_all_basis_vectors(borel_module, parabolic_modules):
    for module in (borel_module, parabolic_modules[(F(7, 3), 2)]):
        for n, m in [(n, m) for n in range(6) for m in range(6 - n)]:
            for exps in module.weight_space(n, m):
                for gen, (dn, dm) in STEPS.items():
                    image = module.apply_gen(gen, {exps: F(1)})
                    for out in image:
                        assert out in module.weight_space(n + dn, m + dm)


def test_commutator_soundness_on_low_shells(borel_module, parabolic_modules):
    # parabolic lambda2 = 0 and 2 sit on either side of the E32 cap's boundary
    for module in (borel_module, *(parabolic_modules[(F(7, 3), v)] for v in (0, 1, 2))):
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


# -- operator matrices -----------------------------------------------------------


def fraction_operator_matrix(module, op, n, m):
    """Rows of the operator matrix built over Fractions, as the package did
    before it assembled integer numerators: ``apply_gen`` on each basis
    vector, then coordinates in the target basis."""
    basis = module.weight_space(n, m)
    if isinstance(op, Root):
        target = basis
        images = []
        for exps in basis:
            vec = {exps: F(1)}
            img = dict(module.apply_gen(op.raising, module.apply_gen(op.lowering, vec)))
            for e, c in module.apply_gen(op.lowering, module.apply_gen(op.raising, vec)).items():
                img[e] = img.get(e, F(0)) + c
            images.append(img)
    else:
        dn, dm = STEPS[op]
        target = module.weight_space(n + dn, m + dm)
        images = [module.apply_gen(op, {exps: F(1)}) for exps in basis]
    index = {exps: i for i, exps in enumerate(target)}
    rows = [[F(0)] * len(basis) for _ in target]
    for j, img in enumerate(images):
        for e, c in img.items():
            if c:
                rows[index[e]][j] = c
    return rows


def test_operator_matrices_match_fraction_reference(borel_module, parabolic_modules):
    for module in (borel_module, *(parabolic_modules[(F(7, 3), v)] for v in (0, 1, 2))):
        for n in range(9):
            for m in range(9 - n):
                for op in (*Gen, *Root):
                    got = module.operator_matrix(op, (n, m))
                    want = fraction_operator_matrix(module, op, n, m)
                    assert got.cols == module.dim(n, m)
                    assert matrix_rows(got) == want, (module.spec, op, n, m)




def test_casimir_rank_path_makes_no_fraction(monkeypatch):
    # kappa_spectrum's inner loop: straighten, assemble, shift by a rational
    # eigenvalue candidate and eliminate, all in integers
    module = VermaModule(ModuleSpec(BOREL, F(7, 3), F(5, 7), 8))
    value = 22  # the candidate 22/21 over the weight denominator 21
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for root in Root:
        mat = module.operator_matrix(root, (3, 3))
        rank(mat_scalar_shift(mat, value))
    monkeypatch.undo()
    assert made == []


def test_operator_matrix_shapes_and_kernel(borel_module):
    m = borel_module.operator_matrix(Gen.E12, (2, 2))
    assert (m.rows, m.cols) == (2, 3)
    from vermatheta import kernel_basis, rank

    assert rank(m) == 2
    assert len(kernel_basis(m)) == 1


def test_casimir_on_highest_weight_vector(borel_module):
    m = borel_module.operator_matrix(Root.A12, (0, 0))
    assert matrix_rows(m) == [[borel_module.spec.lambda1]]


def test_casimir_truncation_rejected_beyond_depth():
    mod = VermaModule(ModuleSpec(BOREL, F(7, 3), F(5, 7), 4))
    with pytest.raises(TruncationError, match=r"^casimir\(13\) on the weight space \(2, 1\) reaches past depth 4$"):
        mod.operator_matrix(Root.A13, (2, 1))
    with pytest.raises(TruncationError, match=r"^E21 on the weight space \(2, 2\) reaches past depth 4$"):
        mod.operator_matrix(Gen.E21, (2, 2))
    # every operator on every space to one past the depth is refused exactly
    # when its source, or the space it reaches, lies past the depth; a
    # Casimir reaches one step down its root, as its lowering letter does
    checked = 0
    for spec in (ModuleSpec(BOREL, F(7, 3), F(5, 7), 4), ModuleSpec(PARABOLIC, F(7, 3), 2, 4)):
        module = VermaModule(spec)
        for op in (*Gen, *Root):
            dn, dm = commutator_step(op.lowering if isinstance(op, Root) else op)
            for n, m in ((n, s - n) for s in range(6) for n in range(s + 1)):
                try:
                    module.operator_matrix(op, (n, m))
                    refused = False
                except TruncationError:
                    refused = True
                assert refused == (max(n + m, n + m + dn + dm) > 4), (spec.kind, op, (n, m))
                checked += 1
    assert checked == 462


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


def test_guard_is_sufficient_not_exact(monkeypatch):
    # at depth 4 the guard refuses integers in [-15, 15]; with it patched
    # away, weights at the band's edge keep every raising-kernel dimension
    # of a generic weight, while L1 = 0 and L1 = 2 change some
    from vermatheta import verma

    def kernel_dims(l1, l2):
        module = VermaModule(ModuleSpec(BOREL, F(l1), F(l2), 4))
        return {(root, n, m): singular_dimension(module, root, n, m)
                for root in Root for n in range(5) for m in range(5 - n)}

    edge = [(15, F(5, 7)), (-15, F(5, 7)), (F(7, 3), 15), (F(7, 3), -15),
            (15 - F(5, 7), F(5, 7))]  # the last has L1 + L2 = 15
    special = [(0, F(5, 7)), (2, F(5, 7))]
    assert not any(genericity_guard(l1, l2, 4, BOREL) for l1, l2 in edge + special)
    monkeypatch.setattr(verma, "genericity_guard", lambda *args: True)
    generic = kernel_dims(F(7, 3), F(5, 7))
    for weight in edge:
        assert kernel_dims(*weight) == generic, weight
    for weight in special:
        assert kernel_dims(*weight) != generic, weight


def test_module_construction_enforces_guard():
    with pytest.raises(GenericityError):
        VermaModule(ModuleSpec(BOREL, 2, F(5, 7), 10))


def test_parabolic_spec_requires_integer_lambda2():
    with pytest.raises(UsageError):
        ModuleSpec(PARABOLIC, F(7, 3), F(5, 7), 10)
    with pytest.raises(UsageError):
        ModuleSpec(PARABOLIC, F(7, 3), -1, 10)


def test_only_the_parabolic_module_caps_e32():
    assert ModuleSpec(BOREL, F(7, 3), 3, 4).cap is None
    assert VermaModule(ModuleSpec(BOREL, F(7, 3), F(5, 7), 4)).cap is None
    for v in (0, 3):
        spec = ModuleSpec(PARABOLIC, F(7, 3), v, 4)
        assert type(spec.cap) is int and spec.cap == v
        assert VermaModule(spec).cap == v


def test_parabolic_lowering_cap(parabolic_modules):
    module = parabolic_modules[(F(7, 3), 1)]
    assert module.apply_gen(Gen.E32, {(0, 0, 1): F(1)}) == {}
    assert straighten(module, [Gen.E32, Gen.E32]) == {}
