"""Branching tables, Casimir spectra and monodromy-trace series.

Two independent pipelines produce each trace series:

* ``trace_branching`` builds a branching table (one Verma or
  finite-dimensional sl(2) module per singular vector), and
  ``trace_from_branching`` sums the known sl(2) spectrum over the table's
  constituents.
* ``trace_brute_force`` finds the root Casimir's eigenvalues on every
  weight space and reads off the multiplicity of each of a finite list of
  affine candidate forms.  A Casimir whose affine matrix is triangular with
  distinct diagonal forms, as every root-12 and root-13 one measured is, is
  read off that diagonal, which must lie among the candidates; any other
  has each candidate's nullity measured by ``kappa_spectrum``, through
  ``exactalg.nullities``: a determinant recurrence on an unreduced
  tridiagonal matrix, as every root-23 one measured is, and a kernel rank
  otherwise.

Each pipeline runs at several guard-passing highest weights, the weight
samples.  A Casimir read off its affine diagonal holds at every sample at
once.  Every other weight space is measured at every sample, the brute
force's by ``kappa_spectrum`` and the branching rule's by its singular
vectors, and each sample's answer must be the first's; weight-free spaces
carry over.  A space is weight-free when its matrix's entries and the forms
it is tested against have no L-part (``VermaModule.weight_free``): every
sample then poses the first sample's problem times its own denominator, so
the first answer stands for all.

On an sl(2) module of highest weight u, the Casimir E F + F E acts on the
depth-k vector by (2k+1)u - 2k^2; a finite module L_i has depths 0..i only.

A region is the n-major tuple of the (n, m) weight spaces a table or a trace
covers: ``bruteforce_region`` builds a trace's, ``triangle`` the full one of
``branch`` and ``spectrum``.  Every reader iterates it or tests membership,
except ``required_depth``, which reads a trace region's deepest space off
its top row (``_region_rows``) so that admission never builds the region.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .errors import UsageError, VerificationError
from .exactalg import kernel_basis, nullities, rank
from .qseries import ExponentForm, FormalSeries, Monomial, Window
from .verma import BOREL, PARABOLIC, ModuleSpec, Root, VermaModule, action, h_form

VERMA = "verma"
FINITE = "finite"

#: Guard-passing weights at which the brute force is replicated.
DEFAULT_WEIGHTS = (
    (Fraction(7, 3), Fraction(5, 7)),
    (Fraction(11, 5), Fraction(-3, 7)),
    (Fraction(13, 4), Fraction(9, 11)),
)


def _spans_plane(samples) -> bool:
    """True when the weight samples are not all on one line."""
    (x0, y0), *rest = samples
    steps = [(x - x0, y - y0) for x, y in rest]
    return any(a * d != b * c for (a, b), (c, d) in combinations(steps, 2))


def lift_samples(spec: ModuleSpec, samples=()) -> tuple:
    """Weight samples at which the brute force is replicated: the given
    ones, checked against the spec, or defaults led by its weight.

    The multiplicities read at the first sample must recur at every other,
    and the samples must span the weights the module varies over, so that
    agreement is not confined to one line of weights: three affinely
    independent weights for the Borel module, at least two distinct lambda1
    values for the parabolic one, whose integral lambda2 is part of the module
    structure, so every sample carries the spec's.  A Borel default on the
    line through the first two samples is skipped.
    """
    if not samples:
        samples = [(spec.lambda1, spec.lambda2)]
        for l1, l2 in DEFAULT_WEIGHTS:
            l2 = spec.lambda2 if spec.kind == PARABOLIC else l2
            if (l1, l2) not in samples and (
                spec.kind == PARABOLIC or len(samples) < 2 or _spans_plane([*samples, (l1, l2)])
            ):
                samples.append((l1, l2))
        samples = samples[:3]
    samples = tuple((Fraction(a), Fraction(b)) for a, b in samples)
    if spec.kind == BOREL:
        if not _spans_plane(samples):
            raise UsageError("need three affinely independent weight samples")
    else:
        if len({l1 for l1, _ in samples}) < 2:
            raise UsageError("need at least two distinct lambda1 samples")
        if any(l2 != spec.lambda2 for _, l2 in samples):
            raise UsageError(f"parabolic weight samples must all have lambda2 = {spec.lambda2}")
    return samples


class BranchingTerm(NamedTuple):
    kind: str  # VERMA or FINITE
    hw: ExponentForm  # finite constituents store (i, 0, 0)
    multiplicity: int
    origin: tuple[int, int]


class _TableFields(NamedTuple):
    kind: str
    root: Root
    terms: tuple
    region: tuple  # the covered (n, m) spaces, n-major


class BranchingTable(_TableFields):
    """A root's constituents over a region; unlike its fields' tuple it has
    an instance dict, which holds the cached ``by_origin`` and ``covered``."""

    @cached_property
    def by_origin(self) -> dict:
        """The terms at each origin (n, m) that has any, in table order."""
        out: dict = {}
        for term in self.terms:
            out.setdefault(term.origin, []).append(term)
        return out

    @cached_property
    def covered(self) -> frozenset:
        """The region's spaces, for membership tests."""
        return frozenset(self.region)

    def on_string(self, n: int, m: int):
        """Yield (term, k) for each constituent whose root string passes
        through the (n, m) space, k steps below the term's origin, walking up
        the string while the origin is in the region; a finite constituent
        L_i reaches depths 0..i only."""
        dn, dm = self.root.down_step
        covered, by_origin = self.covered, self.by_origin
        k, origin = 0, (n, m)
        while origin in covered:
            for term in by_origin.get(origin, ()):
                if term.kind != FINITE or k <= term.hw.c0:
                    yield term, k
            k += 1
            origin = (n - k * dn, m - k * dm)

    def local_dimension(self, n: int, m: int) -> int:
        return sum(term.multiplicity for term, _ in self.on_string(n, m))

    def spectrum(self, n: int, m: int):
        """Yield (form, multiplicity) for each constituent through the (n, m)
        space: its depth-k vector's Casimir eigenvalue (2k+1)u - 2k^2, an
        affine form in the weight (a finite constituent's u is its top
        h-value i, stored as the form (i, 0, 0))."""
        for term, k in self.on_string(n, m):
            yield term.hw.scaled(2 * k + 1) + ExponentForm(-2 * k * k, 0, 0), term.multiplicity


def _constant(form: ExponentForm) -> bool:
    return not (form.c1 or form.c2)


def _classify(module: VermaModule, root: Root, n: int, m: int, vector,
              form: ExponentForm, i: int) -> tuple:
    """Return (kind, hw form) for the constituent generated by an integral
    singular vector on a space whose h-value ``form`` is the nonnegative
    integer i, testing finiteness inside the module rather than assuming it:
    the lowering letter's coefficients in the action table are integers, so
    its i+1st power acts on the vector in integers."""
    element = {exps: c for exps, c in zip(module.weight_space(n, m), vector) if c}
    for _ in range(i + 1):
        image: dict = {}
        for exps, c in element.items():
            for e, (k, _, _) in action(module.cap, root.lowering, exps):
                image[e] = image.get(e, 0) + c * k
        element = {e: c for e, c in image.items() if c}
    return (VERMA, form) if element else (FINITE, ExponentForm(i, 0, 0))


def _space_terms(module: VermaModule, root: Root, n: int, m: int) -> list:
    """The constituents with their origin at (n, m), one per classification
    of the singular vectors there, in (kind, hw) order.

    ``_classify`` reads a vector only when the space's h-value is a
    nonnegative integer; elsewhere every singular vector is a Verma origin
    of the h-form, so one rank gives their number."""
    mat = module.operator_matrix(root.raising, (n, m))
    form = h_form(module.cap, root, n, m)
    i, rem = divmod(module.numerator(form), module.denom)
    if rem or i < 0:
        free = mat.cols - rank(mat)
        return [BranchingTerm(VERMA, form, free, (n, m))] if free else []
    counts: dict = {}
    for vec in kernel_basis(mat):
        key = _classify(module, root, n, m, vec, form, i)
        counts[key] = counts.get(key, 0) + 1
    return [BranchingTerm(kind, hw, mult, (n, m)) for (kind, hw), mult in sorted(counts.items())]


def triangle(depth: int) -> tuple:
    """The region n+m <= depth."""
    return tuple((n, m) for n in range(depth + 1) for m in range(depth + 1 - n))


def branching_table(module: VermaModule, root: Root, region: tuple | None = None) -> BranchingTable:
    """Enumerate singular vectors per weight space and aggregate constituents
    over a region, by default the triangle n+m <= the module's depth; a
    trace builds it at its first weight sample only (``trace_branching``).

    The region must be closed upward along the root string, so every
    constituent through a covered space has its origin in the table.  Raises
    VerificationError when it is not, or when the constituents fail to
    account exactly for every covered weight-space dimension.
    """
    if region is None:
        region = triangle(module.spec.depth)
    if max((n + m for n, m in region), default=0) > module.spec.depth:
        raise UsageError("requested coverage exceeds the module's depth")
    spaces = [s for s in region if module.dim(*s)]
    covered = set(spaces)
    dn, dm = root.down_step
    for n, m in spaces:
        up = (n - dn, m - dm)
        if up not in covered and module.dim(*up):
            raise VerificationError(
                f"the region is not closed upward along root {root.value}: "
                f"it holds {(n, m)} but not {up}"
            )
    terms = tuple(term for n, m in spaces for term in _space_terms(module, root, n, m))
    table = BranchingTable(module.spec.kind, root, terms, region)
    for n, m in spaces:
        want = module.dim(n, m)
        got = table.local_dimension(n, m)
        if want != got:
            raise VerificationError(
                f"dimension accounting failed at {(n, m)} for root {root.value}: "
                f"constituents give {got}, weight space has {want}"
            )
    return table


# -- Casimir spectra ---------------------------------------------------------


def candidate_forms(module: VermaModule, root: Root, n: int, m: int) -> list:
    """Affine candidates for Casimir eigenvalues on the (n, m) weight space.

    A constituent passing through (n, m) at string depth k has its origin k
    steps up the root string, whose h-value is w + 2k for the local h-value
    w, so the candidates are (2k+1)*(w + 2k) - 2k^2 = (2k+1)*w + 2k(k+1)
    over the nonempty spaces up the string.  A finite constituent L_i has the
    same form at its depth k, with i = w + 2k, so the list misses no
    constituent.  ``lift_space`` checks that it misses no eigenvalue: a
    triangular Casimir's affine diagonal must lie among the candidates, and
    on any other space ``kappa_spectrum``'s nullities must fill the space.
    The brute force also uses the list as its window pre-filter.
    """
    c0, c1, c2 = h_form(module.cap, root, n, m)
    dn, dm = root.down_step
    run = 0
    while module.dim(n - run * dn, m - run * dm):
        run += 1
    # j = 2k+1 runs over the odd numbers, and 2k(k+1) = (j*j - 1)/2
    forms = (ExponentForm(j * c0 + (j * j - 1) // 2, j * c1, j * c2) for j in range(1, 2 * run, 2))
    # a constant w makes the k and k' forms equal when w + k + k' + 1 = 0,
    # and equal forms are one eigenvalue
    return list(dict.fromkeys(forms))


def _casimir(module: VermaModule, root: Root, n: int, m: int):
    """The root Casimir's matrix on (n, m), over the weight denominator."""
    mat = module.operator_matrix(root, (n, m))
    if mat.den != module.denom:
        raise VerificationError(
            f"casimir({root.value}) on {(n, m)} has denominator {mat.den}, "
            f"not the weight denominator {module.denom}"
        )
    return mat


def _require_complete(found: int, d: int, root: Root, n: int, m: int) -> None:
    """Refuse eigenvalue multiplicities that do not fill the d-dimensional
    (n, m) space: some eigenvalue is no candidate, or the Casimir is not
    diagonalizable."""
    if found != d:
        raise VerificationError(
            f"eigenvalue candidates incomplete on weight space {(n, m)} "
            f"for root {root.value}: found {found} of {d}"
        )


def kappa_spectrum(module: VermaModule, root: Root, n: int, m: int, forms=None) -> tuple:
    """Eigenvalue multiset of the root Casimir on (n, m) by the nullities of
    its candidate shifts (``exactalg.nullities``), as sorted (numerator,
    multiplicity) pairs over ``module.denom``.  This is the one place a
    Casimir's nullities are measured: ``spectrum`` rows, and every weight
    sample of a trace space not read off its diagonal, come through here.

    The candidates are ``forms``, by default ``candidate_forms`` of the
    space.  The multiplicity of e is dim ker(kappa - e*I), read in ascending
    order of e until the space is full; completeness (the multiplicities
    summing to the space dimension) is enforced, so an eigenvalue no
    candidate names, or a non-diagonalizable operator, is a hard error.  The
    Casimir's denominator is scale[raising] * scale[lowering], the weight
    denominator, so each candidate shifts the matrix's numerators directly.
    """
    mat = _casimir(module, root, n, m)
    d = mat.cols
    if forms is None:
        forms = candidate_forms(module, root, n, m)
    values = sorted({module.numerator(f) for f in forms})
    found = []
    total = 0
    for value, mult in zip(values, nullities(mat, values)):
        if mult:
            found.append((value, mult))
            total += mult
            if total == d:
                break
    _require_complete(total, d, root, n, m)
    return tuple(found)


def predicted_spectrum(table: BranchingTable, module: VermaModule, n: int, m: int) -> tuple:
    """Eigenvalue multiset implied by a branching table at one weight space,
    as sorted (numerator, multiplicity) pairs over ``module.denom``, like
    ``kappa_spectrum``'s on that module."""
    out: dict = {}
    for form, mult in table.spectrum(n, m):
        e = module.numerator(form)
        out[e] = out.get(e, 0) + mult
    return tuple(sorted(out.items()))


# -- trace series -------------------------------------------------------------


def is_divergent(kind: str, root: Root, regularized: bool) -> bool:
    """The unregularized Borel traces along the simple roots have weight
    strips of unbounded depth feeding single monomials, so they only exist
    as depth-truncated window sums."""
    return kind == BOREL and not regularized and root in (Root.A12, Root.A23)


def _region_rows(spec: ModuleSpec, root: Root, window: Window, regularized: bool,
                 divergent_depth: int | None = None) -> tuple:
    """A trace region as (n_top, row): its spaces are the (n, m) with
    n <= n_top and m in the range row(n).  A row's last n + m never falls
    as n grows, so the top row's last space is the region's deepest."""
    if is_divergent(spec.kind, root, regularized):
        if divergent_depth is None:
            raise UsageError(
                f"unregularized {root.value} trace on the Borel module is divergent; "
                "pass an explicit truncation depth or regularize"
            )
        return divergent_depth, lambda n: range(divergent_depth + 1 - n)
    if regularized:
        if root is Root.A13:
            return window.T, lambda n: range(window.T + 1)
        # the square n, m <= T; the t-exponent along the root, h - L, is w0
        # with L2 read as 0
        n_top, lambda2, bound = window.T, 0, window.T
    else:
        # every convergent region is capped at n <= D + L2 (L2 read as 0 on
        # the Borel module).  Parabolic root 12: a nonempty space has
        # m <= n + L2, and the floor 2n - m <= D then gives n <= D + L2, the
        # row where the two meet.  The bound is tight: at B 9, D 20, L2 2 the
        # live space (10, 0) is on the floor, and the region one row shorter
        # loses a term.  Parabolic root 23 takes the square n, m <= D + L2.
        n_top = window.D + (spec.cap or 0)
        if root is Root.A13:
            return n_top, lambda n: range(n_top + 1 - n)
        lambda2, bound = spec.cap, window.D
    # w0 is m - 2n on root 12 and n - 2m + L2 on root 23, so w0 >= -bound
    # raises a root-12 row's first m to 2n - bound and lowers a root-23
    # row's last m to (n + L2 + bound) // 2
    if root is Root.A23:
        return n_top, lambda n: range(min(n_top, (n + lambda2 + bound) // 2) + 1)
    return n_top, lambda n: range(max(0, 2 * n - bound), (n_top if regularized else n + lambda2) + 1)


def bruteforce_region(spec: ModuleSpec, root: Root, window: Window, regularized: bool,
                      divergent_depth: int | None = None) -> tuple:
    """Weight spaces that can contribute in-window trace terms (a proven
    superset; final membership is enforced monomial by monomial), as a
    region: an n-major tuple of (n, m).

    Every convergent region is floored at its root's h-value.  A space's
    k-th candidate (``candidate_forms``) has the constant part
    (2k+1)*w0 + 2k(k+1), w0 = h_form(cap, root, n, m).c0, and if that lies in
    [-D, D] then w0 >= -D.  Write it as (2k+1)*u + k with u = w0 + k: if
    u >= 0, then k <= D and w0 >= -k >= -D.  Otherwise u <= -1, so
    -D <= (2k+1)*u + k <= -k - 1 gives k + 1 <= D, and then
    w0 = u - k >= -k - (D+k)/(2k+1) >= -D, as 2k(k+1) <= 2kD.  The bound is
    reached at k = 0.  On a regularized trace the window bounds the
    t-exponent along the root, h - L, by -T instead.  Both rise by 2 a
    step up the root string, so the floored region is closed upward and
    holds the origin of every constituent through every space in reach.
    A root-13 triangle n + m <= D + L2 is its floor; regularized root-13 and
    divergent regions have none.
    """
    n_top, row = _region_rows(spec, root, window, regularized, divergent_depth)
    return tuple((n, m) for n in range(n_top + 1) for m in row(n))


def required_depth(spec: ModuleSpec, root: Root | None, window: Window, regularized: bool = False,
                   divergent_depth: int | None = None) -> int:
    """A request's working depth, never below ``spec.depth``: for a trace, its
    brute-force region's deepest n+m plus one root step; for the character
    (``root`` None), 2T, as its enumeration visits n, m <= T.  The region's
    top row gives its deepest space without the region being built, so a
    request past the depth cap is refused at once, however large."""
    if root is None:
        deepest = 2 * window.T
    else:
        n_top, row = _region_rows(spec, root, window, regularized, divergent_depth)
        deepest = n_top + row(n_top)[-1] + sum(root.down_step)
    return max(spec.depth, deepest)


def _window_spaces(region: tuple, window: Window, regularized: bool):
    """Yield (n, m, t_part) for the spaces of a region whose t-part, the
    t-exponents (h1 - L1, h2 - L2) when regularized and (0, 0) otherwise,
    lies in the window."""
    for n, m in region:
        t_part = (m - 2 * n, n - 2 * m) if regularized else (0, 0)
        if abs(t_part[0]) <= window.T and abs(t_part[1]) <= window.T:
            yield n, m, t_part


def trace_from_branching(table: BranchingTable, window: Window,
                         regularized: bool = False) -> FormalSeries:
    """Assemble the windowed trace of q^kappa (times t1^h1 t2^h2 when
    regularized) from a branching table.

    The table's region is the truncation: the sum runs over its spaces, so a
    divergent trace built over the triangle n+m <= depth is that fixed-depth
    window sum, and a convergent one is the window's trace only when the
    region holds the window's ``bruteforce_region``, as ``trace_branching``'s
    does by construction.
    """
    for term in table.terms:
        # Borel h-forms carry L1 or L2, and on the parabolic module every
        # root-23 constituent is finite because E32 is locally nilpotent
        if term.kind == VERMA and _constant(term.hw):
            raise VerificationError(
                f"Verma constituent at {term.origin} has a constant highest weight {tuple(term.hw)}"
            )
    return FormalSeries(
        ((Monomial(form, *t_part), mult)
         for n, m, t_part in _window_spaces(table.region, window, regularized)
         for form, mult in table.spectrum(n, m)),
        window,
    )


def _values(module: VermaModule, forms: list, n: int, m: int) -> list:
    """The forms' numerators at the module's weight, required pairwise distinct."""
    values = [module.numerator(f) for f in forms]
    if len(set(values)) < len(values):
        raise VerificationError(f"ambiguous affine lift of eigenvalues at {(n, m)}")
    return values


def lift_space(modules: list, root: Root, n: int, m: int, forms: list) -> list:
    """Multiplicity of each candidate form on the (n, m) space, one module
    per weight sample: read off the affine diagonal when the Casimir is
    triangular, otherwise measured by ``kappa_spectrum`` at every sample;
    weight-free spaces carry over from the first.

    When the first module is shared, its structure's forms cache holds the
    Casimir as one affine matrix for every sample.
    If that matrix is triangular with pairwise distinct diagonal forms
    (``VermaModule.diagonal_forms``), as every root-12 and root-13 Casimir
    measured so far is, those forms are its eigenvalues, each of multiplicity
    1: a diagonal form among the candidates counts 1, every other candidate
    0, and a diagonal form that no candidate names is a VerificationError.
    That comparison tests ``candidate_forms``' sl(2) rule against the module
    itself; no rank is taken and no later sample's Casimir is built.

    Otherwise, as on root 23, the first module's ``kappa_spectrum`` gives
    the counts, which must sum to the space's dimension, and every other
    module's ``kappa_spectrum`` must give the same counts.  A root-23
    Casimir, unreduced tridiagonal at every sample measured so far, takes
    ``exactalg.nullities``' determinant recurrence and no rank.  When the
    Casimir is weight-free and the forms are constants, every sample's
    problem is the first one's times its denominator, and the first
    sample's counts stand for all.

    A form's count is the multiplicity of its value, so the forms' values at
    each sample must be pairwise distinct, and they are at every weight the
    guard passes.  Two string forms coincide only where w = -(k+k'+1), which
    at depth d needs the L part of w to be an integer in [-d, 2d]: L1, L2 or
    L1+L2 on the Borel module, L1 on parabolic roots 12 and 13.  The guard
    keeps those values off every integer in [-3d-3, 3d+3].  On parabolic
    root 13 w also carries lambda2, and the bound needs d >= lambda2, which
    the root-13 triangle n + m <= D + lambda2 guarantees.  Parabolic root
    23's w is constant, and ``candidate_forms`` merges its equal forms.
    """
    first, *rest = modules
    mat = _casimir(first, root, n, m)
    diagonal = first.diagonal_forms(root, n, m)
    if diagonal is not None:
        for mod in modules:
            _values(mod, forms, n, m)
        counts = [int(form in diagonal) for form in forms]
        _require_complete(sum(counts), mat.cols, root, n, m)
        return counts

    def measured(mod: VermaModule) -> list:
        values = _values(mod, forms, n, m)
        spectrum = dict(kappa_spectrum(mod, root, n, m, forms))
        return [spectrum.get(value, 0) for value in values]

    counts = measured(first)
    d = first.dim(n, m)
    if sum(counts) != d:
        raise VerificationError(
            f"lifted multiplicities at {(n, m)} sum to {sum(counts)}, not the dimension {d}"
        )
    if first.weight_free(root, n, m) and all(map(_constant, forms)):
        return counts
    if any(measured(mod) != counts for mod in rest):
        raise VerificationError(f"lifted multiplicities disagree at {(n, m)}")
    return counts


def trace_brute_force(spec: ModuleSpec, root: Root, window: Window,
                      regularized: bool = False, samples=None,
                      divergent_depth: int | None = None) -> FormalSeries:
    """Windowed trace series computed from the Casimir alone, without a
    branching table.

    On a space whose affine Casimir is triangular with distinct diagonal
    forms, every root-12 and root-13 space measured so far, those forms are
    the eigenvalues at every weight sample, each of multiplicity 1, and must
    be among the candidate forms.  On any other space, every root-23 one of
    two or more rows, each candidate's multiplicity is the nullity of its shift,
    measured by ``kappa_spectrum`` at every weight sample, and every sample
    must give the first one's counts; weight-free spaces carry over from the
    first (``lift_space``).  Any disagreement or ambiguity is a hard error.
    """
    samples = lift_samples(spec, samples)
    region = bruteforce_region(spec, root, window, regularized, divergent_depth)
    need = required_depth(spec, root, window, regularized, divergent_depth)
    if spec.depth < need:
        raise UsageError(f"trace needs depth {need}, module is certified to {spec.depth}")
    modules = [VermaModule(spec.with_weight(l1, l2), shared=True) for (l1, l2) in samples]
    pairs = []
    for n, m, t_part in _window_spaces(region, window, regularized):
        forms = candidate_forms(modules[0], root, n, m)  # none on an empty space
        if not any(window.contains(Monomial(f, *t_part)) for f in forms):
            continue
        counts = lift_space(modules, root, n, m, forms)
        pairs.extend((Monomial(form, *t_part), count) for form, count in zip(forms, counts))
    return FormalSeries(pairs, window)


def trace_branching(spec: ModuleSpec, root: Root, window: Window,
                    regularized: bool = False, samples=None,
                    divergent_depth: int | None = None) -> FormalSeries:
    """Windowed trace series assembled from a branching table over the brute
    force's region, built at the first weight sample.  Every later sample
    re-measures the constituents of each space that is not weight-free, and
    any that differ from the table's are a VerificationError; a weight-free
    space's constituents carry over from the first sample.  A divergent
    trace is only meaningful as a fixed-depth window sum, so its region is
    the triangle n+m <= ``divergent_depth``, as in ``trace_brute_force``."""
    region = bruteforce_region(spec, root, window, regularized, divergent_depth)
    first, *rest = [VermaModule(spec.with_weight(l1, l2), shared=True)
                    for l1, l2 in lift_samples(spec, samples)]
    table = branching_table(first, root, region=region)
    spaces = [
        (n, m) for n, m in region
        if first.dim(n, m) and not (first.weight_free(root.raising, n, m)
                                    and _constant(h_form(first.cap, root, n, m)))
    ]
    for mod in rest:
        for n, m in spaces:
            if _space_terms(mod, root, n, m) != table.by_origin.get((n, m), []):
                raise VerificationError("branching tables differ across weight samples")
    return trace_from_branching(table, window, regularized)


def trace_pipelines(spec: ModuleSpec, root: Root, window: Window, regularized: bool,
                    samples=()) -> tuple[FormalSeries, FormalSeries]:
    """The (branching, brute) series of one convergent trace, both at the
    depth the window needs."""
    deep = spec.with_depth(required_depth(spec, root, window, regularized))
    return (
        trace_branching(deep, root, window, regularized, samples),
        trace_brute_force(deep, root, window, regularized, samples),
    )


# -- spectrum tables (CLI) ----------------------------------------------------


def spectrum_table(module: VermaModule, table: BranchingTable) -> list:
    """Per-weight-space eigenvalue multisets of the table's root Casimir on
    the spaces n+m <= depth - dn - dm, ready for serialization.

    A row whose measured pairs differ from ``predicted_spectrum`` on the
    module gets ``"coherent": False``.  Values become Fractions only for
    printing.
    """
    depth = module.spec.depth - sum(table.root.down_step)
    rows = []
    for n, m in triangle(depth):
        if not module.dim(n, m):
            continue
        pairs = kappa_spectrum(module, table.root, n, m)
        row = {
            "n": n,
            "m": m,
            "dim": module.dim(n, m),
            "eigenvalues": [
                {"value": str(Fraction(v, module.denom)), "multiplicity": c} for v, c in pairs
            ],
        }
        if predicted_spectrum(table, module, n, m) != pairs:
            row["coherent"] = False
        rows.append(row)
    return rows
