"""Branching tables, Casimir spectra and monodromy-trace series.

Two independent pipelines produce each trace series:

* ``trace_from_branching`` sums the known sl(2) spectrum over the
  constituents of a branching table (one Verma or finite-dimensional sl(2)
  module per singular vector).
* ``trace_brute_force`` diagonalizes the root Casimir on every weight
  space by kernel ranks against a finite candidate list, then lifts the
  numeric eigenvalues to affine forms by matching across several
  guard-passing highest weights.

On an sl(2) module of highest weight u, the Casimir E F + F E acts on the
depth-k vector by (2k+1)u - 2k^2; a finite module L_i has depths 0..i only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import UsageError, VerificationError
from .exactalg import kernel_basis, mat_scalar_shift, rank
from .qseries import ExponentForm, FormalSeries, Monomial, Window
from .verma import (
    _GEN_INDEX, BOREL, PARABOLIC, ModuleSpec, Root, VermaModule, h_form, weight_numerators,
)

VERMA = "verma"
FINITE = "finite"

#: Guard-passing weights used for replication and affine lifting.
DEFAULT_WEIGHTS = (
    (Fraction(7, 3), Fraction(5, 7)),
    (Fraction(11, 5), Fraction(-3, 7)),
    (Fraction(13, 4), Fraction(9, 11)),
)


def lift_samples(spec: ModuleSpec, samples=()) -> tuple:
    """Weight samples used to certify genericity and lift exponents: the
    given ones, checked against the spec, or defaults led by its weight.

    A sample set must separate affine exponent forms: three affinely
    independent weights for the Borel module, at least two distinct lambda1
    values for the parabolic one, whose integral lambda2 is part of the module
    structure, so every sample carries the spec's.
    """
    if not samples:
        samples = [(spec.lambda1, spec.lambda2)]
        for l1, l2 in DEFAULT_WEIGHTS:
            l2 = spec.lambda2 if spec.kind == PARABOLIC else l2
            if (l1, l2) not in samples:
                samples.append((l1, l2))
        samples = samples[:3]
    samples = tuple((Fraction(a), Fraction(b)) for a, b in samples)
    if spec.kind == BOREL:
        if len(samples) < 3:
            raise UsageError("need three affinely independent weight samples")
        det = (
            (samples[1][0] - samples[0][0]) * (samples[2][1] - samples[0][1])
            - (samples[2][0] - samples[0][0]) * (samples[1][1] - samples[0][1])
        )
        if det == 0:
            raise UsageError("need three affinely independent weight samples")
    else:
        if len({l1 for l1, _ in samples}) < 2:
            raise UsageError("need at least two distinct lambda1 samples")
        if any(l2 != spec.lambda2 for _, l2 in samples):
            raise UsageError(f"parabolic weight samples must all have lambda2 = {spec.lambda2}")
    return samples


@dataclass(frozen=True)
class BranchingTerm:
    kind: str  # VERMA or FINITE
    hw: ExponentForm  # finite constituents store (i, 0, 0)
    multiplicity: int
    origin: tuple[int, int]


@dataclass(frozen=True)
class BranchingTable:
    kind: str
    root: Root
    terms: tuple
    region: tuple[int, int, int]  # the covered spaces, as in ``region_spaces``

    @cached_property
    def _strings(self) -> dict:
        """Terms grouped by root string, in table order, keyed by n*dm - m*dn
        for the root's down step (dn, dm), which is constant along a string."""
        dn, dm = self.root.down_step
        strings: dict = {}
        for term in self.terms:
            n0, m0 = term.origin
            strings.setdefault(n0 * dm - m0 * dn, []).append(term)
        return strings

    def on_string(self, n: int, m: int):
        """Yield (term, k) for each constituent whose root string passes
        through the (n, m) space, k steps below the term's origin; a finite
        constituent L_i reaches depths 0..i only."""
        dn, dm = self.root.down_step
        for term in self._strings.get(n * dm - m * dn, ()):
            n0, m0 = term.origin
            k = n - n0 if dn else m - m0
            if k >= 0 and (term.kind != FINITE or k <= term.hw.c0):
                yield term, k

    def local_dimension(self, n: int, m: int) -> int:
        return sum(term.multiplicity for term, _ in self.on_string(n, m))

    def spectrum(self, n: int, m: int):
        """Yield (form, multiplicity) for each constituent through the (n, m)
        space: its depth-k vector's Casimir eigenvalue (2k+1)u - 2k^2, an
        affine form in the weight (a finite constituent's u is its top
        h-value i, stored as the form (i, 0, 0))."""
        for term, k in self.on_string(n, m):
            yield term.hw.scaled(2 * k + 1) + ExponentForm(-2 * k * k, 0, 0), term.multiplicity


def _classify(module: VermaModule, root: Root, n: int, m: int, vector) -> tuple:
    """Return (kind, hw form) for the constituent generated by an integral
    singular vector, testing finiteness inside the module rather than
    assuming it: a lowering letter has scale 1, so its powers act on the
    vector in integers."""
    form = h_form(module.spec.kind, module.lambda2_int, root, n, m)
    i, rem = divmod(module.numerator(form), module.denom)
    if not rem and i >= 0:
        basis = module.weight_space(n, m)
        element = {exps: c for exps, c in zip(basis, vector) if c}
        lowering = _GEN_INDEX[root.lowering]
        for _ in range(i + 1):
            element = module._act(lowering, element)
        if not element:
            return (FINITE, ExponentForm(i, 0, 0))
    return (VERMA, form)


def region_spaces(region: tuple[int, int, int]):
    """The (n, m) spaces of a region (n_top, m0, slope), those with
    n <= n_top and m <= m0 + slope*n, in n-major order."""
    n_top, m0, slope = region
    return ((n, m) for n in range(n_top + 1) for m in range(m0 + slope * n + 1))


def branching_table(module: VermaModule, root: Root,
                    region: tuple[int, int, int] | None = None) -> BranchingTable:
    """Enumerate singular vectors per weight space and aggregate constituents
    over a region, by default the triangle n+m <= the module's depth.

    The region must be closed upward along the root string, so every
    constituent through a covered space has its origin in the table.  Raises
    VerificationError when it is not, or when the constituents fail to
    account exactly for every covered weight-space dimension.
    """
    if region is None:
        region = (module.spec.depth, module.spec.depth, -1)
    n_top, m0, slope = region
    if max(m0, n_top + m0 + slope * n_top) > module.spec.depth:
        raise UsageError("requested coverage exceeds the module's depth")
    spaces = [s for s in region_spaces(region) if module.dim(*s)]
    covered = set(spaces)
    dn, dm = root.down_step
    for n, m in spaces:
        up = (n - dn, m - dm)
        if up not in covered and module.dim(*up):
            raise VerificationError(
                f"region {region} is not closed upward along root {root.value}: "
                f"it holds {(n, m)} but not {up}"
            )
    terms = []
    for n, m in spaces:
        mat = module.operator_matrix(root.raising, (n, m))
        counts: dict = {}
        for vec in kernel_basis(mat):
            key = _classify(module, root, n, m, vec)
            counts[key] = counts.get(key, 0) + 1
        for (kind, hw), mult in sorted(counts.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            terms.append(BranchingTerm(kind, hw, mult, (n, m)))
    table = BranchingTable(module.spec.kind, root, tuple(terms), region)
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
    over the nonempty spaces up the string; when w has an L part, the k-th
    candidate sits at index k.  Along a root whose h-values are integral,
    finite-module candidates (i^2 + 2i - w^2)/2 with i matching the parity
    of w are added as a safety superset.
    """
    c0, c1, c2 = h_form(module.spec.kind, module.lambda2_int, root, n, m)
    # j = 2k+1 runs over the odd numbers, and 2k(k+1) = (j*j - 1)/2
    forms = [ExponentForm(j * c0 + (j * j - 1) // 2, j * c1, j * c2)
             for j in range(1, 2 * module.string_run(root, n, m), 2)]
    if c1 or c2:
        # the k-th form's L part is (2k+1) times w's, so the forms are distinct
        return forms
    # a constant w makes the k and k' forms equal when w + k + k' + 1 = 0
    out, seen = [], set()
    finite = (ExponentForm((i * i + 2 * i - c0 * c0) // 2, 0, 0)
              for i in range(abs(c0), module.spec.depth + 1, 2))
    for form in (*forms, *finite):
        if form not in seen:
            seen.add(form)
            out.append(form)
    return out


def kappa_spectrum(module: VermaModule, root: Root, n: int, m: int, forms=None) -> tuple:
    """Eigenvalue multiset of the root Casimir on (n, m) by kernel ranks, as
    sorted (numerator, multiplicity) pairs over ``module.denom``.

    The candidates are ``forms``, by default ``candidate_forms`` of the
    space.  The multiplicity of e is dim ker(kappa - e*I); completeness (the
    multiplicities summing to the space dimension) is enforced, so a missing
    candidate or a non-diagonalizable operator is a hard error.  The
    Casimir's denominator is scale[raising] * scale[lowering], the weight
    denominator, so each candidate shifts the matrix's numerators directly.
    """
    mat = module.operator_matrix(root, (n, m))
    if mat.den != module.denom:
        raise VerificationError(
            f"casimir({root.value}) on {(n, m)} has denominator {mat.den}, "
            f"not the weight denominator {module.denom}"
        )
    d = mat.cols
    if forms is None:
        forms = candidate_forms(module, root, n, m)
    values = sorted({module.numerator(f) for f in forms})
    found = []
    total = 0
    for value in values:
        mult = d - rank(mat_scalar_shift(mat, value))
        if mult:
            found.append((value, mult))
            total += mult
            if total == d:
                break
    if total != d:
        raise VerificationError(
            f"eigenvalue candidates incomplete on weight space {(n, m)} "
            f"for root {root.value}: found {total} of {d}"
        )
    return tuple(found)


def predicted_spectrum(table: BranchingTable, n: int, m: int, l1, l2) -> tuple:
    """Eigenvalue multiset implied by a branching table at one weight space,
    as sorted (numerator, multiplicity) pairs over the weight denominator
    lcm(den l1, den l2), like ``kappa_spectrum``'s at that weight."""
    q, p1, p2 = weight_numerators(l1, l2)
    out: dict = {}
    for (c0, c1, c2), mult in table.spectrum(n, m):
        e = c0 * q + c1 * p1 + c2 * p2
        out[e] = out.get(e, 0) + mult
    return tuple(sorted(out.items()))


# -- trace series -------------------------------------------------------------


def is_divergent(kind: str, root: Root, regularized: bool) -> bool:
    """The unregularized Borel traces along the simple roots have weight
    strips of unbounded depth feeding single monomials, so they only exist
    as depth-truncated window sums."""
    return kind == BOREL and not regularized and root in (Root.A12, Root.A23)


def bruteforce_region(spec: ModuleSpec, root: Root, window: Window, regularized: bool,
                      divergent_depth: int | None = None) -> tuple[int, int, int]:
    """Weight spaces that can contribute in-window trace terms (a proven
    superset; final membership is enforced monomial by monomial), as
    (n_top, m0, slope): the spaces with n <= n_top and m <= m0 + slope*n.
    The slope is at least -1, so n + m is largest on the row n = n_top."""
    if is_divergent(spec.kind, root, regularized):
        if divergent_depth is None:
            raise UsageError(
                f"unregularized {root.value} trace on the Borel module is divergent; "
                "pass an explicit truncation depth or regularize"
            )
        return divergent_depth, divergent_depth, -1
    if regularized:
        return window.T, window.T, 0
    if root is Root.A13:
        # the k=0 slot at (n, m) carries c0 = L2 - n - m after folding an
        # integral L2, so the shells reach D + L2 on the parabolic module
        cap = window.D + (spec.lambda2_int if spec.kind == PARABOLIC else 0)
        return cap, cap, -1
    if spec.kind == PARABOLIC and root is Root.A12:
        j_max = max(0, (window.B - 1) // 2)
        v = spec.lambda2_int
        return v + window.D + 2 * j_max * (j_max + 1), v, 1
    if spec.kind == PARABOLIC and root is Root.A23:
        cap = window.D + spec.lambda2_int
        return cap, cap, 0
    raise UsageError(f"no trace region for {spec.kind}/{root.value}")


def required_depth(spec: ModuleSpec, root: Root | None, window: Window, regularized: bool = False,
                   divergent_depth: int | None = None) -> int:
    """A request's working depth, never below ``spec.depth``: for a trace, its
    brute-force region's deepest n+m plus one root step; for the character
    (``root`` None), 2T, as its enumeration visits n, m <= T."""
    if root is None:
        deepest = 2 * window.T
    else:
        n_top, m0, slope = bruteforce_region(spec, root, window, regularized, divergent_depth)
        deepest = n_top + m0 + slope * n_top + sum(root.down_step)
    return max(spec.depth, deepest)


def _window_spaces(region: tuple[int, int, int], window: Window, regularized: bool):
    """Yield (n, m, t_part) for the spaces of a region whose t-part, the
    t-exponents (h1 - L1, h2 - L2) when regularized and (0, 0) otherwise,
    lies in the window."""
    for n, m in region_spaces(region):
        t_part = (m - 2 * n, n - 2 * m) if regularized else (0, 0)
        if abs(t_part[0]) <= window.T and abs(t_part[1]) <= window.T:
            yield n, m, t_part


def trace_from_branching(table: BranchingTable, window: Window, regularized: bool = False,
                         spec: ModuleSpec | None = None) -> FormalSeries:
    """Assemble the windowed trace of q^kappa (times t1^h1 t2^h2 when
    regularized) from a branching table.

    The table's region is the truncation: the sum runs over its spaces, so a
    divergent trace built over the triangle n+m <= depth is that fixed-depth
    window sum.  Given ``spec``, a convergent trace is refused unless the
    region holds every space the window needs.
    """
    if spec is not None and not is_divergent(spec.kind, table.root, regularized):
        # regions are linear in n and start at n = 0, so containment is
        # decided at the first and the last row of the window's region
        n_top, m0, slope = table.region
        n_need, m_need, s_need = need = bruteforce_region(spec, table.root, window, regularized)
        if n_need > n_top or m_need > m0 or m_need + s_need * n_need > m0 + slope * n_need:
            raise UsageError(
                f"window needs constituents over the region {need} but the table "
                f"covers only {table.region}"
            )
    for term in table.terms:
        # Borel h-forms carry L1 or L2, and on the parabolic module every
        # root-23 constituent is finite because E32 is locally nilpotent
        if term.kind == VERMA and not (term.hw.c1 or term.hw.c2):
            raise VerificationError(
                f"Verma constituent at {term.origin} has a constant highest weight {tuple(term.hw)}"
            )
    return FormalSeries(
        ((Monomial(form, *t_part), mult)
         for n, m, t_part in _window_spaces(table.region, window, regularized)
         for form, mult in table.spectrum(n, m)),
        window,
    )


def _lift_multiplicities(values: list, measured: list, where) -> list:
    """Solve constituent multiplicities per candidate form from the measured
    value multiplicities at each weight sample; abort on ambiguity.

    ``values[s][f]`` is form f's numerator at sample s and ``measured[s]``
    that sample's (numerator, multiplicity) pairs.  Returns the
    multiplicities in form order.
    """
    n_forms = len(values[0])
    groups = []
    for vals in values:
        by_value: dict = {}
        for f, value in enumerate(vals):
            by_value.setdefault(value, []).append(f)
        groups.append(by_value)
    targets = [dict(pairs) for pairs in measured]
    mult: list = [None] * n_forms
    known = 0
    progress = True
    while progress and known < n_forms:
        progress = False
        for by_value, target in zip(groups, targets):
            for value, group in by_value.items():
                undetermined = [f for f in group if mult[f] is None]
                if len(undetermined) == 1:
                    rest = sum(mult[f] for f in group if mult[f] is not None)
                    count = target.get(value, 0) - rest
                    if count < 0:
                        raise VerificationError(f"inconsistent eigenvalue counts at {where}")
                    mult[undetermined[0]] = count
                    known += 1
                    progress = True
    if known < n_forms:
        raise VerificationError(f"ambiguous affine lift of eigenvalues at {where}")
    for by_value, pairs in zip(groups, measured):
        seen = {value: sum(mult[f] for f in group) for value, group in by_value.items()}
        for value, count in pairs:
            if seen.get(value, 0) != count:
                raise VerificationError(f"lifted multiplicities disagree at {where}")
    return mult


def lift_space(modules: list, root: Root, n: int, m: int, forms: list) -> list:
    """Multiplicity of each candidate form on the (n, m) space, lifted from
    its kernel-rank spectra at the modules' weights, one module per sample."""
    values = [[mod.numerator(f) for f in forms] for mod in modules]
    measured = [kappa_spectrum(mod, root, n, m, forms) for mod in modules]
    return _lift_multiplicities(values, measured, (n, m))


def trace_brute_force(spec: ModuleSpec, root: Root, window: Window,
                      regularized: bool = False, samples=None,
                      divergent_depth: int | None = None) -> FormalSeries:
    """Windowed trace series computed from kernel-rank spectra alone.

    Numeric eigenvalues are lifted to affine exponents by simultaneous
    matching across the weight samples; a non-unique lift is a hard error.
    """
    samples = lift_samples(spec, samples)
    region = bruteforce_region(spec, root, window, regularized, divergent_depth)
    need = required_depth(spec, root, window, regularized, divergent_depth)
    if spec.depth < need:
        raise UsageError(f"trace needs depth {need}, module is certified to {spec.depth}")
    modules = [VermaModule(spec.with_weight(l1, l2)) for (l1, l2) in samples]
    pairs = []
    for n, m, t_part in _window_spaces(region, window, regularized):
        if not modules[0].dim(n, m):
            continue
        forms = candidate_forms(modules[0], root, n, m)
        # the k = 0 form is w; a form whose L part is (2k+1) times a nonzero
        # one leaves the window once 2k+1 > B, so only k <= (B-1)//2 can put
        # this space in it
        w = forms[0]
        reach = forms[: (window.B - 1) // 2 + 1] if w.c1 or w.c2 else forms
        if not any(window.contains(Monomial(f, *t_part)) for f in reach):
            continue
        counts = lift_space(modules, root, n, m, forms)
        pairs.extend((Monomial(form, *t_part), count) for form, count in zip(forms, counts))
    return FormalSeries(pairs, window)


def trace_pipelines(spec: ModuleSpec, root: Root, window: Window, regularized: bool,
                    samples=()) -> tuple[FormalSeries, FormalSeries]:
    """The (branching, brute) series of one convergent trace, both at the
    depth the window needs.  The branching table is built over the brute
    force's region at every weight sample; tables that differ across samples
    are a VerificationError."""
    samples = lift_samples(spec, samples)
    region = bruteforce_region(spec, root, window, regularized)
    deep = spec.with_depth(required_depth(spec, root, window, regularized))
    tables = [
        branching_table(VermaModule(deep.with_weight(l1, l2)), root, region=region)
        for l1, l2 in samples
    ]
    if any(table != tables[0] for table in tables[1:]):
        raise VerificationError("branching tables differ across weight samples")
    return (
        trace_from_branching(tables[0], window, regularized, spec=deep),
        trace_brute_force(deep, root, window, regularized, samples=samples),
    )


# -- spectrum tables (CLI) ----------------------------------------------------


def spectrum_table(module: VermaModule, table: BranchingTable) -> list:
    """Per-weight-space eigenvalue multisets of the table's root Casimir on
    the spaces n+m <= depth - dn - dm, ready for serialization.

    A row whose measured pairs differ from ``predicted_spectrum`` at the
    module's weight gets ``"coherent": False``.  Values become Fractions
    only for printing.
    """
    spec = module.spec
    depth = spec.depth - sum(table.root.down_step)
    rows = []
    for n in range(depth + 1):
        for m in range(depth + 1 - n):
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
            if predicted_spectrum(table, n, m, spec.lambda1, spec.lambda2) != pairs:
                row["coherent"] = False
            rows.append(row)
    return rows
