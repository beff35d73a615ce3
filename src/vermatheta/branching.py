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

from .errors import UsageError, VerificationError
from .exactalg import kernel_basis, mat_scalar_shift, rank
from .qseries import ExponentForm, FormalSeries, Monomial, Window, qpow
from .verma import BOREL, PARABOLIC, ModuleSpec, Root, VermaModule, h_form

VERMA = "verma"
FINITE = "finite"

#: Guard-passing weights used for replication and affine lifting.
DEFAULT_WEIGHTS = (
    (Fraction(7, 3), Fraction(5, 7)),
    (Fraction(11, 5), Fraction(-3, 7)),
    (Fraction(13, 4), Fraction(9, 11)),
)


def validate_samples(kind: str, samples) -> tuple:
    """Check that a sample set can separate affine exponent forms: three
    affinely independent weights for the Borel module, at least two distinct
    lambda1 values for the parabolic one (whose lambda2 is folded)."""
    samples = tuple((Fraction(a), Fraction(b)) for a, b in samples)
    if kind == BOREL:
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
        if len({l2 for _, l2 in samples}) != 1:
            raise UsageError("parabolic samples must share the structural lambda2")
    return samples


def lift_samples(spec: ModuleSpec) -> tuple:
    """Weight samples used to certify genericity and lift exponents.

    The parabolic module keeps its integral lambda2 fixed (it is part of the
    module structure) and varies lambda1 only.
    """
    if spec.kind == BOREL:
        samples = [(spec.lambda1, spec.lambda2)]
        for l1, l2 in DEFAULT_WEIGHTS:
            if (l1, l2) not in samples:
                samples.append((l1, l2))
        return validate_samples(BOREL, samples[:3])
    l2 = spec.lambda2
    samples = [(spec.lambda1, l2)]
    for l1, _ in DEFAULT_WEIGHTS:
        if all(l1 != s[0] for s in samples):
            samples.append((l1, l2))
    return validate_samples(PARABOLIC, samples[:3])


@dataclass(frozen=True)
class BranchingTerm:
    kind: str  # VERMA or FINITE
    hw: ExponentForm  # finite constituents store (i, 0, 0)
    multiplicity: int
    origin: tuple[int, int]

    @property
    def finite_hw(self) -> int:
        if self.kind != FINITE:
            raise UsageError("not a finite constituent")
        return self.hw.c0


def _on_string(terms, root: Root, n: int, m: int):
    """Yield (term, k) for each constituent whose ``root`` string passes
    through the (n, m) space, k steps below the term's origin; a finite
    constituent L_i reaches depths 0..i only."""
    dn, dm = root.down_step
    for term in terms:
        n0, m0 = term.origin
        kn, km = n - n0, m - m0
        k = kn // dn if dn else km // dm
        if k >= 0 and (kn, km) == (k * dn, k * dm) and (term.kind != FINITE or k <= term.hw.c0):
            yield term, k


@dataclass(frozen=True)
class BranchingTable:
    kind: str
    root: Root
    terms: tuple
    depth_covered: int

    def local_dimension(self, n: int, m: int) -> int:
        return sum(term.multiplicity for term, _ in _on_string(self.terms, self.root, n, m))


def singular_dimension(module: VermaModule, root: Root, n: int, m: int) -> int:
    """Dimension of the kernel of the root's raising generator on (n, m)."""
    mat = module.operator_matrix(root.raising, (n, m))
    return mat.cols - rank(mat)


def _classify(module: VermaModule, root: Root, n: int, m: int, vector) -> tuple:
    """Return (kind, hw form) for the constituent generated by a singular
    vector, testing finiteness inside the module rather than assuming it."""
    form = h_form(module.spec.kind, module.spec.lambda2, root, n, m)
    value = form.evaluate(module.spec.lambda1, module.spec.lambda2)
    if value.denominator == 1 and value >= 0:
        i = int(value)
        basis = module.weight_space(n, m)
        element = {exps: c for exps, c in zip(basis, vector) if c}
        for _ in range(i + 1):
            element = module.apply_gen(root.lowering, element)
        if not element:
            return (FINITE, ExponentForm(i, 0, 0))
    return (VERMA, form)


def branching_table(module: VermaModule, root: Root, depth: int | None = None) -> BranchingTable:
    """Enumerate singular vectors per weight space and aggregate constituents.

    Raises VerificationError when the constituents fail to account exactly
    for every weight-space dimension within the covered depth.
    """
    depth = module.spec.depth if depth is None else depth
    if depth > module.spec.depth:
        raise UsageError("requested coverage exceeds the module's depth")
    terms = []
    for n in range(depth + 1):
        for m in range(depth + 1 - n):
            basis = module.weight_space(n, m)
            if not basis:
                continue
            mat = module.operator_matrix(root.raising, (n, m))
            counts: dict = {}
            for vec in kernel_basis(mat):
                key = _classify(module, root, n, m, vec)
                counts[key] = counts.get(key, 0) + 1
            for (kind, hw), mult in sorted(counts.items(), key=lambda kv: (kv[0][0], kv[0][1])):
                terms.append(BranchingTerm(kind, hw, mult, (n, m)))
    table = BranchingTable(module.spec.kind, root, tuple(terms), depth)
    for n in range(depth + 1):
        for m in range(depth + 1 - n):
            want = module.dim(n, m)
            got = table.local_dimension(n, m)
            if want != got:
                raise VerificationError(
                    f"dimension accounting failed at {(n, m)} for root {root.value}: "
                    f"constituents give {got}, weight space has {want}"
                )
    return table


def tables_match(a: BranchingTable, b: BranchingTable) -> bool:
    """Structural equality: same constituents, forms and multiplicities."""
    return (
        a.kind == b.kind
        and a.root == b.root
        and a.depth_covered == b.depth_covered
        and a.terms == b.terms
    )


# -- Casimir spectra ---------------------------------------------------------


def candidate_forms(module: VermaModule, root: Root, n: int, m: int) -> list:
    """Affine candidates for Casimir eigenvalues on the (n, m) weight space.

    A constituent passing through (n, m) at string depth k has its origin k
    steps up the root string with highest weight u equal to the origin's
    h-value, so the candidates are (2k+1)*u - 2k^2 over the nonempty spaces
    up the string.  Along a root whose h-values are integral, finite-module
    candidates (i^2 + 2i - w^2)/2 with i matching the parity of the local
    h-value w are added as a safety superset.
    """
    dn, dm = root.down_step
    forms = []
    k = 0
    while True:
        up = (n - k * dn, m - k * dm)
        if up[0] < 0 or up[1] < 0 or not module.dim(*up):
            break
        w_up = h_form(module.spec.kind, module.spec.lambda2, root, *up)
        form = w_up.scaled(2 * k + 1) + ExponentForm(-2 * k * k, 0, 0)
        if form not in forms:
            forms.append(form)
        k += 1
    w_here = h_form(module.spec.kind, module.spec.lambda2, root, n, m)
    if w_here.c1 == 0 and w_here.c2 == 0:
        w = w_here.c0
        for i in range(abs(w), module.spec.depth + 1, 2):
            form = ExponentForm((i * i + 2 * i - w * w) // 2, 0, 0)
            if form not in forms:
                forms.append(form)
    return forms


def kappa_spectrum(module: VermaModule, root: Root, n: int, m: int) -> tuple:
    """Eigenvalue multiset of the root Casimir on (n, m) by kernel ranks.

    The multiplicity of e is dim ker(kappa - e*I); completeness (the
    multiplicities summing to the space dimension) is enforced, so a missing
    candidate or a non-diagonalizable operator is a hard error.
    """
    mat = module.operator_matrix(root, (n, m))
    d = mat.cols
    l1, l2 = module.spec.lambda1, module.spec.lambda2
    values = sorted({f.evaluate(l1, l2) for f in candidate_forms(module, root, n, m)})
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


def predicted_spectrum(table: BranchingTable, root: Root, n: int, m: int, l1, l2) -> tuple:
    """Eigenvalue multiset implied by a branching table at one weight space."""
    l1, l2 = Fraction(l1), Fraction(l2)
    out: dict = {}
    for term, k in _on_string(table.terms, root, n, m):
        # a finite constituent's hw (i, 0, 0) evaluates to its top h-value i
        e = (2 * k + 1) * term.hw.evaluate(l1, l2) - 2 * k * k
        out[e] = out.get(e, 0) + term.multiplicity
    return tuple(sorted(out.items()))


# -- trace series -------------------------------------------------------------


def is_divergent(kind: str, root: Root, regularized: bool) -> bool:
    """The unregularized Borel traces along the simple roots have weight
    strips of unbounded depth feeding single monomials, so they only exist
    as depth-truncated window sums."""
    return kind == BOREL and not regularized and root in (Root.A12, Root.A23)


def bruteforce_region(spec: ModuleSpec, root: Root, window: Window, regularized: bool,
                      divergent_depth: int | None = None) -> list:
    """Weight spaces that can contribute in-window trace terms (a proven
    superset; final membership is enforced monomial by monomial)."""
    spaces = []
    if is_divergent(spec.kind, root, regularized):
        if divergent_depth is None:
            raise UsageError(
                f"unregularized {root.value} trace on the Borel module is divergent; "
                "pass an explicit truncation depth or regularize"
            )
        for n in range(divergent_depth + 1):
            for m in range(divergent_depth + 1 - n):
                spaces.append((n, m))
    elif regularized:
        for n in range(window.T + 1):
            for m in range(window.T + 1):
                spaces.append((n, m))
    elif root is Root.A13:
        # the k=0 slot at (n, m) carries c0 = L2 - n - m after folding an
        # integral L2, so the shells reach D + L2 on the parabolic module
        cap = window.D + (spec.lambda2_int if spec.kind == PARABOLIC else 0)
        for n in range(cap + 1):
            for m in range(cap + 1 - n):
                spaces.append((n, m))
    elif spec.kind == PARABOLIC and root is Root.A12:
        j_max = max(0, (window.B - 1) // 2)
        v = spec.lambda2_int
        n_cap = v + window.D + 2 * j_max * (j_max + 1)
        for n in range(n_cap + 1):
            for m in range(n + v + 1):
                spaces.append((n, m))
    elif spec.kind == PARABOLIC and root is Root.A23:
        cap = window.D + spec.lambda2_int
        for n in range(cap + 1):
            for m in range(cap + 1):
                spaces.append((n, m))
    else:
        raise UsageError(f"no trace region for {spec.kind}/{root.value}")
    return spaces


def required_depth(spec: ModuleSpec, root: Root, window: Window, regularized: bool,
                   divergent_depth: int | None = None) -> int:
    region = bruteforce_region(spec, root, window, regularized, divergent_depth)
    dn, dm = root.down_step
    return max((n + m for n, m in region), default=0) + dn + dm


def _slot_monomial(kind: str, root: Root, origin: tuple[int, int], k: int,
                   hw: ExponentForm, regularized: bool) -> Monomial:
    form = hw.scaled(2 * k + 1) + ExponentForm(-2 * k * k, 0, 0)
    if not regularized:
        return qpow(form)
    dn, dm = root.down_step
    n, m = origin[0] + k * dn, origin[1] + k * dm
    return Monomial(form, m - 2 * n, n - 2 * m)


def trace_from_branching(table: BranchingTable, window: Window, regularized: bool = False,
                         spec: ModuleSpec | None = None,
                         slot_depth: int | None = None) -> FormalSeries:
    """Assemble the windowed trace of q^kappa (times t1^h1 t2^h2 when
    regularized) from a branching table.

    ``slot_depth`` truncates to eigenvector slots lying in weight spaces with
    n+m <= slot_depth; it is how divergent traces are rendered as fixed-depth
    window sums, matching the weight-space truncation of the brute force.
    """
    if spec is not None:
        need = required_depth(spec, table.root, window, regularized,
                              divergent_depth=table.depth_covered)
        if need - sum(table.root.down_step) > table.depth_covered:
            raise UsageError(
                f"window needs constituents up to depth {need} but the table "
                f"covers only {table.depth_covered}"
            )
    dn, dm = table.root.down_step
    terms: dict[Monomial, Fraction] = {}
    for term in table.terms:
        if term.kind == FINITE:
            k_range = range(term.finite_hw + 1)
        else:
            if term.hw.c1 or term.hw.c2:
                k_range = range(max(0, (window.B - 1) // 2) + 1)
            else:
                w = term.hw.c0
                k_top = max(0, w) // 2 + 1
                while (2 * k_top + 1) * w - 2 * k_top * k_top >= -window.D:
                    k_top += 1
                k_range = range(k_top + 1)
        for k in k_range:
            if slot_depth is not None:
                shell = term.origin[0] + term.origin[1] + k * (dn + dm)
                if shell > slot_depth:
                    continue
            mono = _slot_monomial(table.kind, table.root, term.origin, k, term.hw, regularized)
            if window.contains(mono):
                terms[mono] = terms.get(mono, Fraction(0)) + term.multiplicity
    return FormalSeries(terms, window)


def _lift_multiplicities(forms: list, measured: list, samples: list, where) -> dict:
    """Solve constituent multiplicities per candidate form from the measured
    value multiplicities at each weight sample; abort on ambiguity."""
    values = [{f: f.evaluate(l1, l2) for f in forms} for (l1, l2) in samples]
    mult: dict = {}
    progress = True
    while progress and len(mult) < len(forms):
        progress = False
        for s in range(len(samples)):
            groups: dict = {}
            for f in forms:
                groups.setdefault(values[s][f], []).append(f)
            for value, group in groups.items():
                target = dict(measured[s]).get(value, 0)
                undetermined = [f for f in group if f not in mult]
                if len(undetermined) == 1:
                    rest = sum(mult[f] for f in group if f in mult)
                    if target - rest < 0:
                        raise VerificationError(f"inconsistent eigenvalue counts at {where}")
                    mult[undetermined[0]] = target - rest
                    progress = True
    if len(mult) < len(forms):
        raise VerificationError(f"ambiguous affine lift of eigenvalues at {where}")
    for s in range(len(samples)):
        seen: dict = {}
        for f in forms:
            seen[values[s][f]] = seen.get(values[s][f], 0) + mult[f]
        for value, count in measured[s]:
            if seen.get(value, 0) != count:
                raise VerificationError(f"lifted multiplicities disagree at {where}")
    return mult


def trace_brute_force(spec: ModuleSpec, root: Root, window: Window,
                      regularized: bool = False, samples=None,
                      divergent_depth: int | None = None) -> FormalSeries:
    """Windowed trace series computed from kernel-rank spectra alone.

    Numeric eigenvalues are lifted to affine exponents by simultaneous
    matching across the weight samples; a non-unique lift is a hard error.
    """
    if samples is None:
        samples = lift_samples(spec)
    else:
        samples = validate_samples(spec.kind, samples)
    region = bruteforce_region(spec, root, window, regularized, divergent_depth)
    need = required_depth(spec, root, window, regularized, divergent_depth)
    if spec.depth < need:
        raise UsageError(f"trace needs depth {need}, module is certified to {spec.depth}")
    modules = [VermaModule(spec.with_weight(l1, l2)) for (l1, l2) in samples]
    terms: dict[Monomial, Fraction] = {}
    for n, m in sorted(region):
        if not modules[0].dim(n, m):
            continue
        forms = candidate_forms(modules[0], root, n, m)
        if regularized:
            t_part = (m - 2 * n, n - 2 * m)
            if abs(t_part[0]) > window.T or abs(t_part[1]) > window.T:
                continue
        else:
            t_part = (0, 0)
        if not any(window.contains(Monomial(f, *t_part)) for f in forms):
            continue
        measured = [kappa_spectrum(mod, root, n, m) for mod in modules]
        mult = _lift_multiplicities(forms, measured, samples, (n, m))
        for form in forms:
            if not mult[form]:
                continue
            mono = Monomial(form, *t_part)
            if window.contains(mono):
                terms[mono] = terms.get(mono, Fraction(0)) + mult[form]
    return FormalSeries(terms, window)


# -- spectrum tables (CLI) ----------------------------------------------------


def spectrum_table(module: VermaModule, root: Root, depth: int | None = None) -> list:
    """Per-weight-space eigenvalue multisets, ready for serialization."""
    dn, dm = root.down_step
    depth = module.spec.depth - dn - dm if depth is None else depth
    rows = []
    for n in range(depth + 1):
        for m in range(depth + 1 - n):
            if not module.dim(n, m):
                continue
            pairs = kappa_spectrum(module, root, n, m)
            rows.append(
                {
                    "n": n,
                    "m": m,
                    "dim": module.dim(n, m),
                    "eigenvalues": [
                        {"value": str(v), "multiplicity": c} for v, c in pairs
                    ],
                }
            )
    return rows
