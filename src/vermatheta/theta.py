"""Closed-form partial theta series and the three-way identity verifier.

Each catalog entry is built exactly as its reference formula is written,
one k-term at a time: a short numerator (a signed list of monomials) times
geometric expansions of the denominator factors.  The expansion direction of
every factor 1/(1-f) is chosen mechanically so that iterated powers escape
the window: a factor is kept as sum_j f^j when a certified functional
increases along f, and rewritten as -f^(-1)/(1-f^(-1)) otherwise.  Any
rewritten factors are recorded in the report notes.

Suspect catalog entries are never corrected silently: corrections live in
the explicitly labeled ``*-alt-*`` variants, and the verifier reports which
member of each pair matches the module computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .branching import (
    branching_table,
    lift_samples,
    required_depth,
    tables_match,
    trace_brute_force,
    trace_from_branching,
)
from .errors import DivergenceError, UsageError, VerificationError
from .qseries import (
    MONO_ONE,
    Comparison,
    ExponentForm,
    FormalSeries,
    Monomial,
    Window,
    qpow,
    tmono,
)
from .verma import BOREL, PARABOLIC, ModuleSpec, Root, VermaModule


class ClosedFormId(Enum):
    BOREL_TRACE_13 = "borel-trace-13"
    BOREL_REG_TRACE_12 = "borel-reg-trace-12"
    BOREL_REG_TRACE_23 = "borel-reg-trace-23"
    PARABOLIC_TRACE_12 = "parabolic-trace-12"
    PARABOLIC_TRACE_12_ALT_SIGN = "parabolic-trace-12-alt-sign"
    PARABOLIC_TRACE_23 = "parabolic-trace-23"
    PARABOLIC_TRACE_23_ALT_LIMIT = "parabolic-trace-23-alt-limit"
    PARABOLIC_TRACE_13 = "parabolic-trace-13"
    PARABOLIC_CHARACTER = "parabolic-character"


class CatalogEntry(NamedTuple):
    kind: str
    root: Root | None  # None for the character, which is not a trace
    regularized: bool


#: The module kind, root and regularization of every catalog identity.
CATALOG = {
    ClosedFormId.BOREL_TRACE_13: CatalogEntry(BOREL, Root.A13, False),
    ClosedFormId.BOREL_REG_TRACE_12: CatalogEntry(BOREL, Root.A12, True),
    ClosedFormId.BOREL_REG_TRACE_23: CatalogEntry(BOREL, Root.A23, True),
    ClosedFormId.PARABOLIC_TRACE_12: CatalogEntry(PARABOLIC, Root.A12, False),
    ClosedFormId.PARABOLIC_TRACE_12_ALT_SIGN: CatalogEntry(PARABOLIC, Root.A12, False),
    ClosedFormId.PARABOLIC_TRACE_23: CatalogEntry(PARABOLIC, Root.A23, False),
    ClosedFormId.PARABOLIC_TRACE_23_ALT_LIMIT: CatalogEntry(PARABOLIC, Root.A23, False),
    ClosedFormId.PARABOLIC_TRACE_13: CatalogEntry(PARABOLIC, Root.A13, False),
    ClosedFormId.PARABOLIC_CHARACTER: CatalogEntry(PARABOLIC, None, False),
}

VARIANT_PAIRS = (
    (ClosedFormId.PARABOLIC_TRACE_12, ClosedFormId.PARABOLIC_TRACE_12_ALT_SIGN),
    (ClosedFormId.PARABOLIC_TRACE_23, ClosedFormId.PARABOLIC_TRACE_23_ALT_LIMIT),
)


def _phi_t(mono: Monomial) -> int:
    return -(mono.t1 + mono.t2)


def _phi_q(mono: Monomial) -> int:
    return -mono.qexp.c0


def _expand_term(base, factors, window: Window) -> tuple[FormalSeries, list[str]]:
    """Exact windowed expansion of (sum of base monomials) / prod (1 - f).

    ``base`` is a list of (coefficient, Monomial); ``factors`` a list of
    Monomials.  Soundness: with the committed functional phi positive on
    every oriented factor and bounded on the window, powers beyond the
    budget cannot re-enter regardless of the other factors.
    """
    notes: list[str] = []
    for phi, cap, name in ((_phi_t, 2 * window.T, "t-degree"), (_phi_q, window.D, "q-degree")):
        oriented = []
        for f in factors:
            if f == MONO_ONE:
                raise DivergenceError("denominator factor (1 - 1) diverges")
            if phi(f) > 0:
                oriented.append((f, False))
            elif phi(f.inverse()) > 0:
                oriented.append((f.inverse(), True))
            else:
                oriented = None
                break
        if oriented is not None:
            break
    else:
        raise DivergenceError("no expansion direction escapes the window")
    work = [(Fraction(c), m) for c, m in base]
    for f, inverted in oriented:
        if inverted:
            work = [(-c, m * f) for c, m in work]
            notes.append(f"factor inverted for {name} escape: {tuple(f.inverse())}")
    if not work:
        return FormalSeries.zero(window), notes
    phi_base = min(phi(m) for _, m in work)
    acc: dict[Monomial, Fraction] = {}
    for c, m in work:
        acc[m] = acc.get(m, Fraction(0)) + c
    for f, _ in oriented:
        budget = max(0, cap - phi_base) // phi(f)
        powers = [f.power(j) for j in range(budget + 1)]
        nxt: dict[Monomial, Fraction] = {}
        for m, c in acc.items():
            for p in powers:
                mp = m * p
                nxt[mp] = nxt.get(mp, Fraction(0)) + c
        acc = nxt
    return FormalSeries(acc, window), notes


def _k_terms(window: Window):
    """Theta indices admitted by the window: 2k+1 <= B."""
    return range(max(0, (window.B - 1) // 2) + 1)


def closed_form(identity: ClosedFormId, spec: ModuleSpec, window: Window) -> FormalSeries:
    series, _ = closed_form_with_notes(identity, spec, window)
    return series


def closed_form_with_notes(identity: ClosedFormId, spec: ModuleSpec,
                           window: Window) -> tuple[FormalSeries, list[str]]:
    kind = CATALOG[identity].kind
    if spec.kind != kind:
        raise UsageError(f"{identity.value} needs a {kind} module spec")
    v = spec.lambda2_int if kind == PARABOLIC else None

    total = FormalSeries.zero(window)
    notes: list[str] = []

    def accumulate(base, factors):
        nonlocal total
        part, part_notes = _expand_term(base, factors, window)
        total = total + part
        for note in part_notes:
            if note not in notes:
                notes.append(note)

    if identity is ClosedFormId.BOREL_TRACE_13:
        for k in _k_terms(window):
            o = 2 * k + 1
            accumulate(
                [(1, qpow(ExponentForm(-2 * k * k, o, o)))],
                [qpow(ExponentForm(-o, 0, 0))] * 2,
            )
    elif identity is ClosedFormId.BOREL_REG_TRACE_12:
        for k in _k_terms(window):
            o = 2 * k + 1
            f_u = Monomial(ExponentForm(-2 * o, 0, 0), -2, 1)
            f_w = Monomial(ExponentForm(o, 0, 0), 1, -2)
            f_v = Monomial(ExponentForm(-o, 0, 0), -1, -1)
            accumulate(
                [(1, Monomial(ExponentForm(-2 * k * k, o, 0), -2 * k, k))],
                [f_u, f_w],
            )
            accumulate(
                [(-1, Monomial(ExponentForm(-2 * k * k - 2 * o, o, 0), -2 * (k + 1), k + 1))],
                [f_u, f_v],
            )
    elif identity is ClosedFormId.BOREL_REG_TRACE_23:
        for k in _k_terms(window):
            o = 2 * k + 1
            g_w = Monomial(ExponentForm(-2 * o, 0, 0), 1, -2)
            g_u = Monomial(ExponentForm(o, 0, 0), -2, 1)
            g_v = Monomial(ExponentForm(-o, 0, 0), -1, -1)
            accumulate(
                [(1, Monomial(ExponentForm(-2 * k * k, 0, o), k, -2 * k))],
                [g_w, g_u],
            )
            accumulate(
                [(-1, Monomial(ExponentForm(-2 * k * k - 2 * o, 0, o), k + 1, -2 * (k + 1)))],
                [g_w, g_v],
            )
    elif identity is ClosedFormId.PARABOLIC_TRACE_12:
        for k in _k_terms(window):
            o = 2 * k + 1
            accumulate(
                [
                    (1, qpow(ExponentForm(-2 * k * k, -o, 0))),
                    (-1, qpow(ExponentForm(-2 * k * k - o * (v + 1), -o, 0))),
                ],
                [qpow(ExponentForm(-o, 0, 0)), qpow(ExponentForm(o, 0, 0))],
            )
    elif identity is ClosedFormId.PARABOLIC_TRACE_12_ALT_SIGN:
        for k in _k_terms(window):
            o = 2 * k + 1
            accumulate(
                [
                    (1, qpow(ExponentForm(-2 * k * k, o, 0))),
                    (-1, qpow(ExponentForm(-2 * k * k + o * (v + 1), o, 0))),
                ],
                [qpow(ExponentForm(-o, 0, 0)), qpow(ExponentForm(o, 0, 0))],
            )
    elif identity in (ClosedFormId.PARABOLIC_TRACE_23, ClosedFormId.PARABOLIC_TRACE_23_ALT_LIMIT):
        extra = 1 if identity is ClosedFormId.PARABOLIC_TRACE_23 else 0
        terms: dict[Monomial, Fraction] = {}
        for i in range(window.D + 1):
            mult = (i + 1) if i <= v else (v + 1)
            for k in range(i + extra + 1):
                mono = qpow(ExponentForm((2 * k + 1) * i - 2 * k * k, 0, 0))
                if window.contains(mono):
                    terms[mono] = terms.get(mono, Fraction(0)) + mult
        total = total + FormalSeries(terms, window)
    elif identity is ClosedFormId.PARABOLIC_TRACE_13:
        for k in _k_terms(window):
            o = 2 * k + 1
            accumulate(
                [
                    (1, qpow(ExponentForm(-2 * k * k + o * v, o, 0))),
                    (-1, qpow(ExponentForm(-2 * k * k + o * v - o * (v + 1), o, 0))),
                ],
                [qpow(ExponentForm(-o, 0, 0))] * 2,
            )
    elif identity is ClosedFormId.PARABOLIC_CHARACTER:
        accumulate(
            [(1, tmono(i, -2 * i)) for i in range(v + 1)],
            [tmono(-2, 1), tmono(-1, -1)],
        )
    else:
        raise UsageError(f"unknown identity {identity}")
    return total, notes


def borel_character_closed_form(window: Window) -> FormalSeries:
    """Free PBW character t1^L1 t2^L2 / ((1-u)(1-w)(1-uw)) in the relative
    t-representation (prefactor dropped)."""
    series, _ = _expand_term(
        [(1, MONO_ONE)],
        [tmono(-2, 1), tmono(1, -2), tmono(-1, -1)],
        window,
    )
    return series


# -- verification --------------------------------------------------------------


@dataclass
class VerifyReport:
    identity: str
    window: Window
    lambda_samples: tuple
    status: str  # "pass" | "mismatch"
    pipeline_agreement: str  # "pass" | "fail"
    first_mismatch: Comparison | None = None
    pipeline_mismatch: Comparison | None = None
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "pass" and self.pipeline_agreement == "pass"


def verify_identity(identity: ClosedFormId, spec: ModuleSpec, window: Window,
                    samples=None) -> VerifyReport:
    """Three-way check: closed form vs brute-force spectra vs branching
    assembly, all exact on the window.  The closed-form status is judged
    against the brute-force series; pipeline agreement is reported
    independently."""
    kind, root, regularized = CATALOG[identity]
    if spec.kind != kind:
        spec = ModuleSpec(kind, spec.lambda1, spec.lambda2, spec.depth)
    samples = tuple(samples) if samples is not None else lift_samples(spec)
    closed, notes = closed_form_with_notes(identity, spec, window)

    if root is None:
        module = VermaModule(spec)
        brute = module.character_bruteforce(window.T)
        status = closed.equal_on(brute, Window(0, 0, window.T))
        report = VerifyReport(
            identity.value,
            window,
            samples,
            "pass" if status.passed else "mismatch",
            "pass",
            None if status.passed else status,
            None,
            notes + ["single enumeration pipeline; no branching assembly for characters"],
        )
        return report

    need = required_depth(spec, root, window, regularized)
    deep = spec.with_depth(max(spec.depth, need))

    tables = []
    for l1, l2 in samples:
        module = VermaModule(deep.with_weight(l1, l2))
        tables.append(branching_table(module, root))
    for other in tables[1:]:
        if not tables_match(tables[0], other):
            raise VerificationError("branching tables differ across weight samples")
    branch_series = trace_from_branching(tables[0], window, regularized, spec=deep)
    brute_series = trace_brute_force(deep, root, window, regularized, samples=samples)

    pipeline = brute_series.equal_on(branch_series, window)
    status = closed.equal_on(brute_series, window)
    return VerifyReport(
        identity.value,
        window,
        samples,
        "pass" if status.passed else "mismatch",
        "pass" if pipeline.passed else "fail",
        None if status.passed else status,
        None if pipeline.passed else pipeline,
        notes,
    )
