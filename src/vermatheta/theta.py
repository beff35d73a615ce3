"""Closed-form partial theta series and the three-way identity verifier.

Each catalog series is a sum of terms base / prod (1 - f), built exactly as
its reference formula is written (``catalog_terms``): a short numerator (a
signed list of monomials) times geometric expansions of the denominator
factors, one term per k for a partial theta sum.  The finite
parabolic-trace-23 sums are terms with no factors.  The expansion direction of
every factor 1/(1-f) is chosen mechanically so that iterated powers escape
the window: a factor is kept as sum_j f^j when a certified functional
increases along f, and rewritten as -f^(-1)/(1-f^(-1)) otherwise.  Any
rewritten factors are recorded in the report notes.

Suspect catalog entries are never corrected silently: corrections live in
the explicitly labeled ``*-alt-*`` variants, and the verifier reports which
member of each pair matches the module computation.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .branching import lift_samples, trace_pipelines
from .errors import DivergenceError, UsageError
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


def annotate_variants(checks: list) -> None:
    """Note on every copy of each variant pair member which member matches.

    ``checks`` are one job's (identity, check record) pairs, so a pair found
    among them shares one spec.
    """
    by_identity: dict = {}
    for identity, record in checks:
        by_identity.setdefault(identity, []).append(record)
    for literal_id, alt_id in VARIANT_PAIRS:
        literals, alts = by_identity.get(literal_id), by_identity.get(alt_id)
        if not (literals and alts):
            continue
        winners = [r["id"] for r in (literals[0], alts[0]) if r["status"] == "pass"]
        if len(winners) == 1:
            note = f"matching variant: {winners[0]}"
        else:
            note = f"matching variants: {winners or 'none'}"
        for record in literals + alts:
            record["notes"].append(note)
            if record["status"] == "mismatch" and record["pipelineAgreement"] == "pass":
                record["notes"].append(
                    "classification: formula-discrepancy (computational pipelines agree)"
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
    work = base
    for f, inverted in oriented:
        if inverted:
            work = [(-c, m * f) for c, m in work]
            notes.append(f"factor inverted for {name} escape: {tuple(f.inverse())}")
    if not work:
        return FormalSeries({}, window), notes
    phi_base = min(phi(m) for _, m in work)
    acc: dict[Monomial, int] = {}
    for c, m in work:
        acc[m] = acc.get(m, 0) + c
    for f, _ in oriented:
        budget = max(0, cap - phi_base) // phi(f)
        powers = [f.power(j) for j in range(budget + 1)]
        nxt: dict[Monomial, int] = {}
        for m, c in acc.items():
            for p in powers:
                mp = m * p
                # phi grows along the powers and every later factor, so
                # nothing past the cap comes back into the window
                if phi(mp) > cap:
                    break
                nxt[mp] = nxt.get(mp, 0) + c
        acc = nxt
    return FormalSeries(acc, window), notes


def catalog_terms(identity: ClosedFormId, spec: ModuleSpec, window: Window):
    """Yield each term of an identity's catalog series as (base, factors), the
    series being the sum of base / prod (1 - f) (``_expand_term``).

    A k-sum identity yields its k-terms for k = 0 ... (B-1)//2, so
    2k+1 <= B, and none at B = 0; borel-reg-trace-12 and -23 yield two
    terms per k.  The parabolic character is one term, and the
    parabolic-trace-23 pair yields one finite sum per top weight i <= D,
    with no factors.
    """
    v = spec.cap
    if identity in (ClosedFormId.PARABOLIC_TRACE_23, ClosedFormId.PARABOLIC_TRACE_23_ALT_LIMIT):
        extra = 1 if identity is ClosedFormId.PARABOLIC_TRACE_23 else 0
        for i in range(window.D + 1):
            yield [(min(i, v) + 1, qpow(ExponentForm((2 * k + 1) * i - 2 * k * k, 0, 0)))
                   for k in range(i + extra + 1)], []
        return
    if identity is ClosedFormId.PARABOLIC_CHARACTER:
        # t1^i t2^(-2i) has t-degree i and both factors raise it, so a base
        # term past the cap 2T never reaches the window
        yield ([(1, tmono(i, -2 * i)) for i in range(min(v, 2 * window.T) + 1)],
               [tmono(-2, 1), tmono(-1, -1)])
        return
    # the sign of L1 in the parabolic-trace-12 pair: -1 as the catalog
    # writes the literal, +1 in its alt-sign correction
    s = -1 if identity is ClosedFormId.PARABOLIC_TRACE_12 else 1
    # borel-reg-trace-23 is -12 under the Dynkin flip: L1 swaps with L2, t1 with t2
    flip = ((lambda m: Monomial(ExponentForm(m.qexp.c0, m.qexp.c2, m.qexp.c1), m.t2, m.t1))
            if identity is ClosedFormId.BOREL_REG_TRACE_23 else lambda m: m)
    for k in range((window.B + 1) // 2):
        o = 2 * k + 1
        if identity is ClosedFormId.BOREL_TRACE_13:
            yield [(1, qpow(ExponentForm(-2 * k * k, o, o)))], [qpow(ExponentForm(-o, 0, 0))] * 2
        elif identity in (ClosedFormId.BOREL_REG_TRACE_12, ClosedFormId.BOREL_REG_TRACE_23):
            f_u = flip(Monomial(ExponentForm(-2 * o, 0, 0), -2, 1))
            f_w = flip(Monomial(ExponentForm(o, 0, 0), 1, -2))
            f_v = flip(Monomial(ExponentForm(-o, 0, 0), -1, -1))
            yield [(1, flip(Monomial(ExponentForm(-2 * k * k, o, 0), -2 * k, k)))], [f_u, f_w]
            yield ([(-1, flip(Monomial(ExponentForm(-2 * k * k - 2 * o, o, 0), -2 * (k + 1), k + 1)))],
                   [f_u, f_v])
        elif identity is ClosedFormId.PARABOLIC_TRACE_13:
            yield [
                (1, qpow(ExponentForm(-2 * k * k + o * v, o, 0))),
                (-1, qpow(ExponentForm(-2 * k * k + o * v - o * (v + 1), o, 0))),
            ], [qpow(ExponentForm(-o, 0, 0))] * 2
        else:  # the parabolic-trace-12 pair
            yield [
                (1, qpow(ExponentForm(-2 * k * k, s * o, 0))),
                (-1, qpow(ExponentForm(-2 * k * k + s * o * (v + 1), s * o, 0))),
            ], [qpow(ExponentForm(-o, 0, 0)), qpow(ExponentForm(o, 0, 0))]


def closed_form_with_notes(identity: ClosedFormId, spec: ModuleSpec,
                           window: Window) -> tuple[FormalSeries, list[str]]:
    """An identity's catalog series on the window, the sum of its expanded
    ``catalog_terms``, with each expansion note once."""
    kind = CATALOG[identity].kind
    if spec.kind != kind:
        raise UsageError(f"{identity.value} needs a {kind} module spec")
    pairs: list = []
    notes: list[str] = []
    for base, factors in catalog_terms(identity, spec, window):
        part, part_notes = _expand_term(base, factors, window)
        pairs.extend(part.terms.items())
        notes += part_notes
    return FormalSeries(pairs, window), list(dict.fromkeys(notes))


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


def comparison_json(cmp: Comparison) -> dict:
    c0, c1, c2 = cmp.monomial.qexp
    return {
        "monomial": {"c0": c0, "c1": c1, "c2": c2, "t1": cmp.monomial.t1, "t2": cmp.monomial.t2},
        "left": str(cmp.left),
        "right": str(cmp.right),
    }


def check_record(name: str, window: Window, samples, notes=(), passed: bool = True,
                 agreed: bool = True, first_mismatch=None, pipeline_mismatch=None) -> dict:
    """One entry of a report's ``checks``; a mismatch key appears only for a
    failed comparison."""
    out = {
        "id": name,
        "status": "pass" if passed else "mismatch",
        "pipelineAgreement": "pass" if agreed else "fail",
        "window": window.as_dict(),
        "lambdaSamples": [[str(a), str(b)] for a, b in samples],
        "notes": list(notes),
    }
    for key, cmp in (("firstMismatch", first_mismatch), ("pipelineMismatch", pipeline_mismatch)):
        if cmp is not None and not cmp.passed:
            out[key] = comparison_json(cmp)
    return out


def check_id(identity: ClosedFormId, spec: ModuleSpec) -> str:
    """The id of an identity's check: a parabolic one names its lambda2."""
    return identity.value + (f"@lambda2={spec.lambda2}" if spec.kind == PARABOLIC else "")


def verify_identity(identity: ClosedFormId, spec: ModuleSpec, window: Window,
                    samples=(), pipelines=None) -> dict:
    """Three-way check: closed form vs brute-force spectra vs branching
    assembly, all exact on the window, as the check entry the ``verify``
    report prints.  The closed-form status is judged against the brute-force
    series; pipeline agreement is reported independently.  ``pipelines`` is
    the identity's (branching, brute) pair from ``trace_pipelines`` when the
    caller already has it."""
    _, root, regularized = CATALOG[identity]
    closed, notes = closed_form_with_notes(identity, spec, window)
    samples = lift_samples(spec, samples)
    if root is None:
        brute = VermaModule(spec).character_bruteforce(window.T)
        status = closed.equal_on(brute, Window(0, 0, window.T))
        pipeline = None
        notes.append("single enumeration pipeline; no branching assembly for characters")
    else:
        if pipelines is None:
            pipelines = trace_pipelines(spec, root, window, regularized, samples)
        branch_series, brute_series = pipelines
        pipeline = brute_series.equal_on(branch_series, window)
        status = closed.equal_on(brute_series, window)
    return check_record(check_id(identity, spec), window, samples, notes, status.passed,
                        pipeline is None or pipeline.passed, status, pipeline)
