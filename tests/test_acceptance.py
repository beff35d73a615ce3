"""Acceptance suite: one test per release criterion, each printing a summary
line.  Exact rational arithmetic throughout, so every tolerance is literal
equality; the two stated runtime budgets are asserted with wall clocks.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

from vermatheta import (
    BOREL,
    PARABOLIC,
    ModuleSpec,
    Root,
    Window,
    branching_table,
    kappa_spectrum,
    trace_brute_force,
)
from vermatheta.branching import predicted_spectrum, triangle
from vermatheta.cli import main
from vermatheta.theta import ClosedFormId, verify_identity
from vermatheta.verma import Gen

from conftest import LAMBDA1S, WEIGHTS, matrix_rows, singular_dimension

F = Fraction

FULL_WINDOW = Window(5, 8, 8)


def report(criterion, text):
    print(f"ACCEPTANCE criterion {criterion}: PASS — {text}")


def test_criterion_01_borel_singular_vector_pattern(borel_modules):
    started = time.monotonic()
    patterns = []
    for weight in WEIGHTS:
        module = borel_modules[weight]
        pattern = {}
        for n in range(11):
            for m in range(11 - n):
                got12 = singular_dimension(module, Root.A12, n, m)
                got23 = singular_dimension(module, Root.A23, n, m)
                got13 = singular_dimension(module, Root.A13, n, m)
                assert got12 == (1 if n <= m else 0), (weight, n, m)
                assert got23 == (1 if m <= n else 0), (weight, n, m)
                assert got13 == 1, (weight, n, m)
                pattern[(n, m)] = (got12, got23, got13)
        patterns.append(pattern)
    assert patterns[0] == patterns[1] == patterns[2]
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"singular-vector scan took {elapsed:.1f}s"
    report(1, f"singular-vector pattern over 3 weights, n+m<=10, in {elapsed:.2f}s")


def test_criterion_02_dimension_formulas(borel_modules, parabolic_modules):
    module = borel_modules[WEIGHTS[0]]
    for n in range(13):
        for m in range(13 - n):
            assert module.dim(n, m) == min(n, m) + 1
    for v in (0, 1, 2, 3):
        module = parabolic_modules[(F(7, 3), v)]
        for n in range(13):
            for m in range(13 - n):
                want = min(n, m) - max(0, m - v) + 1
                assert module.dim(n, m) == max(0, want), (v, n, m)
        # the two-region case formulas: k+1 until the finite cap is reached
        for m0 in range(1, 5):
            for k in range(7):
                assert module.dim(m0 + k, k) == (k + 1 if k <= v else v + 1)
        for l in range(v + 1):
            for k in range(7):
                assert module.dim(k, l + k) == (k + 1 if k <= v - l else v - l + 1)
    report(2, "Borel dims = min(n,m)+1 and parabolic case formulas, n+m<=12")


def test_criterion_03_ladder_coefficient_oracle(borel_modules):
    checked = 0
    for weight in WEIGHTS:
        module = borel_modules[weight]
        l1 = weight[0]
        for n in range(1, 9):
            for m in range(0, 9 - n):
                got = module.operator_matrix(Gen.E12, (n, m))
                src = min(n, m) + 1
                tgt = min(n - 1, m) + 1
                assert (got.rows, got.cols) == (tgt, src)
                rows = matrix_rows(got)
                for k in range(src):
                    col = [row[k] for row in rows]
                    want = [F(0)] * tgt
                    diag = (n - k) * (l1 + m + 1 - k - n)
                    if k < tgt:
                        want[k] = diag
                    else:
                        assert diag == 0
                    if k >= 1:
                        want[k - 1] = -k
                    assert col == want, (weight, n, m, k)
                    checked += 1
    report(3, f"{checked} ladder columns match the two-regime action formulas exactly")


def test_criterion_04_character_identity(parabolic_modules):
    for v in (0, 1, 2, 3):
        spec = ModuleSpec(PARABOLIC, F(7, 3), v, 16)
        rep = verify_identity(ClosedFormId.PARABOLIC_CHARACTER, spec, Window(0, 0, 8))
        assert rep["status"] == "pass", (v, rep.get("firstMismatch"))
    report(4, "parabolic character equals its closed form for lambda2 in 0..3, T=8")


def _spectrum_coherence(module, weight, v=None):
    checked = 0
    for root in Root:
        table = branching_table(module, root, region=triangle(10))
        for n in range(9):
            for m in range(9 - n):
                if not module.dim(n, m):
                    continue
                got = kappa_spectrum(module, root, n, m)
                want = predicted_spectrum(table, module, n, m)
                assert got == want, (weight, v, root, n, m)
                checked += 1
    return checked


def test_criterion_05_spectrum_branching_coherence(borel_modules, parabolic_modules):
    checked = 0
    for weight in WEIGHTS:
        checked += _spectrum_coherence(borel_modules[weight], weight)
    for v in (0, 1, 2):
        for l1 in LAMBDA1S:
            checked += _spectrum_coherence(parabolic_modules[(l1, v)], (l1, v), v)
    report(5, f"kernel-rank spectra match branching predictions on {checked} weight spaces")


def test_criterion_06_borel_13_trace_three_way():
    started = time.monotonic()
    series = {}
    for weight in WEIGHTS:
        spec = ModuleSpec(BOREL, weight[0], weight[1], 10)
        rep = verify_identity(ClosedFormId.BOREL_TRACE_13, spec, Window(5, 8, 8))
        assert rep["status"] == "pass" and rep["pipelineAgreement"] == "pass", weight
        series[weight] = rep
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"three-way check took {elapsed:.1f}s"
    report(6, f"closed form = branching = brute force for the 13-trace in {elapsed:.2f}s")


def test_criterion_07_regularized_traces():
    statuses = {}
    for identity in (ClosedFormId.BOREL_REG_TRACE_12, ClosedFormId.BOREL_REG_TRACE_23):
        spec = ModuleSpec(BOREL, *WEIGHTS[0], 10)
        rep = verify_identity(identity, spec, FULL_WINDOW)
        assert rep["pipelineAgreement"] == "pass", (identity, rep.get("pipelineMismatch"))
        statuses[identity.value] = rep["status"]
        if rep["status"] != "pass":
            # the criterion requires reporting the first differing monomial
            assert "firstMismatch" in rep
            print(f"note: {identity.value} closed form mismatch at {rep['firstMismatch']}")
        assert rep["status"] == "pass", (identity, rep.get("firstMismatch"))
    report(7, f"regularized traces on B=5,D=8,T=8: statuses {statuses}")


def test_criterion_08_parabolic_traces():
    decisions = {}
    for v in (0, 1, 2):
        spec = ModuleSpec(PARABOLIC, F(7, 3), v, 10)
        rep13 = verify_identity(ClosedFormId.PARABOLIC_TRACE_13, spec, FULL_WINDOW)
        assert rep13["status"] == "pass" and rep13["pipelineAgreement"] == "pass", v

        # the 12-trace catalog entry pair: both pipelines agree with each
        # other; exactly one catalog variant matches them, decided mechanically
        lit12 = verify_identity(ClosedFormId.PARABOLIC_TRACE_12, spec, FULL_WINDOW)
        alt12 = verify_identity(ClosedFormId.PARABOLIC_TRACE_12_ALT_SIGN, spec, FULL_WINDOW)
        assert lit12["pipelineAgreement"] == "pass" and alt12["pipelineAgreement"] == "pass"
        matches12 = [r for r in ("literal", "alt-sign") if (lit12 if r == "literal" else alt12)["status"] == "pass"]
        assert matches12 == ["alt-sign"], (v, lit12["status"], alt12["status"])
        mono = lit12["firstMismatch"]["monomial"]
        assert (mono["c0"], mono["c1"], mono["c2"]) == (v, 1, 0)

        lit23 = verify_identity(ClosedFormId.PARABOLIC_TRACE_23, spec, FULL_WINDOW)
        alt23 = verify_identity(ClosedFormId.PARABOLIC_TRACE_23_ALT_LIMIT, spec, FULL_WINDOW)
        matches23 = [r for r in ("literal k<=i+1", "corrected k<=i") if (lit23 if "literal" in r else alt23)["status"] == "pass"]
        assert len(matches23) == 1, (v, lit23["status"], alt23["status"])
        decisions[v] = {"trace-12": matches12[0], "trace-23": matches23[0]}
    assert all(d["trace-23"] == "corrected k<=i" for d in decisions.values())
    report(8, f"13-trace three-way pass; variant decisions {decisions}")


def test_criterion_09_replication_across_weights(borel_modules):
    # branching tables are structurally identical across the three weights
    for root in Root:
        tables = [branching_table(borel_modules[w], root, region=triangle(10)) for w in WEIGHTS]
        assert tables[0] == tables[1] == tables[2]
    # spectra multiplicity patterns coincide across weights
    for n in range(7):
        for m in range(7 - n):
            mult_patterns = {
                tuple(c for _, c in kappa_spectrum(borel_modules[w], Root.A13, n, m))
                for w in WEIGHTS
            }
            assert len(mult_patterns) == 1
    # the lifted exponent-form series does not depend on the sample ordering
    spec = ModuleSpec(BOREL, *WEIGHTS[0], 10)
    rotations = [WEIGHTS, WEIGHTS[1:] + WEIGHTS[:1], WEIGHTS[2:] + WEIGHTS[:2]]
    series = [
        trace_brute_force(spec, Root.A13, Window(5, 8, 0), samples=rot)
        for rot in rotations
    ]
    assert series[0].terms == series[1].terms == series[2].terms
    report(9, "multiplicity patterns and lifted series identical across the 3 weights")


def test_criterion_10_full_suite_deterministic_and_fast(tmp_path):
    args = [
        "verify", "--all",
        "--lambda1", "7/3", "--lambda2", "5/7",
        "--depth", "10", "--B", "5", "--D", "8",
    ]
    started = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()):
        out1 = tmp_path / "run1.json"
        code1 = main([*args, "--output", str(out1)])
        out2 = tmp_path / "run2.json"
        code2 = main([*args, "--output", str(out2)])
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"full suite took {elapsed:.1f}s"
    assert out1.read_bytes() == out2.read_bytes()
    # the two known catalog misprints are mismatches, so the suite exits 1,
    # with both classified as formula discrepancies rather than failures
    assert code1 == code2 == 1
    rep = json.loads(out1.read_text())
    mismatched = [c["id"] for c in rep["checks"] if c["status"] != "pass"]
    assert sorted({i.split("@")[0] for i in mismatched}) == [
        "parabolic-trace-12",
        "parabolic-trace-23",
    ]
    assert all(c["pipelineAgreement"] == "pass" for c in rep["checks"])
    # a Borel-only run has no discrepancies and exits 0
    with contextlib.redirect_stdout(io.StringIO()):
        borel_code = main(
            ["verify", "--identity", "borel-trace-13",
             "--identity", "borel-reg-trace-12", "--identity", "borel-reg-trace-23",
             "--lambda1", "7/3", "--lambda2", "5/7", "--depth", "10", "--B", "5", "--D", "8",
             "--output", str(tmp_path / "borel.json")]
        )
    assert borel_code == 0
    report(10, f"verify --all byte-stable twice in {elapsed:.1f}s (exit 1: two catalog misprints)")
