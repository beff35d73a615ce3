"""Self-tests of the benchmark: span arithmetic, the seed rule, the gate and a
smoke run of the whole harness on tiny inputs.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import run
import tracer
from workloads import DEFAULT_WEIGHTS, FORMULA_DISCREPANCY, WORKLOADS, Workload, gate, lift_partners, seed_weight
from vermatheta.branching import DEFAULT_WEIGHTS as PACKAGE_WEIGHTS
from vermatheta.branching import lift_samples
from vermatheta.cli import RunConfig
from vermatheta.verma import BOREL, PARABOLIC, ModuleSpec, genericity_guard

ROOT = Path(__file__).resolve().parents[1]


def span(name, start, end, parent, extra=None):
    return [name, start, end, parent, extra]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a", 0.0, 10.0, -1),
        span("b", 1.0, 4.0, 0),
        span("c", 2.0, 3.0, 1),
        span("d", 5.0, 9.0, 0),
        span("e", 11.0, 12.0, -1),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_layer_metrics_on_synthetic_spans():
    main_process = [
        span("branching.branching_table", 0.0, 4.0, -1, 7),
        span("verma.operator_matrix", 0.5, 1.0, 0, (3, 4)),
        span("exactalg.kernel_basis", 1.0, 2.0, 0, (3, 4)),
        span("branching.kappa_spectrum", 5.0, 9.0, -1, 1),
        span("exactalg.rank", 5.0, 6.0, 3, (2, 2)),
        span("exactalg.rank", 6.0, 7.0, 3, (2, 2)),
        span("exactalg.rank", 9.5, 9.75, -1, (5, 1)),
    ]
    worker = [
        span("cli.verify_task", 0.0, 6.0, -1),
        span("theta.verify_identity", 0.0, 5.0, 0),
        span("cli.verify_task", 6.0, 8.0, -1),
        span("theta.verify_identity", 6.0, 8.0, 2),
    ]
    m = tracer.layer_metrics([main_process, worker], jobs=2, wall_s=10.0)
    assert list(m) == list(tracer.LAYER_METRICS)
    assert m["branching.branching_table.self_s"] == 2.5
    assert m["branching.branching_table.weight_spaces"] == 1
    assert m["branching.branching_table.terms"] == 7
    assert m["verma.operator_matrix.entries"] == 12 and m["verma.operator_matrix.max_dim"] == 4
    assert m["exactalg.rank.calls"] == 3 and m["exactalg.rank.self_s"] == 2.25
    assert m["exactalg.ops_computed"] == 3 * 4 * 3 + 2 * (2 * 2 * 2) + 5 * 1 * 1
    assert m["branching.kappa_spectrum.hit_ratio"] == 0.5
    assert m["theta.verify_identity.calls"] == 2 and m["theta.verify_identity.max_s"] == 5.0
    assert m["cli.verify_task.busy_frac"] == 8.0 / (2 * 10.0)
    assert m["qseries.equal_on.calls"] == 0 and m["cli.report_bytes"] == 0


def test_seed_zero_is_the_readme_default_and_seeds_repeat():
    assert DEFAULT_WEIGHTS == PACKAGE_WEIGHTS
    assert seed_weight(0) == (RunConfig().lambda1, RunConfig().lambda2)
    assert seed_weight(17) == seed_weight(17)
    assert len({seed_weight(s) for s in range(40)}) > 30


def test_seed_weights_pass_guard_and_sample_validation():
    for seed in range(200):
        l1, l2 = seed_weight(seed)
        assert genericity_guard(l1, l2, 60, BOREL), seed
        assert all(genericity_guard(l1, v, 60, PARABOLIC) for v in (0, 1, 2)), seed
        # lift_samples raises unless validate_samples accepts the sample set
        assert lift_samples(ModuleSpec(BOREL, l1, l2, 10)) == ((l1, l2), *lift_partners((l1, l2)))
        assert len(lift_samples(ModuleSpec(PARABOLIC, l1, 2, 10))) == 3


def fake_report(workload, weight, checks=None):
    l1, l2 = workload.weight_flags(weight)
    rows = workload.checks if checks is None else checks
    return json.dumps(
        {
            "config": {"lambda1": l1, "lambda2": l2},
            "checks": [
                {"id": i, "status": s, "pipelineAgreement": a, "notes": [FORMULA_DISCREPANCY] if s == "mismatch" else []}
                for i, s, a in rows
            ],
        }
    ).encode()


def test_gate_accepts_the_expected_suite_report():
    suite, weight = WORKLOADS["suite"], seed_weight(5)
    assert gate(suite, weight, 1, fake_report(suite, weight)) is None
    assert sum(status == "mismatch" for _, status, _ in suite.checks) == 6


def test_gate_rejects_wrong_exit_code_and_tampered_reports():
    suite, weight = WORKLOADS["suite"], seed_weight(5)
    good = fake_report(suite, weight)
    assert "exit code" in gate(suite, weight, 0, good)
    flipped = [(i, "pass", a) for i, _, a in suite.checks]
    assert "check table" in gate(suite, weight, 1, fake_report(suite, weight, flipped))
    report = json.loads(good)
    report["checks"][3]["notes"] = []
    assert "not classified" in gate(suite, weight, 1, json.dumps(report).encode())
    assert "requested" in gate(suite, seed_weight(6), 1, good)
    assert "malformed" in gate(suite, weight, 1, good[:-1])


TINY = Workload(
    "tiny", "smoke test",
    ("verify", "--identity", "borel-trace-13", "--identity", "parabolic-trace-13",
     "--depth", "4", "--B", "1", "--D", "1", "--T", "1"),
    2, None, 0,
    (("borel-trace-13", "pass", "pass"), ("parabolic-trace-13@lambda2=1", "pass", "pass")),
    "tiny",
)


def test_smoke_run_untraced_then_traced_with_pool_workers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plain = run.run_workload(TINY, 3, 0.5, False, ROOT)
    assert plain.failures == []
    assert [(name, unit) for name, (_, unit) in plain.metrics.items()] == list(run.END_TO_END)
    assert all(value > 0 for value, _ in plain.metrics.values())

    traced = run.run_workload(TINY, 3, 0.5, True, ROOT)
    assert traced.failures == [] and traced.attempted >= 2
    assert list(traced.metrics) == [*tracer.LAYER_METRICS, "bench.trace_overhead_frac"]
    # both checks ran in pool workers, so their spans came back from there
    assert traced.metrics["theta.verify_identity.calls"][0] == 2
    assert traced.metrics["cli.verify_task.busy_frac"][0] > 0
    assert traced.metrics["cli.report_bytes"][0] > 0


def test_smoke_run_fails_a_report_that_is_not_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest = tmp_path / ".perfbench" / "reports" / "tiny-seed4.sha256"
    digest.parent.mkdir(parents=True)
    digest.write_text("0" * 64 + "\n")
    result = run.run_workload(TINY, 4, 0.1, False, ROOT)
    assert result.failures and "byte-identical" in result.failures[0]
    assert result.as_json()["correct"] is False


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, run.layer_unit(name)) for name in (*tracer.LAYER_METRICS, "bench.trace_overhead_frac")
    ]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--seconds", "1"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == b""
