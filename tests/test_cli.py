import ast
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import vermatheta
from vermatheta import BOREL, PARABOLIC, ModuleSpec, Root, Window
from vermatheta import cli
from vermatheta.branching import BranchingTable, required_depth, triangle
from vermatheta.errors import UsageError, VerificationError
from vermatheta.cli import (
    MAX_DEPTH,
    MAX_WEIGHT_PART,
    RunConfig,
    build_config,
    build_parser,
    main,
)
from vermatheta.theta import ClosedFormId, annotate_variants, check_id, check_record, verify_identity

from conftest import WEIGHTS, zero_raising_matrix

F = Fraction


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--output", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_verify_single_borel_identity_passes(tmp_path):
    code, payload = run(tmp_path, "verify", "--identity", "borel-trace-13", "--B", "3", "--D", "5")
    assert code == 0
    report = json.loads(payload)
    assert report["checks"][0]["id"] == "borel-trace-13"
    assert report["checks"][0]["status"] == "pass"
    assert report["checks"][0]["pipelineAgreement"] == "pass"
    assert report["checks"][0]["window"] == {"B": 3, "D": 5, "T": 8}


def test_verify_reports_are_byte_deterministic(tmp_path):
    args = ("verify", "--identity", "borel-trace-13", "--identity", "parabolic-character",
            "--module", "parabolic", "--lambda2", "1", "--B", "3", "--D", "4", "--T", "5")
    code1, b1 = run(tmp_path, *args)
    code2, b2 = run(tmp_path, *args)
    assert code1 == code2 == 0
    assert b1 == b2


def test_verify_variant_pair_reports_matching_variant(tmp_path):
    code, payload = run(
        tmp_path,
        "verify",
        "--module", "parabolic", "--lambda2", "1",
        "--identity", "parabolic-trace-23",
        "--identity", "parabolic-trace-23-alt-limit",
        "--B", "3", "--D", "5",
    )
    assert code == 1  # the literal catalog entry mismatches
    report = json.loads(payload)
    by_id = {c["id"]: c for c in report["checks"]}
    lit = by_id["parabolic-trace-23@lambda2=1"]
    alt = by_id["parabolic-trace-23-alt-limit@lambda2=1"]
    assert lit["status"] == "mismatch" and alt["status"] == "pass"
    assert lit["pipelineAgreement"] == "pass"
    note = f"matching variant: {alt['id']}"
    assert note in lit["notes"] and note in alt["notes"]
    assert any(n.startswith("classification: formula-discrepancy") for n in lit["notes"])
    assert "firstMismatch" in lit


def test_guard_refusal_exits_2(tmp_path, capsys):
    code = main(["branch", "--module", "borel", "--root", "13", "--lambda1", "2"])
    assert code == 2
    assert "genericity guard" in capsys.readouterr().err


def guard_line(weight: str, depth: int) -> str:
    return (f"error: weight {weight} fails the genericity guard for the borel module at depth "
            f"{depth}; pick a non-integral weight\n")


@pytest.mark.parametrize("argv,weight,depth", [
    pytest.param(["branch", "--root", "13", "--lambda1", "2"], "(2, 5/7)", 10, id="branch"),
    # 40 passes the guard at --depth 10 and fails it at the working depth 17
    pytest.param(["verify", "--identity", "borel-reg-trace-12", "--lambda1", "40", "--lambda2", "1/2"],
                 "(40, 1/2)", 17, id="verify-working-depth"),
    # a given sample is guarded where its module is built
    pytest.param(["verify", "--identity", "borel-trace-13",
                  "--lambda-samples", "7/3,5/7;10,1/2;13/4,9/11"], "(10, 1/2)", 10, id="verify-sample"),
])
def test_every_guard_refusal_prints_one_line(capsys, monkeypatch, argv, weight, depth):
    monkeypatch.delenv("VERMATHETA_JOBS", raising=False)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == guard_line(weight, depth)


@pytest.mark.parametrize("pipeline", ["brute", "branching", "closed", "all"])
def test_trace_guard_refusal_does_not_depend_on_the_pipeline(capsys, monkeypatch, pipeline):
    def refuse(*args, **kwargs):
        raise AssertionError("a pipeline ran before the request was admitted")

    for name in ("trace_branching", "trace_brute_force", "closed_form_with_notes"):
        monkeypatch.setattr(cli, name, refuse)
    # the weight passes the guard at --depth 10 and fails it at the working depth 17
    argv = ["trace", "--root", "12", "--regularized", "--lambda1", "40", "--lambda2", "1/2"]
    assert main([*argv, "--pipeline", pipeline]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == guard_line("(40, 1/2)", 17)


def test_verify_admits_every_job_before_any_runs(capsys, monkeypatch):
    from vermatheta import branching

    real, calls = branching.trace_brute_force, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(branching, "trace_brute_force", counted)
    monkeypatch.delenv("VERMATHETA_JOBS", raising=False)
    # borel-trace-13 passes the guard at its working depth 10; the regularized
    # trace's job, second in the request, fails it at 17
    assert main(["verify", "--identity", "borel-trace-13", "--identity", "borel-reg-trace-12",
                 "--lambda1", "40", "--lambda2", "1/2"]) == 2
    assert capsys.readouterr() == ("", guard_line("(40, 1/2)", 17))
    assert calls == []


def test_unknown_flag_exits_2(capsys):
    assert main(["verify", "--no-such-flag"]) == 2
    assert capsys.readouterr() == ("", "error: unrecognized arguments: --no-such-flag\n")


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "--identity", "no-such-identity"], id="invalid-identity"),
    pytest.param(["trace", "--root", "14"], id="invalid-root"),
    pytest.param(["trace"], id="missing-root"),
    pytest.param(["--B", "3"], id="missing-command"),
    pytest.param(["verify", "--all", "--identity", "borel-trace-13"], id="all-with-identity"),
])
def test_refused_arguments_print_one_line(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "[--all | --identity" in capsys.readouterr().out


def test_branch_csv_dump(tmp_path):
    csv_path = tmp_path / "table.csv"
    code, payload = run(
        tmp_path,
        "branch", "--module", "parabolic", "--lambda2", "1", "--root", "23",
        "--depth", "4", "--csv", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "root,n,m,kind,hw_c0,hw_c1,hw_c2,multiplicity"
    assert lines[1] == "23,0,0,finite,1,0,0,1"
    report = json.loads(payload)
    assert report["table"][0] == {
        "root": "23", "n": 0, "m": 0, "kind": "finite",
        "hw_c0": 1, "hw_c1": 0, "hw_c2": 0, "multiplicity": 1,
    }


def test_spectrum_coherence_check(tmp_path):
    code, payload = run(tmp_path, "spectrum", "--module", "borel", "--root", "12", "--depth", "5")
    assert code == 0
    report = json.loads(payload)
    assert report["checks"][0]["status"] == "pass"
    assert report["spectra"][0] == {
        "n": 0, "m": 0, "dim": 1,
        "eigenvalues": [{"value": "7/3", "multiplicity": 1}],
    }


def test_spectrum_incoherence_is_a_mismatch(tmp_path, monkeypatch):
    from vermatheta import branching

    real = branching.predicted_spectrum

    def off_at_1_0(table, module, n, m):
        predicted = real(table, module, n, m)
        return predicted + ((F(0), 1),) if (n, m) == (1, 0) else predicted

    monkeypatch.setattr(branching, "predicted_spectrum", off_at_1_0)
    code, payload = run(tmp_path, "spectrum", "--module", "borel", "--root", "12", "--depth", "3")
    assert code == 1
    report = json.loads(payload)
    check = report["checks"][0]
    assert (check["status"], check["pipelineAgreement"]) == ("mismatch", "fail")
    assert [(r["n"], r["m"], r["coherent"]) for r in report["spectra"] if "coherent" in r] == [
        (1, 0, False)
    ]


def test_trace_refuses_tables_that_differ_across_samples(monkeypatch, capsys):
    # E13 on (1, 1) has one singular vector; served as zero at the second of
    # the three weight samples, it has two there
    served = zero_raising_matrix(monkeypatch, WEIGHTS[1], (1, 1))
    argv = ["trace", "--root", "13", "--B", "3", "--D", "4", "--T", "0", "--pipeline", "branching"]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", "verification failure: branching tables differ across weight samples\n")
    assert served == [(1, 1)]


def test_trace_divergent_is_labeled_and_deterministic(tmp_path):
    args = ("trace", "--module", "borel", "--root", "12", "--depth", "6")
    code1, b1 = run(tmp_path, *args)
    code2, b2 = run(tmp_path, *args)
    assert code1 == code2 == 0
    assert b1 == b2
    report = json.loads(b1)
    assert any("divergent" in n for n in report["notes"])
    assert report["checks"][0]["status"] == "pass"
    assert set(report["series"]) == {"branching", "brute"}


def test_trace_closed_forms_included_for_catalog_entries(tmp_path):
    code, payload = run(
        tmp_path, "trace", "--module", "parabolic", "--lambda2", "1", "--root", "13",
        "--B", "3", "--D", "4",
    )
    assert code == 0
    report = json.loads(payload)
    assert "parabolic-trace-13" in report["series"]


def test_character_command(tmp_path):
    code, payload = run(tmp_path, "character", "--module", "parabolic", "--lambda2", "0", "--T", "6")
    assert code == 0
    report = json.loads(payload)
    assert report["checks"][0]["status"] == "pass"
    code, payload = run(tmp_path, "character", "--module", "borel", "--T", "5")
    assert code == 0


def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "module = parabolic\nlambda1 = 11/5\nlambda2 = 1\ndepth = 5\nB = 3\nD = 4\nT = 4\n"
    )
    code, payload = run(
        tmp_path, "character", "--config", str(cfg_file), "--T", "6"
    )
    assert code == 0
    report = json.loads(payload)
    assert report["config"]["module"] == "parabolic"
    assert report["config"]["lambda1"] == "11/5"
    assert report["config"]["window"]["T"] == 6  # flag beats file
    assert report["config"]["window"]["B"] == 3


def test_config_round_trip(tmp_path):
    cfg = RunConfig(
        module="parabolic",
        lambda1=F(11, 5),
        lambda2=F(2),
        depth=7,
        B=4,
        D=6,
        T=5,
        lambda_samples=((F(11, 5), F(2)), (F(7, 3), F(2))),
    )
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        f"module = {cfg.module}\nlambda1 = {cfg.lambda1}\nlambda2 = {cfg.lambda2}\n"
        f"depth = {cfg.depth}\nB = {cfg.B}\nD = {cfg.D}\nT = {cfg.T}\n"
        "lambda_samples = " + ";".join(f"{a},{b}" for a, b in cfg.lambda_samples) + "\n"
    )
    rebuilt = build_config(build_parser().parse_args(["verify", "--config", str(cfg_file)]))
    assert rebuilt.as_json() == cfg.as_json()


MALFORMED = [
    pytest.param(["character", "--lambda1", "abc"], None, None, id="argv-lambda1"),
    pytest.param(["character", "--lambda1", "1/0"], None, None, id="argv-zero-denominator"),
    pytest.param(["character", "--depth", "x"], None, None, id="argv-depth"),
    pytest.param(["character"], "depth = x\n", None, id="config-depth"),
    pytest.param(["character"], "lambda_samples = 7/3,abc\n", None, id="config-samples"),
    pytest.param(["verify", "--identity", "borel-trace-13"], "lambda_samples = 7/3,abc\n", None,
                 id="config-samples-verify"),
    pytest.param(["trace", "--root", "13", "--lambda-samples", ""], None, None, id="argv-samples-empty"),
    pytest.param(["trace", "--root", "13", "--lambda-samples", ";"], None, None,
                 id="argv-samples-semicolon"),
    pytest.param(["trace", "--root", "13"], "lambda_samples =\n", None, id="config-samples-empty"),
    pytest.param(["verify", "--identity", "borel-trace-13"], None, "abc", id="env-jobs-abc"),
    pytest.param(["verify", "--identity", "borel-trace-13"], None, "0", id="env-jobs-0"),
    pytest.param(["verify", "--identity", "borel-trace-13"], None, "-3", id="env-jobs-negative"),
    pytest.param(["verify", "--identity", "borel-trace-13"], "B = 3\nB = 5\n", None,
                 id="config-repeated-key"),
    pytest.param(["character", "--T", "1", "--lambda1", "1e5000"], None, None,
                 id="argv-lambda1-exponent"),
    pytest.param(["character", "--T", "1", "--lambda2", "1e4400"], None, None,
                 id="argv-lambda2-exponent"),
    pytest.param(["character", "--T", "1"], "lambda1 = 1e5000\n", None, id="config-exponent"),
    pytest.param(["trace", "--root", "13", "--lambda-samples", "7/3,5/7;1e5000,1;13/4,9/11"],
                 None, None, id="argv-samples-exponent"),
    pytest.param(["spectrum", "--root", "12", "--depth", "8", "--lambda1=1" + "0" * 4300], None,
                 None, id="argv-lambda1-4301-digits"),
]


@pytest.mark.parametrize("argv,config,jobs", MALFORMED)
def test_malformed_numbers_exit_2(tmp_path, monkeypatch, capsys, argv, config, jobs):
    if config is not None:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(config)
        argv = [*argv, "--config", str(cfg_file)]
    if jobs is not None:
        monkeypatch.setenv("VERMATHETA_JOBS", jobs)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")



@pytest.mark.parametrize("argv, config", [
    (["character", "--lambda1=" + "1" * 20_000], None),
    (["verify", "--B", "x" * 20_000], None),
    (["trace", "--root", "13", "--lambda-samples", "x" * 20_000], None),
    (["trace", "--root", "13", "--lambda-samples", "7/3,5/7;" + "1" * 20_000 + ",1"], None),
    (["character"], "x" * 20_000 + "\n"),
    (["character"], "k" * 20_000 + " = 1\n"),
], ids=["lambda1", "B", "samples", "sample-part", "config-line", "config-key"])
def test_overlong_inputs_give_short_error_lines(tmp_path, capsys, argv, config):
    if config is not None:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(config)
        argv = [*argv, "--config", str(cfg_file)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200 and "characters)" in err, err


@pytest.mark.parametrize("argv", [
    ["branch", "--root", "x" * 20_000],
    ["verify", "--identity", "y" * 20_000],
    ["character", "--module", "z" * 20_000],
    ["branch", "--root", "12", "x" * 20_000],
    ["branch", "--root", "12", "--" + "o" * 20_000],
    ["c" * 20_000],
    ["branch", "--root", " ".join("x" * 10_000)],
    ["character", "--lambda1", "1" * 4_000],
], ids=["root", "identity", "module", "extra-argument", "unknown-option", "command", "spaces",
        "weight-part"])
def test_overlong_parser_and_weight_part_refusals_give_short_error_lines(capsys, argv):
    # argparse repeats a refused value whole, and its longest refusal of its
    # own, the --identity choices, alone passes the 200 bytes held above
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 400 and "characters)" in err, err


def test_short_refused_inputs_are_repeated_in_full(capsys):
    for argv, message in (
        (["character", "--lambda1", "abc"], "cannot interpret 'abc' as an exact rational"),
        (["verify", "--B", "x" * 50], f"B must be an integer, got {'x' * 50!r}"),
        (["trace", "--root", "13", "--lambda-samples", "abc"],
         "bad weight sample 'abc'; expected 'p/q,r/s'"),
        (["branch", "--root", "99"], "argument --root: invalid choice: '99' (choose from '12', '23', '13')"),
        (["nope"], "argument command: invalid choice: 'nope' (choose from 'character', 'branch', "
                   "'spectrum', 'trace', 'verify')"),
        (["branch", "--root", "12", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
        (["verify", "--identity", "y"], "argument --identity: invalid choice: 'y' (choose from "
         + ", ".join(repr(i.value) for i in ClosedFormId) + ")"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

def test_a_weight_on_the_default_samples_line_skips_that_default(capsys):
    # (37/15, 13/7) = 2*(7/3, 5/7) - (11/5, -3/7) lies on the line through
    # the first two defaults, so the third one completes the samples
    argv = ["trace", "--root", "13", "--B", "1", "--D", "2", "--T", "0",
            "--lambda1", "37/15", "--lambda2", "13/7"]
    assert main(argv) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["lambdaSamples"] == [["37/15", "13/7"], ["7/3", "5/7"], ["13/4", "9/11"]]
    assert main([*argv, "--lambda-samples", "37/15,13/7;7/3,5/7;11/5,-3/7"]) == 2
    assert capsys.readouterr() == ("", "error: need three affinely independent weight samples\n")


def test_borel_samples_are_accepted_in_any_order(capsys):
    # the four weights span the plane although the first three are collinear
    spanning = ["7/3,5/7", "10/3,5/7", "13/3,5/7", "7/3,12/7"]
    argv = ["trace", "--root", "13", "--B", "3", "--D", "4", "--lambda-samples"]
    assert main([*argv, ";".join(spanning)]) == 0
    capsys.readouterr()
    assert main([*argv, ";".join(spanning[:3])]) == 2
    assert capsys.readouterr() == ("", "error: need three affinely independent weight samples\n")
    small = ["trace", "--root", "13", "--B", "1", "--D", "1", "--lambda-samples"]
    for order in permutations(spanning):
        assert main([*small, ";".join(order)]) == 0, order
        capsys.readouterr()


@pytest.mark.parametrize("command", [["character"], ["branch", "--root", "12"],
                                     ["spectrum", "--root", "12"]])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_commands_without_samples_refuse_them(tmp_path, capsys, command, via):
    # well-formed samples these commands would ignore and echo in the report
    samples = "7/3,5/7;11/5,-3/7;13/4,9/11"
    if via == "flag":
        argv = [*command, "--lambda-samples", samples]
    else:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"lambda_samples = {samples}\n")
        argv = [*command, "--config", str(cfg_file)]
    assert main([*argv, "--depth", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["verify", "--module", "parabolic", "--lambda2", "1/2", "--identity", "parabolic-trace-13"],
    ["verify", "--module", "parabolic", "--lambda2", "1/2", "--identity", "borel-trace-13"],
    ["trace", "--module", "parabolic", "--lambda2", "1/2", "--root", "13"],
    ["character", "--module", "parabolic", "--lambda2", "-1"],
    ["branch", "--module", "parabolic", "--lambda2", "1/2", "--root", "23"],
])
def test_parabolic_lambda2_is_never_coerced(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: parabolic modules need lambda2 a nonnegative integer\n"


def test_parabolic_lambda2_defaults_to_1(tmp_path):
    code, payload = run(tmp_path, "verify", "--identity", "parabolic-trace-13",
                        "--B", "1", "--D", "2", "--T", "0", "--depth", "4")
    assert code == 0
    assert json.loads(payload)["checks"][0]["id"] == "parabolic-trace-13@lambda2=1"


@pytest.mark.parametrize("command,flag,name", [
    pytest.param("character", "--config", "missing.cfg", id="missing-config"),
    pytest.param("character", "--output", "missing-dir/report.json", id="unwritable-output"),
    pytest.param("branch --root 12", "--csv", "missing-dir/table.csv", id="unwritable-csv"),
])
def test_file_errors_exit_2_without_traceback(tmp_path, command, flag, name):
    env = {**os.environ, "PYTHONPATH": str(Path(vermatheta.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "vermatheta", *command.split(), flag, str(tmp_path / name)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


def test_repeated_config_key_is_named(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("B = 3\nD = 2\nB = 5\n")
    assert main(["verify", "--identity", "borel-trace-13", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr() == ("", "error: config key 'B' is given twice\n")


def test_bad_config_line_rejected(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nonsense line\n")
    code = main(["character", "--config", str(cfg_file)])
    assert code == 2


GOLDEN_CASES = [
    (
        "verify_borel_trace_13.json",
        ("verify", "--identity", "borel-trace-13", "--B", "1", "--D", "2", "--T", "0",
         "--depth", "6"),
        0,
    ),
    (
        "trace_parabolic_23.json",
        ("trace", "--module", "parabolic", "--lambda2", "1", "--root", "23",
         "--B", "4", "--D", "6", "--T", "0", "--depth", "8"),
        0,
    ),
    (
        "verify_parabolic_variants.json",
        ("verify", "--module", "parabolic", "--lambda2", "1",
         "--identity", "parabolic-trace-12", "--identity", "parabolic-trace-12-alt-sign",
         "--identity", "parabolic-trace-23", "--identity", "parabolic-trace-23-alt-limit",
         "--B", "3", "--D", "4", "--T", "0", "--depth", "6"),
        1,
    ),
    (
        # the table is also written to branch_parabolic_13.csv
        "branch_parabolic_13.json",
        ("branch", "--module", "parabolic", "--lambda2", "2", "--root", "13", "--depth", "4"),
        0,
    ),
    (
        "spectrum_parabolic_12.json",
        ("spectrum", "--module", "parabolic", "--lambda2", "1", "--root", "12", "--depth", "4"),
        0,
    ),
    (
        "character_parabolic.json",
        ("character", "--module", "parabolic", "--lambda2", "1", "--T", "3"),
        0,
    ),
    (
        "trace_borel_12_branching.json",
        ("trace", "--module", "borel", "--root", "12", "--depth", "4", "--B", "3", "--D", "4",
         "--T", "0", "--pipeline", "branching"),
        0,
    ),
    (
        "trace_borel_12_brute.json",
        ("trace", "--module", "borel", "--root", "12", "--depth", "4", "--B", "3", "--D", "4",
         "--T", "0", "--pipeline", "brute"),
        0,
    ),
    (
        "trace_borel_12_regularized.json",
        ("trace", "--module", "borel", "--root", "12", "--regularized", "--B", "2", "--D", "3",
         "--T", "1"),
        0,
    ),
    (
        "trace_borel_13_closed.json",
        ("trace", "--module", "borel", "--root", "13", "--B", "5", "--D", "8", "--T", "0",
         "--pipeline", "closed"),
        0,
    ),
    (
        "trace_borel_23_regularized_closed.json",
        ("trace", "--module", "borel", "--root", "23", "--regularized", "--B", "5", "--D", "6",
         "--T", "3", "--pipeline", "closed"),
        0,
    ),
    (
        # the literal's series is empty in every window (its terms carry -L1);
        # verify_parabolic_variants.json pins it through its mismatch
        "trace_parabolic_12_closed.json",
        ("trace", "--module", "parabolic", "--lambda2", "2", "--root", "12", "--B", "5", "--D", "8",
         "--T", "0", "--pipeline", "closed"),
        0,
    ),
    (
        "trace_parabolic_13_closed.json",
        ("trace", "--module", "parabolic", "--lambda2", "2", "--root", "13", "--B", "5", "--D", "8",
         "--T", "0", "--pipeline", "closed"),
        0,
    ),
    (
        # the benchmark's suite and suite-par runs
        "verify_all.json",
        ("verify", "--all", "--lambda1=7/3", "--lambda2=5/7"),
        1,
    ),
    (
        # the benchmark's deep-parabolic-12 run
        "verify_deep_parabolic_12.json",
        ("verify", "--identity", "parabolic-trace-12-alt-sign", "--module", "parabolic",
         "--B", "9", "--D", "20", "--T", "8", "--lambda1=7/3", "--lambda2=2"),
        0,
    ),
]

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("golden,args,want_code", GOLDEN_CASES)
def test_reports_match_checked_in_goldens(tmp_path, golden, args, want_code):
    csv_path = tmp_path / "table.csv"
    if args[0] == "branch":
        args = (*args, "--csv", str(csv_path))
    code, payload = run(tmp_path, *args)
    assert code == want_code
    assert payload == (GOLDEN_DIR / golden).read_bytes()
    if args[0] == "branch":
        assert csv_path.read_bytes() == (GOLDEN_DIR / golden.replace(".json", ".csv")).read_bytes()


@pytest.mark.parametrize("golden,args,want_code",
                         [case for case in GOLDEN_CASES if case[1][0] == "verify"])
def test_verify_goldens_match_with_two_jobs(tmp_path, monkeypatch, golden, args, want_code):
    monkeypatch.setenv("VERMATHETA_JOBS", "2")
    code, payload = run(tmp_path, *args)
    assert code == want_code
    assert payload == (GOLDEN_DIR / golden).read_bytes()


def test_parallel_env_matches_sequential(tmp_path):
    args = ("verify", "--identity", "borel-trace-13", "--identity", "parabolic-character",
            "--module", "parabolic", "--lambda2", "0", "--B", "3", "--D", "4", "--T", "4")
    code1, b1 = run(tmp_path, *args)
    os.environ["VERMATHETA_JOBS"] = "2"
    try:
        code2, b2 = run(tmp_path, *args)
    finally:
        del os.environ["VERMATHETA_JOBS"]
    assert code1 == code2 == 0
    assert b1 == b2


def test_repeated_literal_gives_each_check_one_variant_note(tmp_path):
    code, payload = run(
        tmp_path, "verify", "--module", "parabolic",
        "--identity", "parabolic-trace-12", "--identity", "parabolic-trace-12",
        "--identity", "parabolic-trace-12-alt-sign", "--B", "3", "--D", "4", "--T", "0",
        "--depth", "6",
    )
    assert code == 1
    checks = json.loads(payload)["checks"]
    assert [c["id"] for c in checks] == [
        "parabolic-trace-12@lambda2=1", "parabolic-trace-12@lambda2=1",
        "parabolic-trace-12-alt-sign@lambda2=1",
    ]
    for check in checks:
        assert check["notes"].count("matching variant: parabolic-trace-12-alt-sign@lambda2=1") == 1


@pytest.mark.parametrize("command,samples", [
    pytest.param("verify --identity parabolic-trace-13", "1/3,2;2/3,2", id="verify-other-lambda2"),
    pytest.param("trace --root 13", "1/3,2;2/3,2", id="trace-other-lambda2"),
    pytest.param("verify --identity parabolic-trace-13", "1/3,1;2/3,2", id="verify-mixed-lambda2"),
    pytest.param("trace --root 13", "1/3,1;2/3,2", id="trace-mixed-lambda2"),
])
def test_parabolic_samples_must_carry_the_run_lambda2(capsys, command, samples):
    argv = [*command.split(), "--module", "parabolic", "--lambda2", "1", "--lambda-samples",
            samples, "--depth", "4", "--B", "1", "--D", "1", "--T", "0"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: parabolic weight samples must all have lambda2 = 1\n"


@pytest.mark.parametrize("argv, samples, structures", [
    # at the Borel default config the first parabolic job used to trip first
    pytest.param(["--all"], "7/3,5/7;11/5,-3/7;13/4,9/11",
                 "4: borel, parabolic lambda2 = 0, parabolic lambda2 = 1, parabolic lambda2 = 2",
                 id="borel-all"),
    # under a parabolic config the Borel job used to trip first
    pytest.param(["--all", "--module", "parabolic", "--lambda2", "1"], "7/3,1;11/5,1",
                 "2: borel, parabolic lambda2 = 1", id="parabolic-all"),
    pytest.param(["--identity", "parabolic-trace-13", "--identity", "borel-trace-13"],
                 "7/3,1;11/5,1", "2: parabolic lambda2 = 1, borel", id="mixed-identities"),
])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_verify_refuses_samples_for_more_than_one_structure(tmp_path, capsys, argv, samples,
                                                            structures, via):
    if via == "flag":
        argv = [*argv, "--lambda-samples", samples]
    else:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"lambda_samples = {samples}\n")
        argv = [*argv, "--config", str(cfg_file)]
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr() == ("", (
        "error: --lambda-samples / lambda_samples serve one module structure, but the identities "
        f"span {structures}; verify one structure's identities at a time\n"))


def test_verify_all_runs_the_pipelines_once_per_trace(tmp_path, monkeypatch):
    from vermatheta import branching

    real, calls = branching.trace_brute_force, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(branching, "trace_brute_force", counted)
    monkeypatch.delenv("VERMATHETA_JOBS", raising=False)
    code, payload = run(tmp_path, "verify", "--all", "--B", "1", "--D", "1", "--T", "0",
                        "--depth", "4")
    assert code == 1
    assert len(json.loads(payload)["checks"]) == 21
    # 3 Borel traces and 3 parabolic ones at each of lambda2 = 0, 1, 2; an
    # *-alt-* variant shares its literal's run
    assert len(calls) == 12


def record_table_visits(monkeypatch) -> list:
    """Patch ``branching_table`` where the pipelines and the CLI call it;
    each call appends (module spec, root, region, the nonempty spaces of that
    region, the spaces its module built a raising-operator matrix on, the
    spaces other modules built one on before the next call)."""
    from vermatheta import branching, cli
    from vermatheta.verma import Gen, VermaModule

    real_table, real_matrix = branching.branching_table, VermaModule.operator_matrix
    visits, table_module = [], []

    def table(module, root, region=None):
        spaces = region or branching.triangle(module.spec.depth)
        visits.append((module.spec, root, region, {s for s in spaces if module.dim(*s)}, set(), set()))
        table_module[:] = [module]
        return real_table(module, root, region)

    def matrix(self, op, source):
        if isinstance(op, Gen):
            visits[-1][4 if self is table_module[0] else 5].add(source)
        return real_matrix(self, op, source)

    monkeypatch.setattr(branching, "branching_table", table)
    monkeypatch.setattr(cli, "branching_table", table)
    monkeypatch.setattr(VermaModule, "operator_matrix", matrix)
    return visits


def test_trace_tables_visit_only_the_bruteforce_region(tmp_path, monkeypatch):
    from vermatheta.branching import bruteforce_region
    from vermatheta.theta import CATALOG

    visits = record_table_visits(monkeypatch)
    monkeypatch.delenv("VERMATHETA_JOBS", raising=False)
    window = Window(2, 3, 2)
    code, _ = run(tmp_path, "verify", "--all", "--B", "2", "--D", "3", "--T", "2")
    assert code == 1
    want = []
    traces = [entry for entry in dict.fromkeys(CATALOG.values()) if entry.root is not None]
    for entry in traces:
        for l2 in ((F(5, 7),) if entry.kind == BOREL else (0, 1, 2)):
            spec = ModuleSpec(entry.kind, F(7, 3), l2, 10)
            region = bruteforce_region(spec, entry.root, window, entry.regularized)
            want.append((entry.kind, l2 if entry.kind == PARABOLIC else None, entry.root, region))
    got = [(spec.kind, spec.lambda2 if spec.kind == PARABOLIC else None, root, region)
           for spec, root, region, *_ in visits]
    assert len(want) == 12  # 12 pipeline runs, each with a table at its first weight sample
    assert sorted(got, key=repr) == sorted(want, key=repr)
    for spec, _, _, spaces, built, confirmed in visits:
        # the first sample builds the region; the others confirm inside it
        assert built == spaces
        assert confirmed <= spaces
    assert all(confirmed for spec, *_, confirmed in visits if spec.kind == BOREL)


@pytest.mark.parametrize("command", ["branch", "spectrum"])
@pytest.mark.parametrize("kind", [BOREL, PARABOLIC])
def test_branch_and_spectrum_tables_cover_the_full_triangle(tmp_path, monkeypatch, command, kind):
    visits = record_table_visits(monkeypatch)
    for root in ("12", "23", "13"):
        run(tmp_path, command, "--module", kind, "--root", root, "--depth", "6")
    assert len(visits) == 3
    for spec, _, region, spaces, built, others in visits:
        assert region is None and not others
        assert built == spaces == {(n, m) for n in range(7) for m in range(7 - n)
                                   if kind == BOREL or m <= n + spec.lambda2}


def test_variant_note_names_both_or_no_matching_variants():
    spec = ModuleSpec(PARABOLIC, F(7, 3), 1, 4)

    def pair(*statuses):
        ids = (ClosedFormId.PARABOLIC_TRACE_12, ClosedFormId.PARABOLIC_TRACE_12_ALT_SIGN)
        return [(i, check_record(check_id(i, spec), Window(1, 1, 0), (), passed=s == "pass"))
                for i, s in zip(ids, statuses)]

    both = pair("pass", "pass")
    annotate_variants(both)
    note = "matching variants: ['parabolic-trace-12@lambda2=1', 'parabolic-trace-12-alt-sign@lambda2=1']"
    assert both[0][1]["notes"] == both[1][1]["notes"] == [note]
    neither = pair("mismatch", "mismatch")
    annotate_variants(neither)
    want = ["matching variants: none",
            "classification: formula-discrepancy (computational pipelines agree)"]
    assert neither[0][1]["notes"] == neither[1][1]["notes"] == want


@pytest.mark.parametrize("identity,kind,lambda2", [
    ("borel-trace-13", BOREL, F(5, 7)),
    ("parabolic-character", PARABOLIC, F(2)),
])
def test_verify_identity_returns_the_printed_check(tmp_path, identity, kind, lambda2):
    code, payload = run(tmp_path, "verify", "--identity", identity, "--module", kind,
                        "--lambda2", str(lambda2), "--B", "3", "--D", "4", "--T", "3",
                        "--depth", "8")
    assert code == 0
    record = verify_identity(ClosedFormId(identity), ModuleSpec(kind, F(7, 3), lambda2, 8),
                             Window(3, 4, 3))
    assert json.loads(payload)["checks"] == [record]


def test_window_B_past_its_cap_exits_2(tmp_path, capsys):
    # 2 * MAX_DEPTH + 1: the largest L-coefficient a term within the depth cap has
    argv = ["verify", "--identity", "borel-trace-13", "--D", "2", "--T", "0"]
    assert main([*argv, "--B", str(2 * MAX_DEPTH + 2)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: B = {2 * MAX_DEPTH + 2} is past the cap {2 * MAX_DEPTH + 1} that the "
                   f"depth cap {MAX_DEPTH} allows; use a smaller --B\n")
    code, _ = run(tmp_path, *argv, "--B", str(2 * MAX_DEPTH + 1))
    assert code == 0


PAST_THE_CAP = [
    pytest.param(["character", "--depth", str(MAX_DEPTH + 1)], MAX_DEPTH + 1, id="character-depth"),
    pytest.param(["character", "--T", "76"], 152, id="character-T"),
    pytest.param(["trace", "--root", "13", "--D", "200"], 202, id="trace-window"),
    # a divergent trace works one root step below its truncation depth
    pytest.param(["trace", "--root", "12", "--depth", "150"], 151, id="trace-divergent-depth"),
    # admission reads the region's deepest space without building the region,
    # so a huge window or depth is refused at once
    pytest.param(["trace", "--root", "13", "--D", str(10**9)], 10**9 + 2, id="trace-huge-D"),
    pytest.param(["trace", "--root", "12", "--regularized", "--T", str(10**9)], 2 * 10**9 + 1,
                 id="trace-huge-T"),
    pytest.param(["trace", "--root", "12", "--depth", str(10**9)], 10**9 + 1,
                 id="trace-divergent-huge-depth"),
    pytest.param(["trace", "--module", "parabolic", "--lambda2", "2", "--root", "12",
                  "--D", str(10**9)], 2 * 10**9 + 7, id="trace-parabolic-huge-D"),
    pytest.param(["branch", "--root", "12", "--depth", "151"], 151, id="branch-depth"),
    pytest.param(["spectrum", "--root", "12", "--depth", "400"], 400, id="spectrum-depth"),
    pytest.param(["verify", "--identity", "parabolic-trace-12", "--module", "parabolic", "--D", "74"],
                 152, id="verify-window"),
    pytest.param(["verify", "--identity", "parabolic-character", "--module", "parabolic", "--T", "76"],
                 152, id="verify-character-T"),
]

# one past each of these is in PAST_THE_CAP
AT_THE_CAP = [
    pytest.param(["character", "--depth", "2", "--T", "75"], id="character-T"),
    pytest.param(["verify", "--identity", "parabolic-character", "--module", "parabolic",
                  "--T", "75", "--B", "0", "--D", "0", "--depth", "2"], id="verify-character-T"),
    pytest.param(["trace", "--root", "12", "--depth", "149", "--pipeline", "closed"],
                 id="trace-divergent-depth"),
    # the literal catalog entry is a misprint, so its sign variant is the
    # one that passes
    pytest.param(["verify", "--identity", "parabolic-trace-12-alt-sign", "--module", "parabolic",
                  "--D", "73"], id="verify-window"),
    pytest.param(["branch", "--root", "12", "--depth", str(MAX_DEPTH)], id="branch-depth"),
    pytest.param(["spectrum", "--root", "12", "--depth", str(MAX_DEPTH)], id="spectrum-depth"),
]


@pytest.mark.parametrize("argv,need", PAST_THE_CAP)
def test_work_past_the_depth_cap_exits_2(capsys, argv, need):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: the run needs depth {need}, past the depth cap {MAX_DEPTH}; "
                   "use a smaller --depth or window\n")


@pytest.mark.parametrize("argv", AT_THE_CAP)
def test_work_at_the_depth_cap_runs(tmp_path, monkeypatch, argv):
    # tables to depth 150 take minutes to build; stubbed, branch and spectrum
    # run their admission alone, on a module at that depth
    depths = []

    def empty_table(module, root):
        depths.append(module.spec.depth)
        return BranchingTable(module.spec.kind, root, (), triangle(0))

    monkeypatch.setattr(cli, "branching_table", empty_table)
    monkeypatch.setattr(cli, "spectrum_table", lambda module, table: [])
    code, _ = run(tmp_path, *argv)
    assert code == 0
    assert depths == ([MAX_DEPTH] if argv[0] in ("branch", "spectrum") else [])


def test_every_command_has_a_case_at_and_past_the_depth_cap():
    assert {case.values[0][0] for case in PAST_THE_CAP} == set(cli._COMMANDS)
    assert {case.values[0][0] for case in AT_THE_CAP} == set(cli._COMMANDS)


SAMPLED_TRACE = ["trace", "--root", "12", "--regularized", "--B", "3", "--D", "2", "--T", "2"]


def with_samples(first: str) -> list:
    return ["--lambda-samples", f"{first};7/3,5/7;11/5,-3/7"]


# (command, its weight flags at the cap, the same one past it, and the weight
# and integral part that the refusal names): every integral L-part that a
# module is built at, in the config weight and in a weight sample
WEIGHT_PART_CASES = [
    pytest.param(["spectrum", "--root", "12", "--depth", "3"], ["--lambda1=453"],
                 ["--lambda1=454"], "(454, 5/7)", "454", id="borel-L1"),
    pytest.param(["spectrum", "--root", "12", "--depth", "3"], ["--lambda1=-453"],
                 ["--lambda1=-454"], "(-454, 5/7)", "-454", id="borel-negative-L1"),
    pytest.param(["spectrum", "--root", "23", "--depth", "3"], ["--lambda2=453"],
                 ["--lambda2=454"], "(7/3, 454)", "454", id="borel-L2"),
    pytest.param(["spectrum", "--root", "13", "--depth", "3"], ["--lambda1=300", "--lambda2=153"],
                 ["--lambda1=300", "--lambda2=154"], "(300, 154)", "454", id="borel-L1+L2"),
    pytest.param(["spectrum", "--module", "parabolic", "--root", "23", "--depth", "3"],
                 ["--lambda2=453"], ["--lambda2=454"], "(7/3, 454)", "454",
                 id="parabolic-lambda2"),
    pytest.param(["character", "--module", "parabolic", "--T", "1"], ["--lambda2=453"],
                 ["--lambda2=454"], "(7/3, 454)", "454", id="character-parabolic-lambda2"),
    pytest.param(SAMPLED_TRACE, with_samples("453,1/3"), with_samples("454,1/3"), "(454, 1/3)",
                 "454", id="sample-L1"),
]


@pytest.mark.parametrize("argv,at,past,weight,part", WEIGHT_PART_CASES)
def test_integral_weight_parts_past_the_cap_exit_2(tmp_path, capsys, argv, at, past, weight, part):
    assert MAX_WEIGHT_PART == 453
    code, payload = run(tmp_path, *argv, *at)
    assert code == 0 and payload
    capsys.readouterr()
    assert main([*argv, *past]) == 2
    assert capsys.readouterr() == ("", f"error: weight {weight} has the integral part {part}, "
                                   "past the cap 453 in absolute value; pick a non-integral or "
                                   "nearer weight\n")


# a numerator and a denominator of 4,300 digits each, the most rat accepts;
# the second weight's eigenvalues have about 8,600 digits
@pytest.mark.parametrize("argv", [
    pytest.param(["spectrum", "--root", "12", "--depth", "8", f"--lambda1={3 * 10**4299 + 1}/3"],
                 id="root-12"),
    pytest.param(["spectrum", "--root", "13", "--depth", "4", f"--lambda1={10**4299 + 1}/3",
                  f"--lambda2=1/{10**4299 + 7}"], id="root-13"),
])
def test_a_weight_at_the_digit_limit_prints_its_spectrum(tmp_path, argv):
    code, payload = run(tmp_path, *argv)
    assert code == 0
    report = json.loads(payload)
    assert report["config"]["lambda1"] == argv[5].removeprefix("--lambda1=")
    assert report["spectra"]


def test_importing_the_cli_leaves_out_the_process_pool():
    env = {**os.environ, "PYTHONPATH": str(Path(vermatheta.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, vermatheta.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.stdout == "False\n"
    # a parallel verify forks its workers, and a serial one pickles nothing
    code = ("import sys; from vermatheta.cli import main; main(sys.argv[1:]); "
            "print([m for m in ('concurrent.futures', 'multiprocessing', 'pickle') "
            "if m in sys.modules], file=sys.stderr)")
    args = ["verify", "--identity", "borel-trace-13", "--identity", "borel-reg-trace-12",
            "--B", "1", "--D", "2", "--T", "1"]
    for jobs, imported in (("1", "[]"), ("2", "['pickle']")):
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                              env={**env, "VERMATHETA_JOBS": jobs}, timeout=60)
        assert proc.stderr == imported + "\n"



def test_importing_the_cli_leaves_out_dataclasses_and_inspect():
    # both cost every start-up: dataclasses generates code for each class
    # and imports inspect
    env = {**os.environ, "PYTHONPATH": str(Path(vermatheta.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, vermatheta.cli; "
         "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.stdout == "[]\n"

def test_depth_cap_admits_the_deepest_benchmarked_check(tmp_path):
    # the deep-parabolic-12 benchmark: parabolic-trace-12-alt-sign at B=9, D=20, lambda2=2
    spec = ModuleSpec(PARABOLIC, F(7, 3), 2, 10)
    assert required_depth(spec, Root.A12, Window(9, 20, 8), False) == 47 <= MAX_DEPTH
    code, _ = run(tmp_path, "character", "--depth", str(MAX_DEPTH), "--T", "2")
    assert code == 0


def test_parabolic_12_working_depth_does_not_grow_with_B(tmp_path):
    # the window's constant part alone bounds the region, so at the default
    # D 8 and lambda2 1 a wide B works to depth 2(D + lambda2) + lambda2 + 1,
    # 20, and the literal entry's misprint shows against its sign variant
    spec = ModuleSpec(PARABOLIC, F(7, 3), 1, 10)
    assert {required_depth(spec, Root.A12, Window(B, 8, 8)) for B in (1, 99)} == {20}
    code, payload = run(tmp_path, "verify", "--identity", "parabolic-trace-12",
                        "--identity", "parabolic-trace-12-alt-sign", "--module", "parabolic",
                        "--B", "99")
    assert code == 1
    check, alt = json.loads(payload)["checks"]
    assert (check["status"], alt["status"]) == ("mismatch", "pass")
    assert check["pipelineAgreement"] == "pass"
    assert "classification: formula-discrepancy (computational pipelines agree)" in check["notes"]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that ``os.fork`` starts from the test's process."""
    real_fork, pids = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


#: Three trace jobs: under two workers, jobs 0 and 2 run in the parent and
#: job 1 in the child.
THREE_JOBS = ["verify", "--identity", "borel-trace-13", "--identity", "borel-reg-trace-12",
              "--identity", "borel-reg-trace-23", "--B", "1", "--D", "2", "--T", "1"]


def fail_jobs(monkeypatch, failures: dict) -> None:
    """Make the job of each identity in ``failures`` call its action instead."""
    real = cli._verify_task

    def task(job):
        action = failures.get(job[0][0].value)
        return real(job) if action is None else action()

    monkeypatch.setattr(cli, "_verify_task", task)


def raising(exc):
    def action():
        raise exc
    return action


def test_jobs_past_the_job_count_start_one_worker_per_job(tmp_path, monkeypatch, forks):
    args = ["verify", "--identity", "borel-trace-13", "--identity", "borel-reg-trace-12",
            "--B", "1", "--D", "2", "--T", "1"]
    monkeypatch.setenv("VERMATHETA_JOBS", "1")
    serial = run(tmp_path, *args)
    assert forks == []
    monkeypatch.setenv("VERMATHETA_JOBS", "1000")
    assert run(tmp_path, *args) == serial
    assert len(forks) == 1 and reaped(forks[0])


@pytest.mark.parametrize("failing", [
    pytest.param(("borel-reg-trace-12", "borel-reg-trace-23"), id="child-job-first"),
    pytest.param(("borel-trace-13", "borel-reg-trace-12"), id="parent-job-first"),
])
def test_the_earliest_job_error_wins_in_either_process(monkeypatch, capsys, forks, failing):
    fail_jobs(monkeypatch, {i: raising(VerificationError(f"broken {i}")) for i in failing})
    monkeypatch.setenv("VERMATHETA_JOBS", "1")
    assert main(THREE_JOBS) == 1
    serial = capsys.readouterr()
    assert serial == ("", f"verification failure: broken {failing[0]}\n")
    monkeypatch.setenv("VERMATHETA_JOBS", "2")
    assert main(THREE_JOBS) == 1
    assert capsys.readouterr() == serial
    assert len(forks) == 1 and reaped(forks[0])


def test_a_usage_error_in_a_child_exits_2(monkeypatch, capsys, forks):
    fail_jobs(monkeypatch, {"borel-reg-trace-12": raising(UsageError("refused in the child"))})
    monkeypatch.setenv("VERMATHETA_JOBS", "2")
    assert main(THREE_JOBS) == 2
    assert capsys.readouterr() == ("", "error: refused in the child\n")
    assert len(forks) == 1 and reaped(forks[0])


@pytest.mark.parametrize("action, message", [
    pytest.param(lambda: os._exit(3),
                 "the verify worker for jobs 1 exited with code 3 without sending readable results",
                 id="child-exits"),
    pytest.param(raising(VerificationError(lambda: None)),
                 "a verify worker cannot send the outcome of job 1: ", id="unpicklable-error"),
])
def test_a_child_that_sends_no_outcome_is_a_verification_failure(monkeypatch, capsys, forks,
                                                                 action, message):
    fail_jobs(monkeypatch, {"borel-reg-trace-12": action})
    monkeypatch.setenv("VERMATHETA_JOBS", "2")
    assert main(THREE_JOBS) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"verification failure: {message}")
    assert len(forks) == 1 and reaped(forks[0])


def test_parallel_jobs_without_fork_exit_2(monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setenv("VERMATHETA_JOBS", "2")
    assert main(THREE_JOBS) == 2
    assert capsys.readouterr() == (
        "", "error: VERMATHETA_JOBS above 1 needs os.fork, which this platform lacks\n")


def test_interleaved_identities_keep_request_order_in_parallel(tmp_path, monkeypatch):
    requested = ["parabolic-trace-23", "borel-reg-trace-23", "parabolic-trace-12",
                 "parabolic-character", "parabolic-trace-23-alt-limit", "borel-trace-13",
                 "parabolic-trace-12-alt-sign"]
    args = ["verify", "--module", "parabolic", "--lambda2", "1", "--B", "3", "--D", "2",
            "--T", "1", "--depth", "4"]
    for identity in requested:
        args += ["--identity", identity]
    monkeypatch.setenv("VERMATHETA_JOBS", "1")
    code1, b1 = run(tmp_path, *args)
    monkeypatch.setenv("VERMATHETA_JOBS", "2")
    code2, b2 = run(tmp_path, *args)
    assert code1 == code2 == 1
    assert b1 == b2
    ids = [c["id"] for c in json.loads(b1)["checks"]]
    assert ids == [i if i.startswith("borel") else f"{i}@lambda2=1" for i in requested]


# -- README examples -----------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, lang: str) -> str:
    """The first ```lang block under the README's ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    code = readme_block("Library use", "python")
    namespace: dict = {}
    exec(code, namespace)
    line = next(x for x in code.splitlines() if x.startswith("kappa_spectrum("))
    call, comment = line.split("#", 1)
    claimed = ast.literal_eval(comment.split(", i.e.")[0].strip())
    assert eval(call, namespace) == claimed == ((22, 1), (150, 1))
    assert namespace["module"].denom == 21
    monkeypatch.chdir(tmp_path)
    commands = [x for x in readme_block("CLI", "sh").splitlines() if x.startswith("vermatheta ")]
    assert len(commands) == 7
    for command in commands:
        exit_code = main(shlex.split(command)[1:])
        err = capsys.readouterr().err
        assert exit_code in (0, 1) and "error:" not in err, (command, err)


def test_single_weight_commands_keep_weight_bound_straighteners(tmp_path):
    # one weight has nothing to share, so branch, spectrum and character
    # never ask for the shared forms cache
    from vermatheta import verma

    verma.shared_forms.cache_clear()
    for module in (["--module", "borel"], ["--module", "parabolic", "--lambda2", "2"]):
        for command in (["branch", "--root", "13"], ["spectrum", "--root", "12"], ["character"]):
            code, _ = run(tmp_path, *command, *module, "--depth", "4", "--T", "2")
            assert code == 0, command
    info = verma.shared_forms.cache_info()
    assert info.hits + info.misses == 0
