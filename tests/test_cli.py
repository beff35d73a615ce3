import json
import os
from fractions import Fraction

import pytest

from vermatheta.cli import RunConfig, build_config, build_parser, main

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


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--no-such-flag"])
    assert exc.value.code == 2


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
    pytest.param(["verify", "--identity", "borel-trace-13"], None, "abc", id="env-jobs-abc"),
    pytest.param(["verify", "--identity", "borel-trace-13"], None, "0", id="env-jobs-0"),
    pytest.param(["verify", "--identity", "borel-trace-13"], None, "-3", id="env-jobs-negative"),
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
]


@pytest.mark.parametrize("golden,args,want_code", GOLDEN_CASES)
def test_reports_match_checked_in_goldens(tmp_path, golden, args, want_code):
    import pathlib

    code, payload = run(tmp_path, *args)
    assert code == want_code
    want = (pathlib.Path(__file__).parent / "golden" / golden).read_bytes()
    assert payload == want


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
