"""Command-line interface: construction, branching, spectra, traces and the
full verification suite, all emitting byte-stable JSON reports.

Exit codes: 0 when every requested check passes, 1 on any mismatch
(including catalog-formula discrepancies, which the report classifies
separately from pipeline failures), 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .branching import (
    DEFAULT_WEIGHTS,
    branching_table,
    is_divergent,
    lift_samples,
    predicted_spectrum,
    required_depth,
    spectrum_table,
    trace_brute_force,
    trace_from_branching,
)
from .errors import UsageError, VerificationError
from .exactalg import rat
from .qseries import Window
from .theta import (
    CATALOG,
    VARIANT_PAIRS,
    ClosedFormId,
    VerifyReport,
    borel_character_closed_form,
    closed_form_with_notes,
    verify_identity,
)
from .verma import BOREL, PARABOLIC, ModuleSpec, Root, VermaModule, genericity_guard

JOBS_ENV = "VERMATHETA_JOBS"

DIVERGENT_NOTE = "formal window sum; divergent as series (depends on the truncation depth)"

_CONFIG_KEYS = ("module", "lambda1", "lambda2", "depth", "B", "D", "T", "lambda_samples")


@dataclass
class RunConfig:
    module: str = BOREL
    lambda1: Fraction = Fraction(7, 3)
    lambda2: Fraction = Fraction(5, 7)
    depth: int = 10
    B: int = 5
    D: int = 8
    T: int = 8
    lambda_samples: tuple = ()
    lambda2_given: bool = True

    @property
    def window(self) -> Window:
        return Window(self.B, self.D, self.T)

    def spec(self) -> ModuleSpec:
        return guarded_spec(self.module, self.lambda1, self.lambda2, self.depth)

    def as_json(self) -> dict:
        return {
            "module": self.module,
            "lambda1": str(self.lambda1),
            "lambda2": str(self.lambda2),
            "depth": self.depth,
            "window": self.window.as_dict(),
            "lambdaSamples": [[str(a), str(b)] for a, b in self.lambda_samples],
        }


def guarded_spec(kind: str, lambda1, lambda2, depth: int) -> ModuleSpec:
    """The spec a command runs on; a malformed spec or a weight that fails
    the genericity guard is refused as a usage error."""
    spec = ModuleSpec(kind, lambda1, lambda2, depth)
    if not genericity_guard(spec.lambda1, spec.lambda2, depth, kind):
        raise UsageError(
            f"weight ({spec.lambda1}, {spec.lambda2}) fails the genericity guard for the "
            f"{kind} module at depth {depth}; pick a non-integral weight"
        )
    return spec


def parse_int(value, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None


def parse_samples(text: str) -> tuple:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UsageError(f"bad weight sample {chunk!r}; expected 'p/q,r/s'")
        pairs.append((rat(parts[0]), rat(parts[1])))
    return tuple(pairs)


def read_config_file(path: str) -> dict:
    values = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line {raw!r}; expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        values[key] = value
    return values


def build_config(args) -> RunConfig:
    file_values = read_config_file(args.config) if args.config else {}

    def pick(name, flag_value):
        return flag_value if flag_value is not None else file_values.get(name)

    cfg = RunConfig()
    module = pick("module", getattr(args, "module", None))
    if module is not None:
        if module not in (BOREL, PARABOLIC):
            raise UsageError(f"unknown module kind {module!r}")
        cfg.module = module
    l1 = pick("lambda1", args.lambda1)
    if l1 is not None:
        cfg.lambda1 = rat(l1)
    l2 = pick("lambda2", args.lambda2)
    cfg.lambda2_given = l2 is not None
    if l2 is not None:
        cfg.lambda2 = rat(l2)
    elif cfg.module == PARABOLIC:
        cfg.lambda2 = Fraction(1)
    for name in ("depth", "B", "D", "T"):
        value = pick(name, getattr(args, name))
        if value is not None:
            setattr(cfg, name, parse_int(value, name))
    samples = pick("lambda_samples", args.lambda_samples)
    if samples is not None:
        cfg.lambda_samples = parse_samples(samples) if isinstance(samples, str) else samples
    # a parabolic config's lambda2 must be a nonnegative integer; refusing a
    # bad one here keeps every command from running at another value
    ModuleSpec(cfg.module, cfg.lambda1, cfg.lambda2, cfg.depth)
    return cfg


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=True) + "\n"


def emit(report: dict, output: str | None) -> None:
    text = render_report(report)
    if output:
        Path(output).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def comparison_json(cmp) -> dict:
    c0, c1, c2 = cmp.monomial.qexp
    return {
        "monomial": {"c0": c0, "c1": c1, "c2": c2, "t1": cmp.monomial.t1, "t2": cmp.monomial.t2},
        "left": str(cmp.left),
        "right": str(cmp.right),
    }


def check_record(check_id: str, window: Window, samples, notes=(), passed: bool = True,
                 agreed: bool = True, first_mismatch=None, pipeline_mismatch=None) -> dict:
    """One entry of a report's ``checks``; a mismatch key appears only for a
    failed comparison."""
    out = {
        "id": check_id,
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


def check_json(report: VerifyReport, id_suffix: str = "") -> dict:
    return check_record(
        report.identity + id_suffix, report.window, report.lambda_samples, report.notes,
        report.status == "pass", report.pipeline_agreement == "pass",
        report.first_mismatch, report.pipeline_mismatch,
    )


# -- verify --------------------------------------------------------------------


def _verify_task(payload: tuple) -> VerifyReport:
    identity_value, kind, l1, l2, depth, b, d, t, samples = payload
    identity = ClosedFormId(identity_value)
    spec = ModuleSpec(kind, Fraction(l1), Fraction(l2), depth)
    window = Window(b, d, t)
    samples = tuple((Fraction(a), Fraction(b2)) for a, b2 in samples)
    return verify_identity(identity, spec, window, samples=samples)


def _verify_tasks(cfg: RunConfig, identities) -> list[tuple]:
    tasks = []
    for identity, lambda2 in identities:
        kind = CATALOG[identity].kind
        if lambda2 is not None:
            l1, l2 = cfg.lambda1, lambda2
        elif cfg.module == BOREL:
            l1, l2 = cfg.lambda1, cfg.lambda2
        else:
            # a config aimed at the parabolic module carries an integral
            # lambda2; Borel identities then use the default generic weight
            l1, l2 = DEFAULT_WEIGHTS[0]
        spec = guarded_spec(kind, l1, l2, cfg.depth)
        samples = cfg.lambda_samples or lift_samples(spec)
        tasks.append(
            (
                identity.value,
                kind,
                str(l1),
                str(l2),
                cfg.depth,
                cfg.B,
                cfg.D,
                cfg.T,
                tuple((str(a), str(b)) for a, b in samples),
            )
        )
    return tasks


def _annotate_variants(checks: list[dict]) -> None:
    by_id = {}
    for check in checks:
        by_id.setdefault(check["id"].split("@")[0], []).append(check)
    for literal_id, alt_id in VARIANT_PAIRS:
        for literal in by_id.get(literal_id.value, []):
            suffix = literal["id"].split("@", 1)
            suffix = "@" + suffix[1] if len(suffix) > 1 else ""
            alts = [c for c in by_id.get(alt_id.value, []) if c["id"].endswith(suffix)]
            if not alts:
                continue
            alt = alts[0]
            winners = [c["id"] for c in (literal, alt) if c["status"] == "pass"]
            if len(winners) == 1:
                note = f"matching variant: {winners[0]}"
            else:
                note = f"matching variants: {winners or 'none'}"
            for check in (literal, alt):
                check["notes"] = list(check["notes"]) + [note]
                if check["status"] == "mismatch" and check["pipelineAgreement"] == "pass":
                    check["notes"].append(
                        "classification: formula-discrepancy (computational pipelines agree)"
                    )


def cmd_verify(cfg: RunConfig, args) -> tuple[dict, int]:
    jobs = parse_int(os.environ.get(JOBS_ENV, "1"), JOBS_ENV)
    if jobs < 1:
        raise UsageError(f"{JOBS_ENV} must be a positive integer, got {jobs}")
    # (identity, lambda2), with lambda2 None for the Borel identities
    if args.all or not args.identity:
        borel = [i for i in ClosedFormId if CATALOG[i].kind == BOREL]
        parabolic = [i for i in ClosedFormId if CATALOG[i].kind == PARABOLIC]
        sweep = [cfg.lambda2] if cfg.lambda2_given and cfg.module == PARABOLIC else [0, 1, 2]
        identities = [(i, None) for i in borel]
        identities += [(i, Fraction(l2)) for l2 in sweep for i in parabolic]
    else:
        # a Borel config's lambda2 is a generic weight; its parabolic
        # identities run at the parabolic default 1 unless that lambda2 is a
        # nonnegative integer (a parabolic config's lambda2 always is)
        l2 = cfg.lambda2
        if l2.denominator != 1 or l2 < 0:
            l2 = Fraction(1)
        identities = [
            (i, l2 if CATALOG[i].kind == PARABOLIC else None)
            for i in map(ClosedFormId, args.identity)
        ]

    tasks = _verify_tasks(cfg, identities)
    if jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_verify_task, tasks))
    else:
        reports = [_verify_task(t) for t in tasks]

    checks = [
        check_json(report, "" if lambda2 is None else f"@lambda2={lambda2}")
        for (_, lambda2), report in zip(identities, reports)
    ]
    _annotate_variants(checks)
    ok = all(c["status"] == "pass" and c["pipelineAgreement"] == "pass" for c in checks)
    report = {"config": {**cfg.as_json(), "command": "verify"}, "checks": checks}
    return report, 0 if ok else 1


# -- character -----------------------------------------------------------------


def cmd_character(cfg: RunConfig, args) -> tuple[dict, int]:
    spec = cfg.spec()
    brute = VermaModule(spec).character_bruteforce(cfg.T)
    window = Window(0, 0, cfg.T)
    if spec.kind == PARABOLIC:
        closed, notes = closed_form_with_notes(ClosedFormId.PARABOLIC_CHARACTER, spec, cfg.window)
        check_id = ClosedFormId.PARABOLIC_CHARACTER.value + f"@lambda2={spec.lambda2}"
    else:
        closed, notes = borel_character_closed_form(window), []
        check_id = "borel-character"
    cmp = brute.equal_on(closed, window)
    check = check_record(check_id, window, [(spec.lambda1, spec.lambda2)], notes,
                         passed=cmp.passed, first_mismatch=cmp)
    report = {
        "config": {**cfg.as_json(), "command": "character"},
        "checks": [check],
        "series": brute.to_records(),
    }
    return report, 0 if cmp.passed else 1


# -- branch / spectrum ---------------------------------------------------------


def table_rows(table) -> list[dict]:
    rows = []
    for term in table.terms:
        rows.append(
            {
                "root": table.root.value,
                "n": term.origin[0],
                "m": term.origin[1],
                "kind": term.kind,
                "hw_c0": term.hw.c0,
                "hw_c1": term.hw.c1,
                "hw_c2": term.hw.c2,
                "multiplicity": term.multiplicity,
            }
        )
    return rows


def write_csv(rows: list[dict], path: str) -> None:
    header = "root,n,m,kind,hw_c0,hw_c1,hw_c2,multiplicity"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r['root']},{r['n']},{r['m']},{r['kind']},{r['hw_c0']},{r['hw_c1']},{r['hw_c2']},{r['multiplicity']}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_branch(cfg: RunConfig, args) -> tuple[dict, int]:
    root = Root(args.root)
    table = branching_table(VermaModule(cfg.spec()), root)
    rows = table_rows(table)
    if args.csv:
        write_csv(rows, args.csv)
    check = check_record(
        f"branching-accounting-{cfg.module}-{root.value}", cfg.window,
        [(cfg.lambda1, cfg.lambda2)],
        [f"constituents account for every weight space to depth {table.depth_covered}"],
    )
    report = {
        "config": {**cfg.as_json(), "command": "branch"},
        "checks": [check],
        "table": rows,
    }
    return report, 0


def cmd_spectrum(cfg: RunConfig, args) -> tuple[dict, int]:
    root = Root(args.root)
    module = VermaModule(cfg.spec())
    table = branching_table(module, root)
    coherent = True
    rows = spectrum_table(module, root)
    for row in rows:
        predicted = predicted_spectrum(table, root, row["n"], row["m"], cfg.lambda1, module.spec.lambda2)
        measured = tuple((Fraction(e["value"]), e["multiplicity"]) for e in row["eigenvalues"])
        if tuple(predicted) != measured:
            coherent = False
            row["coherent"] = False
    check = check_record(
        f"spectrum-branching-coherence-{cfg.module}-{root.value}", cfg.window,
        [(cfg.lambda1, cfg.lambda2)], passed=coherent, agreed=coherent,
    )
    report = {
        "config": {**cfg.as_json(), "command": "spectrum"},
        "checks": [check],
        "spectra": rows,
    }
    return report, 0 if coherent else 1


# -- trace ---------------------------------------------------------------------


def cmd_trace(cfg: RunConfig, args) -> tuple[dict, int]:
    root = Root(args.root)
    regularized = bool(args.regularized)
    spec = cfg.spec()
    window = cfg.window
    divergent = is_divergent(spec.kind, root, regularized)
    notes = [DIVERGENT_NOTE] if divergent else []
    divergent_depth = cfg.depth if divergent else None

    need = required_depth(spec, root, window, regularized, divergent_depth)
    deep = spec.with_depth(max(spec.depth, need))
    samples = cfg.lambda_samples or lift_samples(spec)

    series_by_name = {}
    want = args.pipeline
    if want in ("branching", "all"):
        module = VermaModule(deep)
        # a divergent trace is only meaningful as a fixed-depth window sum,
        # so both pipelines truncate constituents at the configured depth
        table = branching_table(module, root, depth=divergent_depth)
        series_by_name["branching"] = trace_from_branching(
            table, window, regularized,
            spec=None if divergent else deep, slot_depth=divergent_depth,
        )
    if want in ("brute", "all"):
        series_by_name["brute"] = trace_brute_force(
            deep, root, window, regularized, samples=samples, divergent_depth=divergent_depth
        )
    if want in ("closed", "all"):
        closed_ids = [] if divergent else [
            i for i, entry in CATALOG.items() if entry == (spec.kind, root, regularized)
        ]
        for identity in closed_ids:
            series, id_notes = closed_form_with_notes(identity, spec, window)
            series_by_name[identity.value] = series
            notes.extend(f"{identity.value}: {n}" for n in id_notes)
        if not closed_ids:
            notes.append("no closed form in the catalog for this trace")

    checks = []
    if want == "all":
        cmp = series_by_name["brute"].equal_on(series_by_name["branching"], window)
        checks.append(check_record(
            f"trace-pipeline-agreement-{cfg.module}-{root.value}"
            + ("-regularized" if regularized else ""),
            window, samples, notes, cmp.passed, cmp.passed, first_mismatch=cmp,
        ))
    report = {
        "config": {**cfg.as_json(), "command": "trace"},
        "checks": checks,
        "notes": notes,
        "series": {name: s.to_records() for name, s in sorted(series_by_name.items())},
    }
    return report, 0 if all(c["status"] == "pass" for c in checks) else 1


# -- entry ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vermatheta",
        description="Exact branching rules, Casimir spectra and partial theta "
        "traces for sl(3) Borel and parabolic Verma modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--module", choices=(BOREL, PARABOLIC), default=None)
        p.add_argument("--lambda1", default=None, help="exact rational, e.g. 7/3")
        p.add_argument("--lambda2", default=None, help="exact rational; nonnegative integer for parabolic")
        p.add_argument("--depth", default=None, help="certified depth cutoff on n+m")
        p.add_argument("--B", default=None, help="window cap on weight-coefficient degree")
        p.add_argument("--D", default=None, help="window cap on |constant exponent|")
        p.add_argument("--T", default=None, help="window cap on |t1|, |t2| degrees")
        p.add_argument("--lambda-samples", dest="lambda_samples", default=None,
                       help="semicolon-separated weight pairs, e.g. '7/3,5/7;11/5,-3/7'")
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--output", default=None, help="write the JSON report here as well")

    p = sub.add_parser("character", help="brute-force character vs closed form")
    common(p)

    p = sub.add_parser("branch", help="branching table for a root sl(2)")
    common(p)
    p.add_argument("--root", choices=("12", "23", "13"), required=True)
    p.add_argument("--csv", default=None, help="also dump the table as CSV")

    p = sub.add_parser("spectrum", help="Casimir spectra per weight space")
    common(p)
    p.add_argument("--root", choices=("12", "23", "13"), required=True)

    p = sub.add_parser("trace", help="monodromy trace series")
    common(p)
    p.add_argument("--root", choices=("12", "23", "13"), required=True)
    p.add_argument("--pipeline", choices=("brute", "branching", "closed", "all"), default="all")
    p.add_argument("--regularized", action="store_true")

    p = sub.add_parser("verify", help="three-way identity verification")
    common(p)
    p.add_argument("--all", action="store_true", help="run the whole identity suite")
    p.add_argument("--identity", action="append", default=[],
                   choices=[i.value for i in ClosedFormId],
                   help="verify one identity (repeatable)")
    return parser


_COMMANDS = {
    "character": cmd_character,
    "branch": cmd_branch,
    "spectrum": cmd_spectrum,
    "trace": cmd_trace,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        report, code = _COMMANDS[args.command](cfg, args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except VerificationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    emit(report, args.output)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
