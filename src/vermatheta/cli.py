"""Command-line interface: construction, branching, spectra, traces and the
full verification suite, all emitting byte-stable JSON reports.

Exit codes: 0 when every requested check passes, 1 on any mismatch
(including catalog-formula discrepancies, which the report classifies
separately from pipeline failures), 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .branching import (
    DEFAULT_WEIGHTS,
    branching_table,
    is_divergent,
    lift_samples,
    required_depth,
    spectrum_table,
    trace_branching,
    trace_brute_force,
    trace_pipelines,
)
from .errors import UsageError, VerificationError, cut, shown
from .exactalg import MAX_DIGITS, rat
from .qseries import Window
from .theta import (
    CATALOG,
    ClosedFormId,
    annotate_variants,
    borel_character_closed_form,
    check_id,
    check_record,
    closed_form_with_notes,
    verify_identity,
)
from .verma import BOREL, PARABOLIC, ModuleSpec, Root, VermaModule, check_genericity, guard_band

JOBS_ENV = "VERMATHETA_JOBS"

DIVERGENT_NOTE = "formal window sum; divergent as series (depends on the truncation depth)"

_CONFIG_KEYS = ("module", "lambda1", "lambda2", "depth", "B", "D", "T", "lambda_samples")
# the commands that lift exponents across weight samples
_SAMPLED_COMMANDS = ("trace", "verify")

#: The deepest n+m a command may work to, its working depth (see
#: ``required_depth``); it bounds the work of one command.  The longest benchmarked
#: check, parabolic-trace-12-alt-sign at B=9, D=20, lambda2=2, needs depth 47.
MAX_DEPTH = 150

#: The largest integral L-part a weight may have: the genericity guard's band
#: at the depth cap.  The guard passes an integral part beyond its band, and a
#: constituent's finiteness test walks the root string as far as that part.
MAX_WEIGHT_PART = guard_band(MAX_DEPTH)

#: The most digits a report prints in one integer: a spectrum's eigenvalue
#: sums two weight parts of ``MAX_DIGITS`` digits each, over the product of
#: their denominators, and scales and shifts that by a few more digits.
REPORT_DIGITS = 2 * MAX_DIGITS + 10


class RunConfig:
    """A command's settings, from the defaults, a config file and flags."""

    def __init__(self, module: str = BOREL, lambda1: Fraction = Fraction(7, 3),
                 lambda2: Fraction = Fraction(5, 7), depth: int = 10, B: int = 5, D: int = 8,
                 T: int = 8, lambda_samples: tuple = (), lambda2_given: bool = True):
        self.module, self.lambda1, self.lambda2, self.depth = module, lambda1, lambda2, depth
        self.B, self.D, self.T = B, D, T
        self.lambda_samples, self.lambda2_given = lambda_samples, lambda2_given

    @property
    def window(self) -> Window:
        return Window(self.B, self.D, self.T)

    def spec(self) -> ModuleSpec:
        return ModuleSpec(self.module, self.lambda1, self.lambda2, self.depth)

    def as_json(self) -> dict:
        return {
            "module": self.module,
            "lambda1": str(self.lambda1),
            "lambda2": str(self.lambda2),
            "depth": self.depth,
            "window": self.window.as_dict(),
            "lambdaSamples": [[str(a), str(b)] for a, b in self.lambda_samples],
        }


def guarded_spec(spec: ModuleSpec, work: int | None = None) -> ModuleSpec:
    """``spec``, admitted to run: refused as a usage error when the working
    depth ``work`` (by default ``spec.depth``) is past ``MAX_DEPTH``, or when
    the weight fails the genericity guard at ``spec.depth``."""
    work = spec.depth if work is None else work
    if work > MAX_DEPTH:
        raise UsageError(f"the run needs depth {shown(work)}, past the depth cap {MAX_DEPTH}; "
                         "use a smaller --depth or window")
    check_genericity(spec)
    return spec


def parse_int(value, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {shown(value)}") from None


def parse_samples(text: str) -> tuple:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UsageError(f"bad weight sample {shown(chunk)}; expected 'p/q,r/s'")
        pairs.append((rat(parts[0]), rat(parts[1])))
    if not pairs:
        raise UsageError("--lambda-samples / lambda_samples is given but lists no weight sample")
    return tuple(pairs)


def read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line {shown(raw)}; expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {shown(key)}")
        if key in values:
            raise UsageError(f"config key {shown(key)} is given twice")
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
            raise UsageError(f"unknown module kind {shown(module)}")
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
    # no constituent within the depth cap sits deeper than k = MAX_DEPTH on
    # its root string, so no term has an L-coefficient 2k+1 past this
    if cfg.B > 2 * MAX_DEPTH + 1:
        raise UsageError(f"B = {shown(cfg.B)} is past the cap {2 * MAX_DEPTH + 1} that the depth cap "
                         f"{MAX_DEPTH} allows; use a smaller --B")
    samples = pick("lambda_samples", args.lambda_samples)
    if samples is not None:
        if args.command not in _SAMPLED_COMMANDS:
            raise UsageError(
                f"{args.command} uses no weight samples; drop --lambda-samples / lambda_samples"
            )
        cfg.lambda_samples = parse_samples(samples)
    # a parabolic config's lambda2 must be a nonnegative integer; refusing a
    # bad one here keeps every command from running at another value
    cfg.spec()
    for l1, l2 in ((cfg.lambda1, cfg.lambda2), *cfg.lambda_samples):
        for part in (l1, l2) if cfg.module == PARABOLIC else (l1, l2, l1 + l2):
            if part.denominator == 1 and abs(part) > MAX_WEIGHT_PART:
                raise UsageError(f"weight {cut(f'({l1}, {l2})')} has the integral part "
                                 f"{cut(str(part))}, past the cap {MAX_WEIGHT_PART} in absolute "
                                 "value; pick a non-integral or nearer weight")
    return cfg


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=True) + "\n"


def write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write file: {exc}") from None


def emit(report: dict, output: str | None) -> None:
    text = render_report(report)
    if output:
        write_file(output, text)
    sys.stdout.write(text)


# -- verify --------------------------------------------------------------------


def _verify_task(job: tuple) -> list[dict]:
    """The check records of one job's identities, which share a catalog trace
    and a spec, verified against one run of the two pipelines."""
    identities, spec, window, samples = job
    _, root, regularized = CATALOG[identities[0]]
    pipelines = None if root is None else trace_pipelines(spec, root, window, regularized, samples)
    checks = [(i, verify_identity(i, spec, window, samples, pipelines)) for i in identities]
    annotate_variants(checks)
    return [record for _, record in checks]


def _run_share(tasks: list, share: range) -> list:
    """``(index, ok, records or exception)`` for the jobs of ``share`` in
    order, up to and including the first job that raises."""
    outcomes = []
    for index in share:
        try:
            outcomes.append((index, True, _verify_task(tasks[index])))
        except Exception as exc:
            outcomes.append((index, False, exc))
            break
    return outcomes


def _fork_share(tasks: list, share: range) -> tuple:
    """Fork a child that runs ``share`` and pickles its outcomes to a pipe;
    the child's pid and the read end of its pipe."""
    import pickle

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            outcomes = _run_share(tasks, share)
            try:
                blob = pickle.dumps(outcomes)
            except Exception as exc:
                index = outcomes[-1][0]
                outcomes[-1] = (index, False, VerificationError(
                    f"a verify worker cannot send the outcome of job {index}: {cut(str(exc))}"))
                blob = pickle.dumps(outcomes)
            with open(write_fd, "wb") as pipe:
                pipe.write(blob)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _received(blob: bytes, status: int, share: range) -> list:
    """A child's outcomes from the bytes it sent; a child that sent none
    fails at the first job of its share."""
    import pickle

    try:
        return pickle.loads(blob)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        return [(share[0], False, VerificationError(
            f"the verify worker for jobs {', '.join(map(str, share))} {how} "
            "without sending readable results"))]


def _fork_map(tasks: list, workers: int) -> list:
    """``_verify_task`` of each task, in order, job i run by worker i mod
    ``workers``: the parent forks a child for each worker past the first and
    runs the first share itself.  A worker stops at its first failing job.
    Once every child is reaped, the failure of the earliest job is raised,
    the one a serial run meets first."""
    shares = [range(w, len(tasks), workers) for w in range(workers)]
    children = []  # (pid, read end of its pipe, share)
    blobs, statuses = [], []
    try:
        for share in shares[1:]:
            children.append((*_fork_share(tasks, share), share))
        outcomes = _run_share(tasks, shares[0])
        blobs = [pipe.read() for _, pipe, _ in children]
    except BaseException:
        import signal

        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    for (_, _, share), blob, status in zip(children, blobs, statuses):
        outcomes += _received(blob, status, share)
    results = []
    for _, ok, value in sorted(outcomes, key=lambda outcome: outcome[0]):
        if not ok:
            raise value
        results.append(value)
    return results


def cmd_verify(cfg: RunConfig, args) -> tuple[list, dict]:
    jobs = parse_int(os.environ.get(JOBS_ENV, "1"), JOBS_ENV)
    if jobs < 1:
        raise UsageError(f"{JOBS_ENV} must be a positive integer, got {shown(jobs)}")
    if jobs > 1 and not hasattr(os, "fork"):
        raise UsageError(f"{JOBS_ENV} above 1 needs os.fork, which this platform lacks")
    # Borel identities run at a Borel config's weight; a config aimed at the
    # parabolic module carries an integral lambda2, so they use the default
    borel_weight = (cfg.lambda1, cfg.lambda2) if cfg.module == BOREL else DEFAULT_WEIGHTS[0]
    if args.all or not args.identity:
        sweep = [cfg.lambda2] if cfg.lambda2_given and cfg.module == PARABOLIC else [0, 1, 2]
        weighted = [(i, *borel_weight) for i in ClosedFormId if CATALOG[i].kind == BOREL]
        weighted += [
            (i, cfg.lambda1, l2) for l2 in sweep for i in ClosedFormId if CATALOG[i].kind == PARABOLIC
        ]
    else:
        # a Borel config's lambda2 is a generic weight; its parabolic
        # identities run at the parabolic default 1 unless that lambda2 is a
        # nonnegative integer (a parabolic config's lambda2 always is)
        l2 = cfg.lambda2
        if l2.denominator != 1 or l2 < 0:
            l2 = Fraction(1)
        weighted = [
            (i, *(borel_weight if CATALOG[i].kind == BOREL else (cfg.lambda1, l2)))
            for i in map(ClosedFormId, args.identity)
        ]
    requested = [(i, ModuleSpec(CATALOG[i].kind, l1, l2, cfg.depth)) for i, l1, l2 in weighted]
    # no sample list both spans the Borel weight plane and keeps one lambda2
    structures = list(dict.fromkeys((spec.kind, spec.cap) for _, spec in requested))
    if cfg.lambda_samples and len(structures) > 1:
        names = ", ".join(kind if cap is None else f"{kind} lambda2 = {cap}" for kind, cap in structures)
        raise UsageError(f"--lambda-samples / lambda_samples serve one module structure, but the "
                         f"identities span {len(structures)}: {names}; verify one structure's "
                         "identities at a time")

    # one job per (catalog trace, spec): an *-alt-* variant shares its
    # literal's pipeline run.  Each job is admitted at its working depth before
    # any job runs; the character's enumeration reads dimensions, so keeps --depth
    by_trace: dict = {}
    for identity, spec in requested:
        by_trace.setdefault((CATALOG[identity], spec), []).append(identity)
    tasks = []
    for (entry, spec), identities in by_trace.items():
        work = required_depth(spec, entry.root, cfg.window, entry.regularized)
        spec = guarded_spec(spec if entry.root is None else spec.with_depth(work), work)
        tasks.append((tuple(identities), spec, cfg.window, lift_samples(spec, cfg.lambda_samples)))
    results = _fork_map(tasks, min(jobs, len(tasks)))

    pending = {key: iter(records) for key, records in zip(by_trace, results)}
    return [next(pending[CATALOG[identity], spec]) for identity, spec in requested], {}


# -- character -----------------------------------------------------------------


def cmd_character(cfg: RunConfig, args) -> tuple[list, dict]:
    spec = cfg.spec()
    spec = guarded_spec(spec, required_depth(spec, None, cfg.window))
    brute = VermaModule(spec).character_bruteforce(cfg.T)
    window = Window(0, 0, cfg.T)
    if spec.kind == PARABOLIC:
        closed, notes = closed_form_with_notes(ClosedFormId.PARABOLIC_CHARACTER, spec, cfg.window)
        name = check_id(ClosedFormId.PARABOLIC_CHARACTER, spec)
    else:
        closed, notes = borel_character_closed_form(window), []
        name = "borel-character"
    cmp = brute.equal_on(closed, window)
    return [check_record(name, window, [(spec.lambda1, spec.lambda2)], notes,
                         passed=cmp.passed, first_mismatch=cmp)], {"series": brute.to_records()}


# -- branch / spectrum ---------------------------------------------------------


#: The columns of a branch table row, in the JSON report and the CSV dump.
TABLE_COLUMNS = ("root", "n", "m", "kind", "hw_c0", "hw_c1", "hw_c2", "multiplicity")


def table_rows(table) -> list[dict]:
    return [
        dict(zip(TABLE_COLUMNS, (table.root.value, *term.origin, term.kind, *term.hw,
                                 term.multiplicity)))
        for term in table.terms
    ]


def write_csv(rows: list[dict], path: str) -> None:
    lines = [",".join(TABLE_COLUMNS)]
    lines += [",".join(str(row[c]) for c in TABLE_COLUMNS) for row in rows]
    write_file(path, "\n".join(lines) + "\n")


def cmd_branch(cfg: RunConfig, args) -> tuple[list, dict]:
    root = Root(args.root)
    table = branching_table(VermaModule(guarded_spec(cfg.spec())), root)
    rows = table_rows(table)
    if args.csv:
        write_csv(rows, args.csv)
    return [check_record(
        f"branching-accounting-{cfg.module}-{root.value}", cfg.window,
        [(cfg.lambda1, cfg.lambda2)],
        [f"constituents account for every weight space to depth {cfg.depth}"],
    )], {"table": rows}


def cmd_spectrum(cfg: RunConfig, args) -> tuple[list, dict]:
    root = Root(args.root)
    module = VermaModule(guarded_spec(cfg.spec()))
    table = branching_table(module, root)
    rows = spectrum_table(module, table)
    coherent = all(row.get("coherent", True) for row in rows)
    return [check_record(
        f"spectrum-branching-coherence-{cfg.module}-{root.value}", cfg.window,
        [(cfg.lambda1, cfg.lambda2)], passed=coherent, agreed=coherent,
    )], {"spectra": rows}


# -- trace ---------------------------------------------------------------------


def cmd_trace(cfg: RunConfig, args) -> tuple[list, dict]:
    root = Root(args.root)
    regularized = bool(args.regularized)
    spec = cfg.spec()
    window = cfg.window
    divergent = is_divergent(spec.kind, root, regularized)
    notes = [DIVERGENT_NOTE] if divergent else []
    divergent_depth = cfg.depth if divergent else None

    need = required_depth(spec, root, window, regularized, divergent_depth)
    deep = guarded_spec(spec.with_depth(need))  # for every pipeline, the closed one too
    samples = lift_samples(spec, cfg.lambda_samples)

    want = args.pipeline
    series_by_name = {
        name: pipeline(deep, root, window, regularized, samples, divergent_depth)
        for name, pipeline in (("branching", trace_branching), ("brute", trace_brute_force))
        if want in (name, "all")
    }
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
    series = {name: s.to_records() for name, s in sorted(series_by_name.items())}
    return checks, {"notes": notes, "series": series}


# -- entry ---------------------------------------------------------------------


#: The most characters of an argparse refusal kept whole, above its longest
#: message of its own: the 267 of ``verify --identity``'s invalid choice
PARSER_CHARS = 300


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are usage errors: one line, exit 2,
    cut as ``cut`` does, since argparse repeats refused values whole."""

    def error(self, message):
        raise UsageError(cut(message, PARSER_CHARS))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="run the whole identity suite")
    which.add_argument("--identity", action="append", default=[],
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
    sys.set_int_max_str_digits(REPORT_DIGITS)
    try:
        args = build_parser().parse_args(argv)
        cfg = build_config(args)
        checks, payload = _COMMANDS[args.command](cfg, args)
        emit({"config": {**cfg.as_json(), "command": args.command}, "checks": checks, **payload},
             args.output)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except VerificationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    return int(any(c["status"] != "pass" or c["pipelineAgreement"] != "pass" for c in checks))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
