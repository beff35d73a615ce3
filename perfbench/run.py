"""Benchmark of the vermatheta CLI.

Run from the root of a checkout:

    python3 perfbench/run.py [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]

Each workload runs the CLI as users do: a fresh ``python3 -m vermatheta``
process per run, one run at a time, until the next run would end after
``--seconds``.  Every run's output goes through the correctness gate in
``workloads.py``, and every report of one seed must be byte-identical.  The
digests of accepted reports stay in ``.perfbench/reports``, so later runs of
the seed, and ``suite`` against ``suite-par``, are held to the same bytes;
delete that directory after a deliberate change to the report format.

``--trace 0`` reports the end-to-end metrics of untraced runs: wall time, CPU
time of the process and its pool workers, their largest peak RSS, and the
set-up time of a fresh interpreter that imports the CLI and parses the
workload's arguments.  ``--trace 1`` alternates untraced runs with runs under
``tracer.py`` and reports the per-layer metrics and the tracing overhead.

For each workload it prints one line per metric and then a JSON line
``{"correct", "attempted", "failed", "metrics"}``; the last line of stdout
is the JSON line of the last workload.  The exit code is 0 whenever the
benchmark ran, failed runs included; it is 2 outside a checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import WORKLOADS, Workload, gate, seed_weight

TRACER = Path(__file__).resolve().with_name("tracer.py")
STATE_DIR = Path(".perfbench")
HARD_LIMIT_S = 160  # one workload's runs end well within the 180 s a benchmark run may take
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys\n"
    "from vermatheta.cli import build_config, build_parser\n"
    "build_config(build_parser().parse_args(sys.argv[1:]))\n"
)
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("ops_computed"):
        return "ops"
    return "count"


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    stderr_tail: str
    timed_out: bool


def _signal_group(pgid: int, sig: int) -> bool:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        return False
    return True


def run_process(cmd: list[str], env: dict, timeout: float, stderr_path: Path) -> Sample:
    """Run one command in its own process group and measure it from outside.

    wait4 reports the CPU time and peak RSS of the process together with
    those of the children it waited for, which are the pool workers.
    """
    timed_out = threading.Event()

    def expire(pgid):
        timed_out.set()
        _signal_group(pgid, signal.SIGKILL)

    with stderr_path.open("w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, start_new_session=True)
        timer = threading.Timer(max(timeout, 0.0), expire, (proc.pid,))
        timer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _signal_group(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # Workers left behind by a crash share the process group.
        if _signal_group(proc.pid, signal.SIGKILL):
            for _ in range(500):
                time.sleep(0.01)
                if not _signal_group(proc.pid, 0):
                    break
        err.seek(0)
        stderr_tail = err.read()[-2000:].decode("utf-8", "replace")
    return Sample(
        wall_s, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
        proc.returncode, stdout, stderr_tail, timed_out.is_set(),
    )


def tail_percentile(values) -> tuple[float, float] | None:
    """The highest of PERCENTILES with at least ten samples beyond it, and
    its nearest-rank value; None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


@dataclass
class Result:
    workload: Workload
    seed: int
    argv: list[str]
    attempted: int
    failures: list[str]
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, str]

    def as_json(self) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()},
        }


def child_env(workload: Workload, root: Path) -> dict:
    # The checkout's own source, and no interpreter or CLI setting from outside.
    env = {k: v for k, v in os.environ.items() if not k.startswith(("VERMATHETA_", "PYTHON"))}
    return {**env, "PYTHONPATH": str(root / "src"), **workload.env()}


def _reference_digest(workload: Workload, seed: int):
    path = STATE_DIR / "reports" / f"{workload.report_family}-seed{seed}.sha256"
    return path, (path.read_text().strip() if path.exists() else None)


def measure_setup(argv: list[str], env: dict, run_dir: Path, deadline: float) -> tuple[list[float], list[str]]:
    """Wall times of fresh interpreters that import the CLI and parse argv.

    The first interpreter writes the bytecode cache, which users have, and
    is not counted.
    """
    times, failures = [], []
    for _ in range(SETUP_REPEATS + 1):
        cmd = [sys.executable, "-c", SETUP_CODE, *argv]
        sample = run_process(cmd, env, deadline - time.perf_counter(), run_dir / "stderr")
        if sample.exit_code != 0:
            failures.append(f"set-up: exit code {sample.exit_code}: {sample.stderr_tail.strip()[-300:]}")
        times.append(sample.wall_s)
    return times[1:], failures


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> Result:
    deadline = time.perf_counter() + HARD_LIMIT_S
    weight = seed_weight(seed)
    argv = workload.argv(weight)
    env = child_env(workload, root)
    run_dir = STATE_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    digest_path, reference = _reference_digest(workload, seed)
    try:
        setup, setup_failures = measure_setup(argv, env, run_dir, deadline)
        failures = list(setup_failures)  # a failed set-up interpreter counts as a failed run
        plain: list[Sample] = []
        layers: list[dict] = []
        traced_walls: list[float] = []
        runs = 0
        window_start = time.perf_counter()
        while True:
            # In a traced benchmark run, untraced and traced runs alternate.
            traced = trace and runs % 2 == 1
            spans_dir = run_dir / f"spans-{runs}"
            if traced:
                spans_dir.mkdir()
                cmd = [sys.executable, str(TRACER), str(spans_dir), *argv]
            else:
                cmd = [sys.executable, "-m", "vermatheta", *argv]
            sample = run_process(cmd, env, deadline - time.perf_counter(), run_dir / "stderr")
            runs += 1
            failure = "timed out" if sample.timed_out else gate(workload, weight, sample.exit_code, sample.stdout)
            if failure is None:
                digest = hashlib.sha256(sample.stdout).hexdigest()
                if reference is None:
                    reference = digest
                    digest_path.parent.mkdir(parents=True, exist_ok=True)
                    digest_path.write_text(digest + "\n")
                elif digest != reference:
                    failure = f"report is not byte-identical to earlier {workload.report_family} reports of seed {seed}"
            if failure is not None:
                last = sample.stderr_tail.strip().splitlines()[-1:]
                failures.append(f"run {runs}: {failure}" + (f" ({last[0][:200]})" if last else ""))
            if not traced:
                plain.append(sample)
            elif (spans_dir / "main.json").exists():
                main_wall = json.loads((spans_dir / "main.json").read_text())["wall_s"]
                layers.append(tracer.layer_metrics(tracer.read_batches(spans_dir), workload.jobs, main_wall))
                traced_walls.append(sample.wall_s)
            elapsed = time.perf_counter() - window_start
            next_run = sample.wall_s
            minimum_done = runs >= (2 if trace else 1)
            if sample.timed_out or time.perf_counter() + next_run > deadline:
                break
            if minimum_done and elapsed + next_run > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    if trace:
        for name in layers[0] if layers else ():
            metrics[name] = (statistics.median(m[name] for m in layers), layer_unit(name))
        if layers and plain:
            traced_wall = statistics.median(traced_walls)
            plain_wall = statistics.median(s.wall_s for s in plain)
            metrics["bench.trace_overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
            notes["bench.trace_overhead_frac"] = (
                f"traced {traced_wall:.3f} s (n={len(traced_walls)}), untraced {plain_wall:.3f} s (n={len(plain)})"
            )
    else:
        for name, unit in END_TO_END:
            values = setup if name == "setup_s" else [getattr(s, name) for s in plain]
            if not values:
                continue
            metrics[name] = (statistics.median(values), unit)
            what = "fresh interpreters" if name == "setup_s" else "runs"
            note = f"median of n={len(values)} {what}"
            tail = tail_percentile(values)
            notes[name] = note + (f"; p{tail[0]:g} {tail[1]:.4f}" if tail else "; no percentile has 10 samples beyond it")
    return Result(workload, seed, argv, runs + len(setup_failures), failures, metrics, notes)


def print_result(result: Result, seconds: float, trace: bool) -> None:
    w = result.workload
    env = " ".join(f"{k}={v}" for k, v in w.env().items())
    print(f"workload {w.name}  seed {result.seed}  window {seconds:g} s  trace {int(trace)}")
    print(f"  run: PYTHONPATH=src {env} python3 -m vermatheta {' '.join(result.argv)}")
    for name, (value, unit) in result.metrics.items():
        note = result.notes.get(name, "")
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())
    failed = len(result.failures)
    print(f"  {'fail_frac':<44} {failed / result.attempted:>14.6g} ratio  {failed} of {result.attempted} runs failed")
    for failure in result.failures[:5]:
        print(f"  FAILED {failure}")
    if failed > 5:
        print(f"  ... and {failed - 5} more failures")
    print(json.dumps(result.as_json()), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=0, help="picks the highest weight; 0 is the default weight")
    parser.add_argument("--seconds", type=float, default=32.0, help="measurement window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # On SIGTERM, unwind so that the running CLI's process group is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "vermatheta" / "cli.py").is_file():
        sys.stderr.write("perfbench: src/vermatheta is missing; run from the root of a vermatheta checkout\n")
        return 2
    for name in args.workload or list(WORKLOADS):
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), root)
        print_result(result, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
