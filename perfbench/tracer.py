"""Per-layer tracing of the vermatheta CLI, taken from outside the program.

Run as ``python3 perfbench/tracer.py SPANS_DIR <cli arguments>``: it wraps
each layer's public functions, runs ``vermatheta.cli.main`` like
``python3 -m vermatheta`` does, and writes the spans to SPANS_DIR as JSON
lines.  The report on stdout and the exit code are the CLI's own.

A wrapper replaces the function in every vermatheta module that binds it, so
callers that did ``from .x import y`` call the wrapper too.  Pool workers
inherit the wrappers through fork and append their spans after each task,
because they exit without running any cleanup.

A span is ``[name, start, end, parent, extra]``: perf_counter times, the
index of the enclosing span in the same batch (-1 at the top) and a size
taken from the call, such as a matrix's (rows, cols).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter


def _shape(matrix):
    return (matrix.rows, matrix.cols)


# (module, attribute, span name, extra taken from (args, result))
TARGETS = (
    ("verma", "VermaModule.__init__", "verma.VermaModule", None),
    ("verma", "VermaModule.apply_gen", "verma.apply_gen", None),
    ("verma", "VermaModule.operator_matrix", "verma.operator_matrix", lambda a, r: _shape(r)),
    ("exactalg", "rank", "exactalg.rank", lambda a, r: _shape(a[0])),
    ("exactalg", "kernel_basis", "exactalg.kernel_basis", lambda a, r: _shape(a[0])),
    ("branching", "branching_table", "branching.branching_table", lambda a, r: len(r.terms)),
    ("branching", "kappa_spectrum", "branching.kappa_spectrum", lambda a, r: len(r)),
    ("branching", "trace_brute_force", "branching.trace_brute_force", None),
    ("branching", "trace_from_branching", "branching.trace_from_branching", None),
    ("theta", "verify_identity", "theta.verify_identity", None),
    ("theta", "closed_form_with_notes", "theta.closed_form_with_notes", lambda a, r: len(r[0])),
    ("qseries", "FormalSeries.equal_on", "qseries.equal_on", None),
    ("cli", "_verify_task", "cli.verify_task", None),
    ("cli", "render_report", "cli.render_report", lambda a, r: len(r.encode())),
)

PACKAGE_MODULES = ("verma", "exactalg", "branching", "theta", "qseries", "cli")


class Recorder:
    """Spans of one process, kept in memory until a batch is complete."""

    def __init__(self, spans_dir: Path):
        self.spans_dir = spans_dir
        self.spans: list = []
        self.stack: list[int] = []
        self.root_pid = os.getpid()

    def wrap(self, name: str, fn, extra=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = [name, start, perf_counter(), parent, None]
                stack.pop()
            if extra:
                spans[index][4] = extra(args, result)
            if not stack and os.getpid() != self.root_pid:
                self.flush()
            return result

        return wrapper

    def forget(self) -> None:
        """Drop the spans a forked worker inherited from its parent."""
        self.spans.clear()
        self.stack.clear()

    def flush(self) -> None:
        if not self.spans:
            return
        path = self.spans_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as out:
            out.write(json.dumps(self.spans) + "\n")
        self.spans.clear()


def install(recorder: Recorder) -> None:
    modules = [importlib.import_module(f"vermatheta.{m}") for m in PACKAGE_MODULES]
    modules.append(importlib.import_module("vermatheta"))
    for module_name, attr, span_name, extra in TARGETS:
        owner = importlib.import_module(f"vermatheta.{module_name}")
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(owner, class_name)
            setattr(cls, method, recorder.wrap(span_name, getattr(cls, method), extra))
            continue
        original = getattr(owner, attr)
        wrapper = recorder.wrap(span_name, original, extra)
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, wrapper)


def read_batches(spans_dir: Path) -> list:
    batches = []
    for path in sorted(spans_dir.glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as lines:
            batches.extend(json.loads(line) for line in lines)
    return batches


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one process nest, so the direct children of a span cover
    disjoint parts of its interval.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


#: Per-layer metrics, named <module>.<function>.<stat>.  A ``calls`` or
#: ``self_s`` stat comes from the spans of that name; the rest are sizes.
LAYER_METRICS = (
    "verma.apply_gen.calls", "verma.apply_gen.self_s",
    "verma.operator_matrix.calls", "verma.operator_matrix.self_s",
    "verma.operator_matrix.entries", "verma.operator_matrix.max_dim",
    "verma.modules_built",
    "exactalg.rank.calls", "exactalg.rank.self_s",
    "exactalg.kernel_basis.calls", "exactalg.kernel_basis.self_s",
    "exactalg.ops_computed",
    "branching.branching_table.calls", "branching.branching_table.self_s",
    "branching.branching_table.weight_spaces", "branching.branching_table.terms",
    "branching.kappa_spectrum.calls", "branching.kappa_spectrum.self_s",
    "branching.kappa_spectrum.hit_ratio",
    "branching.trace_brute_force.calls", "branching.trace_brute_force.self_s",
    "branching.trace_from_branching.self_s",
    "theta.verify_identity.calls", "theta.verify_identity.max_s",
    "theta.closed_form_with_notes.self_s", "theta.closed_form_with_notes.terms",
    "qseries.equal_on.calls", "qseries.equal_on.self_s",
    "cli.verify_task.busy_frac", "cli.render_report.self_s", "cli.report_bytes",
)


def layer_metrics(batches, jobs: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run from its span batches.

    ``wall_s`` is the time the CLI's ``main`` took, so that
    ``cli.verify_task.busy_frac`` is task time over jobs x wall.
    """
    calls: Counter = Counter()
    self_s: Counter = Counter()
    entries = max_dim = ops = weight_spaces = table_terms = 0
    eigenvalues = kappa_ranks = closed_terms = report_bytes = 0
    verify_max = task_s = 0.0
    for spans in batches:
        for (name, start, end, parent, extra), own in zip(spans, self_times(spans)):
            calls[name] += 1
            self_s[name] += own
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "theta.verify_identity":
                verify_max = max(verify_max, end - start)
            elif name == "cli.verify_task":
                task_s += end - start
            elif extra is None:  # not a sized span, or the call raised
                continue
            elif name == "verma.operator_matrix":
                entries += extra[0] * extra[1]
                max_dim = max(max_dim, *extra)
                if parent_name == "branching.branching_table":
                    weight_spaces += 1
            elif name in ("exactalg.rank", "exactalg.kernel_basis"):
                ops += extra[0] * extra[1] * min(extra)
                if name == "exactalg.rank" and parent_name == "branching.kappa_spectrum":
                    kappa_ranks += 1
            elif name == "branching.branching_table":
                table_terms += extra
            elif name == "branching.kappa_spectrum":
                eigenvalues += extra
            elif name == "theta.closed_form_with_notes":
                closed_terms += extra
            elif name == "cli.render_report":
                report_bytes += extra
    sizes = {
        "verma.operator_matrix.entries": entries,
        "verma.operator_matrix.max_dim": max_dim,
        "verma.modules_built": calls["verma.VermaModule"],
        "exactalg.ops_computed": ops,
        "branching.branching_table.weight_spaces": weight_spaces,
        "branching.branching_table.terms": table_terms,
        "branching.kappa_spectrum.hit_ratio": eigenvalues / kappa_ranks if kappa_ranks else 0.0,
        "theta.verify_identity.max_s": verify_max,
        "theta.closed_form_with_notes.terms": closed_terms,
        "cli.verify_task.busy_frac": task_s / (jobs * wall_s) if wall_s else 0.0,
        "cli.report_bytes": report_bytes,
    }
    out = {}
    for metric in LAYER_METRICS:
        span, _, stat = metric.rpartition(".")
        out[metric] = calls[span] if stat == "calls" else self_s[span] if stat == "self_s" else sizes[metric]
    return out


def main(argv: list[str]) -> int:
    spans_dir, cli_argv = Path(argv[0]), argv[1:]
    from vermatheta import cli

    recorder = Recorder(spans_dir)
    install(recorder)
    os.register_at_fork(after_in_child=recorder.forget)
    start = perf_counter()
    code = cli.main(cli_argv)
    wall_s = perf_counter() - start
    recorder.flush()
    (spans_dir / "main.json").write_text(json.dumps({"wall_s": wall_s}), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
