"""A property test over ``cli.main``: whatever argv and config file a command
is given, ``main`` returns 0, 1 or 2 and raises nothing, a refusal is one
``error:`` line with nothing on stdout, and no run outlasts a short limit.

Weights mix small fractions, integers far past the genericity guard's band,
4,300-digit numerators and denominators, exponent strings near 4,300,
negatives and malformed text.  Depths and windows stay small, except values
aimed at the caps, which are refused before any work.
"""

import contextlib
import io
import resource
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from vermatheta.cli import JOBS_ENV, main
from vermatheta.theta import ClosedFormId

#: The longest a drawn run may take; an admitted run here takes well under 1 s.
LIMIT_S = 4.0
#: The most memory the runs may add to the process.  A walk down a far root
#: string can allocate inside one long call, past the reach of the timer.
LIMIT_BYTES = 1 << 30


class RanOutOfTime(Exception):
    pass


def _on_alarm(signum, frame):
    raise RanOutOfTime(f"main ran past {LIMIT_S} s")


# non-integral, so that most weights pass the genericity guard
SMALL = st.builds(lambda n, r, q: f"{n * q + r}/{q}", st.integers(-6, 6), st.integers(1, 2),
                  st.sampled_from([3, 7]))
NATURAL = st.integers(0, 3).map(str)
# integral L-parts around the cap 453, and far past it
FAR = st.sampled_from(["453", "-453", "454", "-454", "100000", "1e30", "-1e6", "1e4299"])
FAR_NATURAL = st.sampled_from(["453", "454", "100000", "1e30"])
# 4,300 digits, the most a numerator or denominator may have
DIGITS = st.sampled_from([
    f"{3 * 10**4299 + 1}/3",
    f"{10**4299 + 1}/3",
    f"1/{10**4299 + 7}",
    f"-{10**4299 + 3}/{10**4299 + 9}",
])
WEIGHT = st.one_of(SMALL, FAR, DIGITS)
SMALL_SIZE = st.integers(0, 3).map(str)

#: Values that each key refuses: malformed text, numbers past the digit limit,
#: and sizes aimed at the depth and window caps.
FAULTS = {
    "module": st.sampled_from(["affine", ""]),
    "lambda1": st.sampled_from(["abc", "1/0", "", "-", "1//2", "nan", "inf", "7/3/2", "1e",
                                "1e4301", "-7e4300", "1e-4300", "1" + "0" * 4300,
                                "1/" + "9" * 4301]),
    "depth": st.sampled_from(["151", "1000000", "-1", "x", "2.5", ""]),
    "lambda_samples": st.sampled_from(["", ";", "1/3", "1/3,2/3,1", "abc,1", "1/3,1e4301"]),
}
FAULTS.update(lambda2=FAULTS["lambda1"], B=st.sampled_from(["302", "-1", "x"]),
              D=st.sampled_from(["1000000", "-1", "x"]), T=st.sampled_from(["1000000", "-1", "x"]))


def draw_values(data, command: str) -> dict:
    """A config for ``command`` that is mostly admissible, with at most one
    value replaced by a fault."""
    kind = data.draw(st.sampled_from(["borel", "parabolic"]))
    values = {
        "module": kind,
        "lambda1": data.draw(WEIGHT),
        "lambda2": data.draw(st.one_of(NATURAL, FAR_NATURAL) if kind == "parabolic" else WEIGHT),
        "depth": data.draw(st.integers(0, 4).map(str)),
        "B": data.draw(SMALL_SIZE),
        "D": data.draw(SMALL_SIZE),
        "T": data.draw(SMALL_SIZE),
    }
    if command in ("trace", "verify") and data.draw(st.booleans()):
        # the first sample draws from every weight, the others are small
        pairs = [(data.draw(WEIGHT), data.draw(WEIGHT))]
        pairs += data.draw(st.lists(st.tuples(SMALL, SMALL), min_size=2, max_size=2))
        if kind == "parabolic":
            pairs = [(l1, values["lambda2"]) for l1, _ in pairs]
        values["lambda_samples"] = ";".join(f"{a},{b}" for a, b in pairs)
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(FAULTS)))
        values[key] = data.draw(FAULTS[key])
    return values


#: Each command, and each root of those that take one, is a test case of its own.
COMMANDS = [["character"], ["verify"]] + [
    [command, "--root", root]
    for command in ("branch", "spectrum", "trace")
    for root in ("12", "23", "13")
]
# the arguments of a command past its root
EXTRA_ARGS = {
    "trace": st.builds(
        lambda pipeline, regularized: ["--pipeline", pipeline, *regularized],
        st.sampled_from(["brute", "branching", "closed", "all"]),
        st.sampled_from([[], ["--regularized"]]),
    ),
    "verify": st.one_of(
        st.just(["--all"]),
        st.lists(st.sampled_from([i.value for i in ClosedFormId]), min_size=1, max_size=2).map(
            lambda ids: [arg for i in ids for arg in ("--identity", i)]
        ),
    ),
}


@contextlib.contextmanager
def capped_address_space():
    """Cap this process's address space at its size now plus ``LIMIT_BYTES``,
    so that a run that allocates without end raises MemoryError."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    size = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    cap = size + LIMIT_BYTES if hard == resource.RLIM_INFINITY else min(size + LIMIT_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_main(argv):
    """``main(argv)``'s exit code, stdout and stderr, under the time limit."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    # the alarm repeats, since one that lands in a garbage-collector callback
    # is reported and dropped rather than raised
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S, 0.1)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def draw_run(data, command: list):
    """Run ``command`` with drawn arguments, each given as a flag, as a config
    line or, for the weight, left to its default."""
    argv = [*command, *data.draw(EXTRA_ARGS.get(command[0], st.just([])))]
    values = draw_values(data, command[0])
    places = {key: data.draw(st.sampled_from(
        ["flag", "config", None] if key in ("lambda1", "lambda2") else ["flag", "config"]
    )) for key in values}
    argv += [f"--{key.replace('_', '-')}={values[key]}" for key in values if places[key] == "flag"]
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"{key} = {values[key]}" for key in values if places[key] == "config"]
        if lines:
            config = Path(tmp) / "run.cfg"
            config.write_text("\n".join(lines) + "\n")
            argv += ["--config", str(config)]
        return run_main(argv)


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_main_exits_0_1_or_2_in_time(monkeypatch, command):
    monkeypatch.delenv(JOBS_ENV, raising=False)  # no worker process starts

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        code, out, err = draw_run(data, command)
        event(f"exit {code}")
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    with capped_address_space():
        check()
