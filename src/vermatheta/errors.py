"""Exception hierarchy shared by all vermatheta modules."""


class UsageError(ValueError):
    """Caller misuse: incompatible dimensions, windows, or depth limits."""


class TruncationError(UsageError):
    """An operator matrix would need weight-space data beyond the depth cutoff."""


class DivergenceError(UsageError):
    """A geometric expansion cannot escape the requested window."""


class GenericityError(UsageError):
    """The highest weight fails the genericity guard for the requested depth."""


class VerificationError(RuntimeError):
    """An internal consistency check failed (this indicates a real bug or a
    wrong mathematical assumption, never bad user input)."""


#: The most characters of a refused input that an error message repeats.
SHOWN_CHARS = 60


def cut(text: str, limit: int = SHOWN_CHARS) -> str:
    """``text`` for an error message, cut after ``limit`` characters with the
    length of the whole added, so that a long refused input still gives a
    short line."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def shown(value) -> str:
    """``value``'s repr, cut as ``cut`` does."""
    return cut(repr(value))
