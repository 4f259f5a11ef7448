"""Exception types shared across the package, the one cost check, and the checks of integer arguments."""

import operator

WORK_BUDGET = 1 << 31  # terms: a term costs from about 1 ns to about 100 ns, by route
MEMORY_BUDGET = 1 << 28  # bytes of peak memory, as tracemalloc counts them


class ConfigError(ValueError):
    """A configuration file or CLI argument is invalid."""


class BudgetError(RuntimeError):
    """A requested computation exceeds the work or the memory budget."""


def check_cost(what: str, terms: int, peak_bytes: int) -> None:
    """Refuse a call whose declared cost exceeds a budget; entry points call it before any work."""
    if terms > WORK_BUDGET:
        raise BudgetError(f"{what}: {terms} terms exceed the work budget of {WORK_BUDGET}")
    if peak_bytes > MEMORY_BUDGET:
        raise BudgetError(f"{what}: a peak of {peak_bytes} bytes exceeds the memory budget of {MEMORY_BUDGET}")


class Inapplicable(ValueError):
    """An exponent bound does not apply to the given family/split.

    Carries a human-readable reason; reports collect these instead of
    silently omitting values.
    """


class InvariantViolation(AssertionError):
    """A hard mathematical identity failed.

    These inequalities (Markov, per-box projection, completion identity)
    hold exactly; a violation indicates an implementation bug, not bad data.
    """


def _whole(name: str, value) -> int:
    """An integer argument as an int: 7.9, "7" and True are refused, not truncated, parsed or read as 1."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _terms(name: str, value) -> int:
    """A count of terms as an int, refused unless it is an integer >= 1."""
    value = _whole(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value
