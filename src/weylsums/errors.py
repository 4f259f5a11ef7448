"""Exception types shared across the package, the one cost check, and the one gate of integer arguments."""

import operator

import numpy as np

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


def whole(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """The one gate of an integer argument: ``value`` as an int in [lo, hi], ``ValueError`` naming it otherwise.

    2.5, 2.0, "2" and True are refused, not truncated, parsed or read as 1; a numpy integer comes back as an int.
    """
    try:
        if not isinstance(value, bool):
            value = operator.index(value)
    except TypeError:
        pass
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{name} must be <= {hi}, got {value}")
    return value


def whole_array(name: str, values, lo: int | None = None, hi: int | None = None) -> np.ndarray:
    """The gate of an array of integers: a numpy integer array as it is (unchecked, the fast path), anything
    else entry by entry through ``whole``, as an object array of ints, so that an array of floats, strings
    or bools is refused by name as one such scalar is, not truncated or cast."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    values = np.asarray(values, dtype=object)
    return np.array([whole(name, value, lo, hi) for value in values.flat], dtype=object).reshape(values.shape)
