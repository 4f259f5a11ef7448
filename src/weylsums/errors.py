"""Exception types shared across the package, and the one cost check."""

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
