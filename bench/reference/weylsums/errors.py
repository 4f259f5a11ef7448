"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration file or CLI argument is invalid."""


class BudgetError(RuntimeError):
    """A requested computation exceeds its declared operation budget."""


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
