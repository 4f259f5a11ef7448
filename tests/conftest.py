import importlib

import numpy as np
import pytest

from weylsums import errors
from weylsums.expsum import SumTrace, _expi, raw_phases

# every module whose entry points call errors.check_cost
COST_MODULES = [importlib.import_module(f"weylsums.{name}")
                for name in ("expsum", "discrepancy", "census", "experiments", "polyfam")]


@pytest.fixture
def declared(monkeypatch):
    """The (what, terms, peak_bytes) of every cost check, in call order; the checks still run."""
    calls = []

    def record(what, terms, peak_bytes):
        calls.append((what, terms, peak_bytes))
        errors.check_cost(what, terms, peak_bytes)

    for module in COST_MODULES:
        monkeypatch.setattr(module, "check_cost", record)
    return calls


class _Admitted(Exception):
    pass


@pytest.fixture
def admitted(monkeypatch):
    """admitted(fn, *args): whether fn(*args) passes its own cost check, the one named fn.__name__.

    Nothing past that check runs, so a boundary can be pinned at sizes that
    would take minutes or gigabytes to run.  Checks it passes on the way
    (a family's size) run as usual.
    """
    stop_at = None

    def check_then_stop(what, terms, peak_bytes):
        errors.check_cost(what, terms, peak_bytes)
        if what == stop_at:
            raise _Admitted

    for module in COST_MODULES:
        monkeypatch.setattr(module, "check_cost", check_then_stop)

    def run(fn, *args, **kwargs):
        nonlocal stop_at
        stop_at = fn.__name__
        try:
            fn(*args, **kwargs)
        except _Admitted:
            return True
        except errors.BudgetError:
            return False
        raise AssertionError(f"{fn.__name__} returned without a cost check")

    return run


def whole_row(polys, raws, N, a=None, start=0):
    """a_n e(f(n)) at n = s+1..s+N, the whole row at once: every phase from ``raw_phases``, e(theta) from
    ``_expi``, times the weights ``a`` (an array or a scalar; None for unit weights).  The oracle of the
    one-point sums, which take their rows from the walker instead."""
    c = _expi(raw_phases(polys, raws, N, start))
    if a is not None:
        c *= a
    return c


def whole_row_trace(c) -> SumTrace:
    """The value and prefix record of sum_n c_n from one cumsum of the whole row, the oracle of ``weyl_sum``."""
    N = len(c)
    cum = np.cumsum(c)
    mags = np.abs(cum)
    running = np.maximum.accumulate(mags)
    powers = [(1 << i) - 1 for i in range(N.bit_length()) if (1 << i) <= N]
    return SumTrace(value=complex(cum[-1]), N=N, prefix_max=float(running[-1]),
                    dyadic_prefixes=tuple(float(mags[p]) for p in powers),
                    dyadic_prefix_max=tuple(float(running[p]) for p in powers))
