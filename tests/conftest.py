import importlib

import pytest

from weylsums import errors

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
