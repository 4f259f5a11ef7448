import importlib

import pytest

from weylsums import errors

# every module whose entry points call errors.check_cost
COST_MODULES = [importlib.import_module(f"weylsums.{name}")
                for name in ("expsum", "discrepancy", "census", "experiments")]


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
    """admitted(fn, *args): whether fn(*args) passes its cost check.

    Nothing past the check runs, so a boundary can be pinned at sizes that
    would take minutes or gigabytes to run.
    """
    def check_then_stop(what, terms, peak_bytes):
        errors.check_cost(what, terms, peak_bytes)
        raise _Admitted

    for module in COST_MODULES:
        monkeypatch.setattr(module, "check_cost", check_then_stop)

    def run(fn, *args, **kwargs):
        try:
            fn(*args, **kwargs)
        except _Admitted:
            return True
        except errors.BudgetError:
            return False
        raise AssertionError(f"{fn.__name__} returned without a cost check")

    return run
