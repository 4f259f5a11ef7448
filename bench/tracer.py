"""Span tracer that wraps the package's public functions from outside.

Nothing in ``src/`` knows about it.  ``Tracer.install()`` replaces every
public module-level function of the traced modules with a timing wrapper,
in *every* module namespace that binds the function (``experiments``
imports ``census`` and ``weyl_sum`` by name, and the package re-exports
everything), so no call escapes into its caller's self time.  It also
counts a few work units that are not function calls: polynomial
evaluations, exact phases generated, Philox constructions and numpy FFT
points.  Counts go to the module of the innermost open span.

Modules are reached through ``sys.modules``: ``weylsums.census`` as an
attribute is the ``census`` *function*, because the package rebinds it.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict

MODULES = ("polyfam", "expsum", "exponents", "discrepancy", "census", "experiments", "cli")
PACKAGE = "weylsums"


def _module(short: str):
    return importlib.import_module(f"{PACKAGE}.{short}")


# Work counts derived from a call's bound arguments and result, keyed by
# "<module>.<function>"; each returns {measure: amount}.
HOOKS = {
    "expsum.weyl_sum": lambda a, r: {"terms": int(a["N"])},
    "expsum.completion_fft": lambda a, r: {"terms": int(a["N"])},
    "expsum.vinogradov_count": lambda a, r: {"tuples": int(a["N"]) ** int(a["s"])},
    "expsum.moment_integral": lambda a, r: {"grid_points": math.prod(int(g) for g in a["grid"])},
    "experiments.metric_sweep": lambda a, r: {"records": len(r)},
    "experiments.write_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "experiments.write_jsonl": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "discrepancy.poly_discrepancy": lambda a, r: {"points": int(a["N"])},
    "discrepancy.exact_discrepancy": lambda a, r: {"points": len(a["points"])},
    "census.census": lambda a, r: {"boxes": a["grid"].U, "samples": a["grid"].U * a["samples_per_box"],
                                   "marked": r.marked},
    "exponents.fixed_point": lambda a, r: {"iterations": len(r[1]) - 1},
}


class Tracer:
    """Collects span self times and work counts while installed."""

    def __init__(self):
        self.stack: list[list] = []  # [qualname, module, start, child_time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.measures: dict[str, int] = defaultdict(int)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.distinct_phases: dict[tuple, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, kind: str, amount: int = 1) -> None:
        owner = self.stack[-1][1] if self.stack else "none"
        self.counts[(owner, kind)] += amount

    def _wrap(self, qualname: str, module: str, fn):
        hook = HOOKS.get(qualname)
        sig = inspect.signature(fn) if hook else None
        stack, calls, self_s, measures = self.stack, self.calls, self.self_s, self.measures
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [qualname, module, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[2]
                self_s[qualname] += elapsed - frame[3]
                calls[qualname] += 1
                if stack:
                    stack[-1][3] += elapsed
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, amount in hook(bound.arguments, result).items():
                    measures[f"{qualname}.{key}"] += amount
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> "Tracer":
        import numpy as np

        mods = {short: _module(short) for short in MODULES}
        namespaces = list(mods.values()) + [sys.modules[PACKAGE]]
        wrappers = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj) or id(obj) in wrappers
                        or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                    continue
                # named by the definition, so an alias (cli_main = main) shares one span name
                wrappers[id(obj)] = self._wrap(f"{short}.{obj.__name__}", short, obj)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._set(ns, name, wrappers[id(obj)])

        poly_cls = mods["polyfam"].IntPolynomial
        poly_call = poly_cls.__call__

        def counted_call(p, n):
            self.count("poly_evals")
            return poly_call(p, n)

        self._set(poly_cls, "__call__", counted_call)

        table_cls = mods["expsum"].PhaseTable
        raw_phases = table_cls.raw_phases

        def counted_phases(table, N):
            self.count("phase_terms", int(N))
            key = table.registers
            self.distinct_phases[key] = max(self.distinct_phases.get(key, 0), int(N))
            return raw_phases(table, N)

        self._set(table_cls, "raw_phases", counted_phases)

        philox = np.random.Philox

        def counted_philox(*args, **kwargs):
            self.count("rng_streams")
            return philox(*args, **kwargs)

        self._set(np.random, "Philox", counted_philox)

        for name in ("fft", "ifft"):
            fft_fn = getattr(np.fft, name)

            def counted_fft(a, n=None, axis=-1, *args, _fn=fft_fn, **kwargs):
                arr = np.asarray(a)
                length = arr.shape[axis] if n is None else int(n)
                self.count("fft_calls")
                self.count("fft_points", length * (arr.size // max(arr.shape[axis], 1)))
                return _fn(a, n, axis, *args, **kwargs)

            self._set(np.fft, name, counted_fft)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- reporting ---------------------------------------------------------

    def total(self, kind: str) -> int:
        return sum(v for (_, k), v in self.counts.items() if k == kind)

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure this trace can give, by metric name."""
        out: dict[str, float] = {}
        for qualname, n in self.calls.items():
            out[f"{qualname}.calls"] = n
            out[f"{qualname}.self_s"] = self.self_s[qualname]
        out.update(self.measures)
        for (owner, kind), n in self.counts.items():
            out[f"{owner}.{kind}"] = n
        out["polyfam.poly_evals"] = self.total("poly_evals")
        phase_terms = self.total("phase_terms")
        out["expsum.phase_terms"] = phase_terms
        distinct = sum(self.distinct_phases.values())
        out["expsum.phase_reuse_ratio"] = distinct / phase_terms if phase_terms else 0.0
        boxes = self.measures.get("census.census.boxes", 0)
        marked = self.measures.get("census.census.marked", 0)
        out["census.marked_fraction"] = marked / boxes if boxes else 0.0
        return out

    def module_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for qualname, t in self.self_s.items():
            out[qualname.split(".", 1)[0]] += t
        return dict(out)
