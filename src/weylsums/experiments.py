"""Seeded Monte Carlo experiments over torus coefficients.

"Almost all" statements are probed by uniform sampling with counter-based
per-sample streams: the master seed plus a sample id determine every random
draw, so a run is reproducible byte for byte regardless of the worker
count.  Evaluation happens on the dyadic schedule N_i = 2^i; the completion
majorant is recorded next to each sum so that behaviour between schedule
points stays controlled.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .census import _census_cost, census, counting_bound, grid_sides
from .discrepancy import _sweep_values, _window_discrepancies
from .errors import ConfigError, check_cost
from .expsum import (
    TorusPoint,
    WeightSeq,
    _expi_bytes,
    _majorant,
    _phase_rows,
    _quantize_array,
    _reduce_rows,
    _slab_terms,
    _sum_trace,
    _twisted,
    _twisted_coeffs,
    raw_phases,
    sup_linear_coeff,
)
from .polyfam import IntPolynomial, PolynomialFamily, classical_family, parse_family

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentConfig",
    "RunRecord",
    "FitResult",
    "metric_sweep",
    "exponent_fit",
    "dimension_scan",
    "write_csv",
    "write_jsonl",
]

SCHEMA_VERSION = 1

_KINDS = ("weyl", "short", "discrepancy", "discrepancy_short")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; picklable and hashable."""

    kind: str = "weyl"
    family: str = "classical:2"
    k: int | None = None
    log2_n_min: int = 8
    log2_n_max: int = 14
    samples: int = 100
    seed: int = 0
    alphas: tuple[str, ...] = ("0.75",)
    eps: str = "0.05"
    samples_per_box: int = 4
    m_samples: int = 8
    y_samples: int = 16
    threads: int = 1
    experiment_id: str = "exp"
    out_csv: str | None = None
    out_jsonl: str | None = None

    def schedule(self) -> list[int]:
        return [1 << i for i in range(self.log2_n_min, self.log2_n_max + 1)]

    def family_obj(self) -> PolynomialFamily:
        return parse_family(self.family, k=self.k)

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            want = {"str": str, "int": int, "tuple[str, ...]": tuple}[kind]
            # exact types: a bool is not an int, and the alphas are strings
            if not (value is None and optional or type(value) is want
                    and (want is not tuple or all(type(a) is str for a in value))):
                raise ConfigError(f"config key {f.name!r} must be {f.type}, got {value!r}")
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.log2_n_min < 0:
            raise ConfigError(f"log2_n_min must be >= 0, got {self.log2_n_min}")
        if self.log2_n_min > self.log2_n_max:
            raise ConfigError("schedule must be strictly increasing (log2_n_min <= log2_n_max)")
        if self.samples < 1:
            raise ConfigError("sample count must be >= 1")
        if self.m_samples < 1 or self.y_samples < 1:
            raise ConfigError("m_samples and y_samples must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        try:
            fam = self.family_obj()
        except (ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad family spec {self.family!r}: {exc}") from exc
        k = self.k if self.k is not None else fam.d
        if not 1 <= k <= fam.d:
            raise ConfigError(f"k={k} out of range 1..{fam.d}")
        if self.kind == "short" and fam.d < 2:
            raise ConfigError("kind 'short' needs d >= 2: its supremum runs over the lower coefficients")
        if self.kind == "short" and fam.polys != classical_family(fam.d).polys:
            raise ConfigError(f"kind 'short' runs on classical:{fam.d} only, got {self.family!r}")
        if self.kind in ("discrepancy", "discrepancy_short") and k != fam.d:  # they draw all d coordinates
            raise ConfigError(f"kind {self.kind!r} measures D at one full point: k must be {fam.d}, got {k}")
        try:
            alphas, eps = [Fraction(a) for a in self.alphas], Fraction(self.eps)
        except (ValueError, ZeroDivisionError) as exc:  # "x" or "1/0"
            raise ConfigError(f"bad alpha or eps: {exc}") from exc
        for a in alphas:
            if not 0 < a < 1:
                raise ConfigError(f"alpha={a} outside (0, 1)")
        if eps <= 0:
            raise ConfigError("eps must be positive")
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        # floats from TOML/JSON normalize through their decimal repr so the
        # exact-rational grid parameters agree with CLI string flags
        if "alphas" in data:
            data = dict(data, alphas=tuple(str(a) for a in data["alphas"]))
        if "eps" in data:
            data = dict(data, eps=str(data["eps"]))
        if "family" in data and not isinstance(data["family"], str):
            data = dict(data, family=json.dumps(data["family"]))
        return cls(**data).validate()

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            text = open(path, "rb").read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            if path.endswith(".json"):
                data = json.loads(text)
            else:
                try:
                    import tomllib  # Python >= 3.11
                except ModuleNotFoundError:
                    import tomli as tomllib
                data = tomllib.loads(text.decode())
        except Exception as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a table/object")
        return cls.from_dict(data)

    def override(self, **kwargs) -> "ExperimentConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs).validate()


@dataclass(frozen=True)
class RunRecord:
    """One experiment observation; append-only, schema-versioned."""

    experiment_id: str
    sample_id: int
    coords: tuple[float, ...]
    N: int
    stat: str
    value: float
    extras: tuple[tuple[str, float], ...] = ()
    schema_version: int = SCHEMA_VERSION

    @property
    def log2_n(self) -> float:
        return math.log2(self.N)

    @property
    def log2_value(self) -> float:
        return math.log2(self.value) if self.value > 0 else float("-inf")

    def to_json(self) -> dict:
        out = {
            "experiment": self.experiment_id,
            "schema": self.schema_version,
            "sample": self.sample_id,
            "coords": list(self.coords),
            "N": self.N,
            "stat": self.stat,
            "value": self.value,
            "log2_n": self.log2_n,
            "log2_value": self.log2_value,
        }
        out.update(dict(self.extras))
        return out


# ---------------------------------------------------------------------------
# Per-sample work (pure; runs in worker processes)


def _sample_rng(seed: int, sample_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=((int(seed) & ((1 << 64) - 1)) << 64) | sample_id))


def _split_family(cfg: ExperimentConfig) -> tuple[PolynomialFamily, int]:
    """The family and split index the sample runs on.

    The window start M of a short sum only shuffles the lower coefficients,
    and the supremum runs over all of them, so the ``short`` statistic is
    sup_y |T| for (T^d, T, ..., T^(d-1)) split at k = 1, evaluated once per N.
    """
    fam = cfg.family_obj()
    if cfg.kind == "short":
        d = fam.d
        polys = [IntPolynomial.monomial(d)] + [IntPolynomial.monomial(j) for j in range(1, d)]
        return PolynomialFamily(polys, k=1), 1
    return fam, cfg.k if cfg.k is not None else fam.d


def _certified(fam: PolynomialFamily, k: int) -> bool:
    """Whether ``sup_linear_coeff`` certifies the sup over y: one linear coefficient."""
    return fam.d - k == 1 and fam.degrees[-1] == 1


def _run_sample(cfg: ExperimentConfig, sid: int) -> list[RunRecord]:
    fam, k = _split_family(cfg)
    rng = _sample_rng(cfg.seed, sid)
    schedule = cfg.schedule()
    records: list[RunRecord] = []

    n_max = schedule[-1]
    if cfg.kind == "weyl" and k == fam.d:
        coords = tuple(rng.random(fam.d))
        c = _twisted_coeffs(fam.polys, TorusPoint.from_reals(coords).raw, None, n_max)  # unit weights
        trace = _sum_trace(c)
        for N in schedule:
            prefix = trace.dyadic_prefix_max[int(math.log2(N))]
            w = float(_majorant(c[:N]))
            records.append(
                RunRecord(cfg.experiment_id, sid, coords, N, "prefix_max_T", prefix,
                          extras=(("w", w),))
            )
    elif cfg.kind in ("weyl", "short"):
        if cfg.kind == "weyl":
            x = tuple(rng.random(fam.d))[:k]  # the y block is re-drawn only in grid mode
            stat = "sup_y_T"
        else:
            x = (float(rng.random()),)
            stat = "sup_short_S"
        c = _twisted_coeffs(fam.polys[:k], TorusPoint.from_reals(x).raw, None, n_max)
        if _certified(fam, k):
            for N in schedule:
                res = sup_linear_coeff(c[:N])
                records.append(
                    RunRecord(cfg.experiment_id, sid, x, N, stat, res.grid_max,
                              extras=(("certified_upper", res.certified_upper),
                                      ("argmax_y", res.argmax_y), ("certified", 1.0)))
                )
        else:
            # one draw in the per-N, per-y order of the stream
            ys = _quantize_array(rng.random((len(schedule), cfg.y_samples, fam.d - k)))
            lipschitz = _lipschitz_terms(fam.polys[k:], n_max, cfg.y_samples)
            for N, yraws in zip(schedule, ys):
                value = _grid_sup_y(fam.polys[k:], c[:N], yraws)
                slack = min(float(lipschitz[N - 1]), max(N - value, 0.0))  # sum |a_n| = N
                records.append(
                    RunRecord(cfg.experiment_id, sid, x, N, stat, value,
                              extras=(("continuity_slack", slack), ("certified", 0.0)))
                )
    elif cfg.kind == "discrepancy":
        coords = tuple(rng.random(fam.d))
        raw = raw_phases(fam.polys, TorusPoint.from_reals(coords).raw, n_max)
        for N in schedule:
            dv = float(_sweep_values(np.sort(raw[None, :N], axis=1))[0])
            records.append(
                RunRecord(cfg.experiment_id, sid, coords, N, "D", dv,
                          extras=_disc_ratios(dv, N))
            )
    elif cfg.kind == "discrepancy_short":
        coords = tuple(rng.random(fam.d))
        raw = TorusPoint.from_reals(coords).raw
        polys = classical_family(len(raw)).polys
        for N in schedule:
            # scalar draws: one integers(size=m) call draws a different stream
            ms = [int(rng.integers(0, max(N, 1))) for _ in range(cfg.m_samples)]
            values = _window_discrepancies(polys, raw, ms, N)
            j = int(np.argmax(values))  # the first window of the largest value
            best, best_m = float(values[j]), ms[j]
            records.append(
                RunRecord(cfg.experiment_id, sid, coords, N, "D_short", best,
                          extras=_disc_ratios(best, N) + (("m", float(best_m)),))
            )
    else:  # pragma: no cover - validate() rejects earlier
        raise ConfigError(f"unknown kind {cfg.kind!r}")
    return records


def _disc_ratios(dv: float, N: int) -> tuple[tuple[str, float], ...]:
    r1 = dv / math.sqrt(N)
    r2 = r1 / math.log(N) ** 1.5 if N > 1 else r1
    return (("ratio_sqrt", r1), ("ratio_sqrt_log", r2))


def _grid_sup_y(ypolys, c: np.ndarray, yraws: np.ndarray) -> float:
    """max over the rows y of yraws[B, d-k] of |sum_n c_n e(sum_j y_j phi_j(n))|.

    Each row is summed whole, slab by slab of rows.
    """
    s = _reduce_rows(*_phase_rows(ypolys, yraws, len(c)), _twisted(lambda slab: slab.sum(axis=1), c), np.complex128)
    return float(np.hypot(s.real, s.imag).max())


def _lipschitz_terms(ypolys, n_max: int, y_samples: int) -> np.ndarray:
    """The Lipschitz slack pi * h * sum_j sum_{n<=N} |phi_j(n)|, N = 1..n_max.

    h = y_samples^(-1/(d-k)) is the mean spacing of the sampled y per axis.
    """
    h = y_samples ** (-1.0 / len(ypolys))
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    reach = sum(np.abs(np.polynomial.polynomial.polyval(ns, p.coeffs)) for p in ypolys)
    return math.pi * h * np.cumsum(reach)


# ---------------------------------------------------------------------------
# The sweep driver


def metric_sweep(cfg: ExperimentConfig) -> list[RunRecord]:
    """Run the configured experiment and return records in (sample, N) order.

    The per-sample work items are independent; with threads > 1 they run in
    a process pool of at most min(threads, samples, cpu count) workers, and
    the deterministic per-sample streams plus ordered collection make the
    output identical to a single-threaded run.
    """
    cfg = cfg.validate()
    fam, k = _split_family(cfg)
    schedule = cfg.schedule()
    n, y, m = schedule[-1], cfg.y_samples, cfg.m_samples  # one sample's arrays at the longest N
    if cfg.kind == "discrepancy":  # the phases, a sorted prefix, N x, an arange and one temporary
        per, peak = 1, 52 * n
    elif cfg.kind == "discrepancy_short":  # 32 bytes a term of a slab of whole windows, 16 a point of one, 48 a start
        per, peak = m, 32 * _slab_terms(m, n) + 16 * n + 48 * m
    elif k == fam.d:
        per, peak = 1, 48 * n + _expi_bytes(n)
    elif _certified(fam, k):  # sup_linear_coeff's default oversample of 4
        per, peak = 4, 176 * n + _expi_bytes(n)
    else:  # the x part, 48 bytes a term of one slab of y rows, 24 a y draw and 24 a row sum at one N
        block = _slab_terms(y, n)
        per, peak = y, 16 * n + 48 * block + 24 * (len(schedule) * (fam.d - k) + 1) * y + _expi_bytes(block)
    check_cost("metric_sweep", cfg.samples * sum(schedule) * per,
               peak + (512 * len(schedule) + 128) * cfg.samples + (1 << 14))  # and every record
    sids = range(cfg.samples)
    workers = min(cfg.threads, cfg.samples, os.cpu_count() or 1)
    # each sample's list is freed once its records are moved into the result
    if workers == 1:
        return list(chain.from_iterable(_run_sample(cfg, sid) for sid in sids))
    # the pool starts every worker at once, so more than one per CPU or
    # per sample only costs start-up time and memory; its import is paid only here
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(chain.from_iterable(pool.map(_run_sample, [cfg] * cfg.samples, sids, chunksize=4)))


class FitResult(NamedTuple):
    slope: float
    intercept: float
    r2: float


def exponent_fit(records: Iterable[RunRecord]) -> FitResult:
    """Least squares of log2(value) against log2(N) for one sample's records."""
    pts = [(r.log2_n, r.log2_value) for r in records]
    if len(pts) < 3:
        raise ValueError("need at least 3 records to fit")
    if any(not math.isfinite(y) for _, y in pts):
        raise ValueError("all values must be positive")
    xs, ys = np.array(pts).T
    if np.ptp(xs) == 0:
        raise ValueError("records share a single N; fit is degenerate")
    slope = _slope(xs, ys)
    xm, ym = xs.mean(), ys.mean()
    intercept = float(ym - slope * xm)
    ss_res = float(np.sum((ys - intercept - slope * xs) ** 2))
    ss_tot = float(np.sum((ys - ym) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return FitResult(slope, intercept, r2)


def _slope(xs: np.ndarray, ys: np.ndarray) -> float:
    """The least-squares slope of ys against xs."""
    xm, ym = xs.mean(), ys.mean()
    return float(np.sum((xs - xm) * (ys - ym)) / np.sum((xs - xm) ** 2))


def fit_by_sample(records: Sequence[RunRecord]) -> dict[int, FitResult]:
    by_sample: dict[int, list[RunRecord]] = {}
    for rec in records:
        by_sample.setdefault(rec.sample_id, []).append(rec)
    return {sid: exponent_fit(recs) for sid, recs in sorted(by_sample.items())}


# ---------------------------------------------------------------------------
# Census-driven scans


def dimension_scan(cfg: ExperimentConfig) -> dict:
    """Box-count the marked sets across the schedule and fit dimension proxies.

    For each alpha the marked count is fitted against the box scale
    (geometric mean of the sides); the slope is an empirical box-dimension
    proxy reported next to the split index k, never asserted.
    """
    cfg = cfg.validate()
    fam = cfg.family_obj()
    k = cfg.k if cfg.k is not None else fam.d
    grids = {(alpha, N): grid_sides(fam, N, Fraction(alpha), Fraction(cfg.eps))
             for alpha in cfg.alphas for N in cfg.schedule()}
    # the censuses run one after another: their terms add up, their peaks do not
    costs = [_census_cost(g, cfg.samples_per_box) for g in grids.values()]
    check_cost("dimension_scan", sum(t for t, _ in costs), max(b for _, b in costs))

    rows = []
    fits = {}
    for alpha in cfg.alphas:
        pts = []
        for N in cfg.schedule():
            grid = grids[(alpha, N)]
            res = census(fam, WeightSeq.unit(), grid, cfg.samples_per_box, cfg.seed)
            delta = math.prod(float(z) for z in grid.sides) ** (1.0 / fam.d)
            rows.append(
                {
                    "alpha": float(Fraction(alpha)),
                    "N": N,
                    "marked": res.marked,
                    "U": grid.U,
                    "bound": counting_bound(grid, Fraction(alpha)),
                    "delta": delta,
                    "threshold_k": k,
                }
            )
            if res.marked > 0:
                pts.append((math.log2(1.0 / delta), math.log2(res.marked)))
        fits[alpha] = _slope(*np.array(pts).T) if len(pts) >= 2 else None
    return {"rows": rows, "dimension_proxy": fits, "threshold_k": k}


# ---------------------------------------------------------------------------
# Emission


def _extra_columns(records: Sequence[RunRecord]) -> list[str]:
    cols: list[str] = []
    for rec in records:
        for key, _ in rec.extras:
            if key not in cols:
                cols.append(key)
    return cols


def csv_lines(records: Sequence[RunRecord], cfg: ExperimentConfig):
    """Yield the CSV lines: seed-echoing header comment, column row, records."""
    cols = _extra_columns(records)
    yield f"# weylsums schema={SCHEMA_VERSION} experiment={cfg.experiment_id} seed={cfg.seed}"
    yield ",".join(["experiment", "schema", "sample", "N", "stat", "value",
                    "log2_n", "log2_value", "coords"] + cols)
    for rec in records:
        extras = dict(rec.extras)
        row = [
            rec.experiment_id,
            str(rec.schema_version),
            str(rec.sample_id),
            str(rec.N),
            rec.stat,
            _fmt(rec.value),
            _fmt(rec.log2_n),
            _fmt(rec.log2_value),
            ";".join(_fmt(c) for c in rec.coords),
        ]
        row += [_fmt(extras[c]) if c in extras else "" for c in cols]
        yield ",".join(row)


def write_csv(records: Sequence[RunRecord], path: str, cfg: ExperimentConfig) -> None:
    """CSV with a seed-echoing header comment; floats at 17 significant digits."""
    with open(path, "w") as fh:
        for line in csv_lines(records, cfg):
            fh.write(line + "\n")


def write_jsonl(records: Sequence[RunRecord], path: str, cfg: ExperimentConfig) -> None:
    """JSON-lines: one header object, then one object per record."""
    with open(path, "w") as fh:
        header = {"header": True, "schema": SCHEMA_VERSION,
                  "experiment": cfg.experiment_id, "seed": cfg.seed}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")
