"""Seeded Monte Carlo experiments over torus coefficients.

"Almost all" statements are probed by uniform sampling with counter-based
per-sample streams: the master seed plus a sample id determine every random
draw, so a run is reproducible byte for byte regardless of the worker
count or of how the samples are cut into blocks.  Evaluation happens on the
dyadic schedule N_i = 2^i, one N at a time over a block of samples; the
completion majorant is recorded next to each sum so that behaviour between
schedule points stays controlled.
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
from .discrepancy import _window_discrepancies
from .errors import ConfigError, check_cost
from .expsum import (
    TorusPoint,
    WeightSeq,
    _fft_split,
    _fold_weights,
    _majorant,
    _phase_rows,
    _prefix_scan,
    _quantize_array,
    _reduce_rows,
    _reduce_rows_bytes,
    _scan_bytes,
    _slab_terms,
    _sup_linear,
    _twisted,
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
        if self.samples_per_box < 1:
            raise ConfigError(f"samples_per_box must be >= 1, got {self.samples_per_box}")
        if not 0 <= self.seed < 1 << 64:  # the Philox key holds it in 64 bits
            raise ConfigError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.m_samples < 1 or self.y_samples < 1:
            raise ConfigError("m_samples and y_samples must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if any(c in self.experiment_id for c in ",\r\n"):  # a CSV cell, and the header comment's one line
            raise ConfigError(f"experiment_id must hold no comma or line break, got {self.experiment_id!r}")
        try:
            fam = self.family_obj()
        except (ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad family spec {self.family!r}: {exc}") from exc
        k = self.k if self.k is not None else fam.d  # family_obj refused any other k
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
# Blocks of samples (pure; run in worker processes)


def _sample_rng(seed: int, sample_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) | sample_id))


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


def _route(cfg: ExperimentConfig, fam: PolynomialFamily, k: int) -> str:
    """How a sweep step is evaluated: "prefix" (``weyl`` at k = d: a sample's one n_max row, walked in
    windows, gives every N), "certified" (the sup over y
    certified by ``sup_linear_coeff``: y is one linear coefficient), "sampled" (the sup over drawn
    y) or "window" (the largest discrepancy over windows: ``discrepancy_short``'s drawn starts, or
    ``discrepancy``'s one window at start 0)."""
    if cfg.kind in ("discrepancy", "discrepancy_short"):
        return "window"
    if k == fam.d:
        return "prefix"
    return "certified" if fam.d - k == 1 and fam.degrees[-1] == 1 else "sampled"


def _sample_rows(cfg: ExperimentConfig, route: str) -> int:
    """The phase rows a sample adds to a sweep step: its y draws, its windows, or its one point."""
    return cfg.y_samples if route == "sampled" else cfg.m_samples if cfg.kind == "discrepancy_short" else 1


def _block_size(cfg: ExperimentConfig, route: str, workers: int) -> int:
    """Samples a block: as many whole samples as fill one slab at the first N, at least one, and
    no more than the samples over the workers, so that every worker gets a block."""
    terms = _sample_rows(cfg, route) * cfg.schedule()[0]
    return min(_slab_terms(cfg.samples, terms) // terms, -(-cfg.samples // workers))


def _run_block(cfg: ExperimentConfig, sids: range) -> list[RunRecord]:
    """The records of samples ``sids`` in (sample, N) order.

    Each sample's draws come first (``_draw``); each N is then one step
    over every sample of the block (``_step``).  Only the ``weyl`` k = d
    route, whose rows are n_max long, runs sample by sample: every N from
    one prefix scan (``expsum._prefix_scan``) of its row c, which the scan
    fills for the majorant of each c[:N], taken into one spectrum of n_max/2
    terms and its magnitudes, or c itself at n_max, magnitudes in the spectrum.
    """
    fam, k = _split_family(cfg)
    route = _route(cfg, fam, k)
    schedule = cfg.schedule()
    if route == "prefix":
        n, records = schedule[-1], []
        for N in schedule:  # the cached fold weights first: building one takes 32 B a term, 4 times what it keeps
            _fold_weights(N)
        c, spectrum, mags = np.empty(n, dtype=np.complex128), np.empty((n + 1) // 2, dtype=np.complex128), np.empty(n // 2)
        for sid in sids:
            x = tuple(_sample_rng(cfg.seed, sid).random(fam.d))
            peaks = _prefix_scan(fam.polys, TorusPoint.from_reals(x).raw, n, row=c).dyadic_prefix_max
            W = [_majorant(c[:N], (spectrum[:N], mags[:N])) for N in schedule[:-1]]
            W.append(_majorant(c, (c, spectrum.view(np.float64)[:n])))  # c is not read again
            records += [RunRecord(cfg.experiment_id, sid, x, N, "prefix_max_T", peaks[N.bit_length() - 1],
                                  extras=(("w", float(w)),)) for N, w in zip(schedule, W)]
        return records
    coords, draws = zip(*(_draw(cfg, fam.d, k, route, sid) for sid in sids))
    xraws = _quantize_array(np.array(coords))
    draws = np.stack(draws, axis=1) if draws[0] is not None else [None] * len(schedule)  # per N, every sample's
    bounds = _lipschitz_terms(fam.polys[k:], schedule[-1], cfg.y_samples) if route == "sampled" else None
    steps = [_step(fam, k, route, xraws, at_n, N, bounds) for at_n, N in zip(draws, schedule)]
    stat = {"weyl": "sup_y_T", "short": "sup_short_S", "discrepancy": "D", "discrepancy_short": "D_short"}[cfg.kind]
    return [RunRecord(cfg.experiment_id, sid, coords[b], N, stat, values[b], extras=extras[b])
            for b, sid in enumerate(sids) for N, (values, extras) in zip(schedule, steps)]


def _draw(cfg: ExperimentConfig, d: int, k: int, route: str, sid: int):
    """One sample's draws, in the order of its stream: x, then every N's y draws or window starts (or None)."""
    rng = _sample_rng(cfg.seed, sid)
    schedule = cfg.schedule()
    x = (float(rng.random()),) if cfg.kind == "short" else tuple(rng.random(d))[:k]  # weyl draws d, keeps k
    if route == "sampled":  # one draw in the per-N, per-y order of the stream
        return x, _quantize_array(rng.random((len(schedule), cfg.y_samples, d - k)))
    if cfg.kind == "discrepancy_short":  # m starts an N, the stream of m scalar integers(0, N) draws
        return x, np.array([rng.integers(0, N, size=cfg.m_samples) for N in schedule], dtype=np.uint64)
    return x, None


def _step(fam: PolynomialFamily, k: int, route: str, xraws: np.ndarray, draws, N: int, bounds):
    """Every sample's value and extras at N, from one walk of ``_reduce_rows`` over the block's rows.

    ``xraws`` holds each sample's x, ``draws`` its y draws or window
    starts at this N, and ``bounds`` the sampled sup's Lipschitz slack.
    """
    S, d = len(xraws), fam.d
    if route == "sampled":  # a row for each point (x, y): x is folded into the phase, not into weights
        rows = np.concatenate((np.broadcast_to(xraws[:, None, :], draws.shape[:2] + (k,)), draws), axis=2)
        s = _reduce_rows(*_phase_rows(fam.polys, rows.reshape(-1, d), N), _twisted(lambda c: c.sum(axis=1)),
                         np.complex128)
        values = np.hypot(s.real, s.imag).reshape(S, -1).max(axis=1).tolist()
        bound = float(bounds[N - 1])
        return values, [(("continuity_slack", min(bound, max(N - v, 0.0))), ("certified", 0.0))  # sum |a_n| = N
                        for v in values]
    if route == "certified":  # a row for each x, one zero-padded transform a slab of rows
        # a subarray dtype: _reduce_rows returns (S, 3), one (grid_max, certified_upper, argmax_y) a row
        res = _reduce_rows(*_phase_rows(fam.polys[:k], xraws, N), _twisted(lambda c: np.stack(_sup_linear(c), axis=1)),
                           np.dtype((float, 3)))
        return res[:, 0].tolist(), [(("certified_upper", u), ("argmax_y", a), ("certified", 1.0))
                                    for u, a in res[:, 1:].tolist()]
    # window: a row for each window of each sample; discrepancy's one window starts at 0
    rows, starts = (xraws, 0) if draws is None else (np.repeat(xraws, draws.shape[1], axis=0), draws.reshape(-1))
    D = _window_discrepancies(fam.polys, rows, starts, N).reshape(S, -1)
    j = np.argmax(D, axis=1)  # the first window of the largest value
    values = D[np.arange(S), j].tolist()
    ms = [()] * S if draws is None else [(("m", float(m)),) for m in draws[np.arange(S), j]]
    return values, [_disc_ratios(v, N) + m for v, m in zip(values, ms)]


def _disc_ratios(dv: float, N: int) -> tuple[tuple[str, float], ...]:
    r1 = dv / math.sqrt(N)
    r2 = r1 / math.log(N) ** 1.5 if N > 1 else r1
    return (("ratio_sqrt", r1), ("ratio_sqrt_log", r2))


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

    The samples are cut into blocks (``_block_size``), each run by
    ``_run_block`` one N at a time over all its samples.  With threads > 1
    a process pool of at most min(threads, samples, cpu count) workers
    maps the blocks, at least one a worker; the deterministic per-sample
    streams plus ordered collection make the output identical to a
    single-threaded run.
    """
    cfg = cfg.validate()
    fam, k = _split_family(cfg)
    route = _route(cfg, fam, k)
    schedule = cfg.schedule()
    workers = min(cfg.threads, cfg.samples, os.cpu_count() or 1)
    size = _block_size(cfg, route, workers)
    per = 4 if route == "certified" else _sample_rows(cfg, route)  # sup_linear_coeff's default oversample of 4
    check_cost("metric_sweep", cfg.samples * sum(schedule) * per,  # 256 B a block: its range and list
               _block_peak(cfg, fam, k, route, size) + _sample_bytes(cfg, route) * cfg.samples
               + 256 * -(-cfg.samples // size) + (1 << 14))
    blocks = [range(lo, min(lo + size, cfg.samples)) for lo in range(0, cfg.samples, size)]
    # each block's list is freed once its records are moved into the result
    if workers == 1:
        return list(chain.from_iterable(_run_block(cfg, sids) for sids in blocks))
    # the pool starts every worker at once, so more than one per CPU or
    # per sample only costs start-up time and memory; its import is paid only here
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(chain.from_iterable(pool.map(_run_block, [cfg] * len(blocks), blocks)))


def _sample_bytes(cfg: ExperimentConfig, route: str) -> int:
    """Bytes a sample keeps past its block (tracemalloc): its point, and at each N a record of
    256 B and 96 B an extra (``_step``)."""
    extras = {"prefix": 1, "certified": 2, "sampled": 1, "window": 2 + (cfg.kind == "discrepancy_short")}[route]
    return (256 + 96 * extras) * len(cfg.schedule()) + 384


def _block_peak(cfg: ExperimentConfig, fam: PolynomialFamily, k: int, route: str, S: int) -> int:
    """Peak bytes of one block of S samples, records aside (tracemalloc, ``tests/test_cost.py``).

    The ``weyl`` k = d route holds, a sample at a time, e(f(n)) of its n_max terms, a spectrum of
    n_max/2 terms and its magnitudes (28 B a term in all), the cached fold weights of every N (up
    to 16 B a term) and twiddles, and the prefix scan's window (``expsum._scan_bytes``).  Every other route
    holds its draws and, at each N, walks R = S·r rows (r = y_samples, m_samples or 1) in slabs of
    at most T terms: the walker's bytes a term (``expsum._reduce_rows_bytes``, with what the reduction
    makes a term) or, for the windows, the slab and whole rows of n, and a few words a row.
    """
    schedule = cfg.schedule()
    n, L = schedule[-1], len(schedule)
    if route == "prefix":
        return 44 * n + sum(_fft_split(N)[2] for N in schedule) + _scan_bytes(n, max(fam.degrees))
    R = S * _sample_rows(cfg, route)
    T = max(_slab_terms(R, N) for N in schedule)
    if route == "sampled":  # the row sums; a row's point, coefficients and sum; every y draw, one sample's as floats
        return _reduce_rows_bytes(T, 8) + 8 * n + (16 * L * (fam.d - k) + 8 * (fam.d + max(fam.degrees)) + 40) * R
    if route == "certified":  # e(f_x) zero-padded, its spectrum and magnitudes, and a few small arrays
        return _reduce_rows_bytes(T, 96) + 64 * S + (1 << 14)
    # window: n, the deviations of the sorted slab and t; a row's point, coefficients (twice while a start
    # is folded in) and value, and discrepancy_short's start at every N
    starts = 8 * L if cfg.kind == "discrepancy_short" else 0
    return 40 * T + 8 * n + (starts + 8 * (fam.d + max(fam.degrees)) + 32) * R


class FitResult(NamedTuple):
    slope: float
    intercept: float
    r2: float


def exponent_fit(records: Iterable[RunRecord]) -> FitResult:
    """Least squares of log2(value) against log2(N) for one sample's records: ``_fits`` of one row."""
    return _fitted(_fits(np.array([(r.log2_n, r.log2_value) for r in records]).reshape(1, -1, 2)))[0]


def fit_by_sample(records: Sequence[RunRecord]) -> dict[int, FitResult]:
    """``exponent_fit`` of each sample's records, by sample id in order: one ``_fits`` pass over every sample
    with the same number of records, and the first sample's refusal if any is refused."""
    pts: dict[int, list[tuple[float, float]]] = {}
    for rec in records:
        pts.setdefault(rec.sample_id, []).append((rec.log2_n, rec.log2_value))
    by_len: dict[int, list[int]] = {}
    for sid in sorted(pts):
        by_len.setdefault(len(pts[sid]), []).append(sid)
    fits = {}
    for sids in by_len.values():
        fits.update(zip(sids, _fits(np.array([pts[sid] for sid in sids]))))
    order = sorted(fits)
    return dict(zip(order, _fitted([fits[sid] for sid in order])))


def _fits(pts: np.ndarray) -> list[FitResult | str]:
    """The least-squares line through each row of ``pts``, (samples, L, 2) pairs (log2 N, log2 value), or the
    reason it has none."""
    if pts.shape[1] < 3:
        return ["need at least 3 records to fit"] * len(pts)
    xs, ys = pts[..., 0], pts[..., 1]
    refused = np.where(~np.isfinite(ys).all(axis=1), 1, np.where(np.ptp(xs, axis=1) == 0, 2, 0)).tolist()
    reasons = (None, "all values must be positive", "records share a single N; fit is degenerate")
    lines = zip(*(a.tolist() for a in _lines(xs, ys)))
    return [reasons[r] or FitResult(*line) for r, line in zip(refused, lines)]


def _fitted(fits: list[FitResult | str]) -> list[FitResult]:
    """``fits``, or ``ValueError`` with the first refusal in it."""
    for fit in fits:
        if isinstance(fit, str):
            raise ValueError(fit)
    return fits  # type: ignore[return-value]


def _lines(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slope, intercept and r² of the least-squares line of each row of ys against the same row of xs, (samples, L).

    Every sum runs along one row, as the sums of a single row do, so a row's line is the same to the bit
    whatever rows share its batch.  A row with one x, or a non-finite y, has no line: its figures are nan.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        xm, ym = xs.mean(axis=1), ys.mean(axis=1)
        dx, dy = xs - xm[:, None], ys - ym[:, None]
        slope = np.sum(dx * dy, axis=1) / np.sum(dx**2, axis=1)
        intercept = ym - slope * xm
        ss_res = np.sum((ys - intercept[:, None] - slope[:, None] * xs) ** 2, axis=1)
        ss_tot = np.sum(dy**2, axis=1)
        return slope, intercept, np.where(ss_tot == 0, 1.0, 1.0 - ss_res / ss_tot)


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
        fits[alpha] = _lines(*np.array(pts).T[:, None])[0].item() if len(pts) >= 2 else None
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
        fh.writelines(line + "\n" for line in csv_lines(records, cfg))


def write_jsonl(records: Sequence[RunRecord], path: str, cfg: ExperimentConfig) -> None:
    """JSON-lines: one header object, then one object per record, all through one encoder."""
    encode = json.JSONEncoder(sort_keys=True).encode  # what json.dumps(obj, sort_keys=True) builds a call
    header = {"header": True, "schema": SCHEMA_VERSION, "experiment": cfg.experiment_id, "seed": cfg.seed}
    with open(path, "w") as fh:
        fh.writelines(encode(obj) + "\n" for obj in chain([header], (rec.to_json() for rec in records)))
