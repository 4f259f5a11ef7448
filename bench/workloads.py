"""The four benchmark workloads: inputs, the measured operations, and their checks.

Each workload turns a seed into a list of ``Op``s.  ``run`` is the only
part that is timed; ``check`` compares the output with an identity or an
independent oracle (never with an earlier output of the program) and
raises ``CheckFailed``; ``digest`` gives the bytes whose sha256 must agree
between every run of one invocation.

The sizes below are the workload definitions: later changes cite these
names, so they are fixed here rather than taken from the command line.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import weylsums as w
from weylsums import cli
from weylsums.expsum import PhaseTable

UNIT = w.WeightSeq.unit()

# sweep_long: one long weyl sweep, exact PhaseTable loop over long N.
LONG = dict(kind="weyl", family="classical:3", k=3, log2_n_min=8, log2_n_max=16, samples=12)
LONG_CHECKED_SAMPLES = 2

# sweep_short: five short sweeps covering every sweep kind.
SHORT_BASE = dict(log2_n_min=6, log2_n_max=12, samples=20)
SHORT = {
    "discrepancy": dict(kind="discrepancy", family="classical:3"),
    "discrepancy_short": dict(kind="discrepancy_short", family="classical:3", log2_n_max=11),
    "short": dict(kind="short", family="classical:3"),
    "weyl_grid": dict(kind="weyl", family="classical:3", k=1),
    "weyl_certified": dict(kind="weyl", family=[[0, 0, 1], [0, 1]], k=1),
}
SHORT_CHECKED_SAMPLES = 3
BRUTE_FORCE_MAX_N = 512

# census_scan: a dimension scan, one census, three projections of its marked boxes.
DIMSCAN = dict(family="classical:2", log2_n_min=3, log2_n_max=4, alphas=["0.75", "0.9"],
               eps="0.25", samples_per_box=4)
CENSUS = dict(d=3, N=4, alpha=Fraction(3, 4), eps=Fraction(1, 4), samples_per_box=2)

# mean_value: exact integer and rational work on both sides of the
# vinogradov_count route switch at N^s = 2^22.
VINOGRADOV = {"single_pass": (2, 3, 96), "chunked": (1, 3, 165)}
MOMENT_N = (16, 24)
BEST_BOUND_DEGREES = range(2, 21)
FIXED_POINT_DEGREES = (2, 3, 5, 8)
FIXED_POINT_TOL = Fraction(1, 10**12)


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float, what: str) -> None:
    require(math.isclose(a, b, rel_tol=rel, abs_tol=0.0), f"{what}: {a!r} != {b!r} (rel {rel})")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], bytes]


def _write_config(workdir: str, name: str, data: dict) -> tuple[str, w.ExperimentConfig]:
    """Write a JSON config and parse it back, so a bad config fails in set-up."""
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path, w.ExperimentConfig.from_file(path)


def _cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def _read_jsonl(path: str) -> list[dict]:
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    require(bool(rows) and rows[0].get("header") is True, f"{path}: missing header")
    return rows[1:]


def _file_digest(*paths: str) -> bytes:
    out = b""
    for path in paths:
        with open(path, "rb") as fh:
            out += fh.read()
    return out


def _oracle_phases(polys, raws, first: int, count: int) -> np.ndarray:
    """Phases {f(n)}, n = first..first+count-1, by direct evaluation (no recurrence)."""
    raw = [PhaseTable.raw_at(polys, raws, n) for n in range(first, first + count)]
    return np.array(raw, dtype=np.uint64).astype(np.float64) * 2.0**-64


def schedule(cfg: dict) -> list[int]:
    return [1 << i for i in range(cfg["log2_n_min"], cfg["log2_n_max"] + 1)]


def _records_ok(rows: list[dict], cfg: dict) -> None:
    sched = schedule(cfg)
    require(len(rows) == cfg["samples"] * len(sched),
            f"{len(rows)} records, expected {cfg['samples']} x {len(sched)}")
    for i, row in enumerate(rows):
        require(row["sample"] == i // len(sched) and row["N"] == sched[i % len(sched)],
                f"record {i} out of (sample, N) order")
        for key, val in row.items():
            if isinstance(val, float):
                require(math.isfinite(val) or key == "log2_value", f"record {i}: {key} = {val}")
        require(0.0 <= row["value"] <= row["N"] * (1 + 1e-12), f"record {i}: value above the trivial bound N")


def _sweep_op(name: str, workdir: str, cfg: dict, seed: int, check) -> Op:
    csv = os.path.join(workdir, f"{name}.csv")
    jsonl = os.path.join(workdir, f"{name}.jsonl")
    path, _ = _write_config(workdir, name, dict(cfg, seed=seed, threads=1, experiment_id=name,
                                             out_csv=csv, out_jsonl=jsonl))

    def run():
        return _cli("sweep", "--config", path)

    def check_all(rc):
        require(rc == 0, f"sweep exit code {rc}")
        rows = _read_jsonl(jsonl)
        _records_ok(rows, cfg)
        with open(csv) as fh:
            require(sum(1 for _ in fh) == 2 + len(rows), "CSV and JSONL record counts differ")
        check(rows)

    return Op(name, run, check_all, lambda rc: _file_digest(csv, jsonl))


def _warmup_sweep(workdir: str) -> None:
    path, _ = _write_config(workdir, "warmup", dict(kind="weyl", family="classical:2", log2_n_min=4,
                                                 log2_n_max=6, samples=2, threads=1))
    require(_cli("sweep", "--config", path) == 0, "warm-up sweep failed")


# ---------------------------------------------------------------------------
# sweep_long


def sweep_long(seed: int, workdir: str) -> list[Op]:
    fam = w.parse_family(LONG["family"])
    checked = random.Random(seed).sample(range(LONG["samples"]), LONG_CHECKED_SAMPLES)

    def check(rows):
        sched = schedule(LONG)
        by_sample = [rows[i:i + len(sched)] for i in range(0, len(rows), len(sched))]
        for sample in by_sample:
            u = w.TorusPoint.from_reals(sample[0]["coords"])
            head = sample[0]
            naive = w.completion_naive(fam, u, UNIT, head["N"]).W
            close(head["w"], naive, 1e-9, f"sample {head['sample']}: completion_fft W vs naive at N={head['N']}")
        for sid in checked:
            sample = by_sample[sid]
            u = w.TorusPoint.from_reals(sample[0]["coords"])
            phases = _oracle_phases(fam.polys, u.raw, 1, sched[-1])
            mags = np.abs(np.cumsum(np.exp(2j * np.pi * phases)))
            running = np.maximum.accumulate(mags)
            for row in sample:
                N = row["N"]
                close(row["value"], float(running[N - 1]), 1e-9, f"sample {sid}: prefix_max_T at N={N}")
                require(row["w"] >= mags[N - 1] * (1 - 1e-12), f"sample {sid}: W < |T| at N={N}")

    op = _sweep_op("sweep_long", workdir, LONG, seed, check)
    _warmup_sweep(workdir)
    return [op]


# ---------------------------------------------------------------------------
# sweep_short


def _check_discrepancy(rows, cfg, seed):
    fam = w.parse_family(cfg["family"])
    for row in _subsample(rows, seed):
        if row["N"] > BRUTE_FORCE_MAX_N:
            continue
        u = w.TorusPoint.from_reals(row["coords"])
        oracle = w.brute_force_discrepancy(_oracle_phases(fam.polys, u.raw, 1, row["N"]))
        require(abs(row["value"] - oracle) <= 1e-12, f"D = {row['value']!r}, brute force {oracle!r}")


def _check_discrepancy_short(rows, cfg, seed):
    d = w.parse_family(cfg["family"]).d
    polys = w.classical_family(d).polys
    for row in _subsample(rows, seed):
        if row["N"] > BRUTE_FORCE_MAX_N:
            continue
        u = w.TorusPoint.from_reals(row["coords"])
        m = int(row["m"])
        require(m == row["m"] and 0 <= m < row["N"], f"window start m = {row['m']!r}")
        oracle = w.brute_force_discrepancy(_oracle_phases(polys, u.raw, m + 1, row["N"]))
        require(abs(row["value"] - oracle) <= 1e-12, f"D_short = {row['value']!r}, brute force {oracle!r}")


def _check_certified(rows, cfg, seed):
    for row in rows:
        require(row["certified"] == 1.0, "certified sweep emitted an uncertified row")
        require(row["value"] <= row["certified_upper"], f"grid_max {row['value']!r} > certified_upper")


def _check_sampled(rows, cfg, seed):
    for row in rows:
        require(row["certified"] == 0.0, "sampled sweep claims certification")


def _subsample(rows, seed):
    samples = sorted({row["sample"] for row in rows})
    keep = set(random.Random(seed).sample(samples, SHORT_CHECKED_SAMPLES))
    return [row for row in rows if row["sample"] in keep]


SHORT_CHECKS = {
    "discrepancy": _check_discrepancy,
    "discrepancy_short": _check_discrepancy_short,
    "short": _check_sampled,
    "weyl_grid": _check_sampled,
    "weyl_certified": _check_certified,
}


def sweep_short(seed: int, workdir: str) -> list[Op]:
    ops = []
    for name, extra in SHORT.items():
        cfg = dict(SHORT_BASE, **extra)
        check = SHORT_CHECKS[name]
        ops.append(_sweep_op(name, workdir, cfg, seed,
                             lambda rows, cfg=cfg, check=check: check(rows, cfg, seed)))
    _warmup_sweep(workdir)
    return ops


# ---------------------------------------------------------------------------
# census_scan


def _rotated_plane(rng: np.random.Generator) -> np.ndarray:
    """A random orthonormal 2-frame in R^3; almost surely not axis aligned, so
    project_union takes its Monte Carlo route."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 2)))
    return q.T


def census_scan(seed: int, workdir: str) -> list[Op]:
    _, scan_cfg = _write_config(workdir, "dimscan", dict(DIMSCAN, seed=seed, experiment_id="dimscan"))
    fam2 = w.parse_family(DIMSCAN["family"])
    fam = w.classical_family(CENSUS["d"])
    grid = w.grid_sides(fam, CENSUS["N"], CENSUS["alpha"], CENSUS["eps"])
    rng = np.random.default_rng(seed)
    line = rng.normal(size=3)
    specs = {
        "project_line": w.ProjectionSpec(line / np.linalg.norm(line)),
        "project_coordinate_plane": w.ProjectionSpec.coordinate(3, 2),
        "project_rotated_plane": w.ProjectionSpec(_rotated_plane(rng)),
    }
    state: dict[str, Any] = {}

    def run_scan():
        return w.dimension_scan(scan_cfg)

    def check_scan(table):
        rows = table["rows"]
        require(len(rows) == len(DIMSCAN["alphas"]) * len(scan_cfg.schedule()), f"{len(rows)} scan rows")
        for row, (alpha, N) in zip(rows, [(a, N) for a in DIMSCAN["alphas"] for N in scan_cfg.schedule()]):
            expected = w.grid_sides(fam2, N, Fraction(alpha), Fraction(DIMSCAN["eps"])).U
            require(row["N"] == N and row["U"] == expected, f"scan row {row} does not match its grid")
            require(0 <= row["marked"] <= row["U"], f"scan row marked {row['marked']} outside [0, U]")

    def run_census():
        state["census"] = w.census(fam, UNIT, grid, CENSUS["samples_per_box"], seed)
        return state["census"]

    def check_census(res):
        require(w.markov_check(res.box_peaks, grid.threshold, res.two_s), "Markov check on box peaks")
        require(res.U == grid.U and len(res.box_peaks) == grid.U, "census covered the wrong number of boxes")
        marked = int(np.sum(res.box_peaks >= grid.threshold))
        require(res.marked == marked == len(res.marked_boxes), "marked count disagrees with the peaks")

    def projection(spec):
        return lambda: w.project_union(grid, state["census"].marked_boxes, spec, seed=seed)

    def check_line(proj, spec=specs["project_line"]):
        bound = state["census"].marked * w.per_box_projection_bound(grid, spec)
        require(0.0 <= proj.measure <= bound + 1e-9, f"line measure {proj.measure!r} above {bound!r}")

    def check_coordinate_plane(proj):
        require(0.0 <= proj.measure <= 1.0, f"coordinate-plane measure {proj.measure!r} outside [0, 1]")

    def check_rotated_plane(proj, spec=specs["project_rotated_plane"]):
        # The union lies in the unit cube, whose shadow on a plane with unit
        # normal n has area sum |n_j| (up to sqrt 3, so "<= 1" would be
        # wrong here); the Monte Carlo estimate may exceed it by its noise.
        normal = np.cross(spec.basis[0], spec.basis[1])
        cube_area = float(np.sum(np.abs(normal)))
        require(proj.std_error is not None and proj.std_error >= 0.0, "missing Monte Carlo error")
        require(0.0 <= proj.measure <= cube_area + 6 * proj.std_error,
                f"rotated-plane measure {proj.measure!r} above the cube's shadow {cube_area!r}")

    def census_digest(res):
        return res.box_peaks.tobytes() + repr((res.marked, res.samples_ge_threshold)).encode()

    def proj_digest(proj):
        return repr(tuple(proj)).encode()

    # warm-up: a tiny census and one projection of each kind
    warm_grid = w.grid_sides(w.classical_family(2), 4, Fraction(3, 4), Fraction(1, 4))
    warm = w.census(w.classical_family(2), UNIT, warm_grid, 2, seed)
    for spec in (w.ProjectionSpec([1.0, 0.0]), w.ProjectionSpec(np.eye(2))):
        w.project_union(warm_grid, warm.marked_boxes, spec, samples=16, seed=seed)

    return [
        Op("dimension_scan", run_scan, check_scan, lambda t: json.dumps(t, sort_keys=True).encode()),
        Op("census", run_census, check_census, census_digest),
        Op("project_line", projection(specs["project_line"]), check_line, proj_digest),
        Op("project_coordinate_plane", projection(specs["project_coordinate_plane"]),
           check_coordinate_plane, proj_digest),
        Op("project_rotated_plane", projection(specs["project_rotated_plane"]), check_rotated_plane,
           proj_digest),
    ]


# ---------------------------------------------------------------------------
# mean_value


def convolution_count(s: int, N: int) -> int:
    """sum_m r(m)^2, r(m) = #{n in [1,N]^s : n_1+...+n_s = m}: the d = 1 count."""
    ones = np.zeros(N + 1, dtype=np.int64)
    ones[1:] = 1
    r = ones
    for _ in range(s - 1):
        r = np.convolve(r, ones)
    return int(np.sum(r * r))


def bincount_count(s: int, N: int) -> int:
    """The d = 2 count by packing (sum n, sum n^2) into one key and np.bincount."""
    n = np.arange(1, N + 1, dtype=np.int64)
    k1, k2 = n, n * n
    for _ in range(s - 1):
        k1 = (k1[:, None] + n[None, :]).ravel()
        k2 = (k2[:, None] + (n * n)[None, :]).ravel()
    span2 = s * N * N + 1
    counts = np.bincount(k1 * span2 + k2)
    return int(np.sum(counts * counts))


def _yl_family(d: int) -> w.PolynomialFamily:
    """(T^d, T, T^2, ..., T^(d-1)) split at k = 1: the self-improving case."""
    polys = [w.IntPolynomial.monomial(d)] + [w.IntPolynomial.monomial(j) for j in range(1, d)]
    return w.PolynomialFamily(polys, k=1)


def _check_best_bound(reports) -> None:
    pairs = [(d, k) for d in BEST_BOUND_DEGREES for k in range(1, d + 1)]
    require(len(reports) == len(pairs), f"{len(reports)} reports for {len(pairs)} (d, k)")
    for (d, k), rep in zip(pairs, reports):
        fam = w.classical_family(d)
        require(w.gamma_general(fam, k) < w.gamma_star(fam, k), f"gamma < gamma* fails at d={d}, k={k}")
        require(w.disc_gamma(fam, k) < w.disc_gamma_star(fam, k), f"disc_gamma < disc_gamma* fails at d={d}, k={k}")
        candidates = [rep.values[n] for n in ("gamma_yl", "gamma_xl", "gamma_nl", "gamma") if n in rep.values]
        require(rep.best == min(candidates, default=Fraction(1)) and rep.best <= 1,
                f"best bound {rep.best} is not the least candidate at d={d}, k={k}")
        if k == d:
            require(w.gamma_YL(fam, d) == Fraction(1, 2) == w.gamma_general(fam, d),
                    f"gamma_YL or gamma at k = d = {d} is not 1/2")


def _check_fixed_points(results) -> None:
    for d, (value, trace) in zip(FIXED_POINT_DEGREES, results):
        target = w.gamma_YL(_yl_family(d), 1)
        require(abs(value - target) <= FIXED_POINT_TOL, f"fixed point {value} far from {target} at d={d}")
        require(all(a > b for a, b in zip(trace, trace[1:])), f"trace not decreasing at d={d}")


def mean_value(seed: int, workdir: str) -> list[Op]:
    fam2 = w.classical_family(2)
    grids = {N: w.exact_moment_grid(fam2, N, 6) for N in MOMENT_N}
    bound_fams = [(w.classical_family(d), k) for d in BEST_BOUND_DEGREES for k in range(1, d + 1)]
    yl_fams = [_yl_family(d) for d in FIXED_POINT_DEGREES]

    def vinogradov_op(name, d, s, N):
        oracle = {1: convolution_count, 2: bincount_count}[d]

        def check(count):
            require(count == oracle(s, N), f"vinogradov_count({d},{s},{N}) = {count}, oracle {oracle(s, N)}")

        return Op(f"vinogradov_{name}", lambda: w.vinogradov_count(d, s, N), check, lambda c: str(c).encode())

    def moment_op(N):
        def check(moment):
            count = bincount_count(3, N)
            require(count == w.vinogradov_count(2, 3, N), f"vinogradov_count(2,3,{N}) disagrees with the oracle")
            close(moment, float(count), 1e-6, f"moment_integral at N={N}")

        return Op(f"moment_integral_{N}", lambda: w.moment_integral(fam2, UNIT, N, 6, grids[N]), check,
                  lambda m: repr(m).encode())

    # warm-up on separate objects, so no per-family cache is warm for the run
    w.vinogradov_count(2, 2, 8)
    w.moment_integral(w.classical_family(1), UNIT, 4, 2, [5])
    w.best_bound(w.classical_family(2), 1)
    w.fixed_point(_yl_family(2), 1, 1, Fraction(1, 100))

    return [
        *(vinogradov_op(name, *args) for name, args in VINOGRADOV.items()),
        *(moment_op(N) for N in MOMENT_N),
        Op("best_bound", lambda: [w.best_bound(fam, k) for fam, k in bound_fams], _check_best_bound,
           lambda reps: json.dumps([r.to_json() for r in reps], sort_keys=True).encode()),
        Op("fixed_point", lambda: [w.fixed_point(fam, 1, 1, FIXED_POINT_TOL) for fam in yl_fams],
           _check_fixed_points, lambda res: repr(res).encode()),
    ]


WORKLOADS = {
    "sweep_long": sweep_long,
    "sweep_short": sweep_short,
    "census_scan": census_scan,
    "mean_value": mean_value,
}
