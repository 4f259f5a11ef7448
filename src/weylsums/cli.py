"""Command-line front end.

Exit codes: 0 success, 2 configuration/usage error, 3 budget exceeded,
4 hard-invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import discrepancy as disc_mod
from . import experiments as exp_mod
from . import exponents as expo_mod
from .census import (
    ProjectionSpec,
    census as run_census,
    counting_bound,
    grid_sides,
    per_box_projection_bound,
    project_union,
    projection_reference,
)
from .errors import BudgetError, ConfigError, InvariantViolation
from .expsum import (
    TorusPoint,
    WeightSeq,
    completion_fft,
    completion_naive,
    exact_moment_grid,
    moment_integral,
    vinogradov_count,
    weyl_sum,
)
from .polyfam import degree_stats, parse_family

__all__ = ["main"]


def _parse_point(text: str) -> list[float]:
    try:
        return [float(Fraction(part)) for part in text.split(",") if part.strip()]
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad coordinate list {text!r}: {exc}") from exc


def _emit(payload, args) -> None:
    mode = getattr(args, "out", "text")
    if mode == "json":
        print(json.dumps(payload, sort_keys=True, default=str))
        return
    if mode == "csv" and isinstance(payload, dict):
        def cell(v):
            if isinstance(v, float):
                return format(v, ".17g")
            if isinstance(v, (list, tuple)):
                return ";".join(str(x) for x in v)
            return str(v)

        print(",".join(payload))
        print(",".join(cell(v) for v in payload.values()))
        return
    if isinstance(payload, dict):
        width = max(len(k) for k in payload)
        for key, val in payload.items():
            print(f"{key:<{width}}  {val}")
    else:
        print(payload)


def _cmd_exponents(args) -> int:
    fam = parse_family(args.family)
    ks = [args.k] if args.k is not None else list(range(1, fam.d + 1))
    reports = [expo_mod.best_bound(fam, k) for k in ks]
    if args.out == "json":
        print(json.dumps([r.to_json() for r in reports], sort_keys=True))
        return 0
    names = ["gamma", "gamma_star", "gamma_yl", "gamma_xl", "gamma_nl",
             "gamma_tilde", "disc_gamma", "disc_gamma_star"]
    print("k case sigma " + " ".join(f"{n:>15}" for n in names) + "  best")
    for rep in reports:
        cells = []
        for n in names:
            v = rep.values.get(n)
            cells.append(f"{str(v):>15}" if v is not None else f"{'-':>15}")
        print(f"{rep.k} {rep.case.label:>4} {rep.sigma:>5} " + " ".join(cells)
              + f"  {rep.best} ({rep.best_tag})")
    return 0


def _cmd_sum(args) -> int:
    fam = parse_family(args.family)
    u = TorusPoint.from_reals(_parse_point(args.u))
    trace = weyl_sum(fam, u, WeightSeq.unit(), args.N)
    _emit(trace.to_json(), args)
    return 0


def _cmd_completion(args) -> int:
    fam = parse_family(args.family)
    u = TorusPoint.from_reals(_parse_point(args.u))
    unit = WeightSeq.unit()
    payload = {}
    if args.method in ("fft", "both"):
        payload["W_fft"] = completion_fft(fam, u, unit, args.N).W
    if args.method in ("naive", "both"):
        payload["W_naive"] = completion_naive(fam, u, unit, args.N).W
    payload["N"] = args.N
    _emit(payload, args)
    return 0


def _cmd_discrepancy(args) -> int:
    u = _parse_point(args.u)
    if args.M is not None:
        res = disc_mod.short_interval_discrepancy(u, args.M, args.N)
    else:
        fam = parse_family(args.family if args.family else f"classical:{len(u)}")
        res = disc_mod.poly_discrepancy(fam, TorusPoint.from_reals(u), args.N)
    payload = res.to_json()
    payload["normalized"] = res.value / res.N
    _emit(payload, args)
    return 0


def _cmd_vinogradov(args) -> int:
    count = vinogradov_count(args.d, args.s, args.N)
    payload = {"d": args.d, "s": args.s, "N": args.N, "count": count}
    if args.check_moment:
        from .polyfam import classical_family

        fam = classical_family(args.d)
        grid = exact_moment_grid(fam, args.N, 2 * args.s)
        payload["moment"] = moment_integral(fam, WeightSeq.unit(), args.N, 2 * args.s, grid)
    _emit(payload, args)
    return 0


def _config_from_args(args) -> exp_mod.ExperimentConfig:
    cfg = exp_mod.ExperimentConfig() if args.config is None else exp_mod.ExperimentConfig.from_file(args.config)
    overrides = {
        name: getattr(args, name, None)
        for name in ("kind", "family", "k", "samples", "seed", "threads",
                     "log2_n_min", "log2_n_max", "out_csv", "out_jsonl",
                     "eps", "experiment_id")
    }
    if getattr(args, "alphas", None):
        overrides["alphas"] = tuple(args.alphas.split(","))
    return cfg.override(**overrides)


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    records = exp_mod.metric_sweep(cfg)
    if cfg.out_csv:
        exp_mod.write_csv(records, cfg.out_csv, cfg)
    if cfg.out_jsonl:
        exp_mod.write_jsonl(records, cfg.out_jsonl, cfg)
    fits = exp_mod.fit_by_sample(records)
    slopes = [f.slope for f in fits.values()]
    payload = {
        "experiment": cfg.experiment_id,
        "seed": cfg.seed,
        "records": len(records),
        "median_slope": float(np.median(slopes)) if slopes else None,
        "max_slope": max(slopes) if slopes else None,
    }
    if not cfg.out_csv and not cfg.out_jsonl:
        if args.out == "csv":
            for line in exp_mod.csv_lines(records, cfg):
                print(line)
            return 0
        for rec in records:
            print(json.dumps(rec.to_json(), sort_keys=True))
    _emit(payload, args)
    return 0


def _cmd_census(args) -> int:
    fam = parse_family(args.family)
    grid = grid_sides(fam, args.N, Fraction(args.alpha), Fraction(args.eps))
    res = run_census(fam, WeightSeq.unit(), grid, args.samples_per_box, args.seed)
    payload = {
        "alpha": float(Fraction(args.alpha)),
        "N": args.N,
        "marked": res.marked,
        "U": res.U,
        "bound": counting_bound(grid, Fraction(args.alpha)),
        "threshold": res.threshold,
        "empirical_moment": res.empirical_moment,
        "samples_per_box": res.samples_per_box,
        "sides": [str(z) for z in grid.sides],
    }
    _emit(payload, args)
    return 0


def _cmd_project(args) -> int:
    fam = parse_family(args.family)
    grid = grid_sides(fam, args.N, Fraction(args.alpha), Fraction(args.eps))
    if args.direction:
        vec = np.array(_parse_point(args.direction))
        top = np.max(np.abs(vec), initial=0.0)
        if top == 0.0:
            raise ConfigError("--direction must be a nonzero vector")
        vec = vec / top  # a largest component of 1: the norm neither overflows nor underflows
        spec = ProjectionSpec(vec / np.linalg.norm(vec))
    else:
        spec = ProjectionSpec.coordinate(fam.d, args.coordinate_k)
    if spec.basis.shape[1] != fam.d:  # before the census, not after it
        raise ConfigError(f"basis directions must have {fam.d} components")
    res = run_census(fam, WeightSeq.unit(), grid, args.samples_per_box, args.seed)
    proj = project_union(grid, res.marked_boxes, spec, seed=args.seed)
    payload = {
        "alpha": float(Fraction(args.alpha)),
        "N": args.N,
        "marked": res.marked,
        "U": res.U,
        "bound": counting_bound(grid, Fraction(args.alpha)),
        "measure": proj.measure,
        "method": proj.method,
        "std_error": proj.std_error,
        "direction": spec.basis[0].tolist() if spec.k == 1 else f"coordinate:{spec.k}",
        "reference": projection_reference(
            grid, degree_stats(fam, spec.k)[1], spec.k, Fraction(args.alpha)
        ),
    }
    if spec.k == 1:
        per_box = per_box_projection_bound(grid, spec)
        payload["per_box_bound"] = per_box
        payload["union_bound"] = res.marked * per_box
        if proj.measure > res.marked * per_box * (1 + 1e-9):
            raise InvariantViolation("projected union exceeded its certified bound")
    _emit(payload, args)
    return 0


def _cmd_dimscan(args) -> int:
    cfg = _config_from_args(args)
    table = exp_mod.dimension_scan(cfg)
    if args.out == "json":
        print(json.dumps(table, sort_keys=True, default=str))
        return 0
    print("alpha      N  marked       U    bound")
    for row in table["rows"]:
        print(f"{row['alpha']:<8g} {row['N']:>4} {row['marked']:>7} {row['U']:>7} "
              f"{row['bound']:>10.4g}")
    for alpha, slope in table["dimension_proxy"].items():
        shown = "n/a" if slope is None else f"{slope:.4f}"
        print(f"dimension proxy at alpha={alpha}: {shown} (threshold k={table['threshold_k']})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="weylsums", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("exponents", help="exact exponent report for a family")
    p.add_argument("--family", required=True)
    p.add_argument("--k", type=int)
    common(p)
    p.set_defaults(fn=_cmd_exponents)

    p = sub.add_parser("sum", help="evaluate one sum with exact phases")
    p.add_argument("--family", required=True)
    p.add_argument("--u", required=True, help="comma-separated coordinates")
    p.add_argument("--N", type=int, required=True)
    common(p)
    p.set_defaults(fn=_cmd_sum)

    p = sub.add_parser("completion", help="completion majorant W")
    p.add_argument("--family", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--method", choices=("fft", "naive", "both"), default="fft")
    common(p)
    p.set_defaults(fn=_cmd_completion)

    p = sub.add_parser("discrepancy", help="exact extreme discrepancy")
    p.add_argument("--family")
    p.add_argument("--u", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, help="short-interval window start (classical family)")
    common(p)
    p.set_defaults(fn=_cmd_discrepancy)

    p = sub.add_parser("vinogradov", help="exact power-sum system count")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--check-moment", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_vinogradov)

    def sweepish(p):
        p.add_argument("--config")
        p.add_argument("--kind")
        p.add_argument("--family")
        p.add_argument("--k", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--log2-n-min", dest="log2_n_min", type=int)
        p.add_argument("--log2-n-max", dest="log2_n_max", type=int)
        p.add_argument("--alphas")
        p.add_argument("--eps")
        p.add_argument("--experiment-id", dest="experiment_id")
        p.add_argument("--out-csv", dest="out_csv")
        p.add_argument("--out-jsonl", dest="out_jsonl")
        common(p)

    p = sub.add_parser("sweep", help="seeded metric experiment over samples")
    sweepish(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("dimscan", help="box-dimension proxies across the schedule")
    sweepish(p)
    p.set_defaults(fn=_cmd_dimscan)

    p = sub.add_parser("census", help="large-value box census")
    p.add_argument("--family", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--alpha", default="0.75")
    p.add_argument("--eps", default="0.05")
    p.add_argument("--samples-per-box", dest="samples_per_box", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("project", help="project a census' marked boxes")
    p.add_argument("--family", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--alpha", default="0.75")
    p.add_argument("--eps", default="0.05")
    p.add_argument("--samples-per-box", dest="samples_per_box", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--direction", help="comma-separated direction (k = 1)")
    p.add_argument("--coordinate-k", dest="coordinate_k", type=int, default=1)
    common(p)
    p.set_defaults(fn=_cmd_project)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except AssertionError as exc:
        print(f"hard invariant failed: {exc}", file=sys.stderr)
        return 4
    except (ValueError, NotImplementedError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
