"""Exact rational calculus for the growth exponents.

Every bound is an exact Fraction; comparisons between bounds are therefore
machine-checked identities on finite parameter ranges, never floating-point
estimates.  Floats appear only in rendered output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import Inapplicable
from .polyfam import (
    CaseLabel,
    PolynomialFamily,
    augmented_family,
    classify_case,
    degree_stats,
)

__all__ = [
    "Rational",
    "s_of",
    "gamma_star",
    "gamma_general",
    "gamma_YL",
    "gamma_XL",
    "gamma_NL",
    "gamma_tilde",
    "gamma_tilde_classical",
    "disc_gamma",
    "disc_gamma_star",
    "self_improve_map",
    "fixed_point",
    "best_bound",
    "ExponentReport",
]

# Exact rationals are the stdlib Fraction: always reduced, positive denominator.
Rational = Fraction

HALF = Fraction(1, 2)


def s_of(q: int) -> Fraction:
    """s(q) = q(q+1)/2, the critical moment exponent."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return Fraction(q * (q + 1), 2)


def _sigma(fam: PolynomialFamily, k: int) -> int:
    return degree_stats(fam, k)[0]


def _require_wronskian(fam: PolynomialFamily) -> None:
    if not fam.wronskian_nonvanishing():
        raise Inapplicable("Wronskian of the family vanishes identically")


def gamma_star(fam: PolynomialFamily, k: int) -> Fraction:
    """The earlier benchmark exponent 1/2 + (2 sigma_k + d - k + 1)/(2d^2 + 4d - 2k + 2)."""
    d = fam.d
    sigma = _sigma(fam, k)
    return HALF + Fraction(2 * sigma + d - k + 1, 2 * d * d + 4 * d - 2 * k + 2)


def gamma_general(fam: PolynomialFamily, k: int) -> Fraction:
    """The general bound 1/2 + (2 sigma_k + d - k)/(2d^2 + 4d - 2k).

    Nontrivial (< 1) exactly when sigma_k < s(d); requires a nonvanishing
    Wronskian.
    """
    _require_wronskian(fam)
    d = fam.d
    sigma = _sigma(fam, k)
    return HALF + Fraction(2 * sigma + d - k, 2 * d * d + 4 * d - 2 * k)


def gamma_YL(fam: PolynomialFamily, k: int) -> Fraction:
    """The linear-in-y bound 1/2 + sigma_k/(2 s(d)); needs case A.

    At k = d the y block is empty, sigma_d = 0, and the value 1/2 holds
    without any case hypothesis (it coincides with the general bound).
    """
    _require_wronskian(fam)
    if k == fam.d:
        return HALF
    case = classify_case(fam, k)
    if case.label != "A":
        raise Inapplicable(f"no linear polynomial in the y block (case {case.label})")
    return HALF + Fraction(_sigma(fam, k), 1) / (2 * s_of(fam.d))


def gamma_XL(fam: PolynomialFamily, k: int) -> Fraction:
    """The linear-in-x bound 1/2 + (sigma_k + 1)/(2 s(d)); needs case B and k >= 2."""
    _require_wronskian(fam)
    case = classify_case(fam, k)
    if case.label != "B":
        raise Inapplicable(f"no linear polynomial confined to the x block (case {case.label})")
    if k < 2:
        raise Inapplicable("moving the linear member to y needs k >= 2")
    return HALF + Fraction(_sigma(fam, k) + 1, 1) / (2 * s_of(fam.d))


def gamma_NL(fam: PolynomialFamily, k: int) -> Fraction:
    """The no-linear-member bound 1/2 + (sigma_k + 1)/(2 s(d+1)).

    Needs case C and a nonvanishing Wronskian of the augmented family
    (the original family with T appended).
    """
    case = classify_case(fam, k)
    if case.label != "C":
        raise Inapplicable(f"family already contains a linear polynomial (case {case.label})")
    if not augmented_family(fam).wronskian_nonvanishing():
        raise Inapplicable("Wronskian of the augmented family vanishes identically")
    return HALF + Fraction(_sigma(fam, k) + 1, 1) / (2 * s_of(fam.d + 1))


def gamma_tilde(fam: PolynomialFamily, k: int) -> Fraction:
    """Projection bound 1/2 + (2 sigma~_k + d - k)/(2d^2 + 4d - 2k).

    Uses the sorted-degree statistic, so it holds for arbitrary orthogonal
    projections; applicable only when sigma~_k < d(d+1)/2.
    """
    _require_wronskian(fam)
    d = fam.d
    _, sigma_tilde = degree_stats(fam, k)
    if not 2 * sigma_tilde < d * (d + 1):
        raise Inapplicable(f"sigma~_k = {sigma_tilde} >= d(d+1)/2")
    return HALF + Fraction(2 * sigma_tilde + d - k, 2 * d * d + 4 * d - 2 * k)


def gamma_tilde_classical(d: int, k: int) -> Fraction:
    """Closed form of gamma_tilde for the family (T, ..., T^d)."""
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    return HALF + Fraction((d - k) * (d + k + 2), 2 * d * d + 4 * d - 2 * k)


def disc_gamma(fam: PolynomialFamily, k: int) -> Fraction:
    """Discrepancy exponent 1/2 + (d - k + 2 sigma_k + 1)/(2d^2 + 4d - 2k + 2)."""
    _require_wronskian(fam)
    d = fam.d
    sigma = _sigma(fam, k)
    if not 2 * sigma < d * (d + 1):
        raise Inapplicable(f"sigma_k = {sigma} >= d(d+1)/2")
    return HALF + Fraction(d - k + 2 * sigma + 1, 2 * d * d + 4 * d - 2 * k + 2)


def disc_gamma_star(fam: PolynomialFamily, k: int) -> Fraction:
    """The earlier discrepancy benchmark 1/2 + (d - k + 2 sigma_k + 2)/(2d^2 + 4d - 2k + 4)."""
    d = fam.d
    sigma = _sigma(fam, k)
    return HALF + Fraction(d - k + 2 * sigma + 2, 2 * d * d + 4 * d - 2 * k + 4)


# ---------------------------------------------------------------------------
# The self-improving map


def self_improve_map(fam: PolynomialFamily, k: int, t) -> Fraction:
    """One bootstrap step f(t) = (s(d) + sigma_k + (d-k) t) / (2 s(d) + d - k).

    f is affine with slope (d-k)/(2 s(d) + d - k) < 1 and fixes gamma_YL,
    so iterating from any t above the fixed point walks down to it.
    Applicable in case A.
    """
    case = classify_case(fam, k)
    if case.label != "A":
        raise Inapplicable(f"self-improvement needs a linear polynomial in y (case {case.label})")
    d = fam.d
    sd = s_of(d)
    t = Fraction(t)
    return (sd + _sigma(fam, k) + (d - k) * t) / (2 * sd + d - k)


def fixed_point(
    fam: PolynomialFamily, k: int, t0, tol
) -> tuple[Fraction, list[Fraction]]:
    """Iterate the self-improving map from t0 until steps shrink below tol.

    Returns (value, trace).  For t0 above the fixed point the trace is
    strictly decreasing and converges geometrically with ratio
    (d-k)/(2 s(d) + d - k); starting exactly at the fixed point returns
    after one unchanged step.
    """
    t0 = Fraction(t0)
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    target = gamma_YL(fam, k)
    if not target <= t0 <= 1:
        raise ValueError(f"t0 must lie in [{target}, 1], got {t0}")
    d = fam.d
    slope = Fraction(d - k, 1) / (2 * s_of(d) + d - k)
    assert slope < 1, "the bootstrap map must be a contraction"
    trace = [t0]
    while True:
        nxt = self_improve_map(fam, k, trace[-1])
        step = abs(nxt - trace[-1])
        trace.append(nxt)
        if step <= tol:
            return nxt, trace


# ---------------------------------------------------------------------------
# Report assembly


_TAG_PRECEDENCE = {"linear-y": 0, "linear-x-moved": 1, "append-linear": 2, "general": 3}


@dataclass(frozen=True)
class ExponentReport:
    """All exponents for one (family, k) with applicability bookkeeping.

    ``values`` holds the applicable bounds; a name missing from ``values``
    appears in ``reasons`` instead.  ``best`` is the smallest applicable
    sum bound (ties broken by reduction precedence, recorded in
    ``best_tied`` so the choice is visible).
    """

    d: int
    k: int
    case: CaseLabel
    sigma: int
    sigma_tilde: int
    wronskian_ok: bool
    augmented_wronskian_ok: bool | None
    nontrivial: bool
    values: dict[str, Fraction] = field(default_factory=dict)
    reasons: dict[str, str] = field(default_factory=dict)
    best: Fraction = Fraction(1)
    best_tag: str = "trivial"
    best_tied: tuple[str, ...] = ()

    def to_json(self) -> dict:
        def enc(fr: Fraction) -> dict:
            return {"num": fr.numerator, "den": fr.denominator, "decimal": float(fr)}

        return {
            "d": self.d,
            "k": self.k,
            "case": str(self.case),
            "sigma": self.sigma,
            "sigma_tilde": self.sigma_tilde,
            "wronskian_ok": self.wronskian_ok,
            "augmented_wronskian_ok": self.augmented_wronskian_ok,
            "nontrivial": self.nontrivial,
            "values": {name: enc(v) for name, v in self.values.items()},
            "reasons": dict(self.reasons),
            "best": enc(self.best),
            "best_tag": self.best_tag,
            "best_tied": list(self.best_tied),
        }


def best_bound(fam: PolynomialFamily, k: int) -> ExponentReport:
    """Compute every applicable exponent and select the strongest sum bound.

    Case B and C families route through their reductions; when a reduction
    is unavailable (k = 1 in case B, vanishing augmented Wronskian in
    case C) the report falls back to the general bound.  Bounds that come
    out above 1 are recorded as trivial rather than selected.
    """
    sigma, sigma_tilde = degree_stats(fam, k)
    case = classify_case(fam, k)
    d = fam.d
    wr_ok = fam.wronskian_nonvanishing()
    aug_ok: bool | None = None
    if case.label == "C":
        aug_ok = augmented_family(fam).wronskian_nonvanishing()

    values: dict[str, Fraction] = {}
    reasons: dict[str, str] = {}

    def attempt(name: str, fn, *args):
        try:
            values[name] = fn(*args)
        except Inapplicable as exc:
            reasons[name] = str(exc)

    attempt("gamma_star", gamma_star, fam, k)
    attempt("gamma", gamma_general, fam, k)
    attempt("gamma_yl", gamma_YL, fam, k)
    attempt("gamma_xl", gamma_XL, fam, k)
    attempt("gamma_nl", gamma_NL, fam, k)
    attempt("gamma_tilde", gamma_tilde, fam, k)
    attempt("disc_gamma", disc_gamma, fam, k)
    attempt("disc_gamma_star", disc_gamma_star, fam, k)

    # A bound above 1 is weaker than the trivial |T| <= N and is not selected.
    for name in list(values):
        if values[name] > 1:
            reasons[name] = f"exceeds 1 ({values[name]}); trivial"
            del values[name]

    candidates = []
    if "gamma_yl" in values:
        candidates.append((values["gamma_yl"], "linear-y"))
    if "gamma_xl" in values:
        candidates.append((values["gamma_xl"], "linear-x-moved"))
    if "gamma_nl" in values:
        candidates.append((values["gamma_nl"], "append-linear"))
    if "gamma" in values:
        candidates.append((values["gamma"], "general"))

    if candidates:
        candidates.sort(key=lambda vt: (vt[0], _TAG_PRECEDENCE[vt[1]]))
        best_val, best_tag = candidates[0]
        tied = tuple(tag for val, tag in candidates if val == best_val)
    else:
        best_val, best_tag, tied = Fraction(1), "trivial", ()

    return ExponentReport(
        d=d,
        k=k,
        case=case,
        sigma=sigma,
        sigma_tilde=sigma_tilde,
        wronskian_ok=wr_ok,
        augmented_wronskian_ok=aug_ok,
        nontrivial=sigma < s_of(d),
        values=values,
        reasons=reasons,
        best=best_val,
        best_tag=best_tag,
        best_tied=tied,
    )
