"""Exact rational calculus for the growth exponents.

Every bound is an exact Fraction; comparisons between bounds are therefore
machine-checked identities on finite parameter ranges, never floating-point
estimates.  Floats appear only in rendered output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import Inapplicable, whole
from .polyfam import CaseLabel, PolynomialFamily, _case, augmented_family

__all__ = [
    "s_of",
    "gamma_star",
    "gamma_general",
    "gamma_YL",
    "gamma_XL",
    "gamma_NL",
    "gamma_tilde",
    "disc_gamma",
    "disc_gamma_star",
    "self_improve_map",
    "fixed_point",
    "best_bound",
    "ExponentReport",
]


def _half_plus(a: int, b: int) -> Fraction:
    """1/2 + a/b as the one Fraction (b + 2a)/(2b): a single normalisation.

    1/2 + sigma/(2 s(q)) is ``_half_plus(sigma, q (q + 1))``, since 2 s(q) = q (q + 1).
    """
    return Fraction(b + 2 * a, 2 * b)


def s_of(q: int) -> Fraction:
    """s(q) = q(q+1)/2, the critical moment exponent."""
    q = whole("q", q, 1)
    return Fraction(q * (q + 1), 2)


class _Profile(NamedTuple):
    """What the exponents of one (family, k) read, built once by ``_profile``."""

    d: int
    k: int
    sigma: int
    sigma_tilde: int
    case: CaseLabel
    wronskian_ok: bool
    augmented_wronskian_ok: bool | None  # None outside case C


def _profile(fam: PolynomialFamily, k: int) -> _Profile:
    """The profile of (fam, k): the one place an exponent's split index is gated."""
    k = whole("k", k, 1, fam.d)
    case = _case(fam.degrees, k)
    aug_ok = augmented_family(fam).wronskian_nonvanishing() if case.label == "C" else None
    return _Profile(fam.d, k, sum(fam.degrees[k:]), sum(fam.sorted_degrees[k:]), case,
                    fam.wronskian_nonvanishing(), aug_ok)


def _require_wronskian(p: _Profile) -> None:
    if not p.wronskian_ok:
        raise Inapplicable("Wronskian of the family vanishes identically")


def _require_linear_y(p: _Profile, missing: str) -> None:
    """gamma_YL's hypotheses: a nonvanishing Wronskian and, unless the y block is empty (k = d), case A."""
    _require_wronskian(p)
    if p.k != p.d and p.case.label != "A":
        raise Inapplicable(f"{missing} (case {p.case.label})")


# Each formula below reads only the profile; the public function of the same
# name builds the profile of its (family, k) and calls it.


def _gamma_star(p: _Profile) -> Fraction:
    return _half_plus(2 * p.sigma + p.d - p.k + 1, 2 * p.d * p.d + 4 * p.d - 2 * p.k + 2)


def _gamma_general(p: _Profile) -> Fraction:
    _require_wronskian(p)
    return _half_plus(2 * p.sigma + p.d - p.k, 2 * p.d * p.d + 4 * p.d - 2 * p.k)


def _gamma_yl(p: _Profile) -> Fraction:
    _require_linear_y(p, "no linear polynomial in the y block")
    return _half_plus(p.sigma, p.d * (p.d + 1))


def _gamma_xl(p: _Profile) -> Fraction:
    _require_wronskian(p)
    if p.case.label != "B":
        raise Inapplicable(f"no linear polynomial confined to the x block (case {p.case.label})")
    if p.k < 2:
        raise Inapplicable("moving the linear member to y needs k >= 2")
    return _half_plus(p.sigma + 1, p.d * (p.d + 1))


def _gamma_nl(p: _Profile) -> Fraction:
    if p.case.label != "C":
        raise Inapplicable(f"family already contains a linear polynomial (case {p.case.label})")
    if not p.augmented_wronskian_ok:
        raise Inapplicable("Wronskian of the augmented family vanishes identically")
    return _half_plus(p.sigma + 1, (p.d + 1) * (p.d + 2))


def _gamma_tilde(p: _Profile) -> Fraction:
    _require_wronskian(p)
    if not 2 * p.sigma_tilde < p.d * (p.d + 1):
        raise Inapplicable(f"sigma~_k = {p.sigma_tilde} >= d(d+1)/2")
    return _half_plus(2 * p.sigma_tilde + p.d - p.k, 2 * p.d * p.d + 4 * p.d - 2 * p.k)


def _disc_gamma(p: _Profile) -> Fraction:
    _require_wronskian(p)
    if not 2 * p.sigma < p.d * (p.d + 1):
        raise Inapplicable(f"sigma_k = {p.sigma} >= d(d+1)/2")
    return _half_plus(p.d - p.k + 2 * p.sigma + 1, 2 * p.d * p.d + 4 * p.d - 2 * p.k + 2)


def _disc_gamma_star(p: _Profile) -> Fraction:
    return _half_plus(p.d - p.k + 2 * p.sigma + 2, 2 * p.d * p.d + 4 * p.d - 2 * p.k + 4)


def _self_improve(p: _Profile, t: Fraction) -> Fraction:
    _require_linear_y(p, "self-improvement needs a linear polynomial in y")
    dd = p.d * (p.d + 1)  # 2 s(d)
    # (s(d) + sigma_k + (d-k) t) / (2 s(d) + d - k), times 2 t.den above and below: one Fraction
    return Fraction((dd + 2 * p.sigma) * t.denominator + 2 * (p.d - p.k) * t.numerator,
                    2 * (dd + p.d - p.k) * t.denominator)


def gamma_star(fam: PolynomialFamily, k: int) -> Fraction:
    """The earlier benchmark exponent 1/2 + (2 sigma_k + d - k + 1)/(2d^2 + 4d - 2k + 2)."""
    return _gamma_star(_profile(fam, k))


def gamma_general(fam: PolynomialFamily, k: int) -> Fraction:
    """The general bound 1/2 + (2 sigma_k + d - k)/(2d^2 + 4d - 2k).

    Nontrivial (< 1) exactly when sigma_k < s(d); requires a nonvanishing
    Wronskian.
    """
    return _gamma_general(_profile(fam, k))


def gamma_YL(fam: PolynomialFamily, k: int) -> Fraction:
    """The linear-in-y bound 1/2 + sigma_k/(2 s(d)); needs case A.

    At k = d the y block is empty, sigma_d = 0, and the value 1/2 holds
    without any case hypothesis (it coincides with the general bound).
    """
    return _gamma_yl(_profile(fam, k))


def gamma_XL(fam: PolynomialFamily, k: int) -> Fraction:
    """The linear-in-x bound 1/2 + (sigma_k + 1)/(2 s(d)); needs case B and k >= 2."""
    return _gamma_xl(_profile(fam, k))


def gamma_NL(fam: PolynomialFamily, k: int) -> Fraction:
    """The no-linear-member bound 1/2 + (sigma_k + 1)/(2 s(d+1)).

    Needs case C and a nonvanishing Wronskian of the augmented family
    (the original family with T appended).
    """
    return _gamma_nl(_profile(fam, k))


def gamma_tilde(fam: PolynomialFamily, k: int) -> Fraction:
    """Projection bound 1/2 + (2 sigma~_k + d - k)/(2d^2 + 4d - 2k).

    Uses the sorted-degree statistic, so it holds for arbitrary orthogonal
    projections; applicable only when sigma~_k < d(d+1)/2.
    """
    return _gamma_tilde(_profile(fam, k))


def disc_gamma(fam: PolynomialFamily, k: int) -> Fraction:
    """Discrepancy exponent 1/2 + (d - k + 2 sigma_k + 1)/(2d^2 + 4d - 2k + 2)."""
    return _disc_gamma(_profile(fam, k))


def disc_gamma_star(fam: PolynomialFamily, k: int) -> Fraction:
    """The earlier discrepancy benchmark 1/2 + (d - k + 2 sigma_k + 2)/(2d^2 + 4d - 2k + 4)."""
    return _disc_gamma_star(_profile(fam, k))


# ---------------------------------------------------------------------------
# The self-improving map


def self_improve_map(fam: PolynomialFamily, k: int, t) -> Fraction:
    """One bootstrap step f(t) = (s(d) + sigma_k + (d-k) t) / (2 s(d) + d - k).

    f is affine with slope (d-k)/(2 s(d) + d - k) < 1 and fixes gamma_YL,
    so iterating from any t above the fixed point walks down to it.
    Applicable where gamma_YL is: in case A, and at k = d, where f is the
    constant 1/2.
    """
    return _self_improve(_profile(fam, k), Fraction(t))


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
    p = _profile(fam, k)
    target = _gamma_yl(p)
    if not target <= t0 <= 1:
        raise ValueError(f"t0 must lie in [{target}, 1], got {t0}")
    slope = Fraction(p.d - p.k, p.d * (p.d + 1) + p.d - p.k)
    assert slope < 1, "the bootstrap map must be a contraction"
    trace = [t0]
    while True:
        nxt = _self_improve(p, trace[-1])
        step = abs(nxt - trace[-1])
        trace.append(nxt)
        if step <= tol:
            return nxt, trace


# ---------------------------------------------------------------------------
# Report assembly


# every bound a report holds, in the order its values and reasons are listed
_BOUNDS = (
    ("gamma_star", _gamma_star),
    ("gamma", _gamma_general),
    ("gamma_yl", _gamma_yl),
    ("gamma_xl", _gamma_xl),
    ("gamma_nl", _gamma_nl),
    ("gamma_tilde", _gamma_tilde),
    ("disc_gamma", _disc_gamma),
    ("disc_gamma_star", _disc_gamma_star),
)
# the sum bounds a report selects from and their tags, in tie-break precedence
_SELECTED = (
    ("gamma_yl", "linear-y"),
    ("gamma_xl", "linear-x-moved"),
    ("gamma_nl", "append-linear"),
    ("gamma", "general"),
)


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
    p = _profile(fam, k)
    values: dict[str, Fraction] = {}
    reasons: dict[str, str] = {}
    for name, formula in _BOUNDS:
        try:
            values[name] = formula(p)
        except Inapplicable as exc:
            reasons[name] = str(exc)

    # A bound above 1 is weaker than the trivial |T| <= N and is not selected.
    for name in list(values):
        if values[name] > 1:
            reasons[name] = f"exceeds 1 ({values[name]}); trivial"
            del values[name]

    candidates = sorted(
        (values[name], rank, tag) for rank, (name, tag) in enumerate(_SELECTED) if name in values
    )
    if candidates:
        best_val, _, best_tag = candidates[0]
        tied = tuple(tag for val, _, tag in candidates if val == best_val)
    else:
        best_val, best_tag, tied = Fraction(1), "trivial", ()

    return ExponentReport(
        d=p.d,
        k=p.k,
        case=p.case,
        sigma=p.sigma,
        sigma_tilde=p.sigma_tilde,
        wronskian_ok=p.wronskian_ok,
        augmented_wronskian_ok=p.augmented_wronskian_ok,
        nontrivial=2 * p.sigma < p.d * (p.d + 1),
        values=values,
        reasons=reasons,
        best=best_val,
        best_tag=best_tag,
        best_tied=tied,
    )
