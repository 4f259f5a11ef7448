"""Exact extreme discrepancy of finite sequences in [0, 1).

The discrepancy here is the unnormalized supremum over open intervals
(a, b) of |#{points in (a,b)} - (b-a) N|.  Open-interval semantics matter
at atoms: N copies of one point have discrepancy N, realised by intervals
shrinking onto the atom (or, for an atom at 0, by (0, 1) missing it).
The supremum is a limit in general; the sweep computes the limit value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetError
from .expsum import TorusPoint, WeightSeq, _phases_float, weyl_sum
from .polyfam import IntPolynomial, PolynomialFamily, shift_coefficients

__all__ = [
    "DiscrepancyResult",
    "exact_discrepancy",
    "brute_force_discrepancy",
    "erdos_turan_bound",
    "erdos_turan_bound_poly",
    "poly_discrepancy",
    "short_interval_discrepancy",
]

BRUTE_FORCE_BUDGET = 512
ERDOS_TURAN_TERM_BUDGET = 1 << 22  # G*N sum terms


@dataclass(frozen=True)
class DiscrepancyResult:
    """Discrepancy value with a witness interval.

    The witness is reported at sweep resolution: the true supremum may only
    be attained as a limit of intervals shrinking onto these endpoints, so
    ``value`` can exceed the literal deviation of the open interval (a, b).
    """

    value: float
    witness: tuple[float, float]
    N: int

    def to_json(self) -> dict:
        return {"N": self.N, "value": self.value, "a": self.witness[0], "b": self.witness[1]}

    def csv_row(self) -> str:
        a, b = self.witness
        return f"{self.N},{self.value:.17g},{a:.17g},{b:.17g}"


def _validate(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 1 or len(pts) < 1:
        raise ValueError("need a one-dimensional, nonempty point list")
    if not np.all((pts >= 0.0) & (pts < 1.0)):  # also excludes NaN
        raise ValueError("point outside [0, 1)")
    return pts


def exact_discrepancy(points: Sequence[float]) -> DiscrepancyResult:
    """O(N log N) sweep for the exact extreme discrepancy.

    Writes the deviation as g-(b) - g+(a) with g-(t) = #{x < t} - Nt and
    g+(t) = #{x <= t} - Nt.  Both are piecewise linear with jumps at the
    atoms, so the supremum over a < b is attained (as one-sided limits)
    at atom positions or at the endpoints 0, 1; a single prefix-extremum
    sweep over those candidates finds it.
    """
    pts = _validate(points)
    N = len(pts)
    xs, counts = np.unique(pts, return_counts=True)
    K = len(xs)
    cum = np.cumsum(counts)
    low = np.concatenate(([0.0], cum[:-1])) - N * xs  # g- at each atom
    high = cum - N * xs  # g+ at each atom

    # Position code per atom i: 3i = left limit, 3i+1 = attained, 3i+2 = right
    # limit; -1 = the left endpoint a=0; 3K+3 = the right endpoint b=1.
    idx = np.arange(K)
    has_zero_atom = xs[0] == 0.0
    mask = xs > 0.0  # left limits only exist for positive atoms

    a_pos = np.concatenate(([-1], 3 * idx[mask], 3 * idx + 1))
    a_val = np.concatenate(([high[0] if has_zero_atom else 0.0], low[mask], high))
    a_coord = np.concatenate(([0.0], xs[mask], xs))
    order = np.argsort(a_pos, kind="stable")
    a_pos, a_val, a_coord = a_pos[order], a_val[order], a_coord[order]

    b_pos = np.concatenate((3 * idx[mask] + 1, 3 * idx + 2, [3 * K + 3]))
    b_val = np.concatenate((low[mask], high, [0.0]))
    b_coord = np.concatenate((xs[mask], xs, [1.0]))
    order = np.argsort(b_pos, kind="stable")
    b_pos, b_val, b_coord = b_pos[order], b_val[order], b_coord[order]

    # For each right-endpoint candidate, pair with the extreme left-endpoint
    # value at a strictly earlier position.
    before = np.searchsorted(a_pos, b_pos, side="left") - 1  # always >= 0
    run_min = np.minimum.accumulate(a_val)
    run_max = np.maximum.accumulate(a_val)
    gain = b_val - run_min[before]  # interval holds more than its share
    loss = run_max[before] - b_val  # interval holds less than its share

    j_gain = int(np.argmax(gain))
    j_loss = int(np.argmax(loss))
    if gain[j_gain] >= loss[j_loss]:
        value, j = float(gain[j_gain]), j_gain
        i = int(np.argmin(a_val[: before[j] + 1]))
    else:
        value, j = float(loss[j_loss]), j_loss
        i = int(np.argmax(a_val[: before[j] + 1]))
    return DiscrepancyResult(value=value, witness=(float(a_coord[i]), float(b_coord[j])), N=N)


def brute_force_discrepancy(points: Sequence[float]) -> float:
    """O(N^2) oracle: maximize the deviation over all candidate endpoint pairs.

    Candidates are 0, 1 and the distinct points; each pair is evaluated in
    the limit eta -> 0 of endpoints shifted by +-eta, i.e. with all four
    open/closed counting conventions (minus the ones an open subinterval of
    [0, 1) cannot reach).  Counting is by direct bisection, independent of
    the sweep in exact_discrepancy.
    """
    pts = _validate(points)
    N = len(pts)
    if N > BRUTE_FORCE_BUDGET:
        raise BudgetError(f"brute force capped at N = {BRUTE_FORCE_BUDGET}")
    pts = np.sort(pts)
    V = np.unique(np.concatenate((pts, [0.0, 1.0])))
    bl = np.searchsorted(pts, V, side="left").astype(np.float64)
    br = np.searchsorted(pts, V, side="right").astype(np.float64)

    base = (V[None, :] - V[:, None]) * N
    upper = np.triu(np.ones((len(V), len(V)), dtype=bool))
    left_open_only = V[:, None] == 0.0  # [0, .. would wrongly capture atoms at 0

    count_open = bl[None, :] - br[:, None]
    np.fill_diagonal(count_open, 0.0)
    count_lc = bl[None, :] - bl[:, None]  # [a, b)
    count_rc = br[None, :] - br[:, None]  # (a, b]
    count_cl = br[None, :] - bl[:, None]  # [a, b]

    best = 0.0
    for count, needs_left_closed in (
        (count_open, False),
        (count_rc, False),
        (count_lc, True),
        (count_cl, True),
    ):
        dev = np.abs(count - base)
        valid = upper & ~(left_open_only & needs_left_closed)
        best = max(best, float(dev[valid].max()))
    return best


def erdos_turan_bound(points: Sequence[float], G: int) -> float:
    """The upper bound 3 (N/(G+1) + sum_{g<=G} |sum_n e(g x_n)| / g) for D_N."""
    pts = _validate(points)
    N = len(pts)
    if G < 1:
        raise ValueError("G must be >= 1")
    total = 0.0
    block = max(1, (1 << 22) // max(N, 1))
    for start in range(1, G + 1, block):
        gs = np.arange(start, min(start + block, G + 1))
        sums = np.abs(np.exp(2j * np.pi * np.outer(gs, pts)).sum(axis=1))
        total += float(np.sum(sums / gs))
    return 3.0 * (N / (G + 1) + total)


def erdos_turan_bound_poly(fam: PolynomialFamily, u: TorusPoint, N: int, G: int) -> float:
    """Same bound for the polynomial sequence {f(n)}, reusing the sum kernel.

    The dilated phase g f(n) is the phase of the scaled point g*u, which is
    exact in raw fixed-point arithmetic, so each inner sum runs through the
    ordinary difference-table kernel.
    """
    if G < 1:
        raise ValueError("G must be >= 1")
    if G * N > ERDOS_TURAN_TERM_BUDGET:
        raise BudgetError(f"G*N = {G * N} sum terms exceed the budget {ERDOS_TURAN_TERM_BUDGET}")
    unit = WeightSeq.unit()
    total = 0.0
    for g in range(1, G + 1):
        total += abs(weyl_sum(fam, u.scaled(g), unit, N).value) / g
    return 3.0 * (N / (G + 1) + total)


def poly_discrepancy(fam: PolynomialFamily, u: TorusPoint, N: int) -> DiscrepancyResult:
    """Discrepancy of the fractional parts {f(n)}, n = 1..N, at exact phases."""
    if u.d != fam.d:
        raise ValueError(f"point has {u.d} coordinates, family needs {fam.d}")
    return exact_discrepancy(_phases_float(fam.polys, u.raw, N))


def short_interval_discrepancy(u: Sequence, M: int, N: int) -> DiscrepancyResult:
    """Discrepancy of {u_1 n + ... + u_d n^d} over the window n = M+1..M+N.

    Goes through the exact coefficient shift, keeping the constant term v_0
    in the phase, so the produced points are bit-for-bit the same multiset
    as direct evaluation over the shifted range and the discrepancy needs
    no translation-sandwich slack at all.
    """
    pt = TorusPoint.from_reals(u)
    d = pt.d
    v = shift_coefficients(pt.fractions(), M)
    raws = TorusPoint.from_reals(v).raw  # exact: denominators divide 2^64
    polys = [IntPolynomial.monomial(j) for j in range(d + 1)]
    return exact_discrepancy(_phases_float(polys, raws, N))
