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
from .expsum import TorusPoint, _expi, _phases_float, _quantize_array, raw_phases
from .polyfam import PolynomialFamily, classical_family

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
ERDOS_TURAN_TERM_BUDGET = 1 << 22  # G*N terms of the one (G, N) dilation block
SWEEP_BLOCK = 1 << 12  # points per batched sweep of window discrepancies
SWEEP_POINT_BUDGET = 1 << 21  # points per one-row sweep, at about 160 bytes each: about 320 MiB


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
    _check_sweep(len(pts))
    value, a, b = _sweep_rows(pts[None, :])
    return DiscrepancyResult(value=float(value[0]), witness=(float(a[0]), float(b[0])), N=len(pts))


def _check_sweep(N: int) -> None:
    """Fail fast when one row of N points would outgrow SWEEP_POINT_BUDGET."""
    if N > SWEEP_POINT_BUDGET:
        raise BudgetError(f"N = {N} points exceed the sweep budget {SWEEP_POINT_BUDGET}")


def _sweep_rows(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep of ``exact_discrepancy`` on every row of pts[B, N] at once.

    Returns the values and the witness endpoints a, b, each of shape (B,).
    Candidates sit in position order in one row of 2N + 2 slots: a = 0,
    then per sorted point t its left limit g-(x_t) and its attained value
    g+(x_t), then b = 1.  An atom's left limit sits at its first point and
    its attained value at its last; every other slot, and the left limit
    of an atom at 0, is neutral, so the valid candidates of each row are,
    in order, those of the atom-by-atom sweep.  Slot q serves as a right
    endpoint paired with the left endpoints at slots 0..q.
    """
    B, N = pts.shape
    xs = np.sort(pts, axis=1)
    t = np.arange(N)
    nx = N * xs
    new = xs[:, 1:] != xs[:, :-1]
    val = np.empty((B, 2 * N + 2))
    val[:, 0] = np.count_nonzero(xs == 0.0, axis=1)  # g+(0) of the atom at 0 (or none)
    val[:, 1:-1:2] = t - nx  # g-, one-sided limits
    val[:, 2:-1:2] = (t + 1) - nx  # g+, attained
    val[:, -1] = 0.0
    # a_ok: left-endpoint slots; b_ok: right-endpoint slots
    a_ok = np.zeros((B, 2 * N + 2), dtype=bool)
    a_ok[:, 0] = True
    a_ok[:, 1] = xs[:, 0] > 0.0
    a_ok[:, 3:-1:2] = new & (xs[:, 1:] > 0.0)
    a_ok[:, 2:-3:2] = new
    a_ok[:, -2] = True
    b_ok = a_ok.copy()
    b_ok[:, 0], b_ok[:, -1] = False, True

    a_min = np.where(a_ok, val, np.inf)
    a_max = np.where(a_ok, val, -np.inf)
    run_min = np.minimum.accumulate(a_min, axis=1)
    run_max = np.maximum.accumulate(a_max, axis=1)
    gain = np.where(b_ok, val - run_min, -np.inf)  # interval holds more than its share
    loss = np.where(b_ok, run_max - val, -np.inf)  # interval holds less than its share

    rows = np.arange(B)
    j_gain = np.argmax(gain, axis=1)
    j_loss = np.argmax(loss, axis=1)
    use_gain = gain[rows, j_gain] >= loss[rows, j_loss]
    j = np.where(use_gain, j_gain, j_loss)
    value = np.where(use_gain, gain[rows, j_gain], loss[rows, j_loss])
    # a is the earliest left endpoint holding the extreme that b was paired with
    extreme = np.where(use_gain, run_min[rows, j], run_max[rows, j])
    i = np.argmax(np.where(use_gain[:, None], a_min, a_max) == extreme[:, None], axis=1)
    return value, _slot_coord(xs, i), _slot_coord(xs, j)


def _slot_coord(xs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The position of slot q of each row of ``_sweep_rows``."""
    N = xs.shape[1]
    x = xs[np.arange(len(q)), np.clip((q - 1) // 2, 0, N - 1)]
    return np.where(q == 0, 0.0, np.where(q == 2 * N + 1, 1.0, x))


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
    return _erdos_turan(_quantize_array(_validate(points)), G)


def erdos_turan_bound_poly(fam: PolynomialFamily, u: TorusPoint, N: int, G: int) -> float:
    """Same bound for the polynomial sequence {f(n)}, from its exact raw phases."""
    _check_erdos_turan(N, G)  # before the phases are built
    return _erdos_turan(raw_phases(fam.polys, u.raw, N), G)


def _check_erdos_turan(N: int, G: int) -> None:
    """Fail fast on G < 1, N < 1 or a (G, N) block past ERDOS_TURAN_TERM_BUDGET."""
    if G < 1 or N < 1:
        raise ValueError(f"need G >= 1 and N >= 1, got G = {G}, N = {N}")
    if G * N > ERDOS_TURAN_TERM_BUDGET:
        raise BudgetError(f"G*N = {G * N} sum terms exceed the budget {ERDOS_TURAN_TERM_BUDGET}")


def _erdos_turan(raw: np.ndarray, G: int) -> float:
    """The Erdős–Turán bound of the points raw[N] / 2^64 (Kuipers–Niederreiter, ch. 2, Thm 2.5).

    g * raw in wrapping uint64 is the exact raw phase of the dilation g x_n
    mod 1, so every g = 1..G is one row of a single (G, N) block, which
    ``_expi`` takes to e(g x_n).
    """
    N = len(raw)
    _check_erdos_turan(N, G)
    gs = np.arange(1, G + 1, dtype=np.uint64)
    sums = np.abs(_expi(gs[:, None] * raw).sum(axis=1))
    return 3.0 * (N / (G + 1) + float(np.sum(sums / gs)))


def poly_discrepancy(fam: PolynomialFamily, u: TorusPoint, N: int) -> DiscrepancyResult:
    """Discrepancy of the fractional parts {f(n)}, n = 1..N, at exact phases."""
    _check_sweep(N)
    return exact_discrepancy(_phases_float(fam.polys, u.raw, N))


def short_interval_discrepancy(u: Sequence, M: int, N: int) -> DiscrepancyResult:
    """Discrepancy of {u_1 n + ... + u_d n^d} over the window n = M+1..M+N.

    ``u`` is quantized once and the phases f(M+n) come from the offset
    kernel, exact mod 1, so the points are bit for bit those of direct
    evaluation over the window and need no translation-sandwich slack.
    """
    _check_sweep(N)
    pt = TorusPoint.from_reals(u)
    return exact_discrepancy(_phases_float(classical_family(pt.d).polys, pt.raw, N, M))


def _window_discrepancies(raw: Sequence[int], starts: Sequence[int], N: int) -> np.ndarray:
    """``short_interval_discrepancy`` values of the windows at every start.

    ``raw`` is the quantized u; the windows are swept together, in blocks
    of at most SWEEP_BLOCK points (or one window, if it alone holds more).
    """
    polys = classical_family(len(raw)).polys
    rows = max(1, SWEEP_BLOCK // N)
    return np.concatenate([
        _sweep_rows(_phases_float(polys, raw, N, starts[lo:lo + rows]))[0]
        for lo in range(0, len(starts), rows)
    ])
