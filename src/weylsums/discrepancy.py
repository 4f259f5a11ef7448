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

from .errors import check_cost, whole
from .expsum import (SCALE_BITS, TorusPoint, _expi_bytes, _phase_rows, _quantize_array, _reduce_rows, _slab_terms,
                     _twisted, raw_phases)
from .polyfam import IntPolynomial, PolynomialFamily, classical_family

__all__ = [
    "DiscrepancyResult",
    "exact_discrepancy",
    "brute_force_discrepancy",
    "erdos_turan_bound",
    "erdos_turan_bound_poly",
    "poly_discrepancy",
    "short_interval_discrepancy",
]


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
    check_cost("exact_discrepancy", len(pts), 48 * len(pts) + 4096)
    return _sweep_one(pts)


def _sweep_one(keys: np.ndarray) -> DiscrepancyResult:
    """The ``DiscrepancyResult`` of the sweep of one row keys[N]."""
    value, a, b = _sweep_rows(keys[None, :])
    return DiscrepancyResult(value=float(value[0]), witness=(float(a[0]), float(b[0])), N=len(keys))


def _sweep_values(ks: np.ndarray) -> np.ndarray:
    """The discrepancy of every row of ks[B, N], each row sorted: the sweep value.

    A key is a float point in [0, 1) or a uint64 raw phase, the point
    raw / 2^64.  The value is the largest valid candidate of ``_sweep_rows``
    minus the smallest (Kuipers–Niederreiter, ch. 2, §1): for any two
    candidates both orders are realised, the closed interval spanning them
    holding the gain and the open gap between them the loss.  The largest
    sweep value fl(v_b - v_a) over those pairs is then fl(max v - min v),
    since rounding is monotone.

    The extremes are taken over every point, with no atom masks, and are
    the same two numbers.  Within an atom N x is one float, so g+ =
    (t + 1) - N x grows to the atom's last point, a valid candidate, and
    g- = t - N x is least at its first, valid unless the atom sits at 0,
    where it is 0.0, the value of the b = 1 slot.  Every valid candidate
    lies between these extremes: a g- below its atom's last g+, a g+ above
    its atom's first g-, the b = 1 slot's 0.0 between the last point's
    g+ = N - N x >= 0 and the first point's g- = -N x <= 0, and the count
    of zeros at slot 0 is the last g+ of the atom at 0.
    """
    N = ks.shape[1]
    # N x in one pass: scaling by 2^-64 commutes with rounding, so this is N * (raw / 2^64)
    nx = ks * (N * 2.0**-SCALE_BITS if ks.dtype == np.uint64 else N)
    # float counts t, exact below 2^53: an int64 t would be cast through an 8192-element buffer
    high = np.max(np.arange(1.0, N + 1) - nx, axis=1)
    return high - np.min(np.subtract(np.arange(float(N)), nx, out=nx), axis=1)


def _sweep_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep of ``exact_discrepancy`` on every row of keys[B, N] at once.

    Order, distinctness and the atom at 0 are read off the keys; only the
    deviations t - N x use the float position x.  Returns the values and
    the witness endpoints a, b, each of shape (B,).  The value is the
    largest valid candidate minus the smallest, as in ``_sweep_values`` (by
    the same float operations).  The witness, which only the one-row entry
    points ``exact_discrepancy``, ``poly_discrepancy`` and
    ``short_interval_discrepancy`` report, is a pair of slots holding them;
    the sweeps of many rows call ``_sweep_values`` alone.

    Candidates sit in position order in one row of 2N + 2 slots: a = 0,
    then per sorted point t its left limit g-(x_t) and its attained value
    g+(x_t), then b = 1.  An atom's left limit sits at its first point and
    its attained value at its last; every other slot, and the left limit
    of an atom at 0, is neutral, so the valid candidates of each row are,
    in order, those of the atom-by-atom sweep.  The witness is the first
    left endpoint holding the smallest and the first right endpoint at or
    after it holding the largest (gain) or, where there is no such pair,
    the first left endpoint holding the largest and the first right
    endpoint at or after it holding the smallest (loss).
    """
    B, N = keys.shape
    ks = np.sort(keys, axis=1)
    xs = ks * 2.0**-SCALE_BITS if ks.dtype == np.uint64 else ks
    val = np.empty((B, 2 * N + 2))
    val[:, 0] = np.count_nonzero(ks == 0, axis=1)  # g+(0) of the atom at 0 (or none)
    nx = np.multiply(xs, N, out=val[:, 2:-1:2])  # N x, then g+ in place
    np.subtract(np.arange(float(N)), nx, out=val[:, 1:-1:2])  # g-, one-sided limits
    np.subtract(np.arange(1.0, N + 1), nx, out=nx)  # g+, attained
    val[:, -1] = 0.0
    high, low = val[:, 2:-1:2].max(axis=1), val[:, 1:-1:2].min(axis=1)
    new = ks[:, 1:] != ks[:, :-1]
    # a_ok: left-endpoint slots; b_ok: right-endpoint slots
    a_ok = np.zeros((B, 2 * N + 2), dtype=bool)
    a_ok[:, 0] = True
    a_ok[:, 1] = ks[:, 0] > 0
    a_ok[:, 3:-1:2] = new & (ks[:, 1:] > 0)
    a_ok[:, 2:-3:2] = new
    a_ok[:, -2] = True
    b_ok = a_ok.copy()
    b_ok[:, 0], b_ok[:, -1] = False, True
    rows = np.arange(B)

    def first(ok, extreme, after):  # the first ok slot at or after ``after`` holding the extreme, and if one is
        hit = np.zeros_like(ok)
        hit[rows, after] = True
        hit = np.logical_or.accumulate(hit, axis=1, out=hit) & ok & (val == extreme[:, None])
        return hit.argmax(axis=1), hit.any(axis=1)

    (i, has_low), (i_loss, _) = first(a_ok, low, 0), first(a_ok, high, 0)
    (j, has_high), (j_loss, _) = first(b_ok, high, i), first(b_ok, low, i_loss)
    gain = has_low & has_high
    i, j = np.where(gain, i, i_loss), np.where(gain, j, j_loss)

    def position(q):  # slot 0 sits at 0, slot 2N + 1 at 1, slots 2t + 1 and 2t + 2 at x_t
        inner = xs[rows, np.clip((q + 1) // 2 - 1, 0, N - 1)]
        return np.where(q == 0, 0.0, np.where(q == 2 * N + 1, 1.0, inner))

    return high - low, position(i), position(j)


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
    check_cost("brute_force_discrepancy", (N + 2) ** 2, 68 * (N + 2) ** 2 + 4096)
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
    G = whole("G", G, 1)
    check_cost("erdos_turan_bound", G * len(pts), _erdos_turan_bytes(len(pts), G))
    return _erdos_turan(_quantize_array(pts), G)


def erdos_turan_bound_poly(fam: PolynomialFamily, u: TorusPoint, N: int, G: int) -> float:
    """Same bound for the polynomial sequence {f(n)}, from its exact raw phases."""
    N, G = whole("N", N, 1), whole("G", G, 1)
    check_cost("erdos_turan_bound_poly", G * N, _erdos_turan_bytes(N, G))
    return _erdos_turan(raw_phases(fam.polys, u.raw, N), G)


def _erdos_turan_bytes(N: int, G: int) -> int:
    """Peak bytes of ``_erdos_turan`` on N points: 8 a point of the raw row, 24 a term of one slab of
    rows g x, S >= N terms (which also covers quantising float points), and 24 a dilation g."""
    S = _slab_terms(G, N)
    return 8 * N + 24 * S + 24 * G + _expi_bytes(S) + (1 << 16)


def _erdos_turan(raw: np.ndarray, G: int) -> float:
    """The Erdős–Turán bound of the points raw[N] / 2^64 (Kuipers–Niederreiter, ch. 2, Thm 2.5).

    g * raw in wrapping uint64 is the exact raw phase of the dilation g x_n
    mod 1, so the dilations g = 1..G are a row source of ``_reduce_rows``:
    each slab of rows is written by one wrapping product and taken to
    e(g x_n) by ``_expi``, and each row is summed whole.
    """
    N = len(raw)
    gs = np.arange(1, G + 1, dtype=np.uint64)
    sums = _reduce_rows((G, N), lambda f, lo, hi: np.multiply(gs[lo:hi, None], raw, out=f),
                        _twisted(lambda c: np.abs(c.sum(axis=1))), np.float64)
    return 3.0 * (N / (G + 1) + float(np.sum(sums / gs)))


def poly_discrepancy(fam: PolynomialFamily, u: TorusPoint, N: int) -> DiscrepancyResult:
    """Discrepancy of the fractional parts {f(n)}, n = 1..N, at exact phases."""
    N = whole("N", N, 1)
    check_cost("poly_discrepancy", N, 56 * N + 4096)
    return _sweep_one(raw_phases(fam.polys, u.raw, N))


def short_interval_discrepancy(u: Sequence, M: int, N: int) -> DiscrepancyResult:
    """Discrepancy of {u_1 n + ... + u_d n^d} over the window n = M+1..M+N.

    ``u`` is quantized once and the phases f(M+n) come from the offset
    kernel, exact mod 1, so the points are bit for bit those of direct
    evaluation over the window and need no translation-sandwich slack.
    """
    M, N = whole("M", M), whole("N", N, 1)
    check_cost("short_interval_discrepancy", N, 56 * N + 4096)
    pt = TorusPoint.from_reals(u)
    return _sweep_one(raw_phases(classical_family(pt.d).polys, pt.raw, N, M))


def _window_discrepancies(polys: Sequence[IntPolynomial], raw, starts, N: int) -> np.ndarray:
    """The discrepancy of {f(n)}, n = s+1..s+N, for every row of ``_phase_rows(polys, raw, N, starts)``.

    ``raw`` is one quantized point or one a row, and ``starts`` one start
    or one a row, on any family: ``discrepancy_short``'s drawn windows, or
    ``discrepancy``'s one window at start 0.  Each slab of rows from
    ``_reduce_rows`` is sorted in place and swept.
    """
    def sweep(f):
        f.sort(axis=1)
        return _sweep_values(f)

    return _reduce_rows(*_phase_rows(polys, raw, N, starts), sweep, np.float64)
