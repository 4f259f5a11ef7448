"""Large-value censuses of the completion majorant.

The torus is cut into boxes whose side along axis j is the exact rational
1/ceil(N^(e_j + 1 + eps - alpha)); the census samples the majorant W in
every box and marks boxes that reach the threshold N^alpha.  Two families
of facts are checked as hard identities (the finite Markov inequality and
the per-box projection bound); everything asymptotic is reported, never
asserted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvariantViolation, check_cost, whole
from .expsum import (WeightSeq, _fft_split, _majorant, _phase_rows, _quantize_array, _reduce_rows,
                     _reduce_rows_bytes, _slab_terms, _twisted, _weights)
from .polyfam import PolynomialFamily

__all__ = [
    "BoxGrid",
    "CensusResult",
    "ProjectionSpec",
    "ProjectionResult",
    "grid_sides",
    "census",
    "counting_bound",
    "markov_check",
    "project_union",
    "per_box_projection_bound",
    "projection_reference",
]

_CHUNK = 4096  # boxes per chunk of sample draws
_STREAM_TAG = 0x63656E73  # "cens": keeps the census stream apart from project_union's
PAIR_BLOCK = 1 << 16  # (sample, polygon) pairs per inside test of the Monte Carlo projection
_SEED_MAX = (1 << 64) - 1  # a Philox key holds a seed in 64 bits: a larger one would share a stream


def _ceil_pow(N: int, q: Fraction) -> int:
    """ceil(N^q) for rational q = p/r > 0: the least c with c^r >= N^p.

    A float guess is corrected by exact comparisons alone, a gallop from the guess and then bisection:
    a big-int division, as Newton's method takes, is quadratic in CPython.  A guess below 2^40 is off by
    at most one, so two powers c^r decide it.
    """
    p, r = q.numerator, q.denominator
    t = N**p
    x = float(q) * math.log2(N)
    shift = max(int(x) - 52, 0)
    hi = math.ceil(2 ** (x - shift)) << shift  # the guess; the answer lies in (lo, hi]
    lo, step = hi - 1, 1
    while hi**r < t:
        lo, hi, step = hi, hi + step, 2 * step
    while lo**r >= t:
        lo, hi, step = max(lo - step, 0), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**r < t else (lo, mid)
    return hi


def _grid_cost(N: int, qs: Sequence[Fraction]) -> tuple[int, int]:
    """(terms, peak bytes) of the ceilings ceil(N^q), n 30-bit digits of N^p each.  A square of n digits takes
    Karatsuba's 3^b digit products, b the bit length of n, a power about 3/2 of its last square, and an axis
    three powers: N^p and the two c^r that bracket it.  24 bytes a digit hold N^p and a power in the making:
    its last square, the square's root and Karatsuba's halves."""
    digits = [math.ceil(q.numerator * Fraction(math.log2(N)) / 30) for q in qs]
    return sum(3 ** (n.bit_length() + 1) for n in digits), 24 * max(digits) + 4096


@dataclass(frozen=True)
class BoxGrid:
    """Geometry of a census grid: exact sides and box counts per axis."""

    d: int
    N: int
    alpha: Fraction
    eps: Fraction
    sides: tuple[Fraction, ...]
    counts: tuple[int, ...]
    U: int
    degrees: tuple[int, ...]

    @property
    def threshold(self) -> float:
        return float(self.N) ** float(self.alpha)


def _rationals(*values) -> tuple[Fraction, ...]:
    """The one gate of alpha and eps: Fractions, strings ("3/4", "0.05") or floats, as exact rationals."""
    try:
        return tuple(Fraction(v) for v in values)
    except ZeroDivisionError as exc:  # "1/0"
        raise ValueError(f"alpha and eps need a nonzero denominator: {exc}") from exc


def grid_sides(fam: PolynomialFamily, N: int, alpha, eps) -> BoxGrid:
    """Build the census grid with sides 1/ceil(N^(e_j + 1 + eps - alpha)).

    alpha and eps may be Fractions, strings ("0.05") or floats; they are
    converted to exact rationals so the per-axis ceilings are exact integers,
    not rounded float powers.
    """
    N = whole("N", N, 2)
    alpha, eps = _rationals(alpha, eps)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    qs = [e + 1 + eps - alpha for e in fam.degrees]
    check_cost("grid_sides", *_grid_cost(N, qs))
    counts = [_ceil_pow(N, q) for q in qs]
    U = math.prod(counts)
    return BoxGrid(
        d=fam.d,
        N=N,
        alpha=alpha,
        eps=eps,
        sides=tuple(Fraction(1, c) for c in counts),
        counts=tuple(counts),
        U=U,
        degrees=fam.degrees,
    )


@dataclass(frozen=True)
class CensusResult:
    """Outcome of one census: marked-box count plus empirical moments."""

    marked: int
    U: int
    threshold: float
    empirical_moment: float
    samples_per_box: int
    n_samples: int
    samples_ge_threshold: int
    moment_sum: float
    two_s: int
    marked_boxes: np.ndarray
    box_peaks: np.ndarray
    marked_by_alpha: dict | None = None


def _markov_holds(count: int, moment_sum: float, threshold: float, two_s: int) -> None:
    # Identity up to float roundoff in the moment sum; the guard factor only
    # absorbs summation error, not a real violation.
    lhs = count * threshold**two_s
    if lhs > moment_sum * (1.0 + 1e-9) + 1e-12:
        raise InvariantViolation(
            f"Markov inequality failed: {count} * {threshold}^{two_s} = {lhs} "
            f"> {moment_sum}"
        )


def markov_check(sampled_values: Sequence[float], threshold: float, two_s: int) -> bool:
    """Assert the finite Markov inequality #{v >= t} t^2s <= sum v^2s.

    This holds for any sample set; a failure raises InvariantViolation and
    indicates an implementation bug.  The empty sample passes vacuously.
    """
    two_s = whole("two_s", two_s, 1)
    vals = np.asarray(sampled_values, dtype=np.float64)
    count = int(np.sum(vals >= threshold))
    moment = float(np.sum(vals**two_s))
    _markov_holds(count, moment, threshold, two_s)
    return True


def _census_cost(grid: BoxGrid, spb: int) -> tuple[int, int]:
    """(terms, peak bytes) of a census: 17 + 16 d bytes a box, all marked; of one chunk of boxes, 32 a box and
    8 (2 d + D + 3) a sample, D the top degree (its probe and quantised probe, f's D + 1 coefficients, and its
    value in this chunk and the last); 48 a term of one slab of whole rows, magnitudes included; split twiddles."""
    boxes = min(grid.U, _CHUNK)
    slab = _slab_terms(boxes * spb, grid.N)
    peak = ((17 + 16 * grid.d) * grid.U + (32 + 8 * (2 * grid.d + max(grid.degrees) + 3) * spb) * boxes
            + _reduce_rows_bytes(slab, 16) + 16 * grid.N + _fft_split(grid.N)[2])
    return grid.U * spb * grid.N, peak


def census(
    fam: PolynomialFamily,
    a: WeightSeq,
    grid: BoxGrid,
    samples_per_box: int = 4,
    seed: int = 0,
    alphas: Sequence | None = None,
) -> CensusResult:
    """Sample W in every box and mark boxes reaching the threshold N^alpha.

    Each box is probed at its center plus spb - 1 uniform points drawn in
    box order from one Philox stream per call: draw j of box b on axis i is
    output (b*(spb-1) + j)*d + i, so no result depends on the chunking.
    Each sample is quantised to the 2^-64 grid, so its phases are exact.
    A chunk of boxes holds its samples one row an axis, (d, boxes, spb), read
    by the walker as a (samples, d) view: byte for byte the results of one row a sample.
    ``marked_boxes`` is an int64 (marked, d) array.  The Markov identity is
    asserted on every run; when ``alphas`` is given the same peaks are
    re-thresholded per alpha and the marked counts are checked to be monotone.
    """
    spb = whole("samples_per_box", samples_per_box, 1)
    seed = whole("seed", seed, 0, _SEED_MAX)
    N = grid.N
    d = grid.d
    check_cost("census", *_census_cost(grid, spb))
    two_s = d * (d + 1)  # 2 s(d)
    tau = grid.threshold
    weights = _weights(a, N)
    zeta = np.array([float(z) for z in grid.sides])
    counts = grid.counts

    gen = np.random.Generator(np.random.Philox(key=(seed << 64) | _STREAM_TAG))
    peaks = np.empty(grid.U, dtype=np.float64)
    moment_sum, samples_ge = 0.0, 0
    mags = np.empty((_slab_terms(min(grid.U, _CHUNK) * spb, N) // N, N))  # |X| of a slab; X replaces e(theta)
    majorant = _twisted(lambda c: _majorant(c, (c, mags[: len(c)])), weights)
    for start in range(0, grid.U, _CHUNK):
        stop = min(start + _CHUNK, grid.U)
        pts = np.empty((d, stop - start, spb))  # one row an axis: axis i of box b's sample j at [i, b, j]
        draws = gen.random((stop - start, spb - 1, d))
        for i, idx in enumerate(np.unravel_index(np.arange(start, stop), counts)):
            corner = idx * zeta[i]
            pts[i, :, 0] = corner + 0.5 * zeta[i]
            for j in range(1, spb):  # column by column: numpy is slow on short inner loops
                pts[i, :, j] = corner + draws[:, j - 1, i] * zeta[i]
        del draws  # before the quantised copy, which sets the chunk's peak
        w = _reduce_rows(*_phase_rows(fam.polys, _quantize_array(pts).reshape(d, -1).T, N),  # a (samples, d) view
                         majorant, np.float64).reshape(-1, spb)
        peaks[start:stop] = functools.reduce(np.maximum, w.T)
        samples_ge += int(np.count_nonzero(w >= tau))
        moment_sum += float(np.sum(np.power(w, two_s, out=w)))
    del majorant, mags  # the slab buffers, before the marked boxes are built

    marked_mask = peaks >= tau
    marked_lin = np.nonzero(marked_mask)[0]
    marked_boxes = np.stack(np.unravel_index(marked_lin, counts), axis=1)
    n_samples = grid.U * spb
    _markov_holds(samples_ge, moment_sum, tau, two_s)

    marked_by_alpha = None
    if alphas is not None:
        marked_by_alpha = {}
        prev_alpha, prev_count = None, None
        for al in sorted(float(x) for x in alphas):
            cnt = int(np.sum(peaks >= float(N) ** al))
            marked_by_alpha[al] = cnt
            if prev_alpha is not None and cnt > prev_count:
                raise InvariantViolation(
                    f"marked count increased from alpha={prev_alpha} to {al}"
                )
            prev_alpha, prev_count = al, cnt

    return CensusResult(
        marked=int(marked_mask.sum()),
        U=grid.U,
        threshold=tau,
        empirical_moment=moment_sum / n_samples,
        samples_per_box=spb,
        n_samples=n_samples,
        samples_ge_threshold=samples_ge,
        moment_sum=moment_sum,
        two_s=two_s,
        marked_boxes=marked_boxes,
        box_peaks=peaks,
        marked_by_alpha=marked_by_alpha,
    )


def counting_bound(grid: BoxGrid, alpha) -> float:
    """The reference count U N^(s(d)(1-2 alpha)); report-only (o(1) implied)."""
    sd = grid.d * (grid.d + 1) / 2
    return grid.U * float(grid.N) ** (sd * (1.0 - 2.0 * float(*_rationals(alpha))))


def projection_reference(grid: BoxGrid, sigma_tilde: int, k: int, alpha) -> float:
    """Reference scale N^(s(d)(1-2a) + sigma~_k + (d-k)(1-a)) for projected measure.

    The measure of the projected large-value set is expected at this scale
    up to N^o(1); emitted next to measured projections, never asserted.
    """
    sigma_tilde, k = whole("sigma_tilde", sigma_tilde, 0), whole("k", k, 1, grid.d)
    a = float(*_rationals(alpha))
    sd = grid.d * (grid.d + 1) / 2
    expo = sd * (1.0 - 2.0 * a) + sigma_tilde + (grid.d - k) * (1.0 - a)
    return float(grid.N) ** expo


# ---------------------------------------------------------------------------
# Orthogonal projections


class ProjectionSpec:
    """k orthonormal directions (rows) spanning the projection target."""

    __slots__ = ("k", "basis")

    def __init__(self, basis):
        b = np.asarray(basis, dtype=np.float64)
        if b.ndim == 1:
            b = b[None, :]
        if len(b) == 0:
            raise ValueError("the basis needs at least one direction")
        gram = b @ b.T
        if not np.allclose(gram, np.eye(len(b)), atol=1e-12):
            raise ValueError("basis rows must be orthonormal (within 1e-12)")
        self.basis = b
        self.k = len(b)

    @classmethod
    def coordinate(cls, d: int, k: int) -> "ProjectionSpec":
        d = whole("d", d, 1)
        return cls(np.eye(d)[: whole("k", k, 1, d)])


class ProjectionResult(NamedTuple):
    measure: float
    method: str
    std_error: float | None = None


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    prev_end = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
    return float(np.sum(np.maximum(0.0, e - np.maximum(s, prev_end))))


def _axis_of(row: np.ndarray) -> int | None:
    big = np.abs(np.abs(row) - 1.0) < 1e-12
    if big.sum() == 1 and np.all(np.abs(row[~big]) < 1e-12):
        return int(np.nonzero(big)[0][0])
    return None


def _hull_2d(pts: np.ndarray) -> np.ndarray:
    """Convex hull (CCW, no duplicate endpoint) of a small 2-D point cloud."""
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)  # repeated corners sort next to each other
    pts = pts[keep]
    if len(pts) <= 2:
        return pts

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2:
                u, v = out[-1] - out[-2], p - out[-2]
                if u[0] * v[1] - u[1] * v[0] > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _pair_blocks(first: np.ndarray, count: np.ndarray):
    """Row r's pairs sit at positions first[r] .. first[r] + count[r] - 1.

    Yields the row and the position of every pair, in blocks of consecutive
    rows holding at most PAIR_BLOCK pairs (or one row that alone holds more).
    """
    ends = np.cumsum(count)
    starts = ends - count  # index of each row's first pair
    lo = 0
    while lo < len(count):
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + PAIR_BLOCK, side="right")))
        rows = np.repeat(np.arange(lo, hi), count[lo:hi])
        yield rows, first[rows] + np.arange(starts[lo], starts[lo] + len(rows)) - starts[rows]
        lo = hi


def project_union(
    grid: BoxGrid,
    marked_boxes: np.ndarray | Sequence[Sequence[int]],
    spec: ProjectionSpec,
    samples: int = 4096,
    seed: int = 0,
) -> ProjectionResult:
    """Measure of the projection of the marked-box union onto the subspace.

    ``marked_boxes`` holds one row of d box indices per marked box; an index
    outside its axis's count is refused.  k = 1 merges the support intervals
    of the boxes exactly.  An axis-aligned basis counts the distinct index
    prefixes on its axes, and k = d, a rotation, counts the distinct boxes:
    both exact, so a repeated box counts once.  The remaining case k = 2 < d
    runs Monte Carlo over the projected bounding box with a reported standard
    error, using the fact that all projected boxes are translates of one
    convex polygon.  Each sample tests the next 1, 2, 4, ... translates of
    its own cell, then of the cells around it, and stops at its first hit;
    each round of tests runs in blocks of PAIR_BLOCK (sample, polygon) pairs.
    """
    d = grid.d
    samples = whole("samples", samples, 1)
    seed = whole("seed", seed, 0, _SEED_MAX)
    if spec.basis.shape[1] != d:
        raise ValueError(f"basis directions must have {d} components")
    k = spec.k
    if (m := len(marked_boxes)) == 0:
        return ProjectionResult(0.0, "exact_1d" if k == 1 else "exact_axis", None)
    idx = np.asarray(marked_boxes)
    if idx.ndim != 2 or idx.shape[1] != d or idx.dtype.kind not in "iu":
        raise ValueError(f"marked_boxes must be an (m, {d}) array of integer box indices, "
                         f"got shape {idx.shape} of {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    for ax, (col, n) in enumerate(zip(idx.T, grid.counts)):  # column by column: an axis-0 pass is slow
        if col.min() < 0 or col.max() >= n:
            row = int(np.argmax((col < 0) | (col >= n)))
            raise ValueError(f"marked box at row {row} has index {col[row]} on axis {ax}, outside 0..{n - 1}")
    zeta = np.array([float(z) for z in grid.sides])

    if k == 1:
        check_cost("project_union", m, (16 * d + 56) * m + 4096)
        e = spec.basis[0]
        centers = (idx + 0.5) * zeta
        mid = centers @ e
        hw = 0.5 * float(np.abs(e) @ zeta)
        return ProjectionResult(_union_length(mid - hw, mid + hw), "exact_1d", None)

    axes = [_axis_of(row) for row in spec.basis]
    if None not in axes or k == d:
        # a rotation keeps volume, and distinct grid boxes are disjoint: count them
        axes, method = (axes, "exact_axis") if None not in axes else (list(range(d)), "exact_full")
        check_cost("project_union", m, (16 * k + 10) * m + 4096)  # the k index rows, sorted, and two flags a box
        # distinct index rows by one lexicographic sort: not np.unique, which imports numpy.ma
        # (about 1.7 MiB), nor packed keys, whose range passes 2^63 on a grid of as many boxes
        cols = idx.T[axes]
        cols = cols[:, np.lexsort(cols)]
        new = np.zeros(m, dtype=bool)
        new[0] = True
        for col in cols:
            new[1:] |= col[1:] != col[:-1]
        return ProjectionResult(int(new.sum()) * math.prod(float(grid.sides[ax]) for ax in axes), method, None)

    if k != 2:
        raise NotImplementedError("general Monte Carlo projection is implemented for k in {1, 2, d}")
    # 56 bytes a box: its translate and cell, its key, the sort order and the sorted key.  104 a
    # sample: its point, cell and key, then a round's cursors.  32 + 18 d a pair of one block
    # (at most PAIR_BLOCK pairs, or one sample's translates of a crowded cell): its sample and
    # translate, their offset, and one test on each of the hull's up to 2 d edges
    check_cost("project_union", m + samples,
               56 * m + 104 * samples + (32 + 18 * d) * max(PAIR_BLOCK, m) + ((8 * d + 32) << d) + 4096)
    B = spec.basis  # (2, d)
    corners = np.array(
        [[(b >> j) & 1 for j in range(d)] for b in range(1 << d)], dtype=np.float64
    )
    zono = (corners * zeta) @ B.T  # shape of one projected box, 2^d points
    hull = _hull_2d(zono)
    centroid = hull.mean(axis=0)
    edges = np.roll(hull, -1, axis=0) - hull
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)  # outward for CCW
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.einsum("ij,ij->i", normals, hull)

    # each marked box's corner (scaled in place: idx * zeta casts in a slow broadcast loop), then
    # the translate of its zonotope and the samples, one row an axis
    trans = idx.astype(np.float64)
    trans *= zeta
    trans = np.ascontiguousarray((trans @ B.T).T)
    lo = trans.min(axis=1) + zono.min(axis=0)
    hi = trans.max(axis=1) + zono.max(axis=0)
    area_box = float(np.prod(hi - lo))
    gen = np.random.Generator(np.random.Philox(key=(seed << 64) | 0x70726F6A))
    xs = np.ascontiguousarray((lo + gen.random((samples, 2)) * (hi - lo)).T)

    # translates bucketed by cells of side rad, indexed by sorted packed cell keys
    rad = float(np.max(np.linalg.norm(zono - centroid, axis=1)))
    cell = max(rad, 1e-300)
    cells = np.floor(trans / cell).astype(np.int64)
    probes = np.floor((xs - centroid[:, None]) / cell).astype(np.int64)
    base = np.minimum(cells.min(axis=1), probes.min(axis=1))[:, None] - 1  # neighbour cells stay >= base
    cells -= base
    probes -= base
    width = int(max(cells.max(), probes.max())) + 2
    keys = cells[0] * width + cells[1]  # cell (x, y) -> (x - base_x) * width + (y - base_y), one-to-one
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    probe_keys = probes[0] * width + probes[1]

    hit = np.zeros(samples, dtype=bool)
    live = np.argsort(probe_keys, kind="stable")  # samples in key order: sorted needles search faster
    # a sample's own cell, the two beside it, then the three cells of the row on either side:
    # each a run of consecutive keys, so one pair of searches finds its translates
    for first, last in [(0, 0), (-1, -1), (1, 1), (-width - 1, 1 - width), (width - 1, width + 1)]:
        rows, step = live, 1
        pos = np.searchsorted(keys, probe_keys[live] + first)
        end = np.searchsorted(keys, probe_keys[live] + last, side="right")
        more = pos < end
        while more.any():  # the next 1, 2, 4, ... translates of each sample still out
            rows, pos, end = rows[more], pos[more], end[more]
            count = np.minimum(end - pos, step)
            for r, at in _pair_blocks(pos, count):
                rel = xs.take(rows[r], axis=1) - trans.take(order[at], axis=1)
                # einsum, not a BLAS product: nothing pins BLAS's thread pool
                inside = np.all(np.einsum("ip,ei->ep", rel, normals) <= offsets[:, None] + 1e-12, axis=0)
                hit[rows[r[inside]]] = True
            pos = np.where(hit[rows], end, pos + count)  # a hit ends the sample's search
            more = pos < end
            step *= 2
        live = live[~hit[live]]  # own cell first: most hits leave before the neighbours
    hits = int(hit.sum())
    p = hits / samples
    return ProjectionResult(
        area_box * p, "monte_carlo", area_box * math.sqrt(max(p * (1 - p), 0.0) / samples)
    )


def per_box_projection_bound(grid: BoxGrid, spec: ProjectionSpec) -> float:
    """Certified per-box bound for line projections: sqrt(d) * largest side.

    The projection of one box onto any unit direction has length
    sum_j |e_j| zeta_j <= ||zeta|| <= sqrt(d) max_j zeta_j, so the union of
    m marked boxes projects to measure at most m times this value.
    """
    if spec.k != 1:
        raise ValueError("the certified per-box bound is for line projections (k = 1)")
    return math.sqrt(grid.d) * max(float(z) for z in grid.sides)
