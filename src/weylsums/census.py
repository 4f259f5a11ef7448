"""Large-value censuses of the completion majorant.

The torus is cut into boxes whose side along axis j is the exact rational
1/ceil(N^(e_j + 1 + eps - alpha)); the census samples the majorant W in
every box and marks boxes that reach the threshold N^alpha.  Two families
of facts are checked as hard identities (the finite Markov inequality and
the per-box projection bound); everything asymptotic is reported, never
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BudgetError, InvariantViolation
from .expsum import WeightSeq, _majorant, _quantize_array, _twisted_coeffs
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
]

GRID_BOX_BUDGET = 1 << 24
CENSUS_TERM_BUDGET = 1 << 28  # U*spb*N phase terms: admits classical:2 at N = 32 (1.35e8)
_CHUNK = 4096  # boxes per chunk, cut further so a chunk holds at most _CHUNK_TERMS terms
_CHUNK_TERMS = 1 << 18
_STREAM_TAG = 0x63656E73  # "cens": keeps the census stream apart from project_union's
PAIR_BLOCK = 1 << 16  # (sample, polygon) pairs per inside test of the Monte Carlo projection


def _iroot(x: int, r: int) -> int:
    """floor(x^(1/r)) for nonnegative big ints (Newton iteration)."""
    if x < 0:
        raise ValueError("negative radicand")
    if r == 1 or x < 2:
        return x
    k = 1 << ((x.bit_length() + r - 1) // r)
    while True:
        nk = ((r - 1) * k + x // k ** (r - 1)) // r
        if nk >= k:
            break
        k = nk
    while k**r > x:
        k -= 1
    return k


def _ceil_pow(N: int, q: Fraction) -> int:
    """ceil(N^q) computed exactly for rational q > 0 (no float rounding)."""
    if q <= 0:
        return 1
    p, r = q.numerator, q.denominator
    t = N**p
    root = _iroot(t, r)
    return root if root**r == t else root + 1


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

    def corner(self, index: Sequence[int]) -> tuple[Fraction, ...]:
        return tuple(i * z for i, z in zip(index, self.sides))


def grid_sides(fam: PolynomialFamily, N: int, alpha, eps, budget: int = GRID_BOX_BUDGET) -> BoxGrid:
    """Build the census grid with sides 1/ceil(N^(e_j + 1 + eps - alpha)).

    alpha and eps may be Fractions, strings ("0.05") or floats; they are
    converted to exact rationals so the per-axis ceilings are computed with
    integer root extraction rather than rounded float powers.
    """
    N = int(N)
    alpha = Fraction(alpha)
    eps = Fraction(eps)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if N < 2:
        raise ValueError("N must be >= 2")
    counts = []
    for e in fam.degrees:
        q = Fraction(e + 1) + eps - alpha
        counts.append(_ceil_pow(N, q))
    U = math.prod(counts)
    if U > budget:
        raise BudgetError(f"grid has {U} boxes, budget {budget}")
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

    def to_json(self) -> dict:
        return {
            "marked": self.marked,
            "U": self.U,
            "threshold": self.threshold,
            "empirical_moment": self.empirical_moment,
            "samples_per_box": self.samples_per_box,
        }


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
    vals = np.asarray(sampled_values, dtype=np.float64)
    count = int(np.sum(vals >= threshold))
    moment = float(np.sum(vals**two_s))
    _markov_holds(count, moment, threshold, two_s)
    return True


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
    ``marked_boxes`` is an int64 (marked, d) array.  The Markov identity is
    asserted on every run; when ``alphas`` is given the same peaks are
    re-thresholded per alpha and the marked counts are checked to be monotone.
    """
    if samples_per_box < 1:
        raise ValueError("samples_per_box must be >= 1")
    N = grid.N
    d = grid.d
    spb = samples_per_box
    terms = grid.U * spb * N
    if terms > CENSUS_TERM_BUDGET:
        raise BudgetError(f"U*spb*N = {terms} phase terms exceed the budget {CENSUS_TERM_BUDGET}")
    two_s = d * (d + 1)  # 2 s(d)
    tau = grid.threshold
    a_arr = a.array(N)
    zeta = np.array([float(z) for z in grid.sides])
    counts = grid.counts

    seed = int(seed) & ((1 << 64) - 1)
    gen = np.random.Generator(np.random.Philox(key=(seed << 64) | _STREAM_TAG))
    peaks = np.empty(grid.U, dtype=np.float64)
    moment_sum = 0.0
    samples_ge = 0
    chunk = max(1, min(_CHUNK, _CHUNK_TERMS // (spb * N)))

    for start in range(0, grid.U, chunk):
        stop = min(start + chunk, grid.U)
        lin = np.arange(start, stop)
        idx = np.stack(np.unravel_index(lin, counts), axis=1).astype(np.float64)
        corners = idx * zeta
        pts = np.empty((stop - start, spb, d))
        pts[:, 0, :] = corners + 0.5 * zeta
        pts[:, 1:, :] = corners[:, None, :] + gen.random((stop - start, spb - 1, d)) * zeta
        c = _twisted_coeffs(fam.polys, _quantize_array(pts.reshape(-1, d)), a_arr, N)
        w = _majorant(c).reshape(stop - start, spb)
        peaks[start:stop] = w.max(axis=1)
        moment_sum += float(np.sum(w**two_s))
        samples_ge += int(np.sum(w >= tau))

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
    return grid.U * float(grid.N) ** (sd * (1.0 - 2.0 * float(alpha)))


def projection_reference(grid: BoxGrid, sigma_tilde: int, k: int, alpha) -> float:
    """Reference scale N^(s(d)(1-2a) + sigma~_k + (d-k)(1-a)) for projected measure.

    The measure of the projected large-value set is expected at this scale
    up to N^o(1); emitted next to measured projections, never asserted.
    """
    a = float(alpha)
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
        if not 1 <= k <= d:
            raise ValueError(f"coordinate projection needs 1 <= k <= d = {d}, got k = {k}")
        return cls(np.eye(d)[:k])


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

    k = 1 merges the support intervals of the boxes exactly; an axis-aligned
    basis reduces to counting distinct coordinate prefixes (also exact);
    k = d is a rotation, so the measure is the exact union volume.  The
    remaining case k = 2 < d runs Monte Carlo over the projected bounding
    box with a reported standard error, using the fact that all projected
    boxes are translates of one convex polygon.  Samples are tested against
    the polygons of their own cell first, and those that missed against each
    neighbouring cell in turn, in blocks of PAIR_BLOCK (sample, polygon) pairs.
    """
    d = grid.d
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if spec.basis.shape[1] != d:
        raise ValueError(f"basis directions must have {d} components")
    k = spec.k
    if len(marked_boxes) == 0:
        return ProjectionResult(0.0, "exact_1d" if k == 1 else "exact_axis", None)
    idx = np.asarray(marked_boxes, dtype=np.int64)
    zeta = np.array([float(z) for z in grid.sides])

    if k == 1:
        e = spec.basis[0]
        centers = (idx + 0.5) * zeta
        mid = centers @ e
        hw = 0.5 * float(np.abs(e) @ zeta)
        return ProjectionResult(_union_length(mid - hw, mid + hw), "exact_1d", None)

    axes = [_axis_of(row) for row in spec.basis]
    if all(ax is not None for ax in axes):
        # a set of packed keys, not np.unique, which imports numpy.ma (about 1.7 MiB)
        keys = np.ravel_multi_index(tuple(idx[:, axes].T), [grid.counts[ax] for ax in axes])
        measure = len(set(keys.tolist())) * math.prod(float(grid.sides[ax]) for ax in axes)
        return ProjectionResult(measure, "exact_axis", None)

    if k == d:
        # Full-rank orthonormal projection is a rotation: measure preserved,
        # and grid boxes are disjoint.
        return ProjectionResult(len(idx) * math.prod(map(float, grid.sides)), "exact_full", None)

    if k != 2:
        raise NotImplementedError(
            "general Monte Carlo projection is implemented for k in {1, 2, d}"
        )

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

    trans = (idx * zeta) @ B.T  # translate of each marked box's zonotope
    lo = trans.min(axis=0) + zono.min(axis=0)
    hi = trans.max(axis=0) + zono.max(axis=0)
    area_box = float(np.prod(hi - lo))

    # translates bucketed by cells of side rad, indexed by sorted packed cell keys
    rad = float(np.max(np.linalg.norm(zono - centroid, axis=1)))
    cell = max(rad, 1e-300)
    seed = int(seed) & ((1 << 64) - 1)  # as in census
    gen = np.random.Generator(np.random.Philox(key=(seed << 64) | 0x70726F6A))
    xs = lo + gen.random((samples, 2)) * (hi - lo)
    cells = np.floor(trans / cell).astype(np.int64)
    probes = np.floor((xs - centroid) / cell).astype(np.int64)
    base = np.minimum(cells.min(axis=0), probes.min(axis=0)) - 1  # neighbour cells stay >= base
    width = int(np.max(np.maximum(cells.max(axis=0), probes.max(axis=0)) - base)) + 2
    pack = [width, 1]  # cell (x, y) -> key (x - base_x) * width + (y - base_y), one-to-one
    keys = (cells - base) @ pack
    order = np.argsort(keys, kind="stable")
    keys = keys[order]

    hit = np.zeros(samples, dtype=bool)
    live = np.arange(samples)
    for shift in [(0, 0), (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]:
        probe_keys = (probes[live] - base + shift) @ pack
        first = np.searchsorted(keys, probe_keys)
        for rows, pos in _pair_blocks(first, np.searchsorted(keys, probe_keys, side="right") - first):
            rel = xs[live[rows]] - trans[order[pos]]
            # einsum, not a BLAS product: nothing pins BLAS's thread pool
            inside = np.all(np.einsum("pi,ei->pe", rel, normals) <= offsets + 1e-12, axis=1)
            hit[live[rows[inside]]] = True
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
