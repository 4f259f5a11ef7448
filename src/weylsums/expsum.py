"""Exponential-sum kernels.

Phases are tracked in wrapping 64-bit fixed point (value = raw / 2^64).
Reduction mod 2^64 is a ring map, so evaluating the integer polynomial f
in wrapping uint64 arithmetic is exact and never drifts, and continuity
and completion identities can be tested at tight tolerances.

No float phase of f(n) is ever formed.  ``_expi`` maps a raw phase theta
straight to e(theta / 2^64): the top 12 bits pick a root of unity from a
table built once at import, and a short Taylor polynomial in the low 52
bits turns it through the rest (Tang, ACM TOMS 15(2), 1989).  Every value
is within 1e-15 of the exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BudgetError
from .polyfam import IntPolynomial, PolynomialFamily, classical_family

__all__ = [
    "SCALE_BITS",
    "TorusPoint",
    "WeightSeq",
    "SumTrace",
    "CompletionResult",
    "PhaseTable",
    "raw_phases",
    "weyl_sum",
    "short_interval_sum",
    "completion_naive",
    "completion_fft",
    "reconstruct_prefix",
    "reconstruct_all_prefixes",
    "sup_linear_coeff",
    "SupLinearResult",
    "vinogradov_count",
    "moment_integral",
    "exact_moment_grid",
]

SCALE_BITS = 64
_SCALE = 1 << SCALE_BITS
_MASK = _SCALE - 1
_TWO_PI = 2.0 * math.pi

VINOGRADOV_TUPLE_BUDGET = 1 << 28
VINOGRADOV_BLOCK = 1 << 18
MOMENT_GRID_BUDGET = 1 << 24
COMPLETION_NAIVE_BUDGET = 1 << 20  # (2N+1)*N terms: admits N <= 723
PREFIX_KERNEL_BUDGET = 1 << 20  # N*N kernel entries: admits N <= 1024
SUM_TERM_BUDGET = 1 << 22  # N phases per sum: admits every N used by tests, demos and bench

_TABLE_BITS = 12  # e(k / 2^12) per value k of a phase's top bits
_LOW_BITS = SCALE_BITS - _TABLE_BITS
_SLAB = 1 << 13  # terms per pass of _expi: its buffers stay in cache


def _root_table() -> np.ndarray:
    """e(k / 2^12), k = 0, ..., 2^12 - 1.

    Only the first octant is exponentiated, so no angle passes pi/4; the
    second follows from e(1/4 - x) = i conj(e(x)) and the other quarters
    from exact quarter turns.
    """
    q = 1 << (_TABLE_BITS - 2)
    octant = np.exp(2j * np.pi * np.arange(q // 2 + 1) / (1 << _TABLE_BITS))
    quarter = np.concatenate((octant, 1j * octant[q // 2 - 1 : 0 : -1].conj()))
    return np.concatenate([quarter * turn for turn in (1, 1j, -1, -1j)])


_ROOTS = _root_table()


def _quantize(x) -> int:
    """Round a real to the nearest point of the 2^-64 grid on the circle.

    This is the single quantization step: inputs pass through it once, and
    all later phase arithmetic is exact wrapping integer arithmetic.
    """
    f = Fraction(x) % 1
    return round(f * _SCALE) & _MASK


def _quantize_array(x: np.ndarray) -> np.ndarray:
    """``_quantize`` of every float of an array in [0, 1], as uint64.

    x * 2^64 is exact in binary floating point and rint rounds half to
    even, as ``round`` does; the largest float below 1 maps to
    2^64 - 2^11.  1.0 is the same point of the circle as 0 and maps to 0,
    so the cast never overflows.
    """
    y = np.rint(x * 2.0**SCALE_BITS)
    y[y == 2.0**SCALE_BITS] = 0.0
    return y.astype(np.uint64)


class TorusPoint:
    """A point of the d-torus stored as unsigned 64-bit fixed-point fractions."""

    __slots__ = ("raw",)

    def __init__(self, raw: Sequence[int]):
        raw = tuple(int(r) for r in raw)
        for r in raw:
            if not 0 <= r < _SCALE:
                raise ValueError(f"raw coordinate {r} outside [0, 2^64)")
        self.raw = raw

    @classmethod
    def from_reals(cls, xs: Sequence) -> "TorusPoint":
        return cls([_quantize(x) for x in xs])

    @property
    def d(self) -> int:
        return len(self.raw)

    def fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(r, _SCALE) for r in self.raw)

    def floats(self) -> tuple[float, ...]:
        return tuple(r / _SCALE for r in self.raw)

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, i: int) -> float:
        return self.raw[i] / _SCALE

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TorusPoint) and self.raw == other.raw

    def __hash__(self) -> int:
        return hash(self.raw)

    def __repr__(self) -> str:
        return f"TorusPoint({[f'{x:.6g}' for x in self.floats()]})"


class WeightSeq:
    """Complex weights a_1..a_N, either the constant 1 or an explicit list.

    Explicit weights must sit under a declared polynomial envelope
    |a_n| <= C n^c; the envelope is checked at construction, never inferred.
    """

    __slots__ = ("kind", "values", "envelope")

    def __init__(self, kind: str, values=None, envelope: tuple[float, float] | None = None):
        if kind not in ("unit", "explicit"):
            raise ValueError(f"unknown weight kind {kind!r}")
        self.kind = kind
        if kind == "unit":
            self.values = None
            self.envelope = (1.0, 0.0)
            return
        if values is None:
            raise ValueError("explicit weights need values")
        vals = np.asarray(values, dtype=np.complex128)
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("weights must be finite")
        if envelope is None:
            raise ValueError("explicit weights need a declared envelope (C, c)")
        C, c = float(envelope[0]), float(envelope[1])
        ns = np.arange(1, len(vals) + 1, dtype=np.float64)
        if np.any(np.abs(vals) > C * ns**c * (1 + 1e-12)):
            raise ValueError("weights violate the declared envelope |a_n| <= C n^c")
        self.values = vals
        self.envelope = (C, c)

    @classmethod
    def unit(cls) -> "WeightSeq":
        return cls("unit")

    @classmethod
    def explicit(cls, values, C: float, c: float = 0.0) -> "WeightSeq":
        return cls("explicit", values=values, envelope=(C, c))

    def array(self, N: int) -> np.ndarray:
        """a_1..a_N; N is checked against SUM_TERM_BUDGET before anything is allocated."""
        if N > SUM_TERM_BUDGET:
            raise BudgetError(f"N = {N} weights exceed the budget {SUM_TERM_BUDGET}")
        if self.kind == "unit":
            return np.ones(N, dtype=np.complex128)
        if len(self.values) < N:
            raise ValueError(f"weight list has {len(self.values)} entries, need {N}")
        return self.values[:N]


@dataclass(frozen=True)
class SumTrace:
    """One evaluated sum plus the prefix information gathered in the same pass.

    ``dyadic_prefixes[i]`` is |T(u; 2^i)| and ``dyadic_prefix_max[i]`` is
    max_{M <= 2^i} |T(u; M)|, for every power 2^i <= N.
    """

    value: complex
    N: int
    prefix_max: float
    dyadic_prefixes: tuple[float, ...] | None = None
    dyadic_prefix_max: tuple[float, ...] | None = None

    def to_json(self) -> dict:
        return {
            "value_re": self.value.real,
            "value_im": self.value.imag,
            "prefix_max": self.prefix_max,
            "N": self.N,
        }


@dataclass(frozen=True)
class CompletionResult:
    """The completion majorant W."""

    W: float
    N: int

    def to_json(self) -> dict:
        return {"W": self.W, "N": self.N}


# ---------------------------------------------------------------------------
# Phase tables


class PhaseTable:
    """The raw phases of f(n) = sum_j u_j phi_j(n) mod 1 for one point u.

    ``raw_phases(N)`` is the kernel ``raw_phases`` on the stored row, and
    ``registers`` are (f(0), Delta f(0), ..., Delta^D f(0)), differenced
    from f(0..D).
    """

    __slots__ = ("polys", "raws", "registers")

    def __init__(self, polys: Sequence[IntPolynomial], raws: Sequence[int]):
        self.polys = tuple(polys)
        self.raws = tuple(int(r) for r in raws)
        f = raw_phases(self.polys, self.raws, max([1] + [len(p.coeffs) for p in polys]), starts=-1)
        for m in range(1, len(f)):
            f[m:] -= f[m - 1 : -1]  # numpy buffers the overlap: Delta of the old values
        self.registers = tuple(int(r) for r in f)

    def raw_phases(self, N: int) -> np.ndarray:
        """The raw phases of n = 1, 2, ..., N as a uint64 array."""
        return raw_phases(self.polys, self.raws, N)

    @staticmethod
    def raw_at(polys: Sequence[IntPolynomial], raws: Sequence[int], n: int) -> int:
        """Raw phase at n in Python integer arithmetic, for exactness cross-checks."""
        return sum(r * p(n) for r, p in zip(raws, polys)) & _MASK


def raw_phases(polys: Sequence[IntPolynomial], raws, N: int, starts=0) -> np.ndarray:
    """Raw phases of f(n) = sum_j raws[..., j] phi_j(n) at n = s+1, ..., s+N.

    ``raws`` holds one row of d raw coordinates per sum and ``starts`` one
    integer offset s per row (any sign and size); the two broadcast, and
    the result is uint64 (..., N).  A single row is the case raws[d].

    Each row is folded into the coefficients of f, which is evaluated by
    Horner's rule in place.  Reduction mod 2^64 is a ring map and numpy's
    uint64 products and sums wrap, so every phase is exact.  Every phase
    comes through here, so this is where a point is checked against the
    family and N against ``SUM_TERM_BUDGET``.
    """
    if N > SUM_TERM_BUDGET:
        raise BudgetError(f"N = {N} phases exceed the budget {SUM_TERM_BUDGET}")
    raws = np.asarray(raws, dtype=np.uint64)
    d = raws.shape[-1] if raws.ndim else 0
    if d != len(polys):
        raise ValueError(f"point has {d} coordinates, family needs {len(polys)}")
    starts = np.array(np.asarray(starts, dtype=object) & _MASK, dtype=np.uint64)
    D = max([1] + [len(p.coeffs) for p in polys]) - 1
    table = np.zeros((d, D + 1), dtype=np.uint64)
    for j, p in enumerate(polys):
        table[j, : len(p.coeffs)] = [c & _MASK for c in p.coeffs]
    F = (raws[..., :, None] * table).sum(axis=-2, dtype=np.uint64)
    n = starts[..., None] + np.arange(1, N + 1, dtype=np.uint64)
    f = np.empty(np.broadcast_shapes(F.shape[:-1], n.shape[:-1]) + (N,), dtype=np.uint64)
    f[...] = F[..., D, None]
    for m in range(D - 1, -1, -1):
        f *= n
        f += F[..., m, None]
    return f


def _phases_float(polys, raws, N: int, starts=0) -> np.ndarray:
    """The phases {f(n)} of ``raw_phases`` as floats in [0, 1), for the discrepancy sweeps.

    A raw phase within 2^-54 of 1 rounds to the float 1.0; it is mapped to
    0.0, the same point of the circle.
    """
    x = raw_phases(polys, raws, N, starts).astype(np.float64) * 2.0**-SCALE_BITS
    x[x == 1.0] = 0.0
    return x


def _expi(theta: np.ndarray) -> np.ndarray:
    """e(theta / 2^64) of uint64 raw phases theta, as complex of the same shape.

    e(theta) = r (1 + z) with r = e(hi / 2^12), hi the top 12 bits of
    theta, a table entry, and z = (cos t - 1) + i sin t to Taylor order t^5
    in t = 2 pi lo / 2^64 < 2 pi / 2^12, lo the low 52 bits; the omitted
    terms are below 2e-20.  Only the small r z is rounded against r, so
    every value is within 1e-15 of the exact one.  The terms are taken in
    slabs of _SLAB through one set of buffers, written straight into the
    output.
    """
    flat = np.ascontiguousarray(theta).reshape(-1)
    out = np.empty(flat.shape, dtype=np.complex128)
    m = min(_SLAB, len(flat))
    bits = np.empty(m, dtype=np.uint64)
    t, s, x = (np.empty(m) for _ in range(3))
    z = np.empty(m, dtype=np.complex128)
    for lo in range(0, len(flat), _SLAB):
        th = flat[lo : lo + _SLAB]
        r = out[lo : lo + _SLAB]
        if len(th) < m:
            bits, t, s, x, z = (b[: len(th)] for b in (bits, t, s, x, z))
        np.right_shift(th, _LOW_BITS, out=bits)
        np.take(_ROOTS, bits.view(np.int64), out=r, mode="clip")
        np.bitwise_and(th, (1 << _LOW_BITS) - 1, out=bits)
        np.multiply(bits.view(np.int64), _TWO_PI * 2.0**-SCALE_BITS, out=t)  # lo < 2^52: exact as int64
        np.multiply(t, t, out=s)
        np.multiply(s, 1 / 24, out=x)  # cos t - 1 = s (s/24 - 1/2)
        np.subtract(x, 0.5, out=x)
        np.multiply(x, s, out=z.real)
        np.multiply(s, 1 / 120, out=x)  # sin t = t + t s (s/120 - 1/6)
        np.subtract(x, 1 / 6, out=x)
        np.multiply(x, s, out=x)
        np.multiply(x, t, out=x)
        np.add(t, x, out=z.imag)
        np.multiply(z, r, out=z)
        np.add(r, z, out=r)
    return out.reshape(np.shape(theta))


# ---------------------------------------------------------------------------
# The sums themselves


def weyl_sum(fam: PolynomialFamily, u: TorusPoint, a: WeightSeq, N: int) -> SumTrace:
    """T(u; N) = sum_{n<=N} a_n e(f(n)) with exact phase bookkeeping.

    The prefix maximum max_{M<=N} |T(u; M)| is tracked in the same pass,
    together with the prefix magnitudes at dyadic M.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    return _sum_trace(_twisted_coeffs(fam.polys, u.raw, a.array(N), N))


def _sum_trace(c: np.ndarray) -> SumTrace:
    """The value and the prefix record of sum_n c_n, for weyl_sum."""
    N = len(c)
    cum = np.cumsum(c)
    mags = np.abs(cum)
    running = np.maximum.accumulate(mags)
    powers = [(1 << i) - 1 for i in range(N.bit_length()) if (1 << i) <= N]
    return SumTrace(
        value=complex(cum[-1]),
        N=N,
        prefix_max=float(running[-1]),
        dyadic_prefixes=tuple(float(mags[p]) for p in powers),
        dyadic_prefix_max=tuple(float(running[p]) for p in powers),
    )


def short_interval_sum(u: Sequence, M: int, N: int) -> complex:
    """sum_{n=M+1}^{M+N} e(u_1 n + ... + u_d n^d).

    ``u`` is quantized once; the phases f(M+n) come from the offset kernel,
    so the window start, the constant term included, is exact.
    """
    pt = TorusPoint.from_reals(u)
    return complex(np.sum(_twisted_coeffs(classical_family(pt.d).polys, pt.raw, 1.0, N, M)))


def _twisted_coeffs(polys: Sequence[IntPolynomial], raws, a, N: int, starts=0) -> np.ndarray:
    """a_n e(f(n)) at n = s+1, ..., s+N: complex (..., N).

    The exact phases of ``raw_phases`` go through ``_expi``.  ``raws`` and
    ``starts`` broadcast as in ``raw_phases``, and the weights ``a`` (an
    array or a scalar) against the phases, which they multiply in place.
    """
    c = _expi(raw_phases(polys, raws, N, starts))
    c *= a
    return c


def completion_naive(fam: PolynomialFamily, u: TorusPoint, a: WeightSeq, N: int) -> CompletionResult:
    """Reference evaluation of the completion majorant, a direct O(N^2) loop over h.

    W(u; N) = sum_{h=-N}^{N} (|h|+1)^{-1} |sum_{n<=N} a_n e(hn/N + f(n))|.
    The h = 0 term is the plain sum, so W >= |T(u; N)|; the full weighted
    family dominates every prefix T(u; M), M <= N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if (2 * N + 1) * N > COMPLETION_NAIVE_BUDGET:
        raise BudgetError(f"(2N+1)*N terms exceed the budget {COMPLETION_NAIVE_BUDGET} at N = {N}")
    c = _twisted_coeffs(fam.polys, u.raw, a.array(N), N)
    n = np.arange(1, N + 1)
    total = 0.0
    for h in range(-N, N + 1):
        inner = np.sum(c * np.exp(2j * np.pi * h * n / N))
        total += abs(inner) / (abs(h) + 1)
    return CompletionResult(W=float(total), N=N)


def _spectrum(c: np.ndarray, N: int) -> np.ndarray:
    # X_h = sum_{n=1..N} c_n e(hn/N); the n = N term aliases to index 0,
    # so a single length-N inverse DFT of the rolled coefficients gives all h.
    return N * np.fft.ifft(np.roll(c, 1, axis=-1))


def _fold_weights(N: int) -> np.ndarray:
    """w_N[k] = sum_{|h| <= N, h = k mod N} 1/(|h|+1): the majorant's weights folded onto k."""
    k = np.arange(N, dtype=np.float64)
    w = 1.0 / (k + 1.0) + 1.0 / (N + 1.0 - k)  # h = k and h = k - N
    w[0] += 1.0 / (N + 1.0)  # h = N also folds onto k = 0
    return w


def _majorant(c: np.ndarray) -> np.ndarray:
    """W = sum_{h=-N}^{N} |X_h| / (|h| + 1) over the last axis: (..., N) -> (...).

    X_h is N-periodic in h, so W = sum_k |X_k| w_N[k] with the weights
    folded by ``_fold_weights``.  |fft(c)[k]| = |X_{-k}| (the roll in
    ``_spectrum`` only twists phases) and w_N[k] = w_N[-k mod N], so the
    forward transform's magnitudes are weighted as they are.  einsum, not
    a BLAS dot, reduces them: an unpinned BLAS pool was slower at B = 1.
    """
    w = _fold_weights(c.shape[-1])
    return np.einsum("...n,n->...", np.abs(np.fft.fft(c, axis=-1)), w)


def completion_fft(fam: PolynomialFamily, u: TorusPoint, a: WeightSeq, N: int) -> CompletionResult:
    """O(N log N) completion majorant via one length-N DFT.

    The twist e(hn/N) is N-periodic in h, so the 2N+1 inner sums collapse
    onto the N spectrum values X_k, each weighted by the sum of
    1/(|h|+1) over the h that fold onto it (see ``_majorant``); agrees
    with completion_naive to floating-point tolerance.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    c = _twisted_coeffs(fam.polys, u.raw, a.array(N), N)
    return CompletionResult(W=float(_majorant(c)), N=N)


def reconstruct_prefix(fam: PolynomialFamily, u: TorusPoint, a: WeightSeq, N: int, M: int) -> complex:
    """Recover T(u; M) from the twisted full-length sums.

    (1/N) sum_{h=1}^{N} (sum_{k<=M} e(-hk/N)) X_h equals the direct prefix
    sum exactly (orthogonality of the h-twist); this is the module's
    strongest self-test.
    """
    N, M = int(N), int(M)
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    c = _twisted_coeffs(fam.polys, u.raw, a.array(N), N)
    X = _spectrum(c, N)
    h = np.arange(1, N + 1)
    w = np.exp(-2j * np.pi * h / N)
    geom = np.empty(N, dtype=np.complex128)
    interior = h < N
    wi = w[interior]
    geom[interior] = wi * (1 - wi**M) / (1 - wi)
    geom[~interior] = M  # h = N: the twist is trivial
    return complex(np.sum(geom * X[h % N]) / N)


def reconstruct_all_prefixes(fam: PolynomialFamily, u: TorusPoint, a: WeightSeq, N: int) -> np.ndarray:
    """All reconstructed prefixes T(u; 1..N) in one O(N^2) pass (test helper)."""
    if N * N > PREFIX_KERNEL_BUDGET:
        raise BudgetError(f"N*N = {N * N} kernel entries exceed the budget {PREFIX_KERNEL_BUDGET}")
    c = _twisted_coeffs(fam.polys, u.raw, a.array(N), N)
    X = _spectrum(c, N)
    h = np.arange(1, N + 1)
    kernel = np.exp(-2j * np.pi * np.outer(h, np.arange(1, N + 1)) / N)
    geom = np.cumsum(kernel, axis=1)  # geom[h-1, M-1] = sum_{k<=M} e(-hk/N)
    return (X[h % N] @ geom) / N


class SupLinearResult(NamedTuple):
    grid_max: float
    certified_upper: float
    argmax_y: float


def sup_linear_coeff(c: Sequence[complex], oversample: int = 4) -> SupLinearResult:
    """Certified supremum of g(y) = |sum_{n<=N} c_n e(yn)| over the circle.

    Evaluates g on the grid y = j/L, L = oversample*N, via one zero-padded
    transform, then adds the Lipschitz slack 2*pi*(1/(2L))*N*sum|c_n|
    (|g'| <= 2*pi*N*sum|c_n|), so the true supremum lies between grid_max
    and certified_upper.
    """
    c = np.asarray(c, dtype=np.complex128)
    N = len(c)
    if N < 1:
        raise ValueError("need at least one coefficient")
    if oversample < 2:
        raise ValueError("oversample must be >= 2")
    L = oversample * N
    padded = np.zeros(L, dtype=np.complex128)
    padded[1 : N + 1] = c
    mags = np.abs(L * np.fft.ifft(padded))
    j = int(np.argmax(mags))
    grid_max = float(mags[j])
    slack = _TWO_PI * (0.5 / L) * N * float(np.sum(np.abs(c)))
    return SupLinearResult(grid_max, grid_max + slack, j / L)


# ---------------------------------------------------------------------------
# Mean values


def vinogradov_count(d: int, s: int, N: int) -> int:
    """Exact number of solutions of the power-sum system.

    Counts ordered 2s-tuples (n_1..n_s, m_1..m_s) in [1,N]^{2s} with
    sum n_i^j = sum m_i^j for every j = 1..d, by keying the N^s ordered
    s-tuples on their power-sum vector and summing squared multiplicities.

    Equal keys have equal S_1 = sum n_i, so the s-tuples are walked in
    windows of S_1 values, each holding at most VINOGRADOV_BLOCK of them
    (or a single S_1 value that alone holds more), and a window's count is
    final.  A window is gathered from the (s-1)-tuple tail, sorted by S_1,
    shifted by each head n_s, so memory is O((VINOGRADOV_BLOCK + N^(s-1)) * d)
    whatever the number of distinct keys.
    """
    d, s, N = int(d), int(s), int(N)
    if d < 1 or s < 1 or N < 1:
        raise ValueError("d, s, N must all be >= 1")
    if N**s > VINOGRADOV_TUPLE_BUDGET:
        raise BudgetError(
            f"N^s = {N**s} tuples exceeds the enumeration budget {VINOGRADOV_TUPLE_BUDGET}"
        )
    if s * N**d >= 1 << 62:
        raise BudgetError("power sums exceed the exact int64 range")
    n = np.arange(1, N + 1, dtype=np.int64)
    powers = np.stack([n**j for j in range(1, d + 1)], axis=1)  # (N, d), exact
    tail = np.zeros((1, d), dtype=np.int64)
    for _ in range(s - 1):
        tail = (tail[:, None, :] + powers[None, :, :]).reshape(-1, d)
    tail = tail[np.argsort(tail[:, 0])]
    t1 = tail[:, 0]
    # an S_1 value holds at most N * (most tail rows sharing one S_1) tuples
    width = max(1, VINOGRADOV_BLOCK // (N * int(np.bincount(t1).max())))
    total = 0
    for lo in range(s, s * N + 1, width):
        starts = np.searchsorted(t1, lo - n)
        lengths = np.searchsorted(t1, lo + width - n) - starts
        offsets = np.cumsum(lengths) - lengths
        idx = np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))
        keys = tail[idx] + np.repeat(powers, lengths, axis=0)
        keys = keys[np.lexsort(keys.T)]
        new_key = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
        counts = np.diff(np.concatenate(([0], new_key, [len(keys)])))
        total += int(np.dot(counts, counts))
    return total


def exact_moment_grid(fam: PolynomialFamily, N: int, two_s: int) -> list[int]:
    """Smallest per-axis grid that integrates |T|^two_s exactly.

    |T|^two_s is a trigonometric polynomial whose u_j-frequencies span at
    most s*(max phi_j - min phi_j) over n <= N, so any finer uniform grid
    kills every nonzero frequency.
    """
    N, two_s = int(N), int(two_s)
    s = two_s // 2
    grid = []
    for p in fam.polys:
        vals = [p(n) for n in range(1, N + 1)]
        grid.append(s * (max(vals) - min(vals)) + 1)
    return grid


def moment_integral(
    fam: PolynomialFamily,
    a: WeightSeq,
    N: int,
    two_s: int,
    grid: Sequence[int],
) -> float:
    """Uniform-grid quadrature of the 2s-th moment of |T(u; N)| over the torus.

    With a fine-enough grid (see exact_moment_grid) the quadrature is exact
    for the trigonometric polynomial |T|^two_s, so it reproduces the
    solution count of the corresponding power-sum system.  A too-coarse
    grid raises instead of silently returning an aliased value.
    """
    N, two_s = int(N), int(two_s)
    grid = [int(g) for g in grid]
    if two_s < 2 or two_s % 2:
        raise ValueError("two_s must be a positive even integer")
    if len(grid) != fam.d:
        raise ValueError(f"grid needs {fam.d} axis sizes")
    required = exact_moment_grid(fam, N, two_s)
    for g, r, p in zip(grid, required, fam.polys):
        if g < r:
            raise ValueError(
                f"grid axis for {p!r} has {g} points; {r} needed for exactness"
            )
    total = 1
    for g in grid:
        total *= g
    if total > MOMENT_GRID_BUDGET:
        raise BudgetError(f"grid has {total} points, budget {MOMENT_GRID_BUDGET}")

    weights = a.array(N)
    operands = []
    for j, (g, p) in enumerate(zip(grid, fam.polys)):
        vals = np.array([p(n) % g for n in range(1, N + 1)], dtype=np.float64)
        js = np.arange(g, dtype=np.float64)
        operands += [np.exp(2j * np.pi * np.outer(js, vals) / g), [j, fam.d]]
    # sublist form: axis j of t is grid axis j, axis d runs over n = 1..N
    t = np.einsum(*operands, weights, [fam.d], list(range(fam.d)))
    return float(np.mean(np.abs(t) ** two_s))
