"""Exponential-sum kernels.

Phases are tracked in wrapping 64-bit fixed point (value = raw / 2^64).
Reduction mod 2^64 is a ring map, so evaluating the integer polynomial f
in wrapping uint64 arithmetic is exact and never drifts, and continuity
and completion identities can be tested at tight tolerances.

No float phase of f(n) is ever formed.  ``_expi`` maps a raw phase theta
straight to e(theta / 2^64): the top 12 bits pick a root of unity from a
table built once at import, and a short Taylor polynomial in the low 52
bits turns it through the rest (Tang, ACM TOMS 15(2), 1989).  Every value
is within 1e-15 of the exact one.  A window start s is folded into the
coefficients of f(n + s), so every phase row is one Horner pass over n = 1..N.
``raw_phases`` makes whole arrays of phases.  ``_majorant`` transforms a row longer than _FFT_LEN
points as short batched transforms and twiddles (Bailey's four-step FFT, J. Supercomputing 4, 1990):
pocketfft would take a one-call transform's N-point scratch from the OS and give it back every time.
``_reduce_rows`` is the one walker that cuts phase rows into slabs and reduces each row to one
value: rows of ``_phase_rows`` (the sweeps' sup over y and discrepancies, the census and
``short_interval_sum``) or the Erdős–Turán dilations g x, taken through ``_twisted`` where the
reduction needs e(theta).  Its one-row case in windows, ``_prefix_scan``, carries the running sum
T(u; M) from window to window: ``weyl_sum``, the ``weyl`` k = d sweep, and every entry point that
holds the row a_n e(f(n)) whole (``completion_fft`` among them) take it from there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BudgetError, InvariantViolation, check_cost, whole, whole_array
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

VINOGRADOV_BLOCK = 1 << 18

_TABLE_BITS = 12  # e(k / 2^12) per value k of a phase's top bits
_LOW_BITS = SCALE_BITS - _TABLE_BITS
_SLAB = 1 << 13  # terms per pass of _expi and per slab of _reduce_rows: the buffers stay in cache
_FFT_LEN = 1 << 13  # the longest row _majorant transforms in one np.fft.fft call; longer ones split


def _slab_terms(B: int, N: int) -> int:
    """Terms in a slab of ``_reduce_rows`` on B rows of N: whole rows, about _SLAB, at least one."""
    return N * max(1, min(B, _SLAB // N))


def _expi_bytes(n: int) -> int:
    """Peak bytes of ``_expi``'s slab buffers on n terms, plus 4 KiB of small arrays, or 16 KiB over the many
    passes of a longer row: numpy and CPython keep some of each pass's small objects."""
    return 48 * min(n, _SLAB) + (4096 if n <= _SLAB else 1 << 14)


def _reduce_rows_bytes(T: int, reduce_bytes: int) -> int:
    """Peak bytes of a walk of ``_reduce_rows`` through ``_twisted`` in slabs of T terms: 32 a term (phases,
    n, e(theta)), ``reduce_bytes`` a term for what the reduction makes, and ``_expi``'s buffers."""
    return (32 + reduce_bytes) * T + _expi_bytes(T)


def _scan_bytes(N: int, D: int) -> int:
    """Peak bytes of ``_prefix_scan`` on N terms of degree D, a held row aside: a window of m terms takes 32
    a term (phases, n, sums) and ``_expi``'s buffers, which then hold the magnitudes; a window, its D + 1
    coefficients twice, its start and value; the records 4 KiB, or 16 KiB kept over many windows."""
    m, windows = min(N, _SLAB), -(-N // _SLAB)
    return 32 * m + _expi_bytes(m) + (16 * D + 32) * windows + (1 << 14 if windows > 1 else 1 << 12)


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
    even, as ``round`` does.  From x = 1/2 on, x - 1 is exact, and
    (x - 1) * 2^64, in [-2^63, 0], is the same point of the circle (1.0
    is 0), cast through int64: numpy's cast of a float to uint64 is
    several times slower.  The largest float below 1 maps to 2^64 - 2^11.
    """
    y = x - (x >= 0.5)
    y *= 2.0**SCALE_BITS
    return np.rint(y, out=y).astype(np.int64).view(np.uint64)


class TorusPoint:
    """A point of the d-torus stored as unsigned 64-bit fixed-point fractions."""

    __slots__ = ("raw",)

    def __init__(self, raw: Sequence[int]):
        self.raw = tuple([whole("raw coordinate", r, 0, _MASK) for r in raw])

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
        """a_1..a_N."""
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
        self.raws = tuple([whole("raw coordinate", r, 0, _MASK) for r in raws])
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
        n = whole("n", n)
        return sum(whole("raw coordinate", r, 0, _MASK) * p(n) for r, p in zip(raws, polys)) & _MASK


def raw_phases(polys: Sequence[IntPolynomial], raws, N: int, starts=0) -> np.ndarray:
    """Raw phases of f(n) = sum_j raws[..., j] phi_j(n) at n = s+1, ..., s+N.

    ``raws`` holds one row of d raw coordinates per sum and ``starts`` one
    integer offset s per row (any sign and size); the two broadcast, and
    the result is uint64 (..., N).  A single row is the case raws[d].  Both
    are integers: a float, string or bool entry is refused by name.

    Each row is folded into the coefficients of f(n + s), which is evaluated
    by Horner's rule in place, skipping the powers of n that no phi_j has.
    Reduction mod 2^64 is a ring map and numpy's uint64 products and sums
    wrap, so every phase is exact.  Every phase comes through here, so this
    is where a point is checked against the family; the entry points check
    their cost before they call it.
    """
    N = whole("N", N, 0)
    starts = whole("starts", starts) if np.ndim(starts) == 0 else whole_array("starts", starts)
    cols, used = _coefficient_columns(polys, whole_array("raws", raws, 0, _MASK), starts)
    # out before n: in the other order glibc gives both fresh, page-faulting memory on every long row
    out = np.empty(cols.shape[1:-1] + (N,), dtype=np.uint64)
    return _horner(cols, used, np.arange(1, N + 1, dtype=np.uint64), out)


def _coefficient_columns(polys: Sequence[IntPolynomial], raws, starts=0) -> tuple[np.ndarray, tuple[bool, ...]]:
    """The coefficients of f(n + s) for each row of ``raws`` and of ``starts``, broadcast, as one
    contiguous uint64 column (..., 1) a power of n, stacked (D+1, ..., 1), and which powers may be
    nonzero.  The rows are folded by one integer product of the (D+1, d) table and the (d, rows)
    transpose, whose rows are contiguous when ``raws`` is a view of one row an axis (the census's
    samples).  s is folded in by Taylor shift, ring operations only, so exactly mod 2^64."""
    raws = np.asarray(raws, dtype=np.uint64)
    d = raws.shape[-1] if raws.ndim else 0
    if d != len(polys):
        raise ValueError(f"point has {d} coordinates, family needs {len(polys)}")
    # from a list: tuple(genexpr) is resized off the free list, then parked on it as traced memory
    table, used = _coefficient_table(tuple([p.coeffs for p in polys]))
    s, D = _raw_starts(starts), len(used) - 1
    # the product, then room for any axes that only the starts have
    coeffs = (table.T @ raws.reshape(-1, d).T).reshape((D + 1,) + (1,) * (s.ndim + 1 - raws.ndim) + raws.shape[:-1])
    if s.any():
        coeffs = coeffs + np.zeros_like(s)  # a copy, rows and starts broadcast
        for i in range(D):  # Horner's scheme: D passes, each adding s times a coefficient into the one below
            for m in range(D - 1, i - 1, -1):  # slices: uint64 scalar products would warn as they wrap
                coeffs[m : m + 1] += s * coeffs[m + 1 : m + 2]
        used = tuple(any(used[m:]) for m in range(D + 1))
    return coeffs[..., None], used


def _raw_starts(starts) -> np.ndarray:
    """Window starts, one integer or an array of any sign and size, as uint64 mod 2^64."""
    if isinstance(starts, np.ndarray) and starts.dtype == np.uint64:
        return starts
    return np.array((starts if isinstance(starts, int) else np.asarray(starts, object)) & _MASK, dtype=np.uint64)


def _horner(cols: np.ndarray, used, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    """f(n) = sum_m cols[m] n^m into ``out`` by Horner's rule, adding only the ``used`` powers."""
    D = len(cols) - 1
    np.multiply(cols[D], n if D else np.uint64(1), out=out)
    for m in range(D - 1, -1, -1):
        if used[m]:
            out += cols[m]
        if m:
            out *= n
    return out


@functools.lru_cache(maxsize=64)
def _coefficient_table(coeffs: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray]:
    """The shared uint64 table (d, D+1) that folds a row into f's coefficients, and its nonzero columns."""
    table = np.zeros((len(coeffs), max([1] + [len(c) for c in coeffs])), dtype=np.uint64)
    for j, cs in enumerate(coeffs):
        table[j, : len(cs)] = [c & _MASK for c in cs]
    table.flags.writeable = False
    return table, tuple(table.any(axis=0))


def _expi_scratch(m: int) -> tuple[np.ndarray, ...]:
    """The five buffers of ``_expi`` for passes of up to m terms."""
    return (np.empty(m, dtype=np.uint64), np.empty(m), np.empty(m), np.empty(m), np.empty(m, dtype=np.complex128))


def _expi(theta: np.ndarray, out: np.ndarray | None = None, scratch: tuple | None = None) -> np.ndarray:
    """e(theta / 2^64) of uint64 raw phases theta, as complex of the same shape (into ``out``).

    e(theta) = r (1 + z) with r = e(hi / 2^12), hi the top 12 bits of
    theta, a table entry, and z = (cos t - 1) + i sin t to Taylor order t^5
    in t = 2 pi lo / 2^64 < 2 pi / 2^12, lo the low 52 bits; the omitted
    terms are below 2e-20.  Only the small r z is rounded against r, so
    every value is within 1e-15 of the exact one.  The terms are taken in
    slabs of _SLAB through one set of buffers, ``scratch`` if given (of
    ``_expi_scratch``, at least min(_SLAB, size) terms), written straight
    into the output.
    """
    flat = np.ascontiguousarray(theta).reshape(-1)
    out = np.empty(flat.shape, dtype=np.complex128) if out is None else out.reshape(-1)
    m = min(_SLAB, len(flat))
    bits, t, s, x, z = (b[:m] for b in scratch) if scratch is not None else _expi_scratch(m)
    for lo in range(0, len(flat), _SLAB):
        th = flat[lo : lo + _SLAB]
        r = out[lo : lo + _SLAB]
        if len(th) < m:
            bits, t, s, x, z = (b[: len(th)] for b in (bits, t, s, x, z))
        np.right_shift(th, _LOW_BITS, out=bits)
        np.take(_ROOTS, bits.view(np.int64), out=r, mode="wrap")  # bits < 2^12: wrap never moves one
        np.bitwise_and(th, (1 << _LOW_BITS) - 1, out=bits)
        np.copyto(t, bits.view(np.int64))  # lo < 2^52: exact as a float
        np.multiply(t, _TWO_PI * 2.0**-SCALE_BITS, out=t)
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
    together with the prefix magnitudes at dyadic M.  No row is held.
    """
    N = whole("N", N, 1)
    check_cost("weyl_sum", N, _scan_bytes(N, max(fam.degrees)))
    return _prefix_scan(fam.polys, u.raw, N, _weights(a, N))


def _weights(a: WeightSeq, N: int):
    """a_1..a_N for ``_twisted`` and ``_prefix_scan``, or None for unit weights, which they skip."""
    return None if a.kind == "unit" else a.array(N)


def _prefix_scan(polys: Sequence[IntPolynomial], raws, N: int, a=None, row=None) -> SumTrace:
    """The prefix sums T(u; M) = sum_{n<=M} a_n e(f(n)), M = 1..N, of one point ``raws``, in one walk.

    ``_reduce_rows`` walks the row in windows of m = min(N, _SLAB) terms, each start folded into its
    coefficients (``_phase_rows``); a last window may use fewer.  Each window's a_n e(theta) (weights as
    in ``_twisted``) goes into one buffer and, if given, the next terms of ``row``.  The running sum,
    carried into the window's first term, is taken by ``np.cumsum`` in place: the additions of the whole
    row's cumsum, so its bits.  |T| and the running maximum at each M = 2^i come from segment maxima.
    """
    m = min(N, _SLAB)
    cum, scratch = np.empty(m, dtype=np.complex128), _expi_scratch(m)
    lo, value, best, prefixes, maxima = 0, 0j, 0.0, [], []

    def scan(theta):  # one window
        nonlocal lo, value, best
        k = min(m, N - lo)
        _expi(theta, cum, scratch)
        s, mags = cum[:k], scratch[1][:k]  # _expi is done with its buffers
        if a is not None:  # in place, as on a whole row, but for a lone last term of a longer row: numpy
            # takes a one-term product in place as a reduction, rounded apart from the row's kernel
            s = np.multiply(s, a[lo : lo + k], out=s if k > 1 or N == 1 else scratch[4][:1])
        if row is not None:
            row[lo : lo + k] = s
        if lo:
            s[0] += value
        np.cumsum(s, out=s)
        np.abs(s, out=mags)
        ends = [(1 << i) - 1 - lo for i in range(lo.bit_length(), (lo + k).bit_length())]  # M = 2^i, from lo
        if ends:
            segments = np.maximum.reduceat(mags[: ends[-1] + 1], [0] + [e + 1 for e in ends[:-1]])
            prefixes.extend(mags[ends].tolist())
            maxima.extend(np.maximum.accumulate(np.maximum(segments, best)).tolist())
        value, best, lo = s[-1], max(best, float(mags.max())), lo + m
        return best

    _reduce_rows(*_phase_rows(polys, raws, m, np.arange(0, N, m, dtype=np.uint64)), scan, np.float64)
    return SumTrace(complex(value), N, best, tuple(prefixes), tuple(maxima))


def _held_row(fam: PolynomialFamily, u: TorusPoint, a: WeightSeq, N: int) -> np.ndarray:
    """The row a_n e(f(n)), n = 1..N, held whole, as ``_prefix_scan`` writes it."""
    c = np.empty(N, dtype=np.complex128)
    _prefix_scan(fam.polys, u.raw, N, _weights(a, N), c)
    return c


def _row_bytes(fam: PolynomialFamily, N: int) -> int:
    """Peak bytes of ``_held_row``: the row, 16 bytes a term, and the scan."""
    return 16 * N + _scan_bytes(N, max(fam.degrees))


def short_interval_sum(u: Sequence, M: int, N: int) -> complex:
    """sum_{n=M+1}^{M+N} e(u_1 n + ... + u_d n^d).

    ``u`` is quantized once; the phases f(M+n) come from the offset kernel,
    so the window start, the constant term included, is exact.  The sum is
    one row of the walker, summed whole.
    """
    M, N = whole("M", M), whole("N", N, 1)
    check_cost("short_interval_sum", N, _reduce_rows_bytes(N, 8))
    pt = TorusPoint.from_reals(u)
    return complex(_reduce_rows(*_phase_rows(classical_family(pt.d).polys, pt.raw, N, M),
                                _twisted(lambda c: c.sum(axis=1)), np.complex128)[0])


def _phase_rows(polys: Sequence[IntPolynomial], raws, N: int, starts=0):
    """The row source ((B, N), fill) of ``raw_phases(polys, raws, N, starts)`` for ``_reduce_rows``.

    ``raws`` is one row (d,) or B, and ``starts`` one integer or B; a single one serves every row.
    Each row's coefficients of f(n + s) are folded once per walk, so every slab is filled from one
    n = 1..N: whole rows of the first, largest slab (numpy copies an operand broadcast along rows
    shorter than 8192 through a buffer on every pass), or the (N,) row itself for slabs of one row.
    """
    cols, used = _coefficient_columns(polys, np.atleast_2d(np.asarray(raws, dtype=np.uint64)), starts)
    n = np.arange(1, N + 1, dtype=np.uint64)

    def fill(f, lo, hi):
        nonlocal n
        if n.ndim == 1:  # the first slab
            n = np.tile(n, (len(f), 1)) if len(f) > 1 else n[None]
        return _horner(cols[:, lo:hi], used, n[: hi - lo], f)

    return (cols.shape[1], N), fill


def _reduce_rows(shape: tuple[int, int], fill, reduce, dtype) -> np.ndarray:
    """The one walker of phase rows: reduce(f) of each slab f of B rows of N, as dtype (B,).

    A slab is ``_slab_terms(B, N)`` terms of whole rows; fill(f, lo, hi) writes rows lo..hi into
    one uint64 buffer reused by every slab, and ``reduce`` maps them to their values.  Each row is
    reduced whole, so the values are bit for bit those of the whole (B, N) block.
    """
    B, N = shape
    rows = _slab_terms(B, N) // N
    f, out = np.empty((rows, N), dtype=np.uint64), np.empty(B, dtype=dtype)
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        out[lo:hi] = reduce(fill(f[: hi - lo], lo, hi))
    return out


def _twisted(reduce, a=None):
    """The slab reduction reduce(a_n e(theta)) for ``_reduce_rows``, weights ``a`` an array, a scalar, or
    None for unit weights, which are skipped; e(theta) goes into one complex buffer through one set of
    ``_expi`` buffers, both sized by the first, largest slab."""
    buf = scratch = None

    def run(theta):
        nonlocal buf, scratch
        if buf is None:
            buf, scratch = np.empty(theta.shape, dtype=np.complex128), _expi_scratch(min(_SLAB, theta.size))
        c = _expi(theta, buf[: len(theta)], scratch)
        if a is not None:
            c *= a
        return reduce(c)

    return run


def completion_naive(fam: PolynomialFamily, u: TorusPoint, a: WeightSeq, N: int) -> CompletionResult:
    """Reference evaluation of the completion majorant, a direct O(N^2) loop over h.

    W(u; N) = sum_{h=-N}^{N} (|h|+1)^{-1} |sum_{n<=N} a_n e(hn/N + f(n))|.
    The h = 0 term is the plain sum, so W >= |T(u; N)|; the full weighted
    family dominates every prefix T(u; M), M <= N.
    """
    N = whole("N", N, 1)
    check_cost("completion_naive", (2 * N + 1) * N, _row_bytes(fam, N) + 80 * N)
    c = _held_row(fam, u, a, N)
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


@functools.lru_cache(maxsize=64)
def _fold_weights(N: int) -> np.ndarray:
    """w_N[k] = sum_{|h| <= N, h = k mod N} 1/(|h|+1): the majorant's weights folded onto k, read-only."""
    k = np.arange(N, dtype=np.float64)
    w = 1.0 / (k + 1.0) + 1.0 / (N + 1.0 - k)  # h = k and h = k - N
    w[0] += 1.0 / (N + 1.0)  # h = N also folds onto k = 0
    w = w.reshape(-1, _fft_split(N)[0]).T.ravel()  # in _majorant's order: k = k1 + n1 k2 at k1 n2 + k2
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=64)
def _fft_split(N: int) -> tuple[int, int, int]:
    """(n1, A, bytes) splitting N = n1 n2: n1 the largest factor in [4, sqrt(N)] with n2 <= _FFT_LEN, or 1 (N <=
    _FFT_LEN, 8209, 2 x 4099), A about sqrt(n1); ``_four_step``'s A + ceil(n1/A) rows of n2 take <= 16 B a term."""
    lo = -(-N // _FFT_LEN)  # the least n1 that leaves n2 <= _FFT_LEN
    n1 = next((f for f in range(math.isqrt(N), max(lo, 4) - 1, -1) if N % f == 0), 1) if lo > 1 else 1
    A = 1 << (n1.bit_length() // 2)
    return n1, A, 16 * (A + -(-n1 // A)) * (N // n1) if n1 > 1 else 0


@functools.lru_cache(maxsize=64)
def _four_step(N: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(n1, t1, t2) of ``_fft_split``: the twiddles e(-k1 j/N), j < n2, of k1 = a + A b as e(-a j/N) (t1, A rows)
    times e(-A b j/N) (t2), read-only; one (n1, n2) table would take 16 bytes a term."""
    n1, A, _ = _fft_split(N)
    j = np.arange(N // n1)
    t1, t2 = (np.exp(np.outer(k1, j) * (-_TWO_PI * 1j / N)) for k1 in (np.arange(A), np.arange(0, n1, A)))
    t1.flags.writeable = t2.flags.writeable = False
    return n1, t1, t2


def _majorant(c: np.ndarray, work: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """W = sum_{h=-N}^{N} |X_h| / (|h| + 1) over the last axis: (..., N) -> (...).

    X_h is N-periodic in h, so W = sum_k |X_k| w_N[k] with the weights
    folded by ``_fold_weights``.  |fft(c)[k]| = |X_{-k}| (the roll in
    ``_spectrum`` only twists phases) and w_N[k] = w_N[-k mod N], so the
    forward transform's magnitudes are weighted as they are.  einsum, not
    a BLAS dot, reduces them: an unpinned BLAS pool was slower at B = 1.
    A row that ``_fft_split`` splits, N = n1 n2, is an (n1, n2) view: its
    n1-point transforms along axis -2, the twiddles e(-k1 j2/N), and the
    n2-point transforms along axis -1 leave X_{k1 + n1 k2} at (k1, k2).
    ``work``, two arrays of c's shape, takes the transform (complex; c
    itself transforms in place) and its magnitudes (float) instead of
    fresh arrays, with the same values.
    """
    N, lead = c.shape[-1], c.shape[:-1]
    spectrum, mags = (None, None) if work is None else work
    if _fft_split(N)[0] == 1:
        X = np.fft.fft(c, axis=-1, out=spectrum)
    else:
        n1, t1, t2 = _four_step(N)
        A, view = len(t1), lead + (n1, N // n1)
        X = np.fft.fft(c.reshape(view), axis=-2, out=None if spectrum is None else spectrum.reshape(view))
        q = n1 - n1 % A  # rows k1 = a + A b of whole blocks; any rest is block b = q / A
        head = X[..., :q, :].reshape(lead + (q // A, A, N // n1))
        head *= t2[: q // A, None]
        head *= t1
        X[..., q:, :] *= t2[-1] * t1[: n1 - q]
        X = np.fft.fft(X, axis=-1, out=X).reshape(c.shape)
    return np.einsum("...n,n->...", np.abs(X, out=mags), _fold_weights(N))


def completion_fft(fam: PolynomialFamily, u: TorusPoint, a: WeightSeq, N: int) -> CompletionResult:
    """O(N log N) completion majorant via one length-N DFT.

    The twist e(hn/N) is N-periodic in h, so the 2N+1 inner sums collapse
    onto the N spectrum values X_k, each weighted by the sum of
    1/(|h|+1) over the h that fold onto it (see ``_majorant``); agrees
    with completion_naive to floating-point tolerance.  The fold weights
    are built first (their build takes 32 bytes a term, four times what
    they keep); then the row is held as the ``weyl`` k = d sweep holds it
    and transformed in place: 16 bytes a term for the weights and the
    magnitudes, and at most 16 for the twiddles of a split transform.
    """
    N = whole("N", N, 1)
    check_cost("completion_fft", N, _row_bytes(fam, N) + 16 * N + _fft_split(N)[2])
    _fold_weights(N)
    c = _held_row(fam, u, a, N)[None]
    return CompletionResult(W=float(_majorant(c, (c, None))[0]), N=N)


def reconstruct_prefix(fam: PolynomialFamily, u: TorusPoint, a: WeightSeq, N: int, M: int) -> complex:
    """Recover T(u; M) from the twisted full-length sums.

    (1/N) sum_{h=1}^{N} (sum_{k<=M} e(-hk/N)) X_h equals the direct prefix
    sum exactly (orthogonality of the h-twist); this is the module's
    strongest self-test.
    """
    N = whole("N", N, 1)
    M = whole("M", M, 1, N)
    check_cost("reconstruct_prefix", N, _row_bytes(fam, N) + 105 * N)
    c = _held_row(fam, u, a, N)
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
    N = whole("N", N, 1)
    check_cost("reconstruct_all_prefixes", N * N, _row_bytes(fam, N) + 32 * N * N + 112 * N)
    c = _held_row(fam, u, a, N)
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
    N = len(c)
    if N < 1:
        raise ValueError("need at least one coefficient")
    oversample = whole("oversample", oversample, 2)
    check_cost("sup_linear_coeff", oversample * N, 16 * N + 24 * oversample * N + (1 << 16))
    return SupLinearResult(*(float(v[0]) for v in _sup_linear(np.asarray(c, dtype=np.complex128)[None], oversample)))


def _sup_linear(c: np.ndarray, oversample: int = 4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(grid_max, certified_upper, argmax_y) of ``sup_linear_coeff`` for every row of c[B, N].

    One zero-padded inverse transform runs in place over all rows; pocketfft
    takes them one at a time, so each row's values are bit for bit its own.
    """
    B, N = c.shape
    L = oversample * N
    slack = _TWO_PI * (0.5 / L) * N * np.abs(c).sum(axis=1)
    spectrum = np.zeros((B, L), dtype=np.complex128)
    spectrum[:, 1 : N + 1] = c
    np.fft.ifft(spectrum, out=spectrum)
    spectrum *= L
    mags = np.abs(spectrum)
    j = np.argmax(mags, axis=1)
    grid_max = mags[np.arange(B), j]
    return grid_max, grid_max + slack, j / L


# ---------------------------------------------------------------------------
# Mean values


def vinogradov_count(d: int, s: int, N: int) -> int:
    """Exact number of solutions of the power-sum system.

    Counts ordered 2s-tuples (n_1..n_s, m_1..m_s) in [1,N]^{2s} with
    sum n_i^j = sum m_i^j for every j = 1..d: the sum over power-sum
    vectors (keys) of the squared number of s-tuples sharing one.  For
    d > s the first s power sums already fix the s numbers (Newton's
    identities), so d counts as min(d, s).

    The tuples are built one coordinate at a time, and level i weighs what
    it holds by the number of i-tuples it stands for.  Up to level d the
    power sums of an i-multiset fix it, so level i holds each multiset
    {n_1 <= ... <= n_i} once (``_multisets``): a multiset of level i - 1
    and a head n no less than its largest element, weighted by its
    orderings, i! / prod m_k!.  For s <= d the count is the sum of the
    squared orderings of the s-multisets, taken per multiset of level s - 1
    (``_squared_orderings``).  Otherwise one enumerator, ``_extend``, makes
    every later level: it adds a head n to every column of the level before,
    merges equal keys and sums their weights, and at level s sums the
    squared weights instead.  Its tail is the d-multisets at level d + 1, the
    first whose multisets can share a key, so each (d + 1)-multiset is made
    once, and the merged keys of the level before at every later level.
    Equal keys have equal S_1 = sum n_i, so these levels are walked in
    windows of S_1 values, each holding at most VINOGRADOV_BLOCK key entries,
    or a single S_1 value that alone holds more (``_windows``), and a
    window's keys are final.  Memory is bounded by that block plus two
    levels of keys.  At every level the weights sum to N^i, one for each
    i-tuple, or InvariantViolation is raised.

    After the cost check, BudgetError refuses what would leave the exact
    int64 range: the power sums (s N^d), a window's key, or the count,
    J <= N^s M_s, M_s the most s-tuples sharing one sum.
    """
    d, s, N = whole("d", d, 1), whole("s", s, 1), whole("N", N, 1)
    d = min(d, s)  # S_1, ..., S_s fix s numbers (Newton's identities), so later power sums add no condition
    levels = [_level(d, i, s, N) for i in range(1, s + 1)]
    # n^k, d passes over 8 (N + 1) bytes, and n 8 (N + 1) more while it is made
    check_cost("vinogradov_count", d * N + sum(lv.terms for lv in levels),
               8 * d * N + 16384 + max(8 * N, *(lv.peak for lv in levels)))
    b, spans = levels[-1].b, levels[-1].spans  # the widest key
    if s * N**d >= 1 << 62 or N**s * _most_sharing_a_sum(s, N) >= 1 << 63 or math.prod(spans) << b > 1 << 62:
        raise BudgetError("power sums or the count exceed the exact int64 range")
    powers = np.empty((d, N + 1), dtype=np.int64)  # n^k at column n, exact
    powers[0] = np.arange(N + 1)
    for k in range(1, d):
        np.multiply(powers[k - 1], powers[0], out=powers[k])
    # level 0, the empty multiset: no sums, one ordering, and 1 for its largest element, of multiplicity 0
    tail = np.zeros((d + 3, 1), dtype=np.int64)
    tail[d : d + 2] = 1
    for i in range(1, min(d + 1, s)):
        tail = _multisets(tail, powers, i)
        _every_tuple_once(i, N, int(tail[d].sum()))
    if s <= d:
        return _squared_orderings(tail, s, N)

    for i in range(d + 1, s + 1):
        parts = _extend(tail, powers, i, levels[i - 1], _merged if i < s else _squared_sums)
        if i < s:
            tail = np.concatenate(parts, axis=1)
            del parts
            _every_tuple_once(i, N, int(tail[d].sum()))
    _every_tuple_once(s, N, sum(tuples for tuples, _ in parts))
    return sum(count for _, count in parts)


def _every_tuple_once(i: int, N: int, weights: int) -> None:
    """The hard identity of every level of ``vinogradov_count``: its weights count each of the N^i i-tuples once."""
    if weights != N**i:
        raise InvariantViolation(f"vinogradov_count: the weights of level {i} sum to {weights}, not N^{i} = {N**i}")


def _distinct_keys(d: int, i: int, N: int) -> int:
    """A bound on the distinct power-sum vectors of i-tuples in [1, N]^i.

    At most one a multiset, C(N + i - 1, i), and at most the product over
    k = 1..d of the i (N^k - 1) + 1 values S_k can take.
    """
    bound, values = math.comb(N + i - 1, i), 1
    for k in range(1, d + 1):
        values *= i * (N**k - 1) + 1
        if values >= bound:
            return bound
    return values


class _Level(NamedTuple):
    cap: int  # rows a window: VINOGRADOV_BLOCK key entries
    widest: int  # S_1 values a window, which keep its first key row below 2^62
    b: int  # bits of a weight
    spans: tuple[int, ...]  # of S_2, ..., S_m, the power sums packed into a key's first row with S_1
    terms: int
    peak: int  # bytes, but for the powers


def _level(d: int, i: int, s: int, N: int) -> _Level:
    """How level i of ``vinogradov_count`` is walked, and what it costs.

    Up to level d a row is an i-multiset, C(N + i - 1, i) of them, made in
    one pass, and level s <= d is one pass over the multisets of level s - 1.
    From level d + 1 ``_extend`` makes the rows in windows of S_1 values.
    Level d + 1 makes its C(N + d, d + 1) multisets, each weighted by its
    orderings, at most (d + 1)!; a later level adds each head to each key of
    level i - 1, N K_(i-1) rows, weighted by up to M_(i-1) i-tuples.  In a
    window [lo, hi) a key's first row is one int64, (S_1 - lo, S_2, ...,
    S_m) in mixed radix, span_k = i N^k + 1 > S_k, times 2^b above every
    weight, plus the weight minus one; its other rows are S_(m+1), ..., S_d.
    m is the most sums whose first row stays below 2^62 one S_1 value wide,
    and at least min(d, 2); a window spans at most the S_1 values that keep
    it there.  The terms are the rows, a pass over the keys of level i - 1
    and over the S_1 values, a search for every head of every window, and
    at level d + 1 each (head, S_1) pair whose group L cuts.
    """
    keys_in = _distinct_keys(d, i - 1, N)
    if i <= d:  # a multiset is 8 (d + 3) bytes, and a pass over them 8 more
        if i == s:  # level s - 1's and three passes over them
            return _Level(0, 0, 0, (), keys_in, 8 * (d + 6) * keys_in)
        rows = math.comb(N + i - 1, i)  # level i - 1's with four passes, level i's with one
        return _Level(0, 0, 0, (), rows, 8 * (d + 7) * keys_in + 8 * (d + 4) * rows)
    shared = i == d + 1
    rows = math.comb(N + d, i) if shared else N * keys_in
    b = ((math.factorial(i) if shared else _most_sharing_a_sum(i - 1, N)) - 1).bit_length()
    for m in range(d, 0, -1):
        spans = tuple(i * N**k + 1 for k in range(2, m + 1))
        radix, columns = math.prod(spans) << b, d - m + 1
        if m <= 2 or radix <= 1 << 62:
            break
    cap, widest = max(1, VINOGRADOV_BLOCK // columns), max(1, (1 << 62) // radix)
    # the most rows sharing one S_1: one a head for d = 1; for d >= 2 at most the
    # (head, multiset of i - 1) pairs with that sum, M_i(N + i - 2) / (i - 1)! or fewer,
    # and at level d + 1 at most the i-multisets with that sum
    per_value = min(keys_in, N if d == 1 else _most_sharing_a_sum(i, N + i - 2) // math.factorial(i - 1),
                    _most_multisets_sharing_a_sum(i, N) if shared else keys_in)
    window = min(rows, max(cap, per_value), widest * per_value)
    # a window but the last ends at its widest or where the next S_1 value would take it past
    # cap rows, so of two neighbours the first is at its widest or the two hold more than cap
    windows = min(i * N, 2 * rows // cap + i * N // widest + 1)
    keys_out = _distinct_keys(d, i, N)
    merged = 8 * (d + 3) * keys_out if i < s else 0
    # level d + 1's (head, S_1) pairs where L cuts the group, each of which makes a row: head n cuts
    # S_1 = n + d - 1..d n
    pairs = (d - 1) * N * (N + 1) // 2 - (d - 2) * N if shared else 0
    # a window is 8 (c + 2) bytes a row while its keys are made, with 48 bytes a cut pair and a head,
    # and 8 c + 9 while they are sorted, 16 more to lexsort c > 1 rows, with 16 bytes a distinct key,
    # 8 (d + 3) more if they are merged.  The keys merged into are held once as they come and once
    # more while they are joined, and cutting the windows takes 24 bytes an S_1 value
    grouped = ((8 * columns + 9 + (16 if columns > 1 else 0)) * window
               + (16 + (8 * (d + 3) if i < s else 0)) * min(window, keys_out))
    window_bytes = max(8 * (columns + 2) * window + 48 * min(pairs, window), grouped) + 48 * min(N, window)
    # the tail, its packed copies and the S_1 range of each column while the windows are cut, and at
    # level d + 1 the first row of each run of one (S_1, L) and, while it is made, the (S_1, L) order
    held = 8 * (d + 7 if shared else d + 6) * keys_in + 8 * pairs
    return _Level(cap, widest, b, spans, rows + keys_in + i * N + windows * N + pairs,
                  held + 24 * i * N + merged + max(window_bytes, merged))


def _multisets(tail: np.ndarray, powers: np.ndarray, i: int) -> np.ndarray:
    """Level i <= d: every i-multiset once, a multiset of level i - 1 and a head n no less than its largest element.

    A column is (S_1, ..., S_d, orderings, largest element, its multiplicity).
    A head n multiplies the orderings by i / (n's multiplicity after it):
    i! / prod m_k! stays an integer at every step.
    """
    d = len(tail) - 3
    count = powers.shape[1] - tail[d + 1]  # heads from the largest element to N
    starts = np.cumsum(count) - count
    out = np.empty((d + 3, int(count.sum())), dtype=np.int64)
    n = out[d + 1]
    n[:] = np.repeat(tail[d + 1] - starts, count)
    n += np.arange(len(n))
    for k in range(d):
        np.take(powers[k], n, out=out[k])
        out[k] += np.repeat(tail[k], count)
    out[d] = np.repeat(tail[d] * i, count)
    out[d + 2] = 1
    out[d + 2, starts] = tail[d + 2] + 1  # the first head is the largest element again
    out[d, starts] //= out[d + 2, starts]
    return out


def _squared_orderings(tail: np.ndarray, s: int, N: int) -> int:
    """Level s <= d: the sum of the squared orderings of the s-multisets, per multiset of level s - 1.

    A multiset of w orderings whose largest element L has multiplicity m
    makes, with the head L, one of w s / (m + 1) orderings, and with each of
    the N - L larger heads one of w s.
    """
    d = len(tail) - 3
    w = tail[d] * s
    first, larger = w // (tail[d + 2] + 1), N - tail[d + 1]
    _every_tuple_once(s, N, int(first.sum()) + int(larger @ w))
    w *= w
    return int(first @ first) + int(larger @ w)


def _windows(reach: np.ndarray, past: np.ndarray, level: _Level) -> list[tuple[int, int]]:
    """The windows [lo, hi) that cut the S_1 values from min(reach) to max(past) - 1 in order: each holds at most
    ``level.cap`` rows, or a single S_1 value that alone holds more, and at most ``level.widest`` values.

    Tail key t makes one row at each S_1 in [reach[t], past[t]).
    """
    end = int(past.max())
    rows = np.bincount(reach, minlength=end + 1)
    rows -= np.bincount(past, minlength=end + 1)
    np.cumsum(rows, out=rows)  # the rows at each S_1
    np.cumsum(rows, out=rows)  # the rows up to each S_1
    windows, lo = [], int(reach.min())
    while lo < end:
        hi = int(np.searchsorted(rows, rows[lo - 1] + level.cap, side="right"))
        hi = min(max(hi, lo + 1), lo + level.widest, end)
        windows.append((lo, hi))
        lo = hi
    return windows


def _extend(tail: np.ndarray, powers: np.ndarray, i: int, level: _Level, reduce) -> list:
    """Level i > d, window by window: reduce(keys, lo, level) for the keys of the rows whose S_1 lies in [lo, hi).

    ``tail`` holds level i - 1 as columns (S_1, ..., S_d, weight w, largest
    element L, its multiplicity m): at level d + 1 the d-multisets as
    ``_multisets`` makes them, put in order of (S_1, L) here in place, and
    later the merged keys in order of S_1, each with L = 1 and m = 0.  A row
    is a tail column and a head n >= L at S_1 + n, of weight w f, or
    w f / (m + 1) if n = L, with f = i on a multiset tail (the head joins the
    multiset) and f = 1 on a merged one.  Per window and head, one range of
    the tail covers the S_1 values whose rows all weigh w f: every value of a
    merged tail, where f / (m + 1) = f.  On the multiset tail head n cuts the
    values from n + d - 1 to d n, as the d-multisets of sum S have largest
    elements from ceil(S / d) to min(N, S - d + 1); below them every L < n,
    and above them every L > n.  Each L of that span is one run of rows of
    the group, and each cut value gives two ranges, read off the first rows
    of the runs: its rows with L < n, and the run of L = n, read from a
    second packed copy that holds their lesser weight.  A window's keys are a
    (d - m + 1, rows) array laid out as ``_level`` says, and ``reduce`` may
    sort it in place.
    """
    d, N = powers.shape[0], powers.shape[1] - 1
    b, spans = level.b, level.spans
    m = len(spans) + 1
    shared = i == d + 1
    if shared:
        at = tail[0] * (N + 2) + tail[d + 1]  # (S_1, L) as one int64
        order = np.argsort(at)
        at = at[order]
        for row in tail:
            row[:] = row[order]
        del order
    S, L = tail[0], tail[d + 1]
    T, t_min, t_max = len(S), int(S[0]), int(S[-1])
    if shared:  # each L from ceil(S_1 / d) to min(N, S_1 - d + 1) is one run of rows of the S_1 group
        run = np.flatnonzero(np.concatenate(([True], at[1:] != at[:-1], [True])))  # each run's first row, and T
        del at
        first = np.searchsorted(S, np.arange(t_min, t_max + 1))  # the first row of each S_1 group
        offset = np.searchsorted(run, first) - L[first]  # (S_1, L)'s run is offset[S_1 - t_min] + L
    # a column's part of a key's first row: (S_1, ..., S_m) in mixed radix, times 2^b, plus its weight
    # minus one.  A head's part is (n - lo, n^2, ..., n^m) times 2^b.  Either may wrap in int64, but a
    # key lies in [0, 2^62), so their wrapping sum is exact
    packed = np.empty((2 if shared else 1, T), dtype=np.int64)
    packed[0] = S
    for k, span in enumerate(spans, 1):
        packed[0] *= span
        packed[0] += tail[k]
    packed[0] <<= b
    weight = tail[d] * i if shared else tail[d]
    packed[0] += weight - 1
    if shared:  # the second copy, for a head equal to L: w i / (m + 1), not w i
        np.floor_divide(weight, tail[d + 2] + 1, out=packed[1])
        packed[1] += packed[0] - weight
    del weight
    packed = packed.reshape(-1)
    out = []
    for lo, hi in _windows(S + L, S + (N + 1), level):
        # only the heads n with t_min <= S_1 - n <= t_max for some S_1 in the window reach it
        heads = slice(max(lo - t_max, 1), min(hi - t_min, N + 1))
        n = powers[0, heads]
        starts = np.searchsorted(S, lo - n)
        ends = np.searchsorted(S, np.minimum(hi - n, n + d - 1) if shared else hi - n)
        which = slice(None)  # the head of each range: one range a head
        if shared:
            np.maximum(ends, starts, out=ends)
            lowest = np.maximum(lo - n, n + d - 1)  # the cut S_1 values in the window: count of them from lowest
            count = np.minimum(hi - n, d * n + 1) - lowest
            np.maximum(count, 0, out=count)
            cut = np.repeat(lowest - t_min - (np.cumsum(count) - count), count)
            cut += np.arange(len(cut))  # S_1 - t_min of each cut (head, S_1) pair
            pair = np.repeat(np.arange(len(n)), count)
            r = offset[cut] + n[pair]  # its run, where L = n
            starts = np.concatenate((starts, first[cut], run[r] + T))  # L = n: the second copy, past the first
            del cut
            ends = np.concatenate((ends, run[r], run[r + 1] + T))
            del r
            which = np.concatenate((np.arange(len(n)), pair, pair))
            del pair
        lengths = np.subtract(ends, starts, out=ends)
        starts += lengths
        starts -= np.cumsum(lengths)  # each range's start less the rows before it
        idx = np.repeat(starts, lengths)
        del starts
        idx += np.arange(len(idx))
        head = n - lo
        for k, span in enumerate(spans, 1):
            head = head * span + powers[k, heads]
        head <<= b
        key = np.empty((d - m + 1, len(idx)), dtype=np.int64)
        np.take(packed, idx, out=key[0], mode="clip")  # in range: "clip" skips the buffered bounds check
        key[0] += np.repeat(head[which], lengths)
        for k in range(m, d):  # the second copy's columns are those of the first
            np.take(tail[k], idx, out=key[k - m + 1], mode="wrap")
            key[k - m + 1] += np.repeat(powers[k, heads][which], lengths)
        del idx, which, lengths
        out.append(reduce(key, lo, level))
        del key  # before the next window's
    return out


def _grouped(keys: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort a window's keys in place; return the last column of each distinct key and its weight sum.

    Row 0 sorts first, and is left holding its mixed-radix sums with the
    weight shifted out.  With b = 0 every weight is 1 and a sum counts
    columns.
    """
    first = keys[0]
    if len(keys) == 1:
        first.sort()  # the weights ride in the low bits
    if b:
        weights = first & ((1 << b) - 1)
        first >>= b
    if len(keys) > 1:
        order = np.lexsort(keys[::-1])
        for row in keys:
            row[:] = row[order]
        if b:
            weights = weights[order]
        del order
    last = np.empty(len(first), dtype=bool)  # whether a column is the last of its key
    np.not_equal(first[1:], first[:-1], out=last[:-1])
    for row in keys[1:]:
        last[:-1] |= row[1:] != row[:-1]
    last[-1] = True
    ends = np.flatnonzero(last)
    del last  # each array a window no longer needs goes before the next is made
    if b:
        weights += 1
        sums = np.cumsum(weights, out=weights)[ends]
        del weights
    else:
        sums = ends + 1
    sums[1:] -= sums[:-1].copy()
    return ends, sums


def _squared_sums(keys: np.ndarray, lo: int, level: _Level) -> tuple[int, int]:
    """A window's share of the last level: its tuples, and the sum over its distinct keys of their squared weights."""
    sums = _grouped(keys, level.b)[1]
    return int(sums.sum()), int(np.dot(sums, sums))


def _merged(keys: np.ndarray, lo: int, level: _Level) -> np.ndarray:
    """A window's distinct keys as tail columns (S_1, ..., S_d, weight, L = 1, m = 0), sorted by S_1."""
    ends, sums = _grouped(keys, level.b)
    m = len(level.spans) + 1
    d = m + len(keys) - 1
    out = np.empty((d + 3, len(ends)), dtype=np.int64)
    first = keys[0, ends]
    for k in range(m - 1, 0, -1):
        np.divmod(first, level.spans[k - 1], out=(first, out[k]))
    out[0] = first + lo
    out[m:d] = keys[1:, ends]
    out[d] = sums
    out[d + 1] = 1  # L = 1 and m = 0: every head is admitted, and the head 1 weighs w / (m + 1) = w
    out[d + 2] = 0
    return out


def _most_sharing_a_sum(s: int, N: int) -> int:
    """The most s-tuples in [1, N]^s sharing one sum: the middle coefficient of (1 + ... + x^(N-1))^s."""
    m = s * (N - 1) // 2  # the coefficients are symmetric and unimodal; inclusion-exclusion gives this one
    return sum((-1) ** j * math.comb(s, j) * math.comb(m - j * N + s - 1, s - 1) for j in range(m // N + 1))


def _most_multisets_sharing_a_sum(i: int, N: int) -> int:
    """A bound on the i-multisets of [1, N] sharing one sum: at most M_i / i! of distinct elements, M_i the most
    i-tuples sharing it, and with a repeated element x, at most N times the bound for the (i - 2)-multisets."""
    if i < 2:
        return 1
    return _most_sharing_a_sum(i, N) // math.factorial(i) + N * _most_multisets_sharing_a_sum(i - 2, N)


def _five_smooth_at_least(n: int) -> int:
    """The least 2^a 3^b 5^c >= n >= 1: a size pocketfft transforms without Bluestein's algorithm."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5  # 3^b 5^c, times the least power of two that reaches n
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


def _moment_bounds(fam: PolynomialFamily, N: int, s: int) -> list[int]:
    """s (max phi_j - min phi_j) + 1 per axis: the fewest points that integrate |T|^2s exactly."""
    bounds = []
    for p in fam.polys:
        low, high = p.extremes(1, N)
        bounds.append(s * (high - low) + 1)
    return bounds


def exact_moment_grid(fam: PolynomialFamily, N: int, two_s: int) -> list[int]:
    """Smallest 5-smooth sizes at least the exact bound: a grid that integrates |T|^two_s exactly.

    |T|^two_s is a trigonometric polynomial whose u_j-frequencies span at
    most s*(max phi_j - min phi_j) over n <= N, so any uniform grid with
    more points per axis than that kills every nonzero frequency.  Each
    axis is rounded up to 2^a 3^b 5^c, which the FFT transforms fast.  The
    extremes come from the ends of phi_j's monotone pieces, with no pass
    over n.
    """
    N, two_s = whole("N", N, 1), whole("two_s", two_s, 2)
    if two_s % 2:
        raise ValueError(f"two_s must be even, got {two_s}")
    return [_five_smooth_at_least(b) for b in _moment_bounds(fam, N, two_s // 2)]


def _residues(polys: Sequence[IntPolynomial], N: int, grid: Sequence[int]) -> tuple[np.ndarray, ...]:
    """phi_j(n) mod G_j for n = 1..N, one int64 row per axis, by Horner's rule mod G_j.

    A residue and n mod G_j are below G_j <= 2^24, which the memory budget
    bounds, so no product leaves int64.
    """
    n = np.arange(1, N + 1, dtype=np.int64)
    out = []
    for p, g in zip(polys, grid):
        m, r = n % g, np.zeros(N, dtype=np.int64)
        for c in reversed(p.coeffs):
            r *= m
            r += c % g
            r %= g
        out.append(r)
    return tuple(out)


def _occupied_lines(residues: tuple[np.ndarray, ...], tails: Sequence[int]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each n's linear index in the grid, and for each axis j but the last the
    distinct linear indices of n's residues on the axes after j, in increasing
    order: found by a mask, not a sort."""
    key, occupied = residues[-1], []
    for j in range(len(residues) - 2, -1, -1):
        mask = np.zeros(tails[j + 1], dtype=bool)
        mask[key] = True
        occupied.append(np.flatnonzero(mask))
        key = residues[j] * tails[j + 1] + key
    return key, occupied[::-1]


def _power_in_place(x: np.ndarray, s: int, scratch: np.ndarray) -> None:
    """x **= s by squaring and multiplying, scratch holding x^(2^i); np.power calls pow() per element."""
    if s > 1:
        np.copyto(scratch, x)
    s -= 1  # x holds one factor already
    while s:
        if s & 1:
            x *= scratch
        s >>= 1
        if s:
            scratch *= scratch


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

    On a grid G, T(g / G) = sum_r H[r] e(g . r / G), where H[r] sums the a_n
    with phi(n) = r mod G: a d-dimensional DFT of that histogram gives T at
    -g for every g, and g -> -g permutes the grid, so the mean is unchanged.
    The DFT runs line by line.  Each axis but the last is transformed only
    along the lines whose later-axis indices some residue occupies, since
    every other line is still zero; the last axis is then transformed in
    place along every row.
    """
    N, two_s, grid = whole("N", N, 1), whole("two_s", two_s, 2), [whole("grid entry", g, 1) for g in grid]
    if two_s % 2:
        raise ValueError(f"two_s must be even, got {two_s}")
    if len(grid) != fam.d:
        raise ValueError(f"grid needs {fam.d} axis sizes")
    points = math.prod(grid)
    # tails[j]: the points of the axes j.. .  Axis j < d - 1 is transformed along the lines of at most
    # N later-axis indices, in blocks of whole indices of about _SLAB points: 16 bytes a point of a
    # block and, for the transform's strided pass, 16 bytes a line
    tails = [math.prod(grid[j:]) for j in range(fam.d + 1)]
    block_points = [_slab_terms(min(N, tails[j + 1]), points // tails[j + 1]) for j in range(fam.d - 1)]
    block_bytes = max((16 * (b + b // g) for b, g in zip(block_points, grid)), default=0)
    # the transform, and a residue per n and axis.  Before the histogram: n, n mod G_j, the residues,
    # their linear keys and the occupied lines, 8 (2d + 2) bytes an n, and a mask of a byte a point
    # of the axes 1..; then the histogram, 16 bytes a point, with the keys and the occupied lines,
    # 8d bytes an n, and either the weights, 16 bytes an n, or the largest line block.  32 KiB hold
    # the small objects numpy's FFT wrappers keep, up to about 17 KiB after some 40 calls
    mask = tails[1] if fam.d > 1 else 0
    check_cost("moment_integral", points * (points - 1).bit_length() + N * fam.d,
               max(8 * N * (2 * fam.d + 2) + mask, 16 * points + 8 * N * fam.d + max(16 * N, block_bytes)) + 32768)
    for g, r, p in zip(grid, _moment_bounds(fam, N, two_s // 2), fam.polys):
        if g < r:
            raise ValueError(
                f"grid axis for {p!r} has {g} points; {r} needed for exactness"
            )
    key, occupied = _occupied_lines(_residues(fam.polys, N, grid), tails)
    hist = np.zeros(points, dtype=np.complex128)
    np.add.at(hist, key, a.array(N))
    for j, cols in enumerate(occupied):
        view = hist.reshape(points // tails[j], grid[j], tails[j + 1])
        step = max(1, _SLAB // (points // tails[j + 1]))
        for lo in range(0, len(cols), step):
            block = view[:, :, cols[lo : lo + step]]
            np.fft.fftn(block, axes=(1,), out=block)
            view[:, :, cols[lo : lo + step]] = block
            del block  # before the next block's gather
    rows = hist.reshape(-1, grid[-1])
    np.fft.fftn(rows, axes=(1,), out=rows)
    re, im = hist.real, hist.imag  # |T|^2 and its powers in place: no array beyond the histogram
    np.square(re, out=re)
    np.square(im, out=im)
    re += im
    _power_in_place(re, two_s // 2, im)
    return float(re.mean())

