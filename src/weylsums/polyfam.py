"""Exact integer polynomial families.

Everything here is exact: coefficients are Python ints and Wronskians are
computed symbolically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .errors import check_cost, whole

__all__ = [
    "MINUS_INFINITY",
    "IntPolynomial",
    "PolynomialFamily",
    "CaseLabel",
    "classical_family",
    "augmented_family",
    "wronskian",
    "degree_stats",
    "classify_case",
    "parse_family",
]

# Degree marker for the zero polynomial.  A float -inf compares below every
# integer degree and never silently turns into a plausible-looking index.
MINUS_INFINITY = float("-inf")


class IntPolynomial:
    """A polynomial with arbitrary-precision integer coefficients.

    ``coeffs[i]`` is the coefficient of T^i; the highest stored coefficient
    is nonzero unless the polynomial is identically zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [c if type(c) is int else _integer(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "IntPolynomial":
        return cls([0] * whole("power", power, 0) + [coeff])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | float:
        """Degree, or MINUS_INFINITY for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    @property
    def is_monomial(self) -> bool:
        return not any(self.coeffs[:-1])

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, n: int) -> int:
        """Exact Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def extremes(self, lo: int, hi: int) -> tuple[int, int]:
        """(min, max) of p(n) over the integers lo <= n <= hi, lo <= hi.

        p is monotone between the real roots of p', so its extremes lie at
        lo, hi or next to one of those roots: O(degree^2 log(hi - lo))
        evaluations, not hi - lo.
        """
        points = {lo, hi}
        for k in _root_brackets(self.derivative(), lo, hi):
            points.update((k, k + 1))
        values = [self(n) for n in points]
        return min(values), max(values)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in reversed(range(len(self.coeffs))):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}")
                parts.append(f"{head}T" + (f"^{i}" if i > 1 else ""))
        return " + ".join(parts).replace("+ -", "- ")


def _root_brackets(p: IntPolynomial, lo: int, hi: int) -> list[int]:
    """Integers k such that every real root of p in [lo, hi] lies in some [k, k + 1] within [lo, hi].

    p is strictly monotone between the brackets of the roots of p', so
    each piece holds at most one root, bisected to a unit interval; a
    bracket of p' is kept whole.  A constant gives none: ``extremes`` of a
    constant pass the zero polynomial here, and need no root.
    """
    if p.degree < 1:
        return []
    inner = _root_brackets(p.derivative(), lo, hi)
    ends = sorted({lo, hi}.union(*((k, k + 1) for k in inner)))
    out = []
    for a, b in zip(ends, ends[1:]):
        if a in inner:
            out.append(a)
        elif p(a) * p(b) <= 0:
            while b - a > 1:
                mid = (a + b) // 2
                a, b = (a, mid) if p(a) * p(mid) <= 0 else (mid, b)
            out.append(a)
    return out


def _integer(c) -> int:
    """A coefficient as an int: 2.0 is 2, but 1.7, inf and nan are refused, not truncated."""
    try:
        n = int(c)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"polynomial coefficients must be finite integers, got {c!r}") from exc
    if n != c:
        raise ValueError(f"polynomial coefficients must be integers, got {c!r}")
    return n


@dataclass(frozen=True)
class CaseLabel:
    """Which reduction applies to a (family, split) pair.

    label 'A': a linear polynomial sits in the y part (no reduction needed).
    label 'B': a linear polynomial sits in the x part; ``move_index`` is the
    1-based position that gets moved over to y.
    label 'C': no linear member at all; a fresh linear polynomial T is
    appended to the family (``append_linear``).
    """

    label: str
    move_index: int | None = None
    append_linear: bool = False

    def __str__(self) -> str:
        if self.label == "B":
            return f"B(move x_{self.move_index} to y)"
        if self.label == "C":
            return "C(append T)"
        return "A"


class PolynomialFamily:
    """A family of d distinct nonconstant integer polynomials.

    ``k`` is the default split index: the first k coordinates of a torus
    point are the averaged ("x") block, the rest the uniform ("y") block.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, polys: Sequence[IntPolynomial], k: int | None = None):
        polys = tuple(polys)
        if not polys:
            raise ValueError("family must contain at least one polynomial")
        for p in polys:
            if p.is_zero or p.degree < 1:
                raise ValueError(f"family members must be nonconstant, got {p!r}")
        seen = set()
        for p in polys:
            if p in seen:
                raise ValueError(f"family members must be pairwise distinct, got {p!r} twice")
            seen.add(p)
        self.polys = polys
        self.degrees: tuple[int, ...] = tuple(int(p.degree) for p in polys)
        self.sorted_degrees: tuple[int, ...] = tuple(sorted(self.degrees))
        self.k = len(polys) if k is None else whole("k", k, 1, len(polys))

    @property
    def d(self) -> int:
        return len(self.polys)

    @cached_property
    def _wronskian(self) -> IntPolynomial:
        return _wronskian_det(self.polys)

    def wronskian_nonvanishing(self) -> bool:
        if all(p.is_monomial for p in self.polys):
            # the constant of _wronskian_monomial is nonzero exactly when the degrees are distinct
            return len(set(self.degrees)) == self.d
        return not self._wronskian.is_zero

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolynomialFamily)
            and self.polys == other.polys
            and self.k == other.k
        )

    def __hash__(self) -> int:
        return hash((self.polys, self.k))

    def __repr__(self) -> str:
        return f"PolynomialFamily([{', '.join(map(repr, self.polys))}], k={self.k})"


def classical_family(d: int, k: int | None = None) -> PolynomialFamily:
    """The family (T, T^2, ..., T^d)."""
    d = whole("d", d, 1)
    # d (d + 3) / 2 coefficients, 8 bytes each in the tuples, and about 256 bytes a polynomial
    check_cost("classical_family", d * (d + 3) // 2, 4 * d * (d + 3) + 256 * d + 1024)
    return PolynomialFamily([IntPolynomial.monomial(j) for j in range(1, d + 1)], k=k)


def augmented_family(fam: PolynomialFamily) -> PolynomialFamily:
    """The family with a fresh linear polynomial T appended (case C recipe)."""
    t = IntPolynomial.monomial(1)
    if t in fam.polys:
        raise ValueError("family already contains T; augmentation would repeat it")
    return PolynomialFamily(fam.polys + (t,), k=fam.k)


# ---------------------------------------------------------------------------
# Wronskian


def _wronskian_monomial(polys: Sequence[IntPolynomial]) -> IntPolynomial:
    # Row i of the matrix is a_i (e_i)_j T^(e_i - j), j < d, for members
    # a_i T^(e_i).  Every permutation term has the power sum(e_i) - d(d-1)/2,
    # and each falling factorial (e)_j is monic of degree j in e, so column
    # operations leave a_i times the Vandermonde matrix (e_i^j): the
    # constant is prod a_i * prod_{i<j} (e_j - e_i).
    d = len(polys)
    es = [int(p.degree) for p in polys]
    c = math.prod(p.coeffs[-1] for p in polys) * math.prod(b - a for a, b in combinations(es, 2))
    if c == 0:
        return IntPolynomial([])
    return IntPolynomial.monomial(sum(es) - d * (d - 1) // 2, c)


def _poly_divexact(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Quotient a/b when the division is exact in Z[T] (Bareiss guarantees it)."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return IntPolynomial([])
    rem = [Fraction(c) for c in a.coeffs]
    div = [Fraction(c) for c in b.coeffs]
    dq = len(rem) - len(div)
    if dq < 0:
        raise ArithmeticError("inexact polynomial division")
    quot = [Fraction(0)] * (dq + 1)
    for i in range(dq, -1, -1):
        q = rem[i + len(div) - 1] / div[-1]
        quot[i] = q
        if q:
            for j, c in enumerate(div):
                rem[i + j] -= q * c
    if any(rem) or any(q.denominator != 1 for q in quot):
        raise ArithmeticError("inexact polynomial division")
    return IntPolynomial([int(q) for q in quot])


def _det_bareiss_poly(rows: list[list[IntPolynomial]]) -> IntPolynomial:
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = IntPolynomial([1])
    for p in range(n - 1):
        if m[p][p].is_zero:
            for r in range(p + 1, n):
                if not m[r][p].is_zero:
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return IntPolynomial([])
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                num = m[i][j] * m[p][p] - m[i][p] * m[p][j]
                m[i][j] = _poly_divexact(num, prev)
        prev = m[p][p]
    out = m[-1][-1]
    return -out if sign < 0 else out


def _wronskian_det(polys: Sequence[IntPolynomial]) -> IntPolynomial:
    if all(p.is_monomial for p in polys):
        return _wronskian_monomial(polys)
    rows = []
    for p in polys:
        row = [p]
        for _ in range(len(polys) - 1):
            row.append(row[-1].derivative())
        rows.append(row)
    return _det_bareiss_poly(rows)


def wronskian(fam: PolynomialFamily) -> IntPolynomial:
    """Determinant of the matrix (phi_i^(j-1))_{i,j}, exact over Z[T].

    Nonvanishing of this polynomial is the nondegeneracy hypothesis behind
    every mean-value based bound; ``fam.wronskian_nonvanishing()`` exposes
    the flag directly.
    """
    return fam._wronskian


# ---------------------------------------------------------------------------
# Degree statistics and case classification


def degree_stats(fam: PolynomialFamily, k: int) -> tuple[int, int]:
    """Return (sigma_k, sigma~_k).

    sigma_k sums the degrees of members k+1..d in the given order;
    sigma~_k sums the d-k largest degrees (the top of the sorted list).
    """
    k = whole("k", k, 1, fam.d)
    return sum(fam.degrees[k:]), sum(fam.sorted_degrees[k:])


def classify_case(fam: PolynomialFamily, k: int) -> CaseLabel:
    """Classify a (family, split) pair into the mutually exclusive cases.

    A: some y-block member (index > k) is linear.
    B: no y-block member is linear but some x-block member is; the recipe
       moves that member into y.
    C: every member has degree >= 2; the recipe appends the polynomial T.
    """
    return _case(fam.degrees, whole("k", k, 1, fam.d))


def _case(degrees: Sequence[int], k: int) -> CaseLabel:
    """``classify_case`` of a family of these degrees at a gated split index k."""
    if 1 in degrees[k:]:
        return CaseLabel("A")
    if 1 in degrees[:k]:
        return CaseLabel("B", move_index=degrees.index(1) + 1)
    return CaseLabel("C", append_linear=True)


# ---------------------------------------------------------------------------
# Family literal syntax (shared by CLI and config files)


def parse_family(spec, k: int | None = None) -> PolynomialFamily:
    """Parse a family literal.

    Accepts ``"classical:d"``, a JSON string of coefficient lists
    (lowest degree first, e.g. ``"[[0,1],[0,0,1]]"`` for (T, T^2)),
    or an already-parsed list of coefficient lists.  Coefficients must be
    integers, and their count is checked against the budgets before any
    member is built.
    """
    if isinstance(spec, PolynomialFamily):
        return spec if k is None else PolynomialFamily(spec.polys, k=k)
    if isinstance(spec, str):
        s = spec.strip()
        if s.startswith("classical:"):
            return classical_family(int(s.split(":", 1)[1]), k=k)
        spec = json.loads(s)
    if not isinstance(spec, (list, tuple)) or not all(isinstance(c, (list, tuple)) for c in spec):
        raise ValueError(f"cannot parse family literal {spec!r}")
    coefficients = sum(len(c) for c in spec)
    check_cost("parse_family", coefficients, 8 * coefficients + 256 * len(spec) + 1024)
    return PolynomialFamily([IntPolynomial(c) for c in spec], k=k)
