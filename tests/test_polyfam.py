import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylsums import (
    IntPolynomial,
    PolynomialFamily,
    augmented_family,
    classical_family,
    classify_case,
    degree_stats,
    parse_family,
    wronskian,
)
from weylsums.polyfam import MINUS_INFINITY

from conftest import shift_coefficients


def coeff_lists(max_d=4):
    # random nonconstant polynomials with small coefficients
    return st.lists(st.integers(-3, 3), min_size=2, max_size=max_d + 1).filter(
        lambda c: any(x != 0 for x in c[1:])
    )


def families(max_members=5):
    return st.lists(coeff_lists(), min_size=1, max_size=max_members).map(
        lambda lists: [IntPolynomial(c) for c in lists]
    ).filter(lambda ps: len({p.coeffs for p in ps}) == len(ps)).map(PolynomialFamily)


def _derivative_rows(polys):
    """The Wronskian matrix: row i is phi_i and its first d - 1 derivatives."""
    rows = []
    for p in polys:
        row = [p]
        for _ in range(len(polys) - 1):
            row.append(row[-1].derivative())
        rows.append(row)
    return rows


def _det_cofactor(rows):
    """The determinant by cofactor expansion along the first row: the oracle of the Bareiss route."""
    if len(rows) == 1:
        return rows[0][0]
    acc = IntPolynomial([])
    for j, a in enumerate(rows[0]):
        if a.is_zero:
            continue
        term = a * _det_cofactor([r[:j] + r[j + 1 :] for r in rows[1:]])
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


class TestIntPolynomial:
    def test_degree_and_zero_marker(self):
        assert IntPolynomial([0, 0, 1]).degree == 2
        assert IntPolynomial([5]).degree == 0
        assert IntPolynomial([]).degree == MINUS_INFINITY
        assert IntPolynomial([0, 0]).is_zero

    def test_trailing_zeros_stripped(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)

    def test_derivative(self):
        assert IntPolynomial.monomial(3).derivative() == IntPolynomial([0, 0, 3])
        assert IntPolynomial([5]).derivative().is_zero
        assert IntPolynomial([0, 1, 2]).derivative() == IntPolynomial([1, 4])

    def test_evaluate(self):
        assert IntPolynomial.monomial(3)(4) == 64
        assert IntPolynomial([1, 2])(0) == 1
        assert IntPolynomial([0, -1, 1])(5) == 20

    def test_evaluate_huge_exact(self):
        p = IntPolynomial([1, 0, 0, 7])
        n = 10**6
        assert p(n) == 7 * n**3 + 1

    def test_coefficients_must_be_integers(self):
        assert IntPolynomial([2.0, 3]).coeffs == (2, 3)
        for bad in (1.7, float("inf"), float("nan"), Fraction(1, 2), "3"):
            with pytest.raises(ValueError, match="integers"):
                IntPolynomial([0, bad])
        with pytest.raises(ValueError, match="integers"):
            parse_family("[[0, 1.7], [0, 0, 2.9]]")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-40, 40), max_size=7), st.integers(-30, 30), st.integers(0, 60))
    def test_extremes_match_every_integer(self, coeffs, lo, length):
        p, hi = IntPolynomial(coeffs), lo + length
        values = [p(n) for n in range(lo, hi + 1)]
        assert p.extremes(lo, hi) == (min(values), max(values))

    def test_extremes_near_clustered_roots(self):
        # (T - a)^e (T - a - 1)(T - a - 2): turning points within one unit of each other
        for a in range(-3, 4):
            for e in (1, 2, 3):
                p = IntPolynomial([1])
                for r in [a] * e + [a + 1, a + 2]:
                    p = p * IntPolynomial([-r, 1])
                for lo, hi in ((a - 5, a + 7), (a, a + 2), (a + 1, a + 1)):
                    values = [p(n) for n in range(lo, hi + 1)]
                    assert p.extremes(lo, hi) == (min(values), max(values))


class TestFamilies:
    def test_classical(self):
        fam = classical_family(3)
        assert fam.degrees == (1, 2, 3)
        assert classical_family(1).degrees == (1,)
        assert classical_family(4).sorted_degrees == (1, 2, 3, 4)
        with pytest.raises(ValueError):
            classical_family(0)

    def test_rejects_constants_and_duplicates(self):
        with pytest.raises(ValueError):
            PolynomialFamily([IntPolynomial([3])])
        with pytest.raises(ValueError):
            PolynomialFamily([IntPolynomial([0, 1]), IntPolynomial([0, 1])])

    def test_distinct_members_found_by_hash(self, monkeypatch):
        # a pairwise check compared d^2 / 2 pairs, each along the shorter member
        compared = []
        monkeypatch.setattr(IntPolynomial, "__eq__", lambda a, b: compared.append(1) or a.coeffs == b.coeffs)
        assert classical_family(2000).d == 2000
        assert len(compared) < 100
        with pytest.raises(ValueError, match="T\\^7 twice"):
            PolynomialFamily([IntPolynomial.monomial(j) for j in (1, 7, 3, 7)])

    def test_family_size_checked_before_building(self, monkeypatch):
        from weylsums import BudgetError

        monkeypatch.setattr(IntPolynomial, "__init__", lambda *args: pytest.fail("a member was built"))
        with pytest.raises(BudgetError, match="classical_family.*work budget"):
            classical_family(99999999999)
        monkeypatch.setattr("weylsums.errors.MEMORY_BUDGET", 1 << 16)
        with pytest.raises(BudgetError, match="parse_family.*memory budget"):
            parse_family([[0] * 10**4 + [1]])

    def test_parse_family(self):
        fam = parse_family("[[0,1],[0,0,1]]")
        assert fam.degrees == (1, 2)
        assert parse_family("classical:4").d == 4
        assert parse_family([[0, 2], [0, 0, 1]]).degrees == (1, 2)


class TestWronskian:
    def test_pair(self):
        fam = parse_family([[0, 1], [0, 0, 1]])  # (T, T^2)
        assert wronskian(fam) == IntPolynomial([0, 0, 1])

    def test_triple(self):
        assert wronskian(classical_family(3)) == IntPolynomial([0, 0, 0, 2])

    def test_proportional_rows_vanish(self):
        fam = parse_family([[0, 1], [0, 2]])
        assert wronskian(fam).is_zero
        assert not fam.wronskian_nonvanishing()
        assert not wronskian(classical_family(2)).is_zero

    def test_classical_monomial_shape(self):
        # nonzero monomial with positive constant for every small d
        for d in range(1, 9):
            w = wronskian(classical_family(d))
            assert not w.is_zero
            assert w.is_monomial
            assert w.coeffs[-1] > 0

    def test_monomial_fastpath_matches_cofactor(self):
        # the closed form against the determinant of the derivative rows, on
        # random a_i T^(e_i) with leading coefficients of either sign and any
        # size: distinct exponents, and a repeated one, which gives zero
        from weylsums.polyfam import _det_bareiss_poly, _wronskian_monomial

        rng = random.Random(20261018)
        polys = [IntPolynomial.monomial(1, 2), IntPolynomial.monomial(3), IntPolynomial.monomial(4, -1)]
        assert _wronskian_monomial(polys) == _det_cofactor(_derivative_rows(polys)) == IntPolynomial.monomial(5, -12)
        for d in range(1, 10):
            det = _det_cofactor if d <= 6 else _det_bareiss_poly
            for repeat in (False, True)[: min(d, 2)]:
                exponents = rng.sample(range(1, 13), d)
                if repeat:
                    exponents[-1] = exponents[0]
                polys = [IntPolynomial.monomial(e, rng.choice([-1, 1]) * rng.randint(1, 50)) for e in exponents]
                w = _wronskian_monomial(polys)
                assert w == det(_derivative_rows(polys))
                assert w.is_zero == repeat

    def test_nonvanishing_flag_matches_the_determinant(self):
        # monomial families answer from their degrees; every flag agrees with
        # the determinant polynomial and with the cofactor expansion
        specs = [
            [[0, 1], [0, 0, 1]], [[0, 1], [0, 2]], [[0, 0, 1], [0, 0, 2]], [[0, 0, 0, 3], [0, -2], [0, 0, 0, 0, 5]],
            [[0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 7]], [[0, 0, 0, 1], [0, 0, 0, -1], [0, 1]],
            [[9, -6, 1], [81, -108, 54, -12, 1]], [[0, 0, 1], [0, 1, 1]], [[0, 0, 1], [0, 1, 1], [0, 1]],
            [[1, 2, 3], [0, 0, 0, 1]], [[0, 1, 1], [0, 2, 2, 1], [5, 0, 0, 1]],
        ]
        families = [parse_family(s) for s in specs] + [classical_family(d) for d in range(1, 7)]
        families.append(augmented_family(parse_family([[0, 0, 1], [0, 0, 0, 1]])))
        seen = set()
        for fam in families:
            flag = fam.wronskian_nonvanishing()
            assert flag == (not wronskian(fam).is_zero)
            assert flag == (not _det_cofactor(_derivative_rows(list(fam.polys))).is_zero)
            seen.add((all(p.is_monomial for p in fam.polys), flag))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_nonmonomial_family(self):
        # ((T-3)^2, (T-3)^4) has a nonvanishing Wronskian
        fam = parse_family([[9, -6, 1], [81, -108, 54, -12, 1]])
        assert fam.wronskian_nonvanishing()

    def test_bareiss_matches_cofactor_beyond_six(self):
        # force the generic Bareiss path with 7 non-monomial members
        polys = [IntPolynomial([j + 1] + [0] * j + [1]) for j in range(7)]
        fam = PolynomialFamily(polys)

        assert wronskian(fam) == _det_cofactor(_derivative_rows(polys))


class TestDegreeStats:
    def test_classical_examples(self):
        fam = classical_family(3)
        assert degree_stats(fam, 1) == (5, 5)
        assert degree_stats(fam, 3) == (0, 0)
        fam = parse_family([[0, 0, 0, 1], [0, 1], [0, 0, 1]])  # (T^3, T, T^2)
        assert degree_stats(fam, 1) == (3, 5)

    def test_split_range_checked(self):
        with pytest.raises(ValueError):
            degree_stats(classical_family(2), 0)
        with pytest.raises(ValueError):
            degree_stats(classical_family(2), 3)

    @given(families(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sigma_tilde_is_max_over_permutations(self, fam, data):
        k = data.draw(st.integers(1, fam.d))
        _, sigma_tilde = degree_stats(fam, k)
        best = max(
            sum(perm[k:]) for perm in permutations(fam.degrees)
        )
        assert sigma_tilde == best


class TestClassifyCase:
    def test_examples(self):
        fam = classical_family(3)
        assert classify_case(fam, 2).label == "B"
        assert classify_case(fam, 1).label == "B"
        assert classify_case(parse_family([[0, 0, 1], [0, 0, 0, 1]]), 1).label == "C"
        assert classify_case(parse_family([[0, 0, 1], [0, 1]]), 1).label == "A"

    def test_recipes(self):
        lab = classify_case(classical_family(3), 2)
        assert lab.move_index == 1
        lab = classify_case(parse_family([[0, 0, 1], [0, 0, 0, 1]]), 1)
        assert lab.append_linear

    @given(families(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_definition(self, fam, data):
        k = data.draw(st.integers(1, fam.d))
        lab = classify_case(fam, k).label
        degs = fam.degrees
        if min(degs[k:], default=99) == 1:
            assert lab == "A"
        elif min(degs[:k]) == 1:
            assert lab == "B"
        else:
            assert lab == "C"

    def test_cases_mutually_exclusive(self):
        fam = classical_family(4)
        for k in range(1, 5):
            assert classify_case(fam, k).label in ("A", "B", "C")


class TestShift:
    def test_identity_shift(self):
        v = shift_coefficients([0.3, 0.7], 0)
        assert v[0] == 0
        assert v[1] == Fraction(0.3)
        assert v[2] == Fraction(0.7)

    def test_hand_example(self):
        # (n+1)^2 / 4 = n^2/4 + n/2 + 1/4
        v = shift_coefficients([0, 0.25], 1)
        assert v == [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]

    def test_linear(self):
        a = Fraction(3, 7)
        v = shift_coefficients([a], 5)
        assert v == [(5 * a) % 1, a]

    @given(
        st.lists(st.fractions(0, 1).filter(lambda f: f < 1), min_size=1, max_size=4),
        st.integers(-8, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, us, M):
        there = shift_coefficients(us, M)
        back = shift_coefficients(there[1:], -M)
        assert back[1:] == [u % 1 for u in us]

    def test_negative_window(self):
        v = shift_coefficients([0.5, 0.125], -3)
        # direct expansion of u1 (T-3) + u2 (T-3)^2
        assert v[0] == (Fraction(1, 2) * -3 + Fraction(1, 8) * 9) % 1
        assert v[1] == (Fraction(1, 2) + Fraction(1, 8) * -6) % 1


def test_augmented_family():
    aug = augmented_family(parse_family([[0, 0, 1], [0, 0, 0, 1]]))
    assert aug.degrees == (2, 3, 1)
    with pytest.raises(ValueError):
        augmented_family(classical_family(2))


def test_family_literal_rejects_garbage():
    with pytest.raises(ValueError):
        parse_family("classic:3x")
    with pytest.raises(Exception):
        parse_family("not json")
