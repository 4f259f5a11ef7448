import json
import math
from fractions import Fraction

import pytest

from weylsums import (
    Inapplicable,
    PolynomialFamily,
    best_bound,
    classical_family,
    disc_gamma,
    disc_gamma_star,
    fixed_point,
    gamma_NL,
    gamma_XL,
    gamma_YL,
    gamma_general,
    gamma_star,
    gamma_tilde,
    parse_family,
    s_of,
    self_improve_map,
)
from weylsums.polyfam import IntPolynomial, augmented_family, classify_case, degree_stats, wronskian

from conftest import gamma_tilde_classical

HALF = Fraction(1, 2)


def yl_family(d):
    """(T^d, T, T^2, ..., T^{d-1}): the leading coefficient is averaged (k=1)."""
    polys = [IntPolynomial.monomial(d)] + [IntPolynomial.monomial(j) for j in range(1, d)]
    return PolynomialFamily(polys, k=1)


def test_s_of():
    assert s_of(1) == 1
    assert s_of(3) == 6
    assert s_of(4) == 10
    with pytest.raises(ValueError):
        s_of(0)


class TestSingleValues:
    def test_gamma_star(self):
        assert gamma_star(classical_family(3), 1) == Fraction(14, 15)
        assert gamma_star(classical_family(2), 1) == Fraction(7, 8)
        for d in (2, 5, 9):
            expect = HALF + Fraction(1, 2 * d * d + 2 * d + 2)
            assert gamma_star(classical_family(d), d) == expect

    def test_gamma_general(self):
        assert gamma_general(classical_family(3), 1) == Fraction(13, 14)
        assert gamma_general(classical_family(2), 1) == Fraction(6, 7)
        for d in (2, 4, 7):
            assert gamma_general(classical_family(d), d) == HALF

    def test_gamma_general_needs_wronskian(self):
        degenerate = parse_family([[0, 1], [0, 2]])
        with pytest.raises(Inapplicable):
            gamma_general(degenerate, 1)

    def test_gamma_yl(self):
        fam = parse_family([[0, 0, 0, 1], [0, 0, 1], [0, 1]])  # (T^3, T^2, T)
        assert gamma_YL(fam, 1) == Fraction(3, 4)
        with pytest.raises(Inapplicable):
            gamma_YL(classical_family(3), 1)  # case B

    def test_gamma_yl_at_k_d_is_half(self):
        # empty y block: sigma_d = 0 and no case hypothesis is needed
        for d in (2, 3, 5):
            assert gamma_YL(classical_family(d), d) == HALF
            assert gamma_general(classical_family(d), d) == HALF

    def test_gamma_xl(self):
        assert gamma_XL(classical_family(3), 2) == Fraction(5, 6)
        with pytest.raises(Inapplicable):
            gamma_XL(classical_family(3), 1)  # k >= 2 required
        with pytest.raises(Inapplicable):
            gamma_XL(parse_family([[0, 0, 1], [0, 0, 0, 1]]), 1)  # case C

    def test_gamma_nl(self):
        fam = parse_family([[0, 0, 1], [0, 0, 0, 1]])  # (T^2, T^3)
        assert gamma_NL(fam, 1) == Fraction(5, 6)
        with pytest.raises(Inapplicable):
            gamma_NL(classical_family(3), 2)  # contains a linear member

    def test_gamma_tilde(self):
        assert gamma_tilde(classical_family(2), 1) == Fraction(6, 7)
        assert gamma_tilde(classical_family(3), 2) == Fraction(10, 13)
        for d in range(2, 11):
            fam = classical_family(d)
            for k in range(1, d + 1):
                assert gamma_tilde(fam, k) == gamma_tilde_classical(d, k)

    def test_gamma_tilde_applicability(self):
        # degrees (5, 5) make sigma~_1 = 5 >= d(d+1)/2 = 3
        fam = parse_family([[0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 1]])
        with pytest.raises(Inapplicable):
            gamma_tilde(fam, 1)

    def test_disc_gamma(self):
        assert disc_gamma(classical_family(3), 1) == Fraction(14, 15)
        assert disc_gamma_star(classical_family(3), 1) == Fraction(15, 16)


class TestExactComparisons:
    def test_gamma_below_gamma_star_up_to_twenty(self):
        for d in range(2, 21):
            fam = classical_family(d)
            for k in range(1, d + 1):
                assert gamma_general(fam, k) < gamma_star(fam, k)

    def test_disc_gamma_below_star_up_to_twenty(self):
        for d in range(2, 21):
            fam = classical_family(d)
            for k in range(1, d + 1):
                assert disc_gamma(fam, k) < disc_gamma_star(fam, k)

    def test_yl_improves_general_when_applicable(self):
        for d in range(2, 9):
            fam = yl_family(d)
            for k in range(1, d):
                if min(fam.degrees[k:]) != 1:
                    continue
                sigma = sum(fam.degrees[k:])
                if sigma < d * (d + 1) / 2:
                    assert gamma_YL(fam, k) < gamma_general(fam, k)

    def test_short_window_exponents(self):
        for d in range(2, 21):
            fam = yl_family(d)
            assert gamma_YL(fam, 1) == 1 - Fraction(1, d + 1)
            assert disc_gamma(fam, 1) == 1 - Fraction(1, d + 2)

    def test_all_bounds_in_admissible_range(self):
        for d in range(2, 9):
            fam = classical_family(d)
            for k in range(1, d + 1):
                rep = best_bound(fam, k)
                for val in rep.values.values():
                    assert HALF <= val <= 1
                assert rep.best <= 1


class TestSelfImproving:
    def fam(self):
        return parse_family([[0, 0, 1], [0, 0, 0, 0, 1], [0, 1]])  # (T^2, T^4, T), sigma_1 = 5

    def test_map_values(self):
        fam = self.fam()
        assert self_improve_map(fam, 1, 1) == Fraction(13, 14)
        assert self_improve_map(fam, 1, Fraction(11, 12)) == Fraction(11, 12)

    def test_affine_slope_below_one(self):
        fam = self.fam()
        f0 = self_improve_map(fam, 1, 0)
        f1 = self_improve_map(fam, 1, 1)
        slope = f1 - f0
        assert slope == Fraction(2, 14)
        assert 0 <= slope < 1

    def test_needs_case_a(self):
        with pytest.raises(Inapplicable):
            self_improve_map(classical_family(3), 1, 1)

    def test_fixed_point_iteration(self):
        fam = self.fam()
        tol = Fraction(1, 10**12)
        value, trace = fixed_point(fam, 1, 1, tol)
        target = gamma_YL(fam, 1)
        assert target == Fraction(11, 12)
        assert abs(value - target) <= tol
        assert all(a > b for a, b in zip(trace, trace[1:]))
        slope = 2 / 14
        predicted = math.ceil(math.log(1e-12) / math.log(slope)) + 1
        assert len(trace) - 1 <= predicted

    def test_fixed_point_start_at_target(self):
        fam = self.fam()
        target = gamma_YL(fam, 1)
        value, trace = fixed_point(fam, 1, target, Fraction(1, 10**12))
        assert value == target
        assert len(trace) == 2

    def test_fixed_point_domain_checked(self):
        fam = self.fam()
        with pytest.raises(ValueError):
            fixed_point(fam, 1, Fraction(1, 4), Fraction(1, 100))


class TestBestBound:
    def test_case_b_with_k1_falls_back_to_general(self):
        rep = best_bound(classical_family(3), 1)
        assert rep.case.label == "B"
        assert rep.best == Fraction(13, 14)
        assert rep.best_tag == "general"
        assert "gamma_xl" in rep.reasons

    def test_case_b_reduction_competes(self):
        rep = best_bound(classical_family(3), 2)
        assert rep.values["gamma_xl"] == Fraction(5, 6)
        # the general bound is smaller here and wins
        assert rep.best == Fraction(10, 13)
        assert rep.best_tag == "general"

    def test_case_c_route(self):
        rep = best_bound(parse_family([[0, 0, 1], [0, 0, 0, 1]]), 1)
        assert rep.case.label == "C"
        assert rep.augmented_wronskian_ok is True
        assert rep.best == Fraction(5, 6)
        assert rep.best_tag == "append-linear"

    def test_case_a_route(self):
        fam = parse_family([[0, 0, 1], [0, 0, 0, 0, 1], [0, 1]])
        rep = best_bound(fam, 1)
        assert rep.best == Fraction(11, 12)
        assert rep.best_tag == "linear-y"

    def test_best_not_larger_than_any_candidate(self):
        for d in range(2, 7):
            fam = classical_family(d)
            for k in range(1, d + 1):
                rep = best_bound(fam, k)
                for name in ("gamma", "gamma_yl", "gamma_xl", "gamma_nl"):
                    if name in rep.values:
                        assert rep.best <= rep.values[name]

    def test_tie_at_k_d_prefers_reduction(self):
        # at k = d both gamma_YL (via case A) and gamma are 1/2 when a linear
        # polynomial exists; ties go to the reduction route
        fam = PolynomialFamily([IntPolynomial.monomial(j) for j in (2, 1)], k=2)
        rep = best_bound(fam, 1)  # y block = (T): case A, sigma_1 = 1
        assert rep.values["gamma_yl"] == rep.best

    def test_vanishing_wronskian_reported(self):
        rep = best_bound(parse_family([[0, 1], [0, 2]]), 1)
        assert not rep.wronskian_ok
        assert "gamma" in rep.reasons
        assert rep.best_tag == "trivial"

    def test_json_round_trip(self):
        rep = best_bound(classical_family(2), 1)
        js = rep.to_json()
        assert js["values"]["gamma"] == {"num": 6, "den": 7, "decimal": 6 / 7}
        assert js["best_tag"] == rep.best_tag
        assert js["case"].startswith("B")


# ---------------------------------------------------------------------------
# Each exponent computed on its own, straight from the family, as a reference
# for the shared degree profile: every statistic and hypothesis is re-derived
# per function, and the Wronskian flags come from the determinant polynomial.
# The values are written as 1/2 plus a Fraction, or 1/2 + x / (2 s(q)), each
# step normalised on its own: a second spelling of the one-Fraction formulas.


def _ref_bounds(fam, k):
    """name -> the value of each exponent at (fam, k), or the reason it does not apply."""
    d = fam.d
    sigma, sigma_tilde = degree_stats(fam, k)
    case = classify_case(fam, k).label
    wr = not wronskian(fam).is_zero
    out = {"gamma_star": HALF + Fraction(2 * sigma + d - k + 1, 2 * d * d + 4 * d - 2 * k + 2)}
    no_wr = "Wronskian of the family vanishes identically"
    out["gamma"] = HALF + Fraction(2 * sigma + d - k, 2 * d * d + 4 * d - 2 * k) if wr else no_wr
    if not wr:
        out["gamma_yl"] = no_wr
    elif k == d:
        out["gamma_yl"] = HALF
    elif case != "A":
        out["gamma_yl"] = f"no linear polynomial in the y block (case {case})"
    else:
        out["gamma_yl"] = HALF + Fraction(sigma, 1) / (2 * s_of(d))
    if not wr:
        out["gamma_xl"] = no_wr
    elif case != "B":
        out["gamma_xl"] = f"no linear polynomial confined to the x block (case {case})"
    elif k < 2:
        out["gamma_xl"] = "moving the linear member to y needs k >= 2"
    else:
        out["gamma_xl"] = HALF + Fraction(sigma + 1, 1) / (2 * s_of(d))
    if case != "C":
        out["gamma_nl"] = f"family already contains a linear polynomial (case {case})"
    elif wronskian(augmented_family(fam)).is_zero:
        out["gamma_nl"] = "Wronskian of the augmented family vanishes identically"
    else:
        out["gamma_nl"] = HALF + Fraction(sigma + 1, 1) / (2 * s_of(d + 1))
    if not wr:
        out["gamma_tilde"] = no_wr
    elif 2 * sigma_tilde >= d * (d + 1):
        out["gamma_tilde"] = f"sigma~_k = {sigma_tilde} >= d(d+1)/2"
    else:
        out["gamma_tilde"] = HALF + Fraction(2 * sigma_tilde + d - k, 2 * d * d + 4 * d - 2 * k)
    if not wr:
        out["disc_gamma"] = no_wr
    elif 2 * sigma >= d * (d + 1):
        out["disc_gamma"] = f"sigma_k = {sigma} >= d(d+1)/2"
    else:
        out["disc_gamma"] = HALF + Fraction(d - k + 2 * sigma + 1, 2 * d * d + 4 * d - 2 * k + 2)
    out["disc_gamma_star"] = HALF + Fraction(d - k + 2 * sigma + 2, 2 * d * d + 4 * d - 2 * k + 4)
    return out


def _ref_report(fam, k):
    """best_bound(fam, k).to_json(), assembled from _ref_bounds."""
    def enc(fr):
        return {"num": fr.numerator, "den": fr.denominator, "decimal": float(fr)}

    bounds = _ref_bounds(fam, k)
    values = {n: v for n, v in bounds.items() if isinstance(v, Fraction) and v <= 1}
    reasons = {n: v for n, v in bounds.items() if isinstance(v, str)}
    reasons.update({n: f"exceeds 1 ({v}); trivial" for n, v in bounds.items() if isinstance(v, Fraction) and v > 1})
    tags = [("gamma_yl", "linear-y"), ("gamma_xl", "linear-x-moved"), ("gamma_nl", "append-linear"),
            ("gamma", "general")]
    candidates = sorted((values[n], rank, tag) for rank, (n, tag) in enumerate(tags) if n in values)
    best = candidates[0][0] if candidates else Fraction(1)
    case = classify_case(fam, k)
    sigma, sigma_tilde = degree_stats(fam, k)
    return {
        "d": fam.d,
        "k": k,
        "case": str(case),
        "sigma": sigma,
        "sigma_tilde": sigma_tilde,
        "wronskian_ok": not wronskian(fam).is_zero,
        "augmented_wronskian_ok": not wronskian(augmented_family(fam)).is_zero if case.label == "C" else None,
        "nontrivial": sigma < s_of(fam.d),
        "values": {n: enc(v) for n, v in values.items()},
        "reasons": reasons,
        "best": enc(best),
        "best_tag": candidates[0][2] if candidates else "trivial",
        "best_tied": [tag for v, _, tag in candidates if v == best],
    }


PUBLIC = {
    "gamma_star": gamma_star,
    "gamma": gamma_general,
    "gamma_yl": gamma_YL,
    "gamma_xl": gamma_XL,
    "gamma_nl": gamma_NL,
    "gamma_tilde": gamma_tilde,
    "disc_gamma": disc_gamma,
    "disc_gamma_star": disc_gamma_star,
}

PROFILE_CASES = [(classical_family(d), k) for d in range(1, 21) for k in range(1, d + 1)] + [
    (parse_family([[0, 0, 1], [0, 0, 0, 0, 1], [0, 1]]), 1),  # case A
    (yl_family(5), 2),  # case A
    (parse_family([[0, 0, 1], [0, 0, 0, 1]]), 1),  # case C, the augmented Wronskian nonvanishing
    (parse_family([[0, 0, 1], [0, 0, 0, 1]]), 2),
    (parse_family([[0, 0, 1], [0, 1, 1]]), 1),  # case C, the augmented Wronskian vanishing
    (parse_family([[0, 0, 1], [0, 0, 2]]), 1),  # (T^2, 2T^2): every Wronskian vanishes
    (parse_family([[0, 0, 1], [0, 0, 2]]), 2),
    (parse_family([[0, 1], [0, 2]]), 1),  # (T, 2T): case A, Wronskian vanishing
]


class TestProfileAgreesWithReference:
    def test_every_public_exponent(self):
        for fam, k in PROFILE_CASES:
            for name, expect in _ref_bounds(fam, k).items():
                if isinstance(expect, Fraction):
                    assert PUBLIC[name](fam, k) == expect, (fam, k, name)
                else:
                    with pytest.raises(Inapplicable) as exc:
                        PUBLIC[name](fam, k)
                    assert str(exc.value) == expect, (fam, k, name)

    def test_best_bound_report(self):
        for fam, k in PROFILE_CASES:
            got = best_bound(fam, k).to_json()
            assert json.dumps(got) == json.dumps(_ref_report(fam, k)), (fam, k)

    def test_self_improvement_applies_where_gamma_yl_does(self):
        for fam, k in PROFILE_CASES:
            yl = _ref_bounds(fam, k)["gamma_yl"]
            if isinstance(yl, str):
                with pytest.raises(Inapplicable):
                    self_improve_map(fam, k, 1)
                with pytest.raises(Inapplicable):
                    fixed_point(fam, k, 1, Fraction(1, 100))
                continue
            d = fam.d
            sd = s_of(d)
            sigma = degree_stats(fam, k)[0]
            def step(t):
                return (sd + sigma + (d - k) * t) / (2 * sd + d - k)

            for t in (yl, Fraction(3, 4), 1):
                assert self_improve_map(fam, k, t) == step(Fraction(t))
            value, trace = fixed_point(fam, k, 1, Fraction(1, 10**9))
            assert abs(value - yl) <= Fraction(1, 10**9) and trace[0] == 1
            assert all(b == step(a) for a, b in zip(trace, trace[1:]))


def test_self_improvement_at_k_d_is_constant_half():
    # sigma_d = 0 and the slope (d - k)/(2 s(d) + d - k) is 0: the map is gamma_YL's 1/2, in any case
    fam = classical_family(3)
    assert best_bound(fam, 3).best_tag == "linear-y"
    for t in (0, Fraction(3, 4), 1):
        assert self_improve_map(fam, 3, t) == HALF
    value, trace = fixed_point(fam, 3, Fraction(3, 4), Fraction(1, 100))
    assert value == gamma_YL(fam, 3) == HALF
    assert trace == [Fraction(3, 4), HALF, HALF]
    with pytest.raises(Inapplicable, match="case B"):
        self_improve_map(fam, 2, 1)
