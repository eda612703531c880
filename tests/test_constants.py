"""Special functions and closed-form constants against high-precision oracles."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrad.coefficients import p_constant
from polyrad.constants import (
    GAMMA_EPS,
    best_constant,
    beta_integral,
    bliss_m1_inv_sqrt,
    critical_exponent,
    p_value,
)
from polyrad.errors import DomainError
from polyrad.functionals import improper_integral

mp.mp.dps = 40

# frozen with mpmath at 40 digits:
#   S(2,2,4,4,inf)^(-1/2) = 105^(-1/2) (48/Gamma(5/2)^2)^(2/5)
S_INV_SQRT_2_4 = 0.3655888026873533
#   S(1,2,3,3,inf) = 4/sqrt(3)
S_1_3 = 2.3094010767585034


class TestGamma:
    """``math.gamma``, which criterion 4's literal m = 1 route calls."""

    def test_trivial_values(self):
        assert math.gamma(1.0) == 1.0
        assert math.gamma(5.0) == 24.0
        assert abs(math.gamma(0.5) - math.sqrt(math.pi)) < 1e-15

    def test_accuracy_contract_on_range(self):
        # relative error <= 1e-13 on [0.5, 60] against the 40-digit oracle
        xs = [0.5 * (60 / 0.5) ** (k / 199) for k in range(200)]
        worst = max(
            abs(math.gamma(x) - float(mp.gamma(x))) / float(mp.gamma(x)) for x in xs
        )
        assert worst <= 1e-13

    def test_recurrence(self):
        rng = random.Random(3)
        for _ in range(25):
            x = rng.uniform(0.5, 40.0)
            assert abs(math.gamma(x + 1) - x * math.gamma(x)) <= 1e-12 * math.gamma(x + 1)


class TestBetaIntegral:
    def test_trivial(self):
        assert abs(beta_integral(1, 1) - 1.0) < 1e-15

    def test_factorial_case(self):
        assert abs(beta_integral(2, 2) - 1 / 6) < 1e-15

    def test_against_quadrature(self):
        x, y = 2.5, 3.1
        got = improper_integral(
            lambda s: s ** (x - 1) * (1 + s) ** (-(x + y))
        ).value
        assert abs(got - beta_integral(x, y)) <= 1e-10 * beta_integral(x, y)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            beta_integral(0.0, 1.0)
        with pytest.raises(DomainError):
            beta_integral(1.0, -1.0)


class TestCriticalExponent:
    def test_examples(self):
        assert critical_exponent(1, 3.0) == 4.0
        assert critical_exponent(2, 4.0) == 10.0

    def test_limit_from_above(self):
        v3 = critical_exponent(1, 1e3)
        v6 = critical_exponent(1, 1e6)
        assert 2.0 < v6 < v3

    def test_gate(self):
        with pytest.raises(DomainError, match="Sobolev condition violated"):
            critical_exponent(2, 2.0)


class TestBestConstant:
    def test_m1_alpha3_value(self):
        res = best_constant(1, 3.0)
        assert abs(res.S - S_1_3) <= 1e-13 * S_1_3
        assert abs(res.S_inv_sqrt - res.S ** -0.5) < 1e-15
        assert res.route == "closed_form"
        assert res.err_estimate > 0

    def test_m2_alpha4_value(self):
        res = best_constant(2, 4.0)
        assert abs(res.S_inv_sqrt - S_INV_SQRT_2_4) <= 1e-4
        assert abs(res.S_inv_sqrt - S_INV_SQRT_2_4) <= 1e-12 * S_INV_SQRT_2_4

    def test_m1_closed_forms_agree(self):
        rng = random.Random(11)
        for _ in range(20):
            a = rng.uniform(2.0, 50.0)
            lhs = best_constant(1, a).S_inv_sqrt
            rhs = bliss_m1_inv_sqrt(a)
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_specific_closed_form_alphas(self):
        for a in (2.5, 3.0, 5.0, 9.0):
            lhs = best_constant(1, a).S_inv_sqrt
            rhs = bliss_m1_inv_sqrt(a)
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_quadrature_route(self):
        closed = best_constant(1, 3.0)
        quad = best_constant(1, 3.0, route="quadrature")
        assert quad.route == "quadrature"
        assert abs(quad.S - closed.S) <= 1e-10 * closed.S

    def test_quadrature_route_large_alpha(self):
        closed = best_constant(3, 30.0)
        quad = best_constant(3, 30.0, route="quadrature")
        assert abs(quad.S - closed.S) <= 1e-9 * closed.S

    def test_sobolev_gate_and_route_validation(self):
        with pytest.raises(DomainError, match="Sobolev condition violated"):
            best_constant(2, 2.0)
        with pytest.raises(DomainError, match="Sobolev condition violated"):
            best_constant(1, 1.0)
        with pytest.raises(ValueError):
            best_constant(1, 3.0, route="tea-leaves")

    def test_non_finite_alpha_rejected(self):
        with pytest.raises(DomainError):
            best_constant(1, math.inf)

    def test_high_precision_against_mpmath(self):
        for m, a in [(1, 3.0), (2, 4.0), (3, 8.0), (2, 11.5)]:
            p = mp.mpf(1)
            for h in range(-m, m):
                p *= a + 1 + 2 * h
            bracket = 2 * mp.gamma(a + 1) / mp.gamma((a + 1) / 2) ** 2
            want = float(p ** mp.mpf("-0.5") * bracket ** (mp.mpf(m) / (a + 1)))
            got = best_constant(m, a).S_inv_sqrt
            assert abs(got - want) <= 1e-12 * want


class TestPValue:
    def test_exact_substitution(self):
        assert p_value(2, 4.0) == 105.0
        assert p_value(1, 3.0) == 8.0

    def test_no_cancellation_for_large_m(self):
        # alpha just above the admissible floor: the product has a factor
        # near zero; the exact-polynomial path keeps full relative accuracy
        m, a = 8, 15.0 + 1e-9
        direct = float(mp.mpf(1))
        p = mp.mpf(1)
        for h in range(-m, m):
            p *= mp.mpf(a) + 1 + 2 * h
        assert abs(p_value(m, a) - float(p)) <= 1e-12 * abs(float(p))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 16),
           st.floats(0.01, 1e3, exclude_min=True, exclude_max=True))
    def test_bit_equal_to_the_rounded_exact_polynomial(self, m, gap):
        alpha = gap + 2 * m - 1
        want = float(p_constant(m)(Fraction(alpha)))
        assert p_value(m, alpha) == want
        assert want == float(math.prod(Fraction(alpha) + 1 + 2 * h for h in range(-m, m)))

    @pytest.mark.parametrize("m, alpha", [(1, 1e300), (8, 1e30), (1, math.inf),
                                          (2, -math.inf)])
    def test_overflow_and_infinity_raise_domain_error(self, m, alpha):
        with pytest.raises(DomainError, match="overflows a float"):
            p_value(m, alpha)

    def test_nan_raises_value_error(self):
        with pytest.raises(ValueError) as info:
            p_value(2, math.nan)
        assert type(info.value) is ValueError

    def test_builds_no_fraction(self, fractions_built):
        # an integer product over an integer power; evaluating P's Fraction
        # polynomial would build 4m + 1 Fractions or more
        p_value(8, 17.25)
        p_value(1, 5e-324)
        assert fractions_built == []


def test_err_estimate_scales_with_gamma_eps():
    res = best_constant(2, 4.0)
    assert 0 < res.err_estimate < 1e-10 * res.S
    assert GAMMA_EPS <= 1e-13
