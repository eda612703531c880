"""Quadrature, weighted norms, Rayleigh quotients, extremal family."""

import math

import numpy as np
import pytest

from polyrad import functionals
from polyrad.constants import best_constant, beta_integral
from polyrad.errors import (
    DivisionGuardError,
    DomainError,
    NonConvergenceError,
    SobolevConditionError,
    UnsupportedProfileError,
)
from polyrad.functionals import (
    PERTURBATION_DIRECTIONS,
    NormReport,
    RadialProfile,
    bliss_amplitude,
    bliss_profile,
    gradient_seminorm,
    improper_integral,
    perturbation_direction,
    rayleigh_quotient,
    weighted_lebesgue_norm,
)
from polyrad.ode import family_state

# frozen at 30 digits:
W_EPS2_AT_ZERO = 1.2651256603483465      # 105^(1/8) / sqrt(2)
W1_NORM_4_3 = 1.5196713713031851         # (16/3)^(1/4)
W1_SEMINORM = 2.3094010767585031         # (16/3)^(1/2)
SQRT8 = 2.8284271247461901


class TestQuadratureSpec:
    def test_defaults(self):
        assert functionals.QUAD_REL_TOL == 1e-10 and functionals.QUAD_ABS_TOL == 1e-14
        assert functionals.QUAD_MAX_SUBDIVISIONS == 2000
        assert functionals.QUAD_SPLIT_POINT == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NormReport(value=1.0, err_estimate=-1.0)


class TestImproperIntegral:
    def test_antiderivative_case(self):
        rep = improper_integral(lambda r: r * (1 + r * r) ** -2.0)
        assert abs(rep.value - 0.5) <= 1e-12
        assert rep.err_estimate < 1e-10

    def test_gamma_identity_case(self):
        rep = improper_integral(lambda r: r ** 3 * (1 + r * r) ** -4.0)
        assert abs(rep.value - 1 / 12) <= 1e-12

    def test_divergent_tail_raises(self):
        with pytest.raises(NonConvergenceError):
            improper_integral(lambda r: (1 + r * r) ** -0.5)

    @pytest.mark.parametrize("alpha", (1.5, 3.0, 4.0, 7.25))
    def test_quadrature_vs_gamma(self, alpha):
        got = improper_integral(
            lambda r: r ** alpha * (1 + r * r) ** (-(alpha + 1.0))
        ).value
        want = beta_integral((alpha + 1) / 2, (alpha + 1) / 2) / 2
        assert abs(got - want) <= 1e-10 * want

    def test_profile_as_integrand(self):
        w = bliss_profile(1, 3.0, 1.0)
        rep = improper_integral(lambda r: w(r) ** 2 * r ** 1.0)
        assert rep.value > 0


class TestBlissProfile:
    def test_center_value_m1(self):
        w = bliss_profile(1, 3.0, 1.0)
        assert abs(w(0.0) - SQRT8) < 1e-14

    def test_center_value_scaled(self):
        w = bliss_profile(2, 4.0, 2.0)
        assert abs(w(0.0) - W_EPS2_AT_ZERO) < 1e-14
        assert abs(bliss_amplitude(2, 4.0, 2.0) - W_EPS2_AT_ZERO) < 1e-14

    def test_even_extension_and_odd_derivatives(self):
        w = bliss_profile(2, 4.0, 1.0)
        for r in (0.3, 1.0, 2.5):
            assert w(r) == w(-r)
        d1 = w.nabla(1)
        d3 = d1.nabla(1).nabla(1)
        assert abs(d1(1e-9)) <= 1e-8 * w(0.0)
        assert abs(d3(1e-9)) <= 1e-7 * w(0.0)

    def test_domain_errors(self):
        with pytest.raises(SobolevConditionError):
            bliss_profile(2, 2.0, 1.0)
        with pytest.raises(DomainError):
            bliss_profile(1, 3.0, 0.0)

    def test_non_finite_eps_rejected(self):
        with pytest.raises(DomainError):
            bliss_profile(2, 4.0, math.inf)

    def test_amplitude_outside_float_range_rejected(self):
        # each factor is finite: their product overflows, or eps^(-gap/2)
        # underflows to 0
        with pytest.raises(DomainError):
            bliss_amplitude(1, 3.0, 1e-308)
        with pytest.raises(DomainError):
            bliss_amplitude(1, 5.0, 1e300)

    def test_chain_initial_values(self):
        vals = family_state(2, 4.0, 1.0, 0.0)[0, 0::2]
        # u_1(0) = P^(1/8) * (a-3)(a+1)|_{a=4} = 105^(1/8) * 5
        assert abs(vals[0] - 105 ** 0.125) < 1e-13
        assert abs(vals[1] - 105 ** 0.125 * 5) < 1e-12

    def test_chain_derivative_matches_fd(self):
        h = 1e-6
        state = family_state(2, 4.0, 1.5, [1.0 - h, 1.0, 1.0 + h])
        for j in (0, 1):
            fd = (state[2, 2 * j] - state[0, 2 * j]) / (2 * h)
            assert abs(state[1, 2 * j + 1] - fd) <= 1e-8 * max(1.0, abs(fd))


class TestWeightedNorm:
    def test_w1_fourth_power_norm(self):
        w = bliss_profile(1, 3.0, 1.0)
        rep = weighted_lebesgue_norm(w, 4.0, 3.0)
        assert abs(rep.value - W1_NORM_4_3) <= 1e-10 * W1_NORM_4_3

    def test_zero_profile(self):
        rep = weighted_lebesgue_norm(RadialProfile.zero(3.0), 4.0, 3.0)
        assert rep.value == 0.0

    def test_dilation_independence(self):
        # critical norm of w_eps does not depend on eps
        m, alpha = 2, 4.0
        two_star = 10.0
        values = [
            weighted_lebesgue_norm(bliss_profile(m, alpha, e), two_star, alpha).value
            for e in (0.5, 1.0, 2.0)
        ]
        spread = (max(values) - min(values)) / min(values)
        assert spread <= 1e-8

    def test_validation(self):
        w = bliss_profile(1, 3.0, 1.0)
        with pytest.raises(DomainError):
            weighted_lebesgue_norm(w, 0.5, 3.0)
        with pytest.raises(DomainError):
            weighted_lebesgue_norm(w, 2.0, -1.0)


class TestGradientSeminorm:
    def test_w1_m1(self):
        w = bliss_profile(1, 3.0, 1.0)
        rep = gradient_seminorm(w, 1, 3.0)
        assert abs(rep.value - W1_SEMINORM) <= 1e-9 * W1_SEMINORM

    def test_zero(self):
        assert gradient_seminorm(RadialProfile.zero(4.0), 2, 4.0).value == 0.0

    def test_m2_matches_best_constant(self):
        m, alpha = 2, 4.0
        w = bliss_profile(m, alpha, 1.0)
        lhs = gradient_seminorm(w, m, alpha).value
        rhs = best_constant(m, alpha).S ** 0.5 * weighted_lebesgue_norm(
            w, 10.0, alpha
        ).value
        assert abs(lhs - rhs) <= 1e-6 * rhs

    def test_black_box_rejected(self):
        with pytest.raises(UnsupportedProfileError):
            gradient_seminorm(lambda r: math.exp(-r), 1, 3.0)

    def test_alpha_mismatch_rejected(self):
        w = bliss_profile(1, 3.0, 1.0)
        with pytest.raises(DomainError):
            gradient_seminorm(w, 1, 5.0)


class TestRayleigh:
    def test_attains_best_constant(self):
        w = bliss_profile(1, 3.0, 1.0)
        q = rayleigh_quotient(w, 1, 3.0)
        assert abs(q - 4 / math.sqrt(3)) <= 1e-10 * q

    @pytest.mark.parametrize("m,alpha", [(1, 3.0), (2, 4.0), (3, 8.0)])
    def test_dilation_invariance_five_eps(self, m, alpha):
        values = [
            rayleigh_quotient(bliss_profile(m, alpha, e), m, alpha)
            for e in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        spread = (max(values) - min(values)) / min(values)
        assert spread <= 1e-8

    def test_minimality_single_direction(self):
        m, alpha = 1, 3.0
        s = best_constant(m, alpha).S
        w = bliss_profile(m, alpha, 1.0)
        probe = w + 0.1 * perturbation_direction(0, m, alpha)
        assert rayleigh_quotient(probe, m, alpha) >= s - 1e-6

    def test_minimality_all_directions(self):
        m, alpha = 1, 3.0
        s = best_constant(m, alpha).S
        w = bliss_profile(m, alpha, 1.0)
        assert len(PERTURBATION_DIRECTIONS) == 10
        for idx in range(10):
            phi = perturbation_direction(idx, m, alpha)
            for amp in (0.05, 0.1):
                q = rayleigh_quotient(w + amp * phi, m, alpha)
                assert q >= s - 1e-6, (idx, amp)

    def test_division_guard(self):
        with pytest.raises(DivisionGuardError):
            rayleigh_quotient(RadialProfile.zero(3.0), 1, 3.0)


class TestProfileAlgebra:
    def test_addition_requires_matching_alpha(self):
        with pytest.raises(DomainError):
            bliss_profile(1, 3.0, 1.0) + bliss_profile(1, 5.0, 1.0)

    def test_scalar_scaling(self):
        w = bliss_profile(1, 3.0, 1.0)
        assert abs((2.0 * w)(1.0) - 2.0 * w(1.0)) < 1e-15

    def test_nabla_scaling_law(self):
        # nabla_m of a dilated piece carries the factor scale^-m
        m, alpha = 2, 4.0
        w1 = bliss_profile(m, alpha, 1.0)
        w2 = bliss_profile(m, alpha, 2.0)
        g1 = w1.nabla(m)
        g2 = w2.nabla(m)
        r = 1.3
        gap = alpha - 2 * m + 1
        # (nabla_m w_eps)(r) = eps^(-gap/2 - m) (nabla_m w_1)(r/eps)
        want = 2.0 ** (-gap / 2 - m) * g1(r / 2.0)
        assert abs(g2(r) - want) <= 1e-13 * abs(want)

    def test_vectorized_call(self):
        w = bliss_profile(1, 3.0, 1.0)
        r = np.linspace(0.1, 5.0, 7)
        assert np.allclose(w(r), [w(x) for x in r], rtol=1e-14)

