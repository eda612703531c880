"""Quadrature, weighted norms, Rayleigh quotients, extremal family."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrad import functionals
from polyrad.constants import best_constant, beta_integral, critical_exponent
from polyrad.errors import DomainError, NonConvergenceError
from polyrad.functionals import (
    PERTURBATION_DIRECTIONS,
    NormReport,
    ProfilePiece,
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
from polyrad.radial import AlphaPoly, ExponentAffine, RadialExpr

# frozen at 30 digits:
W_EPS2_AT_ZERO = 1.2651256603483465      # 105^(1/8) / sqrt(2)
W1_NORM_4_3 = 1.5196713713031851         # (16/3)^(1/4)
W1_SEMINORM = 2.3094010767585031         # (16/3)^(1/2)
SQRT8 = 2.8284271247461901


class TestQuadratureSpec:
    def test_defaults(self):
        assert functionals.QUAD_REL_TOL == 1e-10 and functionals.QUAD_ABS_TOL == 1e-14
        assert functionals.DE_WINDOW == 4.5
        assert functionals.DE_FIRST_STEP == 1 / 16 and functionals.DE_MIN_STEP == 1 / 512

    def test_validation(self):
        with pytest.raises(ValueError):
            NormReport(value=1.0, err_estimate=-1.0)


class TestImproperIntegral:
    def test_antiderivative_case(self):
        rep = improper_integral(lambda r: r * (1 + r * r) ** -2.0,
                                origin_power=1.0, tail_power=-3.0)
        assert abs(rep.value - 0.5) <= 1e-12
        assert 0 < rep.err_estimate < 1e-10

    def test_gamma_identity_case(self):
        rep = improper_integral(lambda r: r ** 3 * (1 + r * r) ** -4.0,
                                origin_power=3.0, tail_power=-5.0)
        assert abs(rep.value - 1 / 12) <= 1e-12

    @pytest.mark.parametrize("alpha", (1.5, 3.0, 4.0, 7.25))
    def test_quadrature_vs_gamma(self, alpha):
        got = improper_integral(
            lambda r: r ** alpha * (1 + r * r) ** (-(alpha + 1.0)),
            origin_power=alpha, tail_power=-alpha - 2.0,
        ).value
        want = beta_integral((alpha + 1) / 2, (alpha + 1) / 2) / 2
        assert abs(got - want) <= 1e-10 * want

    def test_profile_as_integrand(self):
        # w_1 ~ r^-2 at infinity, so w_1^2 r ~ r^-3
        w = bliss_profile(1, 3.0, 1.0)
        rep = improper_integral(lambda r: w(r) ** 2 * r ** 1.0,
                                origin_power=1.0, tail_power=-3.0)
        assert rep.value > 0

    def test_non_finite_integrand_raises(self):
        with pytest.raises(NonConvergenceError, match="not finite"):
            improper_integral(lambda r: np.sqrt(2.0 - r) / (1 + r * r) ** 2,
                              origin_power=0.0, tail_power=-4.0)

    @pytest.mark.parametrize("s", (0.505, 0.525, 0.65))
    def test_stated_tail_power_continues_past_window(self, s):
        # int (1+r^2)^-s dr = sqrt(pi) Gamma(s - 1/2) / (2 Gamma(s))
        rep = improper_integral(lambda r: (1 + r * r) ** -s,
                                origin_power=0.0, tail_power=-2.0 * s)
        want = math.sqrt(math.pi) * math.gamma(s - 0.5) / (2.0 * math.gamma(s))
        assert abs(rep.value - want) <= functionals.QUAD_REL_TOL * want
        assert 0 < rep.err_estimate <= functionals.QUAD_REL_TOL * want

    @pytest.mark.parametrize("theta", (-0.9, -0.99))
    def test_stated_origin_power_continues_past_window(self, theta):
        # int r^theta (1+r^2)^-2 dr = Gamma(s/2) Gamma(2 - s/2) / 2, s = theta + 1
        rep = improper_integral(lambda r: r ** theta * (1 + r * r) ** -2.0,
                                origin_power=theta, tail_power=theta - 4.0)
        s = theta + 1.0
        want = math.gamma(s / 2) * math.gamma(2 - s / 2) / 2
        assert abs(rep.value - want) <= functionals.QUAD_REL_TOL * want
        assert rep.err_estimate > 0

    def test_wrong_stated_power_raises(self):
        with pytest.raises(NonConvergenceError, match="does not follow"):
            improper_integral(lambda r: (1 + r * r) ** -0.525,
                              origin_power=0.0, tail_power=-1.2)

    def test_wrong_stated_origin_power_near_minus_one_raises(self):
        # r^-0.8 (1+r^2)^-2 stated as r^-0.9 at the origin: the summand at
        # the window's lower end is far from negligible and the law misfits
        with pytest.raises(NonConvergenceError, match="does not follow"):
            improper_integral(lambda r: r ** -0.8 / (1.0 + r * r) ** 2,
                              origin_power=-0.9, tail_power=-4.8)

    @pytest.mark.parametrize("powers", ({"origin_power": 0.0, "tail_power": -1.0},
                                        {"origin_power": -1.0, "tail_power": -2.0}))
    def test_divergent_stated_power_raises(self, powers):
        with pytest.raises(NonConvergenceError, match="diverges"):
            improper_integral(lambda r: 1.0 / r, **powers)

    @pytest.mark.parametrize("powers", ({}, {"origin_power": 1.0}, {"tail_power": -3.0}))
    def test_omitted_law_raises_type_error(self, powers):
        with pytest.raises(TypeError, match="_power"):
            improper_integral(lambda r: r * (1 + r * r) ** -2.0, **powers)


def _mp_profile(f: RadialProfile):
    """f evaluated term by term in mpmath from its exact structure."""
    pieces = [(p.coeff, p.scale,
               [(t.coeff(f.alpha), t.r_power, t.sigma.value_at(f.alpha))
                for t in p.expr.terms])
              for p in f.pieces]

    def g(r):
        total = mp.mpf(0)
        for coeff, scale, terms in pieces:
            x = r / scale
            total += coeff * mp.fsum(c * x ** rho * (1 + x * x) ** (-s / 2)
                                     for c, rho, s in terms)
        return total
    return g


def _mp_power_integral(f: RadialProfile, q: float, split: float):
    """int_0^inf |f|^q r^alpha dr by mpmath's tanh-sinh rule, split at
    ``split``.  Above it r = split v^(-1/p) maps the tail onto v in (0, 1],
    with p + 1 the tail's power (any p > 0 is the same integral; this one
    makes the mapped integrand smooth at v = 0 even for slow tails)."""
    g = _mp_profile(f)
    p = q * f.decay_exponent - f.alpha - 1.0

    def h(r):
        return abs(g(r)) ** q * r ** f.alpha

    with mp.workdps(25):
        head = mp.quad(h, [0, split])
        tail = mp.quad(lambda v: h(split * v ** (-1 / p)) * split * v ** (-1 / p - 1) / p,
                       [0, 1])
    return float(head + tail)


class TestAgainstMpmath:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 8), st.floats(0.05, 8.0), st.floats(-3.0, 3.0))
    def test_extremal_integrals(self, m, gap, log_eps):
        alpha = 2 * m - 1 + gap
        eps = 10.0 ** log_eps
        w = bliss_profile(m, alpha, eps)
        for f, q in ((w.nabla(m), 2.0), (w, critical_exponent(m, alpha))):
            rep = functionals._weighted_power_integral(f, q, alpha)
            want = _mp_power_integral(f, q, eps)
            assert abs(rep.value - want) <= functionals.QUAD_REL_TOL * want
            assert rep.err_estimate > 0

    @pytest.mark.parametrize("m, alpha", [(1, 3.5), (2, 4.5), (3, 7.5)])
    def test_sign_change_matches_or_raises(self, m, alpha):
        # w - 2 w(0) phi_(1,1) = w(0) (1 - r^2) (1 + r^2)^(-(gap+2)/2): a kink
        # of |.|^(2*) at r = 1
        amp = bliss_amplitude(m, alpha, 1.0)
        f = bliss_profile(m, alpha, 1.0) + (-2.0 * amp) * perturbation_direction(4, m, alpha)
        q = critical_exponent(m, alpha)
        want = _mp_power_integral(f, q, 1.0)
        try:
            rep = functionals._weighted_power_integral(f, q, alpha)
        except NonConvergenceError:
            return
        assert abs(rep.value - want) <= functionals.QUAD_REL_TOL * want
        assert rep.err_estimate > 0


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
        with pytest.raises(DomainError, match="Sobolev condition violated"):
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

    @pytest.mark.parametrize("theta", (-0.6, -0.9, -0.99))
    def test_weight_exponent_near_minus_one(self, theta):
        # int (1+r^2)^-2 r^theta dr = Gamma(s/2) Gamma(2 - s/2) / 2, s = theta + 1
        f = RadialProfile.from_expr(RadialExpr.single(1, 0, ExponentAffine(0, 2)), 3.0)
        rep = weighted_lebesgue_norm(f, 2.0, theta)
        s = theta + 1.0
        want = math.gamma(s / 2) * math.gamma(2 - s / 2) / 2
        assert abs(rep.value ** 2 - want) <= functionals.QUAD_REL_TOL * want

    def test_plain_callable_rejected(self):
        with pytest.raises(TypeError, match="need a RadialProfile, got function"):
            weighted_lebesgue_norm(lambda r: 1.0 / (1.0 + r * r), 2.0, 0.0)


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
        with pytest.raises(TypeError, match="need a RadialProfile, got function"):
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

    @pytest.mark.parametrize("m", (1, 2, 4, 8))
    @pytest.mark.parametrize("gap", (0.05, 0.1, 0.2, 0.3))
    def test_attains_best_constant_at_small_gaps(self, m, gap):
        # |nabla_m w|^2 r^alpha decays like r^-(1+gap): not negligible at the
        # exp-sinh window's upper end, so the sum continues past it
        alpha = 2 * m - 1 + gap
        want = best_constant(m, alpha).S
        for eps in (1e-3, 1.0, 1e6):
            q = rayleigh_quotient(bliss_profile(m, alpha, eps), m, alpha)
            assert abs(q - want) <= 1e-10 * want

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
        with pytest.raises(DomainError, match="Rayleigh quotient undefined"):
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

    @pytest.mark.parametrize("m, alpha", [(1, 3.0), (2, 4.0), (3, 8.0), (2, 6.5)])
    def test_derived_decay_exponent(self, m, alpha):
        # closed forms: w_eps ~ r^-(alpha-2m+1), phi_(a,b) ~ r^-(alpha-2m+1+2(b-a));
        # a sum decays like its slowest piece
        gap = alpha - 2 * m + 1
        w = bliss_profile(m, alpha, 1.7)
        assert w.decay_exponent == gap
        assert (1.1 * w).decay_exponent == gap
        assert w.nabla(m).decay_exponent == gap + m
        for index, (a, b) in enumerate(PERTURBATION_DIRECTIONS):
            phi = perturbation_direction(index, m, alpha)
            assert phi.decay_exponent == gap + 2 * (b - a)
            assert (w + 0.1 * phi).decay_exponent == gap
            assert (0.1 * phi + 0.0 * w).decay_exponent == gap + 2 * (b - a)
        # and the exponent is the measured log-log slope of the tail
        r = np.array([1e4, 1e5])
        slope = np.diff(np.log(w(r))) / np.diff(np.log(r))
        assert abs(slope[0] + w.decay_exponent) <= 1e-6

    def test_zero_profile_decay_exponent(self):
        assert RadialProfile.zero(3.0).decay_exponent == math.inf

    def test_vectorized_call(self):
        # libm's pow and numpy's vectorised power can round differently, as at
        # the point 0.0014149912974345759 of w_1 at m = 2, alpha = 4 on AVX-512
        for w, r in ((bliss_profile(1, 3.0, 1.0), np.linspace(0.1, 5.0, 7)),
                     (bliss_profile(2, 4.0, 1.0), np.array([0.0014149912974345759, 0.5]))):
            assert w(r).tobytes() == np.array([w(x) for x in r]).tobytes()

    def test_gradient_expression_shared_across_profiles(self):
        # nabla_m is exact in (expr, m), so profiles at other alpha and eps
        # reuse one derived expression
        g1 = bliss_profile(2, 4.0, 1.0).nabla(2)
        g2 = bliss_profile(2, 6.5, 0.3).nabla(2)
        assert g1.pieces[0].expr is g2.pieces[0].expr


# ---------------------------------------------------------------------------
# Evaluation in place, against the expression summed from 0.0
# ---------------------------------------------------------------------------


def _expr_sum_from_zero(expr, alpha, r):
    """The float value of the term sum ``expr`` on the array r, one temporary
    per operation."""
    a = float(alpha)
    base = 1.0 + r * r
    total = 0.0
    for t in expr.terms:
        c, e = t.coeff(a), -0.5 * t.sigma.value_at(a)
        if t.r_power:
            c = c * r ** t.r_power
        total = total + c * base ** e
    return total


def _profile_sum_from_zero(u, r):
    total = 0.0
    for p in u.pieces:
        total = total + p.coeff * _expr_sum_from_zero(p.expr, u.alpha, r / p.scale)
    return total


def _same_bits(got, want):
    # an expression without terms sums to the scalar 0.0 on any r
    want = np.broadcast_to(np.asarray(want, dtype=float), np.shape(got))
    return np.asarray(got, dtype=float).tobytes() == np.ascontiguousarray(want).tobytes()


@st.composite
def _exprs(draw):
    """Sums of up to four terms c(alpha) r^rho (1+r^2)^(-sigma/2), rho lowered
    to 0 or 1; the empty sum is the zero expression."""
    expr = RadialExpr.zero()
    for _ in range(draw(st.integers(0, 4))):
        coeff = AlphaPoly(draw(st.lists(st.integers(-50, 50), max_size=3)))
        sigma = ExponentAffine(draw(st.integers(0, 1)), draw(st.integers(-6, 12)))
        expr = expr + RadialExpr.single(coeff, draw(st.integers(0, 4)), sigma)
    return expr


_ALPHAS = st.floats(1.0, 30.0)
_PROFILES = st.builds(
    lambda alpha, pieces: RadialProfile(
        alpha, tuple(ProfilePiece(c, e, s) for e, c, s in pieces)),
    _ALPHAS,
    st.lists(st.tuples(_exprs(), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)),
             max_size=3))
# zeros and radii whose square overflows reach the exact zeros of the sum
_RADII = st.one_of(st.just(0.0), st.floats(-10.0, 10.0), st.floats(1e-300, 1e300))
_FLOAT_RADII = st.lists(_RADII, min_size=1, max_size=12).map(np.array)
_INT_RADII = st.lists(st.integers(0, 10 ** 4), min_size=1,
                      max_size=12).map(lambda v: np.array(v, dtype=np.int64))


class TestInPlaceEvaluation:
    @settings(max_examples=300, deadline=None)
    @given(expr=_exprs(), alpha=_ALPHAS, r=st.one_of(_FLOAT_RADII, _INT_RADII))
    def test_expression_on_float_and_int_arrays(self, expr, alpha, r):
        with np.errstate(all="ignore"):
            got = RadialProfile.from_expr(expr, alpha)(r)
            want = _expr_sum_from_zero(expr, alpha, r)
        assert _same_bits(got, want)

    @settings(max_examples=300, deadline=None)
    @given(u=_PROFILES, r=st.one_of(_FLOAT_RADII, _INT_RADII, st.floats(0.0, 1e3)))
    def test_profile_on_floats_and_int_arrays(self, u, r):
        # a scalar r against the reference on a one-element array
        with np.errstate(all="ignore"):
            got = u(r)
            want = _profile_sum_from_zero(u, np.atleast_1d(r))
        assert np.shape(got) == np.shape(r)
        assert _same_bits(np.atleast_1d(got), want)

    @settings(max_examples=300, deadline=None)
    @given(u=_PROFILES, r=st.one_of(_RADII, st.integers(0, 10 ** 4), _RADII.map(np.float64),
                                    _RADII.map(np.array)))
    def test_a_point_has_the_same_bits_alone_and_in_an_array(self, u, r):
        with np.errstate(all="ignore"):
            got = u(r)
            want = u(np.array([r], dtype=float))
        assert type(got) is float
        assert np.array([got]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("r", [np.array([100, 7], dtype=np.int8),
                                   np.array([100, 2 ** 32]),
                                   np.array([100, 2 ** 32], dtype=np.uint64)])
    def test_int_arrays_are_squared_as_floats(self, r):
        # r * r wraps at 100 in int8 and at 2^32 in 64 bits
        expr = RadialExpr.single(1, 1, ExponentAffine(0, 4))  # r (1+r^2)^-2
        u = RadialProfile.from_expr(expr, 3.0)
        got = u(r)
        assert got.tobytes() == u(r.astype(float)).tobytes()
        for g, x in zip(got, r):
            assert g == pytest.approx(float(x) / (1.0 + float(x) ** 2) ** 2, rel=1e-15)

    def test_negative_zero_reads_positive_as_from_zero(self):
        # (1 + r^2)^-2 underflows to 0 at r = 1e200, and -1 * 0 is -0.0
        u = RadialProfile.from_expr(RadialExpr.single(1, 0, ExponentAffine(0, 4)),
                                    3.0, coeff=-1.0)
        with np.errstate(over="ignore"):
            got = u(np.array([1.0, 1e200]))
        assert got[1] == 0.0 and math.copysign(1.0, got[1]) == 1.0
