"""Singular IVP: series start, adaptive integration, classification."""

import gc
import math
import weakref

import numpy as np
import pytest

from polyrad.errors import (
    BlowupError,
    DomainError,
    OdeError,
    SobolevConditionError,
    StepUnderflowError,
)
from polyrad.functionals import bliss_profile
from polyrad.ode import (
    IVPSpec,
    classification_check,
    departure_from_family,
    family_state,
    handoff_radius,
    integrate,
    match_epsilon,
    nonlinearity,
    series_coefficients,
    series_start,
)

SQRT8 = math.sqrt(8.0)


def family_data(m, alpha, eps):
    """The even-order seed (u_0(0), ..., u_{m-1}(0)) of w_eps."""
    return family_state(m, alpha, eps, 0.0)[0, 0::2]


class TestSpecValidation:
    def test_sobolev_gate(self):
        with pytest.raises(SobolevConditionError):
            IVPSpec(m=2, alpha=2.0, even_initial=(1.0, 1.0))

    def test_data_length(self):
        with pytest.raises(ValueError):
            IVPSpec(m=2, alpha=4.0, even_initial=(1.0,))

    def test_radius_ordering(self):
        with pytest.raises(ValueError):
            IVPSpec(m=1, alpha=3.0, even_initial=(1.0,), r0=30.0, r_max=20.0)


class TestNonlinearity:
    def test_sign_and_zero(self):
        g, gp = nonlinearity(1, 3.0)  # 2* = 4, g(w) = |w|^2 w
        assert g(0.0) == 0.0
        assert g(2.0) == 8.0 and g(-2.0) == -8.0
        assert gp(2.0) == 12.0


class TestSeriesStart:
    def test_matches_profile_to_sixth_order(self):
        w = bliss_profile(1, 3.0, 1.0)
        for r0 in (1e-2, 3e-3):
            spec = IVPSpec(m=1, alpha=3.0, even_initial=(SQRT8,), r0=r0)
            y = series_start(spec)
            assert abs(y[0] - w(r0)) <= 5.0 * SQRT8 * r0 ** 6
            assert abs(y[1] - w.nabla(1)(r0)) <= 20.0 * SQRT8 * r0 ** 5

    def test_zero_data_zero_state(self):
        spec = IVPSpec(m=2, alpha=4.0, even_initial=(0.0, 0.0))
        assert np.all(series_start(spec) == 0.0)

    def test_second_derivative_relation(self):
        # u_0''(0) = -u_1(0) / (alpha + 1) = -u_1(0)/5 for alpha = 4
        data = family_data(2, 4.0, 1.0)
        spec = IVPSpec(m=2, alpha=4.0, even_initial=data)
        u0, a2, _ = series_coefficients(spec)
        assert abs(2.0 * a2[0] + u0[1] / 5.0) <= 1e-14 * abs(u0[1])

    def test_closing_level_uses_nonlinearity(self):
        spec = IVPSpec(m=1, alpha=3.0, even_initial=(2.0,))
        _, a2, _ = series_coefficients(spec)
        # -Delta u_0 = u_0^3: a2 = -8/(2*4)
        assert abs(a2[0] + 1.0) <= 1e-15


class TestIntegrate:
    def test_zero_data_zero_trajectory(self):
        res = integrate(IVPSpec(m=2, alpha=4.0, even_initial=(0.0, 0.0), r_max=5.0))
        assert np.all(res.y == 0.0)
        assert res.r[-1] == 5.0

    def test_reaches_endpoint_exactly(self):
        res = integrate(IVPSpec(m=1, alpha=3.0, even_initial=(SQRT8,), r_max=7.5))
        assert res.r[-1] == 7.5

    def test_stats_populated(self):
        res = integrate(IVPSpec(m=2, alpha=4.0,
                                even_initial=family_data(2, 4.0, 1.0)))
        assert res.stats.steps == len(res.r) - 1
        assert res.stats.min_step > 0
        assert res.stats.rhs_evaluations >= 6 * res.stats.steps

    def test_loose_tolerance_exercises_rejections(self):
        res = integrate(IVPSpec(m=2, alpha=4.0,
                                even_initial=family_data(2, 4.0, 1.0),
                                rel_tol=1e-4, abs_tol=1e-6))
        assert res.stats.rejected >= 1

    def test_blowup_detected(self):
        # strongly inconsistent data: u_0'' = -u_1 > 0 ramps u_0, the
        # nonlinearity feeds back and the magnitude passes the overflow limit
        spec = IVPSpec(m=2, alpha=4.0, even_initial=(5.0, -500.0), r_max=50.0)
        with pytest.raises((BlowupError, StepUnderflowError)) as info:
            integrate(spec)
        partial = info.value.result
        assert partial.r[-1] < 50.0
        assert len(partial.r) == len(partial.y)

    def test_partial_result_freed_with_error(self):
        # no reference cycle holds the error: its partial trajectory dies
        # with the handler, without the cyclic collector
        spec = IVPSpec(m=2, alpha=4.0, even_initial=(5.0, -500.0), r_max=50.0)
        gc.disable()
        try:
            try:
                integrate(spec)
            except OdeError as err:
                ref = weakref.ref(err.result)
            assert ref() is None
        finally:
            gc.enable()


class TestMatchEpsilon:
    def test_identity_at_family_value(self):
        v0 = bliss_profile(1, 3.0, 1.0)(0.0)
        assert abs(match_epsilon(1, 3.0, v0) - 1.0) <= 1e-13

    def test_halved_center_value(self):
        assert abs(match_epsilon(1, 3.0, SQRT8 / 2.0) - 2.0) <= 1e-13

    def test_round_trip(self):
        for m, alpha, v0 in [(1, 3.0, 1.7), (2, 4.0, 0.9), (3, 8.0, 25.0)]:
            eps = match_epsilon(m, alpha, v0)
            assert abs(bliss_profile(m, alpha, eps)(0.0) - v0) <= 1e-12 * v0

    def test_domain(self):
        with pytest.raises(DomainError):
            match_epsilon(1, 3.0, 0.0)


class TestClassification:
    @pytest.mark.parametrize("m,alpha,eps,r_max,tol", [
        (2, 4.0, 1.0, 20.0, 1e-6),
        (1, 3.0, 0.5, 20.0, 1e-6),
        (3, 8.0, 1.0, 20.0, 1e-5),
    ])
    def test_family_members_reproduced(self, m, alpha, eps, r_max, tol):
        rep = classification_check(m, alpha, eps, r_max)
        assert rep.max_rel_dev <= tol
        assert rep.verdict == "coincides"
        assert rep.stats.steps > 0

    def test_tolerance_convergence_monotone(self):
        devs = [
            classification_check(2, 4.0, 1.0, 20.0,
                                 rel_tol=t, abs_tol=t * 1e-2).max_rel_dev
            for t in (1e-5, 5e-6, 2.5e-6)
        ]
        assert devs[0] > devs[1] > devs[2]

    def test_scaling_equivariance(self):
        # the eps = 2 trajectory is the dilation of the eps = 1 trajectory;
        # integrate ends exactly at r_max, so the end states are comparable
        m, alpha = 2, 4.0
        gap = alpha - 2 * m + 1
        for r_end in (1.0, 5.0, 10.0):
            res1 = integrate(IVPSpec(m=m, alpha=alpha,
                                     even_initial=family_data(m, alpha, 1.0),
                                     r0=1e-4, r_max=r_end))
            res2 = integrate(IVPSpec(m=m, alpha=alpha,
                                     even_initial=family_data(m, alpha, 2.0),
                                     r0=2e-4, r_max=2.0 * r_end))
            for j in range(m):
                got = res2.y[-1, 2 * j]
                want = 2.0 ** (-gap / 2.0 - 2 * j) * res1.y[-1, 2 * j]
                rel = abs(got - want) / np.max(np.abs(res2.component(j)))
                assert rel <= 1e-6, (r_end, j)

    def test_perturbed_data_departs_from_family(self):
        m, alpha = 2, 4.0
        data = family_data(m, alpha, 1.0)
        data[1] *= 1.05
        spec = IVPSpec(m=m, alpha=alpha, even_initial=data, r_max=20.0)
        try:
            result = integrate(spec)
        except OdeError as err:
            result = err.result
        assert departure_from_family(m, alpha, result) >= 0.01

    @pytest.mark.parametrize("eps", [1.0, 10.0])
    def test_unperturbed_departure_is_tiny(self, eps):
        m, alpha = 2, 4.0
        res = integrate(IVPSpec(m=m, alpha=alpha,
                                even_initial=family_data(m, alpha, eps),
                                r0=handoff_radius(eps), r_max=20.0 * eps))
        assert departure_from_family(m, alpha, res) <= 1e-6

