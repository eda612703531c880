"""Singular IVP: series start, adaptive integration, classification."""

import gc
import math
import re
import tracemalloc
import warnings
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


# the Dormand-Prince 5(4) tableau: nodes, stage weights (the last row gives
# the 5th-order solution), error weights
DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
DP_A = [
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
]
DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _combine(h, base, weights, stages):
    """base + sum_j (h w_j) k_j over the nonzero weights, summed left to
    right in plain floats."""
    out = []
    for i, acc in enumerate(base):
        for w, k in zip(weights, stages):
            if w:
                acc += (h * w) * k[i]
        out.append(acc)
    return out


def reference_dormand_prince(spec):
    """Dormand-Prince 5(4) with the controller of ``integrate``, written
    plainly on Python floats with sums in the same order: every attempt,
    accepted or not, starts from f(r, y) evaluated afresh.  Returns the
    accepted nodes, states and the rejection count."""
    m, alpha = spec.m, spec.alpha
    g, _ = nonlinearity(m, alpha)

    def f(r, y):
        dy = []
        for j in range(m):
            source = y[2 * j + 2] if j < m - 1 else g(y[0])
            dy += [y[2 * j + 1], -(alpha / r) * y[2 * j + 1] - source]
        return dy

    r, y = spec.r0, series_start(spec).tolist()
    nodes, states, rejected = [r], [y], 0
    h = min(0.05 * spec.r0, spec.r_max - spec.r0)
    while r < spec.r_max:
        h = min(h, spec.r_max - r)
        k = [f(r, y)]
        for s in range(1, 7):
            k.append(f(r + DP_C[s] * h, _combine(h, y, DP_A[s], k)))
        y_new = _combine(h, y, DP_A[6], k[:6])
        err = _combine(h, [0.0] * len(y), DP_ERR, k)
        total = 0.0
        for e, a, b in zip(err, y, y_new):
            q = e / (spec.abs_tol + spec.rel_tol * max(abs(a), abs(b)))
            total += q * q
        err_norm = math.sqrt(total / len(y))
        if err_norm <= 1.0:
            r, y = r + h, y_new
            nodes.append(r)
            states.append(y)
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        else:
            rejected += 1
            factor = max(0.2, 0.9 * err_norm ** -0.2)
        h *= factor
    return np.array(nodes), np.array(states), rejected


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

    def test_overflowing_data_is_a_domain_error(self):
        spec = IVPSpec(m=2, alpha=4.0, even_initial=(1e300, 1.0))
        with pytest.raises(DomainError, match="overflow the series start"):
            series_start(spec)

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

    def test_bound_past_the_float_range_is_infinite(self):
        # lam = (1e200)^(1/2.25) ~ 7.7e88, so the u_2 bound lam^4.25
        # overflows; it is inf, and the run reaches r_max
        spec = IVPSpec(m=3, alpha=5.5, even_initial=(0.0, 1e200, 0.0),
                       r0=1e-150, r_max=1e-140)
        assert integrate(spec).r[-1] == 1e-140

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
        stats = integrate(IVPSpec(m=2, alpha=4.0,
                                  even_initial=family_data(2, 4.0, 1.0),
                                  rel_tol=1e-4, abs_tol=1e-6)).stats
        assert stats.rejected >= 1
        # one evaluation at the start, six per attempt: the seventh stage
        # of an accepted step is the next step's first
        assert stats.rhs_evaluations == 1 + 6 * (stats.steps + stats.rejected)

    @pytest.mark.parametrize("m,alpha", [(2, 4.0), (3, 7.5)])
    def test_retry_after_rejection_restarts_from_f_at_y(self, m, alpha):
        spec = IVPSpec(m=m, alpha=alpha, even_initial=family_data(m, alpha, 1.0),
                       rel_tol=1e-4, abs_tol=1e-6)
        res = integrate(spec)
        r_ref, y_ref, rejected = reference_dormand_prince(spec)
        assert rejected == res.stats.rejected >= 1
        assert res.r.tobytes() == r_ref.tobytes()
        assert res.y.tobytes() == y_ref.tobytes()

    def test_blowup_detected(self):
        # strongly inconsistent data: u_0'' = -u_1 > 0 ramps u_0, the
        # nonlinearity feeds back and the magnitude passes the overflow limit
        spec = IVPSpec(m=2, alpha=4.0, even_initial=(5.0, -500.0), r_max=50.0)
        with pytest.raises((BlowupError, StepUnderflowError)) as info:
            integrate(spec)
        partial = info.value.result
        assert partial.r[-1] < 50.0
        assert len(partial.r) == len(partial.y)

    def test_non_finite_step_raises_blowup(self):
        # u_0(0) scaled by 1e10 overflows the nonlinearity at the start
        # radius: a blow-up before the first step, raised without a warning
        data = family_data(2, 4.0, 1.0)
        data[0] *= 1e10
        spec = IVPSpec(m=2, alpha=4.0, even_initial=data, r0=handoff_radius(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowupError, match=r"non-finite step from r=0\.0001") as info:
                integrate(spec)
        assert info.value.result.stats.steps == 0

    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_overflow_inside_a_stage_retries_the_step(self, scalar):
        # at gap 0.01, 2* - 2 = 800 and |u_0|^800 leaves the float range
        # past |u_0| ~ 2.4; u_1 < 0 ramps u_0 towards a blow-up near
        # r = 6.45.  A long trial step across it overflows the power in a
        # stage (r_max = 10) or makes the error norm infinite (r_max = 20);
        # either attempt is rejected, so both runs stop where a level
        # leaves its bound and not where the first long trial happened to
        # land.  A numpy scalar alpha would turn the overflow into a warning.
        stops, last_steps = [], []
        for r_max in (10.0, 20.0):
            spec = IVPSpec(m=2, alpha=scalar(3.01), even_initial=(0.5, -0.1),
                           r_max=scalar(r_max))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(BlowupError, match=r"^u_[01] = ") as info:
                    integrate(spec)
            partial = info.value.result
            assert partial.stats.rejected >= 1
            assert partial.r.dtype == partial.y.dtype == np.float64
            assert partial.y.shape == (partial.stats.steps + 1, 4)
            assert np.all(np.isfinite(partial.y))
            stops.append(partial.r[-1])
            last_steps.append(partial.r[-1] - partial.r[-2])
        assert 6.4 < stops[0] < 6.5
        assert abs(stops[0] - stops[1]) <= max(last_steps)

    @pytest.mark.parametrize("m,alpha,data,r_max", [
        (2, 4.0, (3.0, -1.0), 20.0),
        (2, 3.01, (0.5, -0.1), 20.0),
    ])
    def test_blowup_radius_follows_the_dilation(self, m, alpha, data, r_max):
        # data dilated by 2 (level j scaled by 2^-(gap/2 + 2j)) stop at
        # twice the radius, within one accepted step
        gap = alpha - 2 * m + 1
        stops, last_steps = [], []
        for eps in (1.0, 2.0):
            spec = IVPSpec(m=m, alpha=alpha,
                           even_initial=[v * eps ** (-gap / 2.0 - 2 * j)
                                         for j, v in enumerate(data)],
                           r0=handoff_radius(eps), r_max=r_max * eps)
            with pytest.raises(BlowupError) as info:
                integrate(spec)
            r = info.value.result.r
            stops.append(r[-1])
            last_steps.append(r[-1] - r[-2])
        assert abs(stops[1] - 2.0 * stops[0]) <= max(last_steps[1], 2.0 * last_steps[0])

    def test_blowup_stops_early_at_high_order(self):
        # exact m = 8 data fail at gap 2.59 (the forward integration is ill
        # conditioned); the level bound stops the run before the step
        # collapses on the singularity, which took 8464 steps
        m, alpha = 8, 17.59
        spec = IVPSpec(m=m, alpha=alpha, even_initial=family_data(m, alpha, 1.0),
                       r0=handoff_radius(1.0))
        with pytest.raises(BlowupError, match=r"^u_\d = .* at r=") as info:
            integrate(spec)
        assert info.value.result.stats.steps < 4000

    def test_zero_error_scale_raises_blowup(self):
        # abs_tol = 0 at a zero state divides zero by zero in the error norm
        spec = IVPSpec(m=1, alpha=3.0, even_initial=(0.0,), abs_tol=0.0)
        with pytest.raises(BlowupError, match=r"non-finite step from r=0\.0001"):
            integrate(spec)

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

    @pytest.mark.parametrize("v0", [math.inf, 1e300, 1e-300])
    def test_unmatchable_center_value_is_named(self, v0):
        # eps underflows to 0 or overflows; the error names v0, not eps
        with pytest.raises(DomainError, match=re.escape(f"center value {v0!r}")):
            match_epsilon(2, 4.0, v0)


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

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("gap", [1.0, 2.5, 4.0])
    def test_exact_data_coincide_at_every_dilation(self, m, gap):
        # an absolute bound on |u_0| stopped the eps = 1e-6, gap 4 runs at
        # r = 1.05e-10 with a blow-up; the level bounds follow the dilation
        alpha = 2 * m - 1 + gap
        devs = []
        for eps in (1e-6, 1e-3, 1.0):
            rep = classification_check(m, alpha, eps, 20.0 * eps)
            assert rep.verdict == "coincides", (eps, rep.max_rel_dev)
            devs.append(rep.max_rel_dev)
        assert max(devs) <= 2.0 * min(devs)

    def test_small_dilation_reaches_r_max(self):
        # the exact dilation of the eps = 1, r_max = 20 case; a step floor
        # absolute below r = 1 stops it at r = 1e-11
        m, alpha, eps, r_max = 2, 4.0, 1e-7, 2e-6
        res = integrate(IVPSpec(m=m, alpha=alpha,
                                even_initial=family_data(m, alpha, eps),
                                r0=handoff_radius(eps), r_max=r_max))
        assert res.r[-1] == r_max
        assert classification_check(m, alpha, eps, r_max).verdict == "coincides"

    def test_tolerance_convergence_monotone(self):
        m, alpha, eps = 2, 4.0, 1.0
        devs = []
        for t in (1e-5, 5e-6, 2.5e-6):
            res = integrate(IVPSpec(m=m, alpha=alpha,
                                    even_initial=family_data(m, alpha, eps),
                                    r0=handoff_radius(eps), r_max=20.0,
                                    rel_tol=t, abs_tol=t * 1e-2))
            exact = family_state(m, alpha, eps, res.r)
            devs.append(float(np.max(np.max(np.abs(res.y - exact), axis=0)
                                     / np.max(np.abs(exact), axis=0))))
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


class TestMemory:
    def test_failing_trajectory_within_three_copies(self):
        # a high-order case that blows up: the traced peak stays within
        # three times the partial trajectory it returns
        m, alpha = 8, 17.59
        spec = IVPSpec(m=m, alpha=alpha, even_initial=family_data(m, alpha, 1.0),
                       r0=handoff_radius(1.0))
        tracemalloc.start()
        try:
            with pytest.raises(BlowupError) as info:
                integrate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        partial = info.value.result
        assert partial.stats.steps > 1000
        assert peak <= 3.0 * (partial.r.nbytes + partial.y.nbytes)
