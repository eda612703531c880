"""Singular IVP: series start, adaptive integration, classification."""

import gc
import math
import re
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from polyrad.coefficients import base_profile_expr, p_constant
from polyrad.errors import (
    BlowupError,
    DepartureError,
    DomainError,
    OdeError,
    StepUnderflowError,
)
from polyrad.functionals import bliss_profile
from polyrad.ode import (
    _ERROR3_ROW,
    _ERROR5_ROW,
    _SOLUTION_ROW,
    _STAGE_ROWS,
    CLASSIFY_TOL,
    DEPARTURE_CHECK_STEPS,
    DEPARTURE_TOL,
    IVPSpec,
    _kernel,
    _kernel_source,
    _series,
    classification_check,
    departure_from_family,
    family_state,
    integrate,
    match_epsilon,
    series_start,
    stopped_classification,
    unit_radius,
)
from polyrad.radial import nabla_m

SQRT8 = math.sqrt(8.0)
#: The gap alpha - 2m + 1 of the order sweeps: m <= 6 reach r_max = 20,
#: m = 7, 8 blow up (the benchmark's ``scalar-highm`` draws it from [2, 2.75]).
SWEEP_GAP = 2.4
LOOSE = {"rel_tol": 1e-4, "abs_tol": 1e-6}


def family_data(m, alpha, eps):
    """The even-order seed (u_0(0), ..., u_{m-1}(0)) of w_eps."""
    return family_state(m, alpha, eps, 0.0)[0, 0::2]


def _combine(h, base, row, stages):
    """base + sum_j (h a_j) k_j over the sparse (a_j, j) terms of ``row``,
    summed left to right in plain floats; stages are numbered from 1."""
    out = []
    for i, acc in enumerate(base):
        for w, j in row:
            acc += (h * w) * stages[j - 1][i]
        out.append(acc)
    return out


def _error_sum(row, stages, i):
    """sum_j e_j k_j[i] over the (e_j, j) terms of ``row``, left to right."""
    total = 0.0
    for w, j in row:
        total += w * stages[j - 1][i]
    return total


def reference_dop853(spec, max_steps=None):
    """DOP853 with the controller of ``integrate``, written plainly on Python
    floats with sums in the same order: every attempt, accepted or not,
    starts from f(r, y) evaluated afresh.  Returns the accepted nodes,
    states and the rejection count, after at most ``max_steps`` accepted
    steps."""
    m, alpha = spec.m, spec.alpha
    p = 2.0 * (alpha + 1.0) / (alpha - 2 * m + 1) - 2.0     # 2* - 2

    def g(w):
        return abs(w) ** p * w

    def f(r, y):
        dy = []
        for j in range(m):
            source = y[2 * j + 2] if j < m - 1 else g(y[0])
            dy += [y[2 * j + 1], -(alpha / r) * y[2 * j + 1] - source]
        return dy

    r, y = spec.r0, series_start(spec)
    n = len(y)
    nodes, states, rejected = [r], [y], 0
    h = min(0.05 * spec.r0, spec.r_max - spec.r0)
    while r < spec.r_max and len(nodes) - 1 != max_steps:
        h = min(h, spec.r_max - r)
        k = [f(r, y)]
        for c, row in _STAGE_ROWS:
            k.append(f(r + c * h, _combine(h, y, row, k)))
        y_new = _combine(h, y, _SOLUTION_ROW, k)
        err5 = err3 = 0.0
        for i in range(n):
            scale = spec.abs_tol + spec.rel_tol * max(abs(y[i]), abs(y_new[i]))
            q5 = _error_sum(_ERROR5_ROW, k, i) / scale
            q3 = _error_sum(_ERROR3_ROW, k, i) / scale
            err5 += q5 * q5
            err3 += q3 * q3
        err_norm = h * err5 / math.sqrt(n * (err5 + 0.01 * err3)) if err5 else 0.0
        if err_norm <= 1.0:
            r = spec.r_max if h == spec.r_max - r else r + h
            y = y_new
            nodes.append(r)
            states.append(y)
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.125))
        else:
            rejected += 1
            factor = max(0.2, 0.9 * err_norm ** -0.125)
        h *= factor
    return np.array(nodes), np.array(states), rejected


class TestTableau:
    """The DOP853 literals against the conditions they must satisfy."""

    # each sum holds to the rounding of its literals to doubles: within
    # 2^-52 of the sum of the magnitudes of its terms

    def test_row_sums_are_the_nodes(self):
        for c, row in _STAGE_ROWS:
            total = math.fsum(a for a, _ in row)
            assert abs(total - c) <= 2.0 ** -52 * math.fsum(abs(a) for a, _ in row)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_quadrature_order_eight(self, k):
        nodes = (0.0,) + tuple(c for c, _ in _STAGE_ROWS)
        terms = [b * nodes[j - 1] ** (k - 1) for b, j in _SOLUTION_ROW]
        assert abs(math.fsum(terms) - 1.0 / k) <= k * 2.0 ** -52 * math.fsum(map(abs, terms))

    @pytest.mark.parametrize("row", [_ERROR5_ROW, _ERROR3_ROW], ids=["e5", "e3"])
    def test_error_weights_sum_to_zero(self, row):
        assert abs(math.fsum(e for e, _ in row)) <= 2.0 ** -52 * math.fsum(abs(e) for e, _ in row)

    def test_equals_the_scipy_coefficients(self):
        dop = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")

        def dense(row, size):
            out = [0.0] * size
            for w, j in row:
                out[j - 1] = w
            return out

        assert [c for c, _ in _STAGE_ROWS] == dop.C[1:12].tolist()
        for s, (_, row) in enumerate(_STAGE_ROWS, start=1):
            assert dense(row, 12) == dop.A[s, :12].tolist()
        assert dense(_SOLUTION_ROW, 12) == dop.B.tolist()
        assert dense(_ERROR5_ROW, 13) == dop.E5.tolist()
        assert dense(_ERROR3_ROW, 13) == dop.E3.tolist()


class TestSpecValidation:
    def test_sobolev_gate(self):
        with pytest.raises(DomainError, match="Sobolev condition violated"):
            IVPSpec(m=2, alpha=2.0, even_initial=(1.0, 1.0))

    def test_data_length(self):
        with pytest.raises(ValueError):
            IVPSpec(m=2, alpha=4.0, even_initial=(1.0,))

    def test_radius_ordering(self):
        with pytest.raises(ValueError):
            IVPSpec(m=1, alpha=3.0, even_initial=(1.0,), r0=30.0, r_max=20.0)

    def test_infinite_radius_is_a_domain_error(self):
        # integrate would step towards r_max = inf forever
        with pytest.raises(DomainError, match=r"< r_max \(inf\) < inf"):
            IVPSpec(m=1, alpha=3.0, even_initial=(SQRT8,), r_max=math.inf)


class TestSeriesStart:
    def test_matches_profile_to_sixth_order(self):
        w = bliss_profile(1, 3.0, 1.0)
        for r0 in (1e-2, 3e-3):
            spec = IVPSpec(m=1, alpha=3.0, even_initial=(SQRT8,), r0=r0)
            y = series_start(spec)
            assert abs(y[0] - w(r0)) <= 5.0 * SQRT8 * r0 ** 6
            assert abs(y[1] - w.nabla(1)(r0)) <= 20.0 * SQRT8 * r0 ** 5

    def test_overflowing_data_is_a_domain_error(self):
        # lam = (1e300)^2 overflows: refused where the spec derives its
        # radius and, with an explicit r0, by series_start
        with pytest.raises(DomainError, match="overflow the series start"):
            IVPSpec(m=2, alpha=4.0, even_initial=(1e300, 1.0))
        spec = IVPSpec(m=2, alpha=4.0, even_initial=(1e300, 1.0), r0=1e-4)
        with pytest.raises(DomainError, match="overflow the series start"):
            series_start(spec)

    def test_zero_data_zero_state(self):
        spec = IVPSpec(m=2, alpha=4.0, even_initial=(0.0, 0.0))
        assert series_start(spec) == [0.0] * 4

    def test_second_derivative_relation(self):
        # u_0''(0) = -u_1(0) / (alpha + 1) = -u_1(0)/5 for alpha = 4, read
        # from the slope u_0'(r0) = 2 c_1 r0 + O(r0^3)
        data = family_data(2, 4.0, 1.0)
        spec = IVPSpec(m=2, alpha=4.0, even_initial=data, r0=1e-6)
        slope = series_start(spec)[1]
        assert abs(slope / spec.r0 + data[1] / 5.0) <= 1e-10 * abs(data[1])

    @pytest.mark.parametrize("u0", [2.0, -2.0])
    def test_closing_level_is_g_of_u0(self, u0):
        # -Delta u_0 = g(u_0) = |u_0|^2 u_0 at m = 1, alpha = 3 (2* = 4):
        # the r^2 coefficient is -g(u_0) / (2 * 4) = -u_0 / 2 at |u_0| = 2
        # and, through g'(u_0) = 3 u_0^2 = 12, the r^4 one is
        # -12 (-u_0 / 2) / (4 * 6) = u_0 / 4.  At unit scale, lam = 2 and
        # C_k = c_k lam^-(1 + 2k), every figure is a power of two, so exact;
        # the closing level's leading pair is g(U_0(0)) and g'(U_0(0)) C_1
        lam, rows = _series(1, 3.0, (u0,))
        assert lam == 2.0
        assert rows[0][:3] == [u0 / 2.0, -u0 / 2.0 / 2.0 ** 3, u0 / 4.0 / 2.0 ** 5]
        assert rows[1][:2] == [u0 / 2.0, 3.0 * rows[0][1]]

    @pytest.mark.parametrize("gap", [0.3, 2.4, 6.0])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_a_40_digit_series(self, m, gap):
        # the state at the series radius against the 60-term series of the
        # same float data in mpmath at 40 digits.  Level j's value lies
        # within 1e-15 of its scale lam^(gap/2 + 2j) (measured: 7.2e-16 at
        # most, at m = 6, gap 2.4) and its slope within 4e-15 of
        # lam^(gap/2 + 2j + 1) (measured: 1.8e-15 at most, at m = 1,
        # gap 0.3, where the slope's tail is 2k/rho times the value's)
        alpha = 2 * m - 1 + gap
        data = family_data(m, alpha, 1.0)
        spec = IVPSpec(m=m, alpha=alpha, even_initial=data)
        lam = _series(m, alpha, data)[0]
        want = _mp_state(_mp_series(m, alpha, data), spec.r0)
        for i, (got, ref) in enumerate(zip(series_start(spec), want)):
            bound = (1e-15 if i % 2 == 0 else 4e-15) * lam ** (gap / 2.0 + i)
            assert abs(got - ref) <= bound, (i, float(abs(got - ref) / bound))

    def test_the_40_digit_series_is_the_family(self):
        # the oracle itself: from w_1's exact data, the 60-term series meets
        # w_1's exact derivative chain, each term evaluated in mpmath, to
        # 1e-30 of each level's scale at the series radius
        m, gap = 8, 0.3
        alpha = 2 * m - 1 + gap
        data = family_data(m, alpha, 1.0)
        r0 = IVPSpec(m=m, alpha=alpha, even_initial=data).r0
        exact_data = _mp_family_state(m, alpha, 0.0)[0::2]
        series = _mp_state(_mp_series(m, alpha, exact_data), r0)
        lam = _series(m, alpha, data)[0]
        for i, (got, ref) in enumerate(zip(series, _mp_family_state(m, alpha, r0))):
            assert abs(got - ref) <= 1e-30 * lam ** (gap / 2.0 + i), i

    @pytest.mark.parametrize("m,gap,eps", [
        (1, 0.3, 1e-200), (1, 0.3, 1e200), (3, 0.3, 1e-7), (8, 2.4, 1e-7),
    ])
    def test_radius_and_start_follow_the_dilation(self, m, gap, eps):
        # w_eps data start at eps times the unit radius, from the unit
        # state dilated, with nothing out of the float range, where
        # coefficients in r, lam^(gap/2 + 2j + 38) times the unit ones,
        # would be: past 1e300, or below 1e-300 at eps = 1e200
        alpha = 2 * m - 1 + gap
        unit = IVPSpec(m=m, alpha=alpha, even_initial=family_data(m, alpha, 1.0))
        spec = IVPSpec(m=m, alpha=alpha, even_initial=family_data(m, alpha, eps),
                       r_max=20.0 * eps)
        assert spec.r0 == pytest.approx(eps * unit.r0, rel=1e-13)
        lam = _series(m, alpha, unit.even_initial)[0]
        for i, (got, ref) in enumerate(zip(series_start(spec), series_start(unit))):
            dilation = eps ** -(gap / 2.0 + i)
            assert abs(got - ref * dilation) <= 1e-13 * lam ** (gap / 2.0 + i) * dilation, i

    @pytest.mark.parametrize("alpha,data", [(4.0, (0.0, -1.0)), (6.0, (0.0, 1.0, -1.0))])
    def test_zero_u0_start_leaves_out_a_negligible_closing_term(self, alpha, data):
        # at u_0(0) = 0, g(u_0) = |u_0|^p u_0 is not a series in r^2, and
        # the start leaves it out; the radius is halved until that is below
        # rounding (from the cap 1.5 to 0.375 and 0.75 here), so the run
        # agrees with one from r0 = 1e-5 to 3e-14 (from the cap: 5e-8 and
        # 1.6e-12).  The data have unit dilation scale, so the bound is
        # absolute
        r_max = 3.0
        spec = IVPSpec(m=len(data), alpha=alpha, even_initial=data, r_max=r_max)
        assert spec.r0 < r_max / 2.0
        near = integrate(replace(spec, r0=1e-5)).y[-1]
        assert np.max(np.abs(integrate(spec).y[-1] - near)) <= 1e-12

    def test_negative_data_mirror_the_positive(self):
        # g is odd, so -w_1 data start from the mirrored state at the same
        # radius and run the mirrored trajectory, bit for bit
        m, alpha = 3, 8.0
        data = family_data(m, alpha, 1.0)
        pos = IVPSpec(m=m, alpha=alpha, even_initial=data)
        neg = IVPSpec(m=m, alpha=alpha, even_initial=-data)
        assert neg.r0 == pos.r0
        assert series_start(neg) == [-v for v in series_start(pos)]
        up, down = integrate(pos), integrate(neg)
        assert down.r.tobytes() == up.r.tobytes()
        assert np.array_equal(down.y, -up.y)


def _mp_series(m, alpha, data, terms=60):
    """The coefficients c_jk of u_j = sum_k c_jk r^(2k) from the data, in
    mpmath at 40 digits: the origin relations and Miller's recurrence for
    |u_0|^p u_0, with no dilation."""
    with mp.workdps(40):
        a = mp.mpf(alpha)
        q = 2 * (a + 1) / (a - 2 * m + 1) - 1
        rows = [[mp.mpf(v)] for v in data]
        u0 = rows[0]
        closing = [abs(u0[0]) ** (q - 1) * u0[0]]
        for k in range(1, terms):
            n = k - 1
            if n:
                closing.append(mp.fsum(((q + 1) * i - n) * u0[i] * closing[n - i]
                                       for i in range(1, n + 1)) / (n * u0[0]))
            d = 2 * k * (2 * k - 1 + a)
            for j in range(m):
                rows[j].append(-(rows[j + 1][n] if j + 1 < m else closing[n]) / d)
        return rows


def _mp_state(rows, r):
    """(u_0, u_0', ...) of the series ``rows`` at r, in mpmath."""
    with mp.workdps(40):
        r = mp.mpf(r)
        s = r * r
        out = []
        for row in rows:
            out.append(mp.fsum(c * s ** k for k, c in enumerate(row)))
            out.append(mp.fsum(2 * k * c * s ** k for k, c in enumerate(row)) / r)
        return out


def _mp_family_state(m, alpha, r):
    """The state of w_1 at r from its exact chain (-Delta)^j w_1 and
    d/dr (-Delta)^j w_1, each term evaluated in mpmath at exact alpha,
    with the amplitude P^(gap/(4m)) at 40 digits: a float one would leave
    the closing relation off by p times its rounding."""
    exact_alpha = Fraction(alpha)
    base = base_profile_expr(m)
    with mp.workdps(40):
        gap = _mp_exact(exact_alpha) - 2 * m + 1
        amp = _mp_exact(p_constant(m)(exact_alpha)) ** (gap / (4 * m))
        r = mp.mpf(r)
        out = []
        for order in range(2 * m):
            expr = nabla_m(base, order) if order else base
            total = mp.fsum(
                _mp_exact(t.coeff(exact_alpha)) * r ** t.r_power
                * (1 + r * r) ** (-_mp_exact(t.sigma.value_at(exact_alpha)) / 2)
                for t in expr.terms)
            out.append((-1) ** (order // 2) * amp * total)
        return out


def _mp_exact(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


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
        assert res.stats.rhs_evaluations >= 12 * res.stats.steps

    def test_loose_tolerance_exercises_rejections(self):
        stats = integrate(IVPSpec(m=2, alpha=4.0,
                                  even_initial=family_data(2, 4.0, 1.0),
                                  rel_tol=1e-5, abs_tol=1e-7)).stats
        assert stats.rejected >= 1
        # one evaluation at the start, eleven per attempt and one at the end
        # of each accepted step, which is the next step's first stage
        assert stats.rhs_evaluations == 1 + 11 * (stats.steps + stats.rejected) + stats.steps

    @pytest.mark.parametrize("m,alpha", [(2, 4.0), (3, 7.5)])
    def test_retry_after_rejection_restarts_from_f_at_y(self, m, alpha):
        spec = IVPSpec(m=m, alpha=alpha, even_initial=family_data(m, alpha, 1.0),
                       rel_tol=1e-5, abs_tol=1e-7)
        res = integrate(spec)
        r_ref, y_ref, rejected = reference_dop853(spec)
        assert rejected == res.stats.rejected >= 1
        assert res.r.tobytes() == r_ref.tobytes()
        assert res.y.tobytes() == y_ref.tobytes()

    @pytest.mark.parametrize("tolerances", [{}, LOOSE], ids=["default", "loose"])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_every_order_matches_the_reference(self, m, tolerances):
        # the step kernel is generated per m: every order, run to r_max or
        # to the blow-up stop (m >= 7, and m >= 4 at loose tolerances, where
        # the partial trajectory rides on the error), equals the loop
        alpha = 2 * m - 1 + SWEEP_GAP
        spec = IVPSpec(m=m, alpha=alpha, even_initial=family_data(m, alpha, 1.0),
                       **tolerances)
        try:
            res = integrate(spec)
        except BlowupError as err:
            res = err.result
        r_ref, y_ref, rejected = reference_dop853(spec, res.stats.steps)
        assert res.stats.rejected == rejected
        assert res.r.tobytes() == r_ref.tobytes()
        assert res.y.tobytes() == y_ref.tobytes()

    @pytest.mark.parametrize("m,r_stop,message", [
        (6, 20.0, None),
        (7, 15.282484447370136, "u_6 = -4.505e+26 exceeded OVERFLOW_LIMIT (1e+12) x "
         "dilation scale 12.6407^13.2 = 3.494e+26 at r=15.2825 (non-global solution)"),
        (8, 12.080239169561857, "u_7 = -3.377e+29 exceeded OVERFLOW_LIMIT (1e+12) x "
         "dilation scale 14.1624^15.2 = 3.143e+29 at r=12.0802 (non-global solution)"),
    ], ids=["m6", "m7", "m8"])
    def test_high_order_stop_is_pinned(self, m, r_stop, message):
        # exact data at the sweep gap: m = 6 reaches r_max (the 5(4) pair
        # stopped it at r = 17.6), and m = 7, 8 stop where, and with the
        # message that, the loop over stages stopped them (from the
        # fourth-order start at r0 = 1e-4 they stopped at r = 14.85, 9.34)
        alpha = 2 * m - 1 + SWEEP_GAP
        spec = IVPSpec(m=m, alpha=alpha, even_initial=family_data(m, alpha, 1.0))
        if message is None:
            assert integrate(spec).r[-1] == r_stop
            return
        with pytest.raises(BlowupError) as info:
            integrate(spec)
        assert str(info.value) == message
        assert info.value.result.r[-1] == r_stop

    def test_one_kernel_serves_every_alpha_and_tolerance(self):
        m = 3
        integrate(IVPSpec(m=m, alpha=7.5, even_initial=family_data(m, 7.5, 1.0),
                          r_max=2.0))
        before = _kernel.cache_info()
        spec = IVPSpec(m=m, alpha=6.123456789, even_initial=family_data(m, 6.123456789, 1.0),
                       r_max=2.0, rel_tol=3.7e-7, abs_tol=4.1e-9)
        integrate(spec)
        after = _kernel.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            before.hits + 1, before.misses, before.currsize)
        # the spec reaches the kernel as closure values: its source holds
        # names only, and its code no float constant
        source = _kernel_source(m)
        for value in (spec.alpha, spec.rel_tol, spec.abs_tol):
            assert repr(value) not in source
        codes = [compile(source, "<kernel>", "exec")]
        while codes:
            code = codes.pop()
            assert not any(isinstance(c, float) for c in code.co_consts)
            codes += [c for c in code.co_consts if hasattr(c, "co_consts")]

    @pytest.mark.parametrize("case", ["stiff"])
    def test_step_floor_is_reached(self, case):
        # -(alpha/r) v_0 keeps an explicit step stable only below about
        # 3.3 r / alpha, which at alpha = 1e13 is under the floor
        # STEP_FLOOR r = 1e-12 r
        spec = IVPSpec(m=1, alpha=1e13, even_initial=(1.0,), r0=1e-4)
        with pytest.raises(StepUnderflowError,
                           match=r"^step \S+ underflowed at r=0\.0001 ") as info:
            integrate(spec)
        assert info.value.result.stats.steps <= 1

    def test_instant_blowup_is_resolved_from_the_series_radius(self):
        # at gap 0.05 the closing power is |u_0|^240, so doubling u_0(0) of
        # w_1 made f about 1e75 at r = 1e-4, where every trial stage of the
        # fourth-order start overflowed until the step passed the floor.
        # The data's dilation scale is 2.7e12, the series radius 4.2e-13,
        # and from there the run resolves the blow-up: a level leaves its
        # bound at r = 2.6e-12, without a warning
        data = family_data(3, 5.05, 1.0)
        data[0] *= 2.0
        spec = IVPSpec(m=3, alpha=5.05, even_initial=data)
        assert 4e-13 < spec.r0 < 5e-13
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowupError, match=r"^u_2 = .* at r=2\.59786e-12 ") as info:
                integrate(spec)
        assert info.value.result.stats.steps > 100

    def test_last_step_lands_on_r_max(self):
        # zero data make the error norm 0, so each step is 5 times the last
        # and the clipped last step spans more than half of r_max; there
        # r + (r_max - r) falls an ulp short, and the ulp-sized step left
        # after it was below the floor
        r_max = 10.448124811631791
        r = integrate(IVPSpec(m=1, alpha=3.0, even_initial=(0.0,), r0=1e-4, r_max=r_max)).r
        assert r[-2] + (r_max - r[-2]) != r_max
        assert r[-1] == r_max

    def test_blowup_detected(self):
        # strongly inconsistent data: u_0'' = -u_1 > 0 ramps u_0, the
        # nonlinear term feeds back and the magnitude passes the overflow limit
        spec = IVPSpec(m=2, alpha=4.0, even_initial=(5.0, -500.0), r_max=50.0)
        with pytest.raises((BlowupError, StepUnderflowError)) as info:
            integrate(spec)
        partial = info.value.result
        assert partial.r[-1] < 50.0
        assert len(partial.r) == len(partial.y)

    def test_non_finite_step_raises_blowup(self):
        # u_0(0) scaled by 1e40 makes the nonlinear term |u_0|^8 u_0 about
        # 1e360 at the start radius: a blow-up before the first step, raised
        # without a warning.  (Scaled by 1e10, the datum at r0 = 1e-4 had
        # overflowed it; from the series radius the run resolves that
        # blow-up, see tests/test_cli.py.)
        data = family_data(2, 4.0, 1.0)
        data[0] *= 1e40
        spec = IVPSpec(m=2, alpha=4.0, even_initial=data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowupError,
                               match=rf"non-finite step from r={spec.r0:.6g} ") as info:
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
                           r0=1e-4 * eps, r_max=r_max * eps)
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
        spec = IVPSpec(m=m, alpha=alpha, even_initial=family_data(m, alpha, 1.0))
        with pytest.raises(BlowupError, match=r"^u_\d = .* at r=") as info:
            integrate(spec)
        assert info.value.result.stats.steps < 4000

    def test_zero_error_scale_raises_blowup(self):
        # abs_tol = 0 at a zero state divides zero by zero in the error norm
        spec = IVPSpec(m=1, alpha=3.0, even_initial=(0.0,), r0=1e-4, abs_tol=0.0)
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

    @pytest.mark.parametrize("m,alpha,eps,r_max,most", [
        (2, 4.0, 1.0, 20.0, 66), (1, 3.0, 0.5, 20.0, 62), (3, 8.0, 1.0, 20.0, 110),
    ])
    def test_pinned_cases_step_bound(self, m, alpha, eps, r_max, most):
        # criterion 8's cases take 60, 56 and 100 steps from the series
        # radius (106, 92 and 183 from the fourth-order start at 1e-4)
        assert classification_check(m, alpha, eps, r_max).stats.steps <= most

    @pytest.mark.parametrize("m,alpha", [(6, 13.5), (7, 15.5), (8, 17.4)])
    def test_departure_stop_settles_the_verdict(self, m, alpha):
        # the check reads the trajectory and does not steer it: the stopped
        # run is a prefix of the unchecked one, cut at the end of the first
        # run of DEPARTURE_CHECK_STEPS steps that holds a node where
        # |u_0 - w_1| > CLASSIFY_TOL w_1(0), the node its message names; the
        # deviation up to there already exceeds CLASSIFY_TOL
        with pytest.raises(DepartureError) as info:
            classification_check(m, alpha, 1.0, 20.0)
        part = info.value.result
        try:
            full = integrate(IVPSpec(m=m, alpha=alpha, even_initial=family_data(m, alpha, 1.0)))
        except OdeError as err:
            full = err.result
        k = part.r.size
        assert part.r.tobytes() == full.r[:k].tobytes()
        assert part.y.tobytes() == full.y[:k].tobytes()
        w = bliss_profile(m, alpha, 1.0)
        hit = np.flatnonzero(np.abs(full.y[:, 0] - w(full.r)) > CLASSIFY_TOL * w(0.0))[0]
        assert (k - 1) % DEPARTURE_CHECK_STEPS == 0
        assert k - DEPARTURE_CHECK_STEPS <= hit < k
        assert str(info.value).endswith(f"at r={full.r[hit]:.6g} (departs from the family)")
        report = stopped_classification(m, alpha, 1.0, 20.0, info.value)
        assert report.verdict == "departs" and report.max_rel_dev > CLASSIFY_TOL
        assert report.reached_r == part.r[-1] < 20.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("gap", [1.0, 2.5, 4.0])
    def test_exact_data_coincide_at_every_dilation(self, m, gap):
        # every eps runs the eps = 1 problem to r_max/eps, so the deviation
        # and the counters are those of that run; the step sizes are scaled
        # back by eps.  With data built at each eps the absolute abs_tol made
        # each one a different float problem: (3, 8) departed at eps = 1e5
        # and blew up at eps = 1e6.
        alpha = 2 * m - 1 + gap
        for eps in (1e-200, 1e-6, 1e-3, 1.0, 1e3, 1e5, 1e6):
            r_max = 20.0 * eps
            rep = classification_check(m, alpha, eps, r_max)
            unit = classification_check(m, alpha, 1.0, r_max / eps)
            assert rep.verdict == "coincides", (eps, rep.max_rel_dev)
            assert (rep.eps, rep.r_max) == (eps, r_max)
            assert rep.max_rel_dev == unit.max_rel_dev
            assert rep.stats == replace(unit.stats, min_step=unit.stats.min_step * eps)
            assert rep.reached_r == unit.reached_r * eps

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_dilation_is_a_domain_error(self, eps):
        with pytest.raises(DomainError, match="dilation parameter must be positive"):
            unit_radius(eps, 20.0)
        with pytest.raises(DomainError, match="dilation parameter must be positive"):
            classification_check(2, 4.0, eps, 20.0)

    def test_radius_past_the_float_range_is_a_domain_error(self):
        # 20 / 1e-310 overflows to inf, which no run can reach
        with pytest.raises(DomainError, match=r"r_max \(inf\)"):
            classification_check(2, 4.0, 1e-310, 20.0)

    def test_small_dilation_reaches_r_max(self):
        # the exact dilation of the eps = 1, r_max = 20 case; a step floor
        # absolute below r = 1 stops it at r = 1e-11
        m, alpha, eps, r_max = 2, 4.0, 1e-7, 2e-6
        res = integrate(IVPSpec(m=m, alpha=alpha,
                                even_initial=family_data(m, alpha, eps),
                                r0=1e-4 * eps, r_max=r_max))
        assert res.r[-1] == r_max
        assert classification_check(m, alpha, eps, r_max).verdict == "coincides"

    def test_tolerance_convergence_monotone(self):
        m, alpha, eps = 2, 4.0, 1.0
        devs = []
        for t in (1e-5, 5e-6, 2.5e-6):
            res = integrate(IVPSpec(m=m, alpha=alpha,
                                    even_initial=family_data(m, alpha, eps),
                                    r_max=20.0,
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
        assert departure_from_family(spec, result) >= 0.01

    @pytest.mark.parametrize("m,alpha", [
        (1, 3.0), (1, 12.0), (1, 30.0), (2, 4.0), (2, 8.0), (2, 12.0), (2, 16.0),
        (3, 8.0), (3, 12.0),
    ])
    def test_departure_agrees_with_the_family_check(self, m, alpha):
        # exact data coincide wherever the family check does: the departure
        # is relative to sup w_eps, like that check's deviation, since
        # relative to w_eps(r), which falls like r^-gap, the tail's absolute
        # error dominates.  At (2, 16) both forms coincide
        # (under the 5(4) pair both departed).  At m = 1 a scaled
        # u_0 is the datum of another family member, so it coincides.
        try:
            family = classification_check(m, alpha, 1.0, 20.0)
        except OdeError as err:
            family = stopped_classification(m, alpha, 1.0, 20.0, err)
        for index in range(m):
            for scale in (1.0, 1.05, 0.95, 1.0001):
                data = family_data(m, alpha, 1.0)
                data[index] *= scale
                spec = IVPSpec(m=m, alpha=alpha, even_initial=data, r_max=20.0)
                try:
                    result = integrate(spec)
                except OdeError as err:
                    result = err.result
                departure = departure_from_family(spec, result)
                if scale == 1.0 and family.verdict == "coincides":
                    assert departure <= 1e-6, (index, departure)
                elif scale == 1.0 or m > 1:
                    assert departure >= DEPARTURE_TOL, (index, scale, departure)
                else:
                    assert departure <= 1e-6, (scale, departure)

    @pytest.mark.parametrize("eps", [1.0, 10.0])
    def test_unperturbed_departure_is_tiny(self, eps):
        m, alpha = 2, 4.0
        spec = IVPSpec(m=m, alpha=alpha, even_initial=family_data(m, alpha, eps),
                       r_max=20.0 * eps)
        assert departure_from_family(spec, integrate(spec)) <= 1e-6


class TestMemory:
    def test_failing_trajectory_within_three_copies(self):
        # a blow-up after more than 600 steps: the traced peak stays within
        # three times the partial trajectory it returns.  Low order, because
        # tracemalloc's cost per object grows with the kernel's length (about
        # 25 s at m = 8), and tight tolerances for a long trajectory; the
        # kernel is compiled first, so its compile transients do not count,
        # whichever test ran before.
        spec = IVPSpec(m=2, alpha=4.0, even_initial=(5.0, -500.0), r_max=50.0,
                       rel_tol=1e-15, abs_tol=1e-17)
        _kernel(spec.m)
        tracemalloc.start()
        try:
            with pytest.raises(BlowupError) as info:
                integrate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        partial = info.value.result
        assert partial.stats.steps > 600
        assert peak <= 3.0 * (partial.r.nbytes + partial.y.nbytes)
