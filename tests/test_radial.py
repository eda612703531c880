"""Exact term algebra: operator identities, oracles, property tests."""

import json
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrad.radial import (
    AlphaPoly,
    ExponentAffine,
    RadialExpr,
    RadialTerm,
    abc_coefficients,
    apply_laplacian,
    apply_polyharmonic,
    differentiate,
    nabla_m,
)
from polyrad.coefficients import CoeffTable, base_profile_expr, h_reduced_row, h_row, p_constant
from polyrad.functionals import RadialProfile


def sigma(a, b):
    return ExponentAffine(a, b)


def single(coeff, r_power=0, sig=ExponentAffine(0, 0)):
    return RadialExpr.single(coeff, r_power, sig)


# ---------------------------------------------------------------------------
# AlphaPoly basics
# ---------------------------------------------------------------------------


class TestAlphaPoly:
    def test_zero_normalization(self):
        assert AlphaPoly((0, 0, 0)).is_zero
        assert AlphaPoly((1, 2, 0)).degree == 1

    def test_leading_coefficient_nonzero(self):
        p = AlphaPoly((3, 0, 5, 0))
        assert p.coefficients[-1] != 0

    def test_arithmetic_exact(self):
        p = AlphaPoly.linear(3, 1)
        q = p * p - p
        # (3a + 1)^2 - (3a + 1) = 9a^2 + 3a
        assert q == AlphaPoly((0, 3, 9))
        assert AlphaPoly((2,)) == 2 and hash(AlphaPoly((2,))) == hash(AlphaPoly.constant(2))
        assert p.to_strings() == ["1", "3"]

    def test_call_exact_vs_float(self):
        p = AlphaPoly((7, -2, 3))
        exact = p(Fraction(5, 3))
        assert isinstance(exact, Fraction)
        assert abs(float(exact) - p(5 / 3)) < 1e-12

    def test_only_plain_ints_are_coefficients_and_scalars(self):
        p, e = AlphaPoly((1, 2)), single(1, 2)
        for bad in (Fraction(1, 2), Fraction(2), True, 1.0, "1", np.int64(1)):
            with pytest.raises(TypeError, match="int coefficient expected"):
                AlphaPoly((1, bad))
            with pytest.raises(TypeError, match="int coefficient expected"):
                RadialExpr.single(bad)
            for op in (lambda: p * bad, lambda: bad * p, lambda: p + bad, lambda: bad + p,
                       lambda: p - bad, lambda: bad - p, lambda: e * bad, lambda: bad * e):
                with pytest.raises(TypeError):
                    op()
            assert p != bad

    def test_exact_call_returns_fraction_for_int_data(self):
        p = AlphaPoly((1, 2))
        assert type(p(3)) is Fraction and p(3) == 7
        assert type(single(p).evaluate(3, 2)) is Fraction

    @pytest.mark.parametrize("value", [3, Fraction(-7, 3), Fraction(5e-324)])
    def test_exact_call_builds_one_fraction(self, value, fractions_built):
        # Horner's rule on Fractions would build 2d + 1, one per product and sum
        p_constant(8)(value)
        assert len(fractions_built) == 1

    @pytest.mark.parametrize("result, want", [
        (AlphaPoly([1]) * 2, (2,)),
        (2 * AlphaPoly([1, 3]), (2, 6)),
        (AlphaPoly([3, 6]) * -1, (-3, -6)),
        (AlphaPoly([5, 1]) * 0, ()),
        (AlphaPoly([2, 1]) * AlphaPoly([3, -1]), (6, 1, -1)),
        (AlphaPoly([1, 3]) + AlphaPoly([1, -3]), (2,)),
        (AlphaPoly([1]) - AlphaPoly([-1, 0]), (2,)),
        (AlphaPoly([3]) - AlphaPoly([3]), ()),
        (-AlphaPoly([1, 4]), (-1, -4)),
        (1 - AlphaPoly([1, 2]), (0, -2)),
    ])
    def test_arithmetic_stores_integral_results_as_int(self, result, want):
        assert result.coefficients == want
        assert all(type(c) is int for c in result.coefficients)

    @pytest.mark.parametrize("op", [
        lambda p: p * 0.5, lambda p: 0.5 * p, lambda p: p + 1.0, lambda p: 1.0 - p,
    ])
    def test_float_operand_raises(self, op):
        with pytest.raises(TypeError):
            op(AlphaPoly([1, 1]))


# ---------------------------------------------------------------------------
# Sympy differentiation oracle (symbolic in alpha, rho, sigma)
# ---------------------------------------------------------------------------


class TestSymbolicOracle:
    def test_laplacian_term_map_fully_symbolic(self):
        """One Laplacian application on r^rho (1+r^2)^(-s/2) matches
        d^2/dr^2 + (alpha/r) d/dr for symbolic rho, s, alpha."""
        r, a, rho, s = sp.symbols("r a rho s", positive=True)
        v = r ** rho * (1 + r ** 2) ** (-s / 2)
        lap = sp.diff(v, r, 2) + a / r * sp.diff(v, r)
        A = rho * (rho + a - 1) + s * (s - 2 * rho + 1 - a)
        B = 2 * rho * (rho + a - 1) - s * (2 * rho + a + 1)
        C = rho * (rho + a - 1)
        claimed = (1 + r ** 2) ** (-(s + 4) / 2) * (
            r ** (rho + 2) * A + r ** rho * B + r ** (rho - 2) * C
        )
        assert sp.simplify(lap - claimed) == 0

    def test_derivative_term_map_fully_symbolic(self):
        r, s, rho = sp.symbols("r s rho", positive=True)
        v = r ** rho * (1 + r ** 2) ** (-s / 2)
        claimed = (rho * r ** (rho - 1) * (1 + r ** 2) ** (-s / 2)
                   - s * r ** (rho + 1) * (1 + r ** 2) ** (-(s + 2) / 2))
        assert sp.simplify(sp.diff(v, r) - claimed) == 0

    def test_abc_match_sympy_instances(self):
        a = sp.symbols("a")
        for rho, (mult, shift) in [(0, (1, -1)), (2, (0, 0)), (3, (1, 4)), (1, (0, 5))]:
            s_val = mult * a + shift
            A = rho * (rho + a - 1) + s_val * (s_val - 2 * rho + 1 - a)
            B = 2 * rho * (rho + a - 1) - s_val * (2 * rho + a + 1)
            C = rho * (rho + a - 1)
            got = abc_coefficients(rho, sigma(mult, shift))
            for poly, want in zip(got, (A, B, C)):
                coeffs = sp.Poly(sp.expand(want), a).all_coeffs()[::-1]
                assert poly == AlphaPoly([int(c) for c in coeffs])


# ---------------------------------------------------------------------------
# Operator examples
# ---------------------------------------------------------------------------


class TestLaplacian:
    def test_constant_annihilated(self):
        assert apply_laplacian(RadialExpr.constant(1)).is_zero

    def test_r_squared(self):
        # Delta r^2 = 2(1+alpha) after the (1+r^2)-power cancellation
        out = apply_laplacian(single(1, 2))
        assert out == single(AlphaPoly.linear(2, 2))

    def test_abc_examples(self):
        # A(0, alpha, alpha-1) = 0: the top coefficient of Delta (1+r^2)^(-(a-1)/2)
        a0, _, _ = abc_coefficients(0, sigma(1, -1))
        assert a0.is_zero
        # constants map to zero through all three coefficients
        assert all(p.is_zero for p in abc_coefficients(0, sigma(0, 0)))
        # rho=2, sigma=0 at alpha=4
        a2, b2, c2 = abc_coefficients(2, sigma(0, 0))
        assert (a2(4), b2(4), c2(4)) == (10, 20, 10)

    def test_closed_form_abc_matches_expression_form(self):
        alpha = AlphaPoly.linear(1, 0)

        def expression_form(rho, sig):
            sp = sig.as_poly()
            base = AlphaPoly((rho * (rho - 1), rho))  # rho * (rho + alpha - 1)
            a = base + sp * (sp - alpha + (1 - 2 * rho))
            b = 2 * base - sp * (alpha + (2 * rho + 1))
            return a, b, base

        for rho in range(-4, 30):
            for mult in (0, 1):
                for shift in range(-30, 30):
                    got = abc_coefficients(rho, sigma(mult, shift))
                    want = expression_form(rho, sigma(mult, shift))
                    assert got == want, (rho, mult, shift)
                    assert all(type(c) is int for p in got for c in p.coefficients)

    def test_base_profile_single_step(self):
        # -Delta (1+r^2)^(-(a-1)/2) = (a-1)(a+1) (1+r^2)^(-(a+3)/2)
        out = apply_polyharmonic(base_profile_expr(1), 1, signed=True)
        assert out == single(p_constant(1), 0, sigma(1, 3))

    def test_sigma_shift_is_four(self):
        expr = single(1, 2, sigma(1, -3))
        out = apply_laplacian(expr)
        assert {t.sigma.constant_shift for t in out.terms} <= {-3 + 4, -3 + 2, -3}
        # the dominant exponent family moved by exactly 4; reductions may
        # lower the shift by even steps but never produce anything else
        assert all(t.sigma.alpha_multiplier == 1 for t in out.terms)

    def test_negative_power_is_real_but_flagged(self):
        # Delta r = alpha / r: legitimate value, caught by the defensive check
        out = apply_laplacian(single(1, 1))
        assert min(t.r_power for t in out.terms) == -1
        for alpha, r in [(3, Fraction(1, 2)), (5, 2), (7, Fraction(5, 3))]:
            assert out.evaluate(alpha, r) == Fraction(alpha) / r
        with pytest.raises(ValueError, match="negative r-powers"):
            out.require_nonnegative_powers()

    def test_polyharmonic_identity_all_m(self):
        for m in range(1, 9):
            got = apply_polyharmonic(base_profile_expr(m), m, signed=True)
            want = single(p_constant(m), 0, sigma(1, 1 + 2 * m))
            assert got == want, f"m={m}"

    def test_polyharmonic_zero_and_validation(self):
        assert apply_polyharmonic(RadialExpr.zero(), 1).is_zero
        with pytest.raises(ValueError):
            apply_polyharmonic(RadialExpr.constant(1), 0)


class TestDerivativeAndGradient:
    def test_derivative_examples(self):
        assert differentiate(RadialExpr.constant(5)).is_zero
        assert differentiate(single(1, 2)) == single(2, 1)
        assert differentiate(single(1, 0, sigma(0, 1))) == single(-1, 1, sigma(0, 3))

    def test_nabla_even_is_iterated_laplacian(self):
        e = single(1, 0, sigma(1, -3))
        assert nabla_m(e, 2) == apply_laplacian(e)
        assert nabla_m(e, 4) == apply_laplacian(apply_laplacian(e))

    def test_nabla_one_on_base_profile(self):
        # first-order gradient of (1+r^2)^(-(a-1)/2) is -(a-1) r (1+r^2)^(-(a+1)/2)
        got = nabla_m(single(1, 0, sigma(1, -1)), 1)
        assert got == single(AlphaPoly.linear(-1, 1), 1, sigma(1, 1))

    def test_nabla_three_against_finite_differences(self):
        # centered fourth-order-free check at alpha=8, h=1e-5
        m, alpha = 3, 8.0
        e = base_profile_expr(m)
        third = RadialProfile.from_expr(nabla_m(e, 3), alpha)
        lap = RadialProfile.from_expr(apply_laplacian(e), alpha)
        h = 1e-5
        for r in (0.5, 1.0, 2.0):
            fd = (lap(r + h) - lap(r - h)) / (2 * h)
            got = third(r)
            assert abs(got - fd) <= 1e-6 * max(abs(fd), 1.0)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class TestEvaluate:
    def test_zero_expression(self):
        assert RadialExpr.zero().evaluate(3, Fraction(13, 10)) == 0
        assert RadialProfile.from_expr(RadialExpr.zero(), 3.7)(1.3) == 0.0

    def test_simple_rational(self):
        v = single(1, 0, sigma(0, 2)).evaluate(1, 1)
        assert v == Fraction(1, 2)

    def test_product_constant_profile_value(self):
        # (a-1)(a+1) (1+r^2)^(-(a+3)/2) at a=3, r=1 -> 8 * 2^(-3) = 1
        e = single(p_constant(1), 0, sigma(1, 3))
        assert e.evaluate(3, 1) == 1
        assert abs(RadialProfile.from_expr(e, 3.0)(1.0) - 1.0) < 1e-14

    def test_exact_matches_float_path(self):
        e = single(AlphaPoly((1, 6)), 2, sigma(1, 1)) + single(2, 0, sigma(0, 4))
        exact = e.evaluate(5, Fraction(3, 2))
        assert isinstance(exact, Fraction)
        approx = RadialProfile.from_expr(e, 5.0)(1.5)
        assert abs(float(exact) - approx) < 1e-13 * abs(float(exact))

    def test_numpy_vectorized(self):
        e = single(1, 2, sigma(0, 4))
        r = np.array([0.5, 1.0, 2.0])
        got = RadialProfile.from_expr(e, 3.0)(r)
        want = r ** 2 * (1 + r ** 2) ** -2.0
        assert np.allclose(got, want, rtol=1e-14)

    @pytest.mark.parametrize("alpha, r", [(3.0, 1), (3, 1.0), (np.float64(3.0), 1),
                                          (3, np.int64(1)), (3, np.array(1))])
    def test_exact_evaluation_refuses_floats(self, alpha, r):
        with pytest.raises(TypeError, match="int or Fraction arguments"):
            single(1, 0, sigma(0, 2)).evaluate(alpha, r)

    def test_exact_evaluation_refuses_irrational_values(self):
        e = single(1, 0, sigma(1, 0))  # (1+r^2)^(-alpha/2)
        assert e.evaluate(4, 1) == Fraction(1, 4)
        for alpha in (3, Fraction(1, 2)):
            with pytest.raises(ValueError, match="not an even integer"):
                e.evaluate(alpha, 1)


def horner_reference(expr, alpha, r):
    """The float value with c(alpha) and sigma(alpha) recomputed per call."""
    a = float(alpha)
    base = 1.0 + r * r
    total = 0.0
    for t in expr.terms:
        c = 0.0
        for k in reversed(t.coeff.coefficients):
            c = c * a + float(k)
        sv = t.sigma.alpha_multiplier * a + t.sigma.constant_shift
        total = total + c * r ** t.r_power * base ** (-0.5 * sv)
    return total


class TestEvaluateBitEqualToHornerReference:
    """Float values have the bits of ``horner_reference`` on an array, a
    scalar r those on a one-element array, whatever the alphas of earlier
    calls."""

    EXPR = nabla_m(base_profile_expr(4), 5) + single(AlphaPoly((3, -2, 1)), 3, sigma(1, -1))
    R = [1e-3, 0.37, 1.0, 2.5, 40.0, 1e4]

    def test_scalar_r_with_alpha_switched_back_and_forth(self):
        e = self.EXPR
        for alpha in (9.3, 11.75, 9.3, 11.75):
            for r in self.R:
                want = horner_reference(e, alpha, np.array([r]))[0]
                assert RadialProfile.from_expr(e, alpha)(r) == want

    def test_ndarray_r_with_alpha_switched_back_and_forth(self):
        e = self.EXPR
        r = np.geomspace(1e-3, 1e4, 101)
        for alpha in (9.3, 11.75, 9.3):
            got = RadialProfile.from_expr(e, alpha)(r)
            assert got.tobytes() == horner_reference(e, alpha, r).tobytes()

    def test_int_and_numpy_alpha_give_the_float_value(self):
        e = self.EXPR
        for alpha in (10, np.float64(10.0), 10.0, 12):
            want = horner_reference(e, alpha, np.array([0.8]))[0]
            assert RadialProfile.from_expr(e, alpha)(0.8) == want

    def test_exact_arguments_stay_exact_after_float_calls(self):
        e = single(AlphaPoly((1, 6)), 2, sigma(1, 1)) + single(2, 0, sigma(0, 4))
        RadialProfile.from_expr(e, 5.0)(1.5)
        exact = e.evaluate(5, Fraction(3, 2))
        assert isinstance(exact, Fraction)
        assert exact == e.evaluate(Fraction(5), Fraction(3, 2))
        # alpha = 5: sigma = 6 and 4, so every term is rational
        assert exact == 31 * Fraction(9, 4) * Fraction(13, 4) ** -3 + 2 * Fraction(13, 4) ** -2


# ---------------------------------------------------------------------------
# Float finite-difference consistency (fixed non-degenerate samples)
# ---------------------------------------------------------------------------

FD_SAMPLES = [
    (single(1, 0, sigma(1, -1)), 4.0, 0.7),
    (single(1, 0, sigma(1, -3)), 6.0, 1.4),
    (single(AlphaPoly((1, 2)), 2, sigma(1, 1)), 3.5, 0.9),
    (single(1, 2, sigma(0, 6)), 2.5, 0.7),
    (single(1, 1, sigma(0, 2)) + single(-2, 3, sigma(0, 4)), 5.0, 0.6),
    (base_profile_expr(2), 6.0, 1.8),
    (apply_laplacian(base_profile_expr(3)), 8.0, 0.8),
]


@pytest.mark.parametrize("expr,alpha,r", FD_SAMPLES)
def test_laplacian_matches_second_difference(expr, alpha, r):
    h = 1e-5
    f = RadialProfile.from_expr(expr, alpha)
    fd = (f(r + h) - 2 * f(r) + f(r - h)) / h ** 2 + alpha / r * (
        f(r + h) - f(r - h)
    ) / (2 * h)
    exact = RadialProfile.from_expr(apply_laplacian(expr), alpha)(r)
    assert abs(fd - exact) <= 1e-6 * abs(exact)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

ints_st = st.integers(min_value=-24, max_value=24)
alphapoly_st = st.lists(ints_st, min_size=0, max_size=3).map(AlphaPoly)
sigma_st = st.tuples(st.integers(0, 1), st.integers(-3, 6)).map(
    lambda ab: ExponentAffine(*ab)
)
term_st = st.builds(RadialTerm, coeff=alphapoly_st, r_power=st.integers(0, 5),
                    sigma=sigma_st)
expr_st = st.lists(term_st, min_size=0, max_size=4).map(RadialExpr)


@settings(max_examples=120, deadline=None)
@given(expr_st, expr_st, ints_st)
def test_laplacian_linearity(e1, e2, scale):
    lhs = apply_laplacian(scale * e1 + e2)
    rhs = scale * apply_laplacian(e1) + apply_laplacian(e2)
    assert lhs == rhs


@settings(max_examples=120, deadline=None)
@given(expr_st)
def test_canonicalization_idempotent(e):
    assert RadialExpr(e.terms) == e
    # canonical serialization is deterministic
    assert e.to_json() == RadialExpr(e.terms).to_json()


@settings(max_examples=120, deadline=None)
@given(expr_st)
def test_closure_shift_by_four(e):
    """Every output exponent stays in the affine family; the constant shift
    moves by +4 up to the even reduction steps (+4, +2, +0 relative byte)."""
    out = apply_laplacian(e)
    in_keys = {(t.sigma.alpha_multiplier, t.sigma.constant_shift) for t in e.terms}
    for t in out.terms:
        a, b = t.sigma.alpha_multiplier, t.sigma.constant_shift
        assert any(a == ia and b <= ib + 4 and (ib + 4 - b) % 2 == 0
                   for ia, ib in in_keys)


def fraction_horner(coeffs, value):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * value + c
    return acc


exact_value_st = st.one_of(
    st.integers(),
    st.fractions(max_value=0),
    st.just(True),
    st.just(Fraction(5e-324)),
    st.builds(Fraction, st.integers(), st.integers(1, 2 ** 300)),
    st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(), max_size=12).map(AlphaPoly), exact_value_st)
@example(AlphaPoly(()), Fraction(5e-324))
@example(AlphaPoly(()), 3)
@example(AlphaPoly((0, 0, 1)), Fraction(-1, 2 ** 1074))
def test_exact_call_matches_fraction_horner(p, value):
    got = p(value)
    assert type(got) is Fraction
    assert got == fraction_horner(p.coefficients, value)


@settings(max_examples=60, deadline=None)
@given(expr_st, st.integers(2, 7))
def test_exact_evaluation_consistent_with_float(e, alpha_int):
    # exact path exists whenever every sigma(alpha) is even
    if any((t.sigma.alpha_multiplier * alpha_int + t.sigma.constant_shift) % 2
           for t in e.terms):
        return
    exact = e.evaluate(alpha_int, Fraction(3, 2))
    approx = RadialProfile.from_expr(e, alpha_int)(1.5)
    assert isinstance(exact, Fraction)
    assert abs(float(exact) - approx) <= 1e-10 * max(1.0, abs(float(exact)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 40), st.integers(0, 1), st.integers(2, 9), st.integers(-3, 6),
       ints_st, st.fractions(min_value=Fraction(1, 8), max_value=4,
                                  max_denominator=8))
def test_closed_form_lowering(rho, a, alpha, half_sigma, c, r):
    # sigma(alpha) = 2 * half_sigma is even, so evaluation is exact
    sig = ExponentAffine(a, 2 * half_sigma - a * alpha)
    e = RadialExpr.single(c, rho, sig)
    assert len(e.terms) <= rho // 2 + 1
    assert all(t.r_power in (0, 1) for t in e.terms)
    want = c * r ** rho * (1 + r * r) ** -half_sigma
    assert e.evaluate(alpha, r) == want


def test_derived_coefficients_are_plain_ints():
    """Every coefficient the expansion derives, m = 1..14, is a plain int."""
    for m in range(1, 15):
        u = base_profile_expr(m)
        polys = [*CoeffTable.build(m).g.values()]
        for j in range(1, m):
            polys += h_row(j, m) + h_reduced_row(j, m)
        for expr in (apply_polyharmonic(u, m), nabla_m(u, m)):
            polys += [t.coeff for t in expr.terms]
        assert all(type(c) is int for p in polys for c in p.coefficients), m


def test_sigma_multiplier_validation():
    with pytest.raises(ValueError):
        ExponentAffine(2, 0)
    with pytest.raises(TypeError):
        ExponentAffine(1, 0.5)


@pytest.mark.parametrize("mult, shift", [(1.0, 3), (True, 3), (0.0, 3), (1, True),
                                         (1, 3.0), (1, Fraction(3))])
def test_sigma_takes_only_plain_ints(mult, shift):
    with pytest.raises(TypeError, match="must be ints"):
        ExponentAffine(mult, shift)


@pytest.mark.parametrize("bad", [(0, 1), 1, None])
def test_single_takes_only_an_exponent_affine(bad):
    with pytest.raises(TypeError, match="sigma must be an ExponentAffine"):
        RadialExpr.single(1, 0, bad)


def test_term_ordering_deterministic():
    e1 = single(1, 0, sigma(0, 2)) + single(2, 1, sigma(1, -1))
    e2 = single(2, 1, sigma(1, -1)) + single(1, 0, sigma(0, 2))
    assert e1.terms == e2.terms
    assert json.loads(e1.to_json()) == json.loads(e2.to_json())


# exact-rational finite differences: no float roundoff, so the agreement
# property can be asserted for arbitrary generated expressions
even_sigma_st = st.tuples(st.integers(0, 1), st.integers(-2, 3).map(lambda b: 2 * b)).map(
    lambda ab: ExponentAffine(*ab)
)
even_term_st = st.builds(RadialTerm, coeff=alphapoly_st, r_power=st.integers(0, 4),
                         sigma=even_sigma_st)
even_expr_st = st.lists(even_term_st, min_size=1, max_size=3).map(RadialExpr)


@settings(max_examples=80, deadline=None)
@given(even_expr_st, st.sampled_from([2, 4, 6, 8]),
       st.fractions(min_value=Fraction(1, 2), max_value=2, max_denominator=8))
def test_laplacian_matches_exact_second_difference(expr, alpha, r):
    h = Fraction(1, 10 ** 5)
    f = lambda x: expr.evaluate(alpha, x)
    fd = (f(r + h) - 2 * f(r) + f(r - h)) / h ** 2 + Fraction(alpha) / r * (
        f(r + h) - f(r - h)
    ) / (2 * h)
    exact = apply_laplacian(expr).evaluate(alpha, r)
    term_scale = sum(
        abs(t.coeff(Fraction(alpha))) * r ** t.r_power
        * (1 + r * r) ** (-(t.sigma.value_at(alpha) // 2))
        for t in expr.terms
    )
    denom = max(abs(exact), term_scale, Fraction(1, 10 ** 9))
    assert abs(fd - exact) <= Fraction(1, 10 ** 6) * denom
