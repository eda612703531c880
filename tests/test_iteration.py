"""Regularity chain: construction, inverse structure, decay, origin, fixed point."""

import numpy as np
import pytest

from polyrad.errors import DomainError, TailDivergenceError
from polyrad.functionals import RadialProfile, bliss_profile
from polyrad.radial import RadialExpr
from polyrad.iteration import (
    GridFunction,
    RadialGrid,
    bliss_decay_exponent,
    decay_report,
    fixed_point_residual,
    iterate_chain,
    neg_laplacian_fd,
    origin_behavior,
    q_closed_form,
    q_sequence,
    verify_inverse,
)

M, ALPHA = 2, 4.0
GRID = RadialGrid.geometric(1e-4, 1e3, 4096)


@pytest.fixture(scope="module")
def bliss_chain_24():
    return iterate_chain(bliss_profile(M, ALPHA, 1.0), M, ALPHA, GRID)


class TestGrid:
    def test_geometric(self):
        g = RadialGrid.geometric(1e-3, 1e2, 128)
        assert len(g) == 128 and g.r_min == 1e-3 and g.r_max == 1e2
        ratios = g.nodes[1:] / g.nodes[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialGrid(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            RadialGrid(np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            GridFunction(RadialGrid.geometric(n=16), np.zeros(5))


class TestQSequence:
    def test_recursion_matches_closed_form(self):
        for m, alpha in [(1, 3.0), (2, 4.0), (3, 8.0), (4, 11.0)]:
            qs = q_sequence(m, alpha)
            for k, q in enumerate(qs):
                assert abs(q - q_closed_form(k, m, alpha)) <= 1e-12 * q
                assert abs(q * (alpha + 2 * m + 1 - 4 * k) - 2 * (alpha + 1)) <= 1e-9

    def test_q0_is_dual_exponent(self):
        qs = q_sequence(2, 4.0)
        assert abs(qs[0] - 10.0 / 9.0) <= 1e-14
        assert abs(qs[-1] - 10.0) <= 1e-12  # q_m = 2*


class TestChainConstruction:
    def test_against_symbolic_oracle(self, bliss_chain_24):
        # w_k must equal the (m-k)-fold operator image of the profile
        # u_j = (-Delta_alpha)^j w for j = m..0; u_m lies outside the IVP state
        w = bliss_profile(M, ALPHA, 1.0)
        for k in range(M + 1):
            j = M - k
            exact = w(GRID.nodes) if j == 0 else (-1) ** j * w.nabla(2 * j)(GRID.nodes)
            rel = np.abs(bliss_chain_24.w[k].values - exact) / np.maximum(
                np.abs(exact), 1e-12
            )
            assert rel.max() <= 1e-3, k

    def test_zero_profile(self):
        chain = iterate_chain(RadialProfile.zero(ALPHA), M, ALPHA, GRID)
        for gf in chain.w:
            assert np.all(gf.values == 0.0)

    def test_positive_chain_monotone_decreasing(self, bliss_chain_24):
        for k in range(1, M + 1):
            assert np.all(np.diff(bliss_chain_24.w[k].values) < 0.0)

    def test_center_values_finite(self, bliss_chain_24):
        for gf in bliss_chain_24.w:
            assert np.isfinite(gf.values[0])

    def test_boundary_limit_at_origin(self, bliss_chain_24):
        # r^alpha w_k'(r) = -int_0^r s^alpha w_{k-1} ds -> 0 as r -> 0
        for k in range(1, M + 1):
            flux = bliss_chain_24.source_integrals[k - 1].values
            w0 = bliss_chain_24.w[k].values[0]
            assert abs(flux[0]) <= 1e-10 * w0
            assert np.all(np.diff(np.abs(flux[:100])) > 0)  # grows away from 0

    def test_decay_metadata_required(self):
        f = RadialProfile.from_expr(RadialExpr.single(1, 0, 4), ALPHA)
        with pytest.raises(DomainError):
            iterate_chain(f, M, ALPHA, GRID)

    def test_tail_divergence_error(self):
        # declared decay too slow: at m = 1, alpha = 7 (2* - 1 = 5/3) w_0 of
        # (1+r^2)^(-1/2) falls like r^-5/3, the outer integral needs better
        # than r^-2
        slow = RadialProfile.from_expr(RadialExpr.single(1, 0, 1), 7.0,
                                       decay_exponent=1.0)
        with pytest.raises(TailDivergenceError):
            iterate_chain(slow, 1, 7.0, GRID)


class TestVerifyInverse:
    def test_single_application(self, bliss_chain_24):
        rep = verify_inverse(bliss_chain_24, 1)
        assert rep.residuals[1] <= 1e-4
        assert rep.residuals[2] <= 1e-4

    def test_full_depth_reproduces_source(self, bliss_chain_24):
        rep = verify_inverse(bliss_chain_24, M)
        assert rep.residuals[M] <= 1e-3

    def test_zero_chain(self):
        chain = iterate_chain(RadialProfile.zero(ALPHA), M, ALPHA, GRID)
        rep = verify_inverse(chain, 1)
        assert rep.max_residual == 0.0

    def test_range_validation(self, bliss_chain_24):
        with pytest.raises(ValueError):
            verify_inverse(bliss_chain_24, 0)
        with pytest.raises(ValueError):
            verify_inverse(bliss_chain_24, M + 1)


class TestFiniteDifferenceOperator:
    def test_matches_symbolic_on_smooth_function(self):
        # -Delta_alpha of (1+r^2)^(-1) against the exact value, away from
        # the roundoff-limited left edge
        grid = RadialGrid.geometric(1e-2, 1e2, 2048)
        vals = (1.0 + grid.nodes ** 2) ** -1.0
        fd = neg_laplacian_fd(GridFunction(grid, vals), 3.0)
        r = fd.grid.nodes
        exact = -(
            (6.0 * r ** 2 - 2.0) / (1 + r ** 2) ** 3
            + (3.0 / r) * (-2.0 * r / (1 + r ** 2) ** 2)
        )
        mask = (r > 0.05) & (r < 50.0)
        rel = np.abs(fd.values - exact)[mask] / np.max(np.abs(exact))
        assert rel.max() <= 1e-5


class TestDecay:
    def test_bliss_chain_slopes(self, bliss_chain_24):
        rep = decay_report(bliss_chain_24)
        for k in range(M + 1):
            entry = rep.entry(k)
            assert entry.bound_satisfied
            if k >= 1:
                assert abs(entry.slope + bliss_decay_exponent(k, ALPHA)) <= 0.05
        # spot values: w_1 ~ r^-3, w_2 ~ r^-1
        assert abs(rep.entry(1).slope + 3.0) <= 0.05
        assert abs(rep.entry(2).slope + 1.0) <= 0.05

    def test_zero_chain_skipped(self):
        chain = iterate_chain(RadialProfile.zero(ALPHA), M, ALPHA, GRID)
        rep = decay_report(chain)
        assert all(e.skipped for e in rep.entries)

    def test_single_tail_node_rejected(self):
        # five nodes over seven decades leave one node in the last decade,
        # too few for a slope
        grid = RadialGrid.geometric(1e-4, 1e3, 5)
        chain = iterate_chain(bliss_profile(M, ALPHA, 1.0), M, ALPHA, grid)
        with pytest.raises(DomainError, match="two grid nodes"):
            decay_report(chain)


class TestOrigin:
    def test_identities_m2(self, bliss_chain_24):
        rep = origin_behavior(bliss_chain_24)
        for k in (1, 2):
            entry = rep.entry(k)
            assert abs(entry.d1) <= 1e-3 * entry.value
            rel = abs(entry.d2 - entry.d2_expected) / abs(entry.d2_expected)
            assert rel <= 1e-3
            assert abs(entry.d3) <= 1e-2 * entry.value

    def test_identities_m1_alpha3(self):
        chain = iterate_chain(bliss_profile(1, 3.0, 1.0), 1, 3.0, GRID)
        rep = origin_behavior(chain)
        entry = rep.entry(1)
        # w_1''(0) = -w_0(0)/(alpha+1) = -w_0(0)/4
        assert abs(entry.d2 + rep.entry(0).value / 4.0) <= 1e-3 * abs(entry.d2)

    def test_needs_fine_grid(self):
        coarse = RadialGrid.geometric(1e-2, 1e2, 256)
        chain = iterate_chain(bliss_profile(M, ALPHA, 1.0), M, ALPHA, coarse)
        with pytest.raises(DomainError):
            origin_behavior(chain)


class TestFixedPoint:
    def test_solution_profile(self):
        grid = RadialGrid.geometric(1e-4, 1e3, 8192)
        res = fixed_point_residual(bliss_profile(M, ALPHA, 1.0), M, ALPHA, grid)
        assert res <= 1e-3

    def test_scaled_profile_is_not_fixed(self):
        grid = RadialGrid.geometric(1e-4, 1e3, 8192)
        res = fixed_point_residual(1.1 * bliss_profile(M, ALPHA, 1.0), M, ALPHA, grid)
        assert res >= 0.01
        # analytic value of the defect: 1.1^(2*-2) - 1 away from the tail
        assert abs(res - (1.1 ** 8 - 1.0)) <= 0.05

    def test_zero_profile(self):
        assert fixed_point_residual(RadialProfile.zero(ALPHA), M, ALPHA, GRID) == 0.0

    def test_other_family_members(self):
        for m, alpha, eps in [(1, 3.0, 1.0), (1, 3.0, 2.0), (3, 8.0, 1.0)]:
            res = fixed_point_residual(bliss_profile(m, alpha, eps), m, alpha, GRID)
            assert res <= 1e-3, (m, alpha, eps)


def test_positive_input_gives_positive_chain(bliss_chain_24):
    for gf in bliss_chain_24.w:
        assert np.all(gf.values > 0.0)
