"""Regularity chain: construction, inverse structure, decay, origin, fixed point."""

import re
import tracemalloc

import numpy as np
import pytest

from polyrad.errors import DomainError, NonConvergenceError
from polyrad.functionals import RadialProfile, bliss_profile
from polyrad.radial import ExponentAffine, RadialExpr
from polyrad.iteration import (
    FIXED_POINT_FLOOR,
    INVERSE_NOISE_FLOOR,
    ORIGIN_FIT_RADIUS,
    IterationChain,
    InverseReport,
    RadialGrid,
    _BLOCK,
    _origin_fit,
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
            rel = np.abs(bliss_chain_24.w[k] - exact) / np.maximum(
                np.abs(exact), 1e-12
            )
            assert rel.max() <= 1e-3, k

    def test_zero_profile(self):
        chain = iterate_chain(RadialProfile.zero(ALPHA), M, ALPHA, GRID)
        for w in chain.w:
            assert np.all(w == 0.0)

    def test_positive_chain_monotone_decreasing(self, bliss_chain_24):
        for k in range(1, M + 1):
            assert np.all(np.diff(bliss_chain_24.w[k]) < 0.0)

    def test_center_values_finite(self, bliss_chain_24):
        for w in bliss_chain_24.w:
            assert np.isfinite(w[0])

    def test_boundary_limit_at_origin(self, bliss_chain_24):
        # r^alpha w_k'(r) = -int_0^r s^alpha w_{k-1} ds -> 0 as r -> 0
        r = GRID.nodes
        for k in range(1, M + 1):
            flux = r ** ALPHA * np.gradient(bliss_chain_24.w[k], r)
            w0 = bliss_chain_24.w[k][0]
            assert abs(flux[0]) <= 1e-10 * w0
            assert np.all(np.diff(np.abs(flux[:100])) > 0)  # grows away from 0

    def test_underflowed_chain_rejected(self):
        # at eps = 1e300 the profile is about 1.8e-150, and |u|^(2*-2) u
        # underflows to zero everywhere: a chain of zeros would pass vacuously
        u = bliss_profile(M, ALPHA, 1e300)
        assert np.all(u(GRID.nodes) > 0.0)
        with pytest.raises(DomainError, match=r"eps = 1e\+300"):
            iterate_chain(u, M, ALPHA, GRID)
        with pytest.raises(DomainError, match=r"eps = 1e\+300"):
            fixed_point_residual(u, M, ALPHA, GRID)

    def test_tail_divergence_error(self):
        # decay too slow: at m = 1, alpha = 7 (2* - 1 = 5/3) w_0 of
        # (1+r^2)^(-1/2) falls like r^-5/3, the outer integral needs better
        # than r^-2
        slow = RadialProfile.from_expr(RadialExpr.single(1, 0, ExponentAffine(0, 1)), 7.0)
        assert slow.decay_exponent == 1.0
        with pytest.raises(NonConvergenceError, match="outer integral needs mu > 2"):
            iterate_chain(slow, 1, 7.0, GRID)

    def test_weight_overflow_names_alpha(self):
        # r_min^(1 - alpha) = 1e396 overflows at alpha = 100: the chain
        # would be NaN and the finite differences would blame the grid
        with pytest.raises(DomainError, match=r"alpha=100 .*r_min=0\.0001, r_max=1000"):
            iterate_chain(bliss_profile(1, 100.0, 1.0), 1, 100.0, GRID)


class TestVerifyInverse:
    def test_single_application(self, bliss_chain_24):
        rep = verify_inverse(bliss_chain_24, 1)
        assert rep.residuals[1] <= 1e-4
        assert rep.residuals[2] <= 1e-4

    def test_zero_chain(self):
        chain = iterate_chain(RadialProfile.zero(ALPHA), M, ALPHA, GRID)
        rep = verify_inverse(chain, 1)
        assert rep.max_residual == 0.0

    def test_max_residual_keeps_a_nan(self):
        # Python's max(1e-6, nan) is 1e-6: a NaN after a finite residual
        # would vanish from the verdict
        rep = InverseReport(residuals={1: 1e-6, 2: float("nan")}, windows={})
        assert np.isnan(rep.max_residual)
        assert InverseReport(residuals={}, windows={}).max_residual == 0.0

    def test_range_validation(self, bliss_chain_24):
        # the single difference per k implies the j-fold checks
        for j in (0, 2, M + 1):
            with pytest.raises(ValueError, match="only j = 1"):
                verify_inverse(bliss_chain_24, j)


class TestFiniteDifferenceOperator:
    def test_matches_symbolic_on_smooth_function(self):
        # -Delta_alpha of (1+r^2)^(-1) against the exact value, away from
        # the roundoff-limited left edge
        grid = RadialGrid.geometric(1e-2, 1e2, 2048)
        vals = (1.0 + grid.nodes ** 2) ** -1.0
        fd = neg_laplacian_fd(grid.nodes, vals, 3.0)
        r = grid.nodes[1:-1]
        exact = -(
            (6.0 * r ** 2 - 2.0) / (1 + r ** 2) ** 3
            + (3.0 / r) * (-2.0 * r / (1 + r ** 2) ** 2)
        )
        mask = (r > 0.05) & (r < 50.0)
        rel = np.abs(fd - exact)[mask] / np.max(np.abs(exact))
        assert rel.max() <= 1e-5


class TestDecay:
    def test_bliss_chain_slopes(self, bliss_chain_24):
        rep = decay_report(bliss_chain_24)
        for k, entry in enumerate(rep.entries):
            assert entry.bound_satisfied
            if k >= 1:
                assert abs(entry.slope + bliss_decay_exponent(k, ALPHA)) <= 0.05
        # spot values: w_1 ~ r^-3, w_2 ~ r^-1
        assert abs(rep.entries[1].slope + 3.0) <= 0.05
        assert abs(rep.entries[2].slope + 1.0) <= 0.05

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
        for entry in rep.entries[1:]:
            assert abs(entry.d1) <= 1e-3 * entry.value
            rel = abs(entry.d2 - entry.d2_expected) / abs(entry.d2_expected)
            assert rel <= 1e-3
            assert abs(entry.d3) <= 1e-2 * entry.value

    def test_identities_m1_alpha3(self):
        chain = iterate_chain(bliss_profile(1, 3.0, 1.0), 1, 3.0, GRID)
        rep = origin_behavior(chain)
        w0, w1 = rep.entries
        # w_1''(0) = -w_0(0)/(alpha+1) = -w_0(0)/4
        assert abs(w1.d2 + w0.value / 4.0) <= 1e-3 * abs(w1.d2)

    def test_needs_fine_grid(self):
        coarse = RadialGrid.geometric(1e-2, 1e2, 256)
        chain = iterate_chain(bliss_profile(M, ALPHA, 1.0), M, ALPHA, coarse)
        with pytest.raises(DomainError):
            origin_behavior(chain)

    @staticmethod
    def _hand_built(fit_nodes):
        nodes = np.concatenate([fit_nodes, [1.0, 2.0]])
        w = (1.0 / (1.0 + nodes ** 2), 2.0 / (1.0 + nodes ** 2) ** 2)
        return IterationChain(m=1, alpha=ALPHA, grid=RadialGrid(nodes), w=w,
                              q=tuple(q_sequence(1, ALPHA)))

    def test_singular_gram_raises(self):
        # below r = 1e-200 every power x^2..x^6 underflows to zero
        chain = self._hand_built(np.geomspace(1e-300, 1e-200, 20))
        with pytest.raises(DomainError, match="singular"):
            _origin_fit(chain)

    def test_unconverged_refinement_raises(self):
        # 14 nodes within 1.3e-8 of each other: the Gram matrix is not
        # exactly singular, but far too ill-conditioned to refine
        chain = self._hand_built(0.04 + np.arange(14) * 1e-9)
        with pytest.raises(DomainError, match="did not converge"):
            _origin_fit(chain)


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
    for w in bliss_chain_24.w:
        assert np.all(w > 0.0)


# ---------------------------------------------------------------------------
# The hoisted, in-place routines against their plain per-member forms
# ---------------------------------------------------------------------------


def _fd_reference(r, u, alpha):
    """The three-point stencil as one expression, per call."""
    h1 = r[1:-1] - r[:-2]
    h2 = r[2:] - r[1:-1]
    du = (-h2 / (h1 * (h1 + h2)) * u[:-2]
          + (h2 - h1) / (h1 * h2) * u[1:-1]
          + h1 / (h2 * (h1 + h2)) * u[2:])
    d2u = 2.0 * (u[:-2] / (h1 * (h1 + h2))
                 - u[1:-1] / (h1 * h2)
                 + u[2:] / (h2 * (h1 + h2)))
    return -(d2u + alpha / r[1:-1] * du)


def _inverse_reference(chain):
    """verify_inverse member by member through one neg_laplacian_fd each,
    over the whole grid at once."""
    eps = float(np.finfo(float).eps)
    residuals, windows = {}, {}
    r = chain.grid.nodes[1:-1]
    for k in range(1, chain.m + 1):
        fd = neg_laplacian_fd(chain.grid.nodes, chain.w[k], chain.alpha)
        target = chain.w[k - 1][1:-1]
        scale = float(np.max(np.abs(target)))
        input_scale = float(np.max(np.abs(chain.w[k])))
        floor = eps * input_scale * (6.0 / np.gradient(r) ** 2) / scale
        mask = floor <= INVERSE_NOISE_FLOOR
        residuals[k] = float(np.max(np.abs(fd - target)[mask]) / scale)
        windows[k] = (float(r[mask].min()), float(r[mask].max()))
    return residuals, windows


@pytest.fixture(scope="module")
def chain_38():
    return iterate_chain(bliss_profile(3, 8.0, 1.3), 3, 8.0, GRID)


@pytest.fixture(scope="module")
def chain_38_fine():
    grid = RadialGrid.geometric(1e-4, 1e3, 65536)
    return iterate_chain(bliss_profile(3, 8.0, 1.3), 3, 8.0, grid)


#: two full blocks and a partial one
BLOCKED_N = 2 * _BLOCK + 777


def _blocked_chain(r_min):
    grid = RadialGrid.geometric(r_min, 1e3, BLOCKED_N)
    return iterate_chain(bliss_profile(M, ALPHA, 1.0), M, ALPHA, grid)


def _rebuilt(chain, members):
    return IterationChain(m=chain.m, alpha=chain.alpha, grid=chain.grid,
                          w=tuple(members), q=chain.q)


class TestEquivalence:
    def test_fd_matches_single_expression(self, chain_38):
        for w in chain_38.w:
            fd = neg_laplacian_fd(GRID.nodes, w, 8.0)
            assert np.array_equal(fd, _fd_reference(GRID.nodes, w, 8.0))
            assert fd.shape == (len(GRID) - 2,)

    @pytest.mark.parametrize("m, alpha, eps", [(2, 4.0, 1.0), (3, 8.0, 1.3)])
    def test_fixed_point_matches_chain(self, m, alpha, eps):
        u = bliss_profile(m, alpha, eps)
        chain = iterate_chain(u, m, alpha, GRID)
        u_vals = u(GRID.nodes)
        want = float(np.max(np.abs(chain.w[m] - u_vals)
                            / np.maximum(np.abs(u_vals), FIXED_POINT_FLOOR)))
        assert fixed_point_residual(u, m, alpha, GRID) == want

    @pytest.mark.parametrize("j", [1])
    def test_inverse_matches_repeated_fd(self, chain_38, j):
        rep = verify_inverse(chain_38, j)
        assert (rep.residuals, rep.windows) == _inverse_reference(chain_38)

    @pytest.mark.parametrize("j", [1])
    def test_inverse_matches_repeated_fd_m2(self, bliss_chain_24, j):
        rep = verify_inverse(bliss_chain_24, j)
        assert (rep.residuals, rep.windows) == _inverse_reference(bliss_chain_24)

    @pytest.mark.parametrize("r_min", [1e-4, 1e-9])
    def test_inverse_matches_across_blocks(self, r_min):
        # at r_min = 1e-9 the resolved windows start in the second block
        chain = _blocked_chain(r_min)
        rep = verify_inverse(chain, 1)
        assert (rep.residuals, rep.windows) == _inverse_reference(chain)
        if r_min < 1e-4:
            assert min(lo for lo, _ in rep.windows.values()) > chain.grid.nodes[_BLOCK + 1]

    def test_nan_inside_the_window_stays_nan(self):
        # scaled toward the float maximum, the stencil's terms overflow and
        # inf - inf puts NaNs into w_1's difference inside its window
        chain = _blocked_chain(1e-4)
        big = 1e300 / max(float(np.max(np.abs(w))) for w in chain.w)
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = _rebuilt(chain, (w * big for w in chain.w))
            rep = verify_inverse(scaled, 1)
            want_res, want_win = _inverse_reference(scaled)
        assert np.isnan(rep.residuals[1]) and np.isnan(want_res[1])
        assert rep.residuals[2] == want_res[2]
        assert rep.windows == want_win
        assert np.isnan(rep.max_residual)

    def test_nan_in_a_member_is_not_resolved(self):
        # a NaN placed in a member is named with its node, not blamed on
        # the grid's resolution
        chain = _blocked_chain(1e-4)
        lo, hi = verify_inverse(chain, 1).windows[2]
        inside = int(np.searchsorted(chain.grid.nodes, (lo + hi) / 2))
        assert inside > _BLOCK
        for k in range(M + 1):
            members = [w.copy() for w in chain.w]
            members[k][inside] = np.nan
            r = chain.grid.nodes[inside]
            with pytest.raises(DomainError, match=re.escape(
                    f"chain member w_{k} holds nan at node {inside} (r={r:.6g})")):
                verify_inverse(_rebuilt(chain, members), 1)

    def test_zero_chain_across_blocks(self):
        chain = _blocked_chain(1e-4)
        zero = _rebuilt(chain, (np.zeros_like(w) for w in chain.w))
        rep = verify_inverse(zero, 1)
        ends = (chain.grid.nodes[1], chain.grid.nodes[-2])
        assert rep.residuals == {1: 0.0, 2: 0.0}
        assert rep.windows == {1: ends, 2: ends}

    def test_unresolved_member_across_blocks(self):
        # w_2 1e20 times too large: its noise floor is above the threshold
        # at every node of every block
        chain = _blocked_chain(1e-4)
        members = list(chain.w)
        members[2] = members[2] * 1e20
        with pytest.raises(DomainError, match="no grid nodes resolve"):
            verify_inverse(_rebuilt(chain, members), 1)

    @pytest.mark.parametrize("chain", ["chain_38", "bliss_chain_24"])
    def test_decay_slopes_match_polyfit(self, chain, request):
        chain = request.getfixturevalue(chain)
        tail = chain.grid.nodes >= chain.grid.r_max / 10.0
        for entry, w in zip(decay_report(chain).entries, chain.w):
            want = np.polyfit(np.log(chain.grid.nodes[tail]), np.log(w[tail]), 1)[0]
            assert abs(entry.slope - want) <= 1e-12, entry.k

    def test_origin_matches_per_member_fits(self, chain_38):
        # one factorisation for all members moves the fit at roundoff only
        r_fit = ORIGIN_FIT_RADIUS
        mask = GRID.nodes <= r_fit
        design = np.vander(GRID.nodes[mask] / r_fit, 7, increasing=True)
        rep = origin_behavior(chain_38)
        for entry, w in zip(rep.entries, chain_38.w):
            coeff = np.linalg.lstsq(design, w[mask], rcond=None)[0]
            want = (coeff[0], coeff[1] / r_fit, 2.0 * coeff[2] / r_fit ** 2,
                    6.0 * coeff[3] / r_fit ** 3)
            got = (entry.value, entry.d1, entry.d2, entry.d3)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-7 * abs(entry.value), entry.k


    @pytest.mark.parametrize("chain", ["chain_38", "bliss_chain_24", "chain_38_fine"])
    def test_origin_fit_matches_svd_solve(self, chain, request):
        # c = V S^-1 U^T b with one refinement step on the residual; the two
        # solvers differ at roundoff, which d3 = 6 c_3 / r_fit^3 amplifies
        chain = request.getfixturevalue(chain)
        r_fit = ORIGIN_FIT_RADIUS
        nodes = chain.grid.nodes
        mask = nodes <= r_fit
        design = np.vander(nodes[mask] / r_fit, 7, increasing=True)
        samples = np.column_stack([w[mask] for w in chain.w])
        u, s, vt = np.linalg.svd(design, full_matrices=False)

        def solve(rhs):
            return vt.T @ ((u.T @ rhs) / s[:, None])

        coeff = solve(samples)
        coeff += solve(samples - design @ coeff)
        want = (coeff[0], coeff[1] / r_fit, 2.0 * coeff[2] / r_fit ** 2,
                6.0 * coeff[3] / r_fit ** 3)
        got = _origin_fit(chain)
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 1e-8 * np.abs(got[0]))


# ---------------------------------------------------------------------------
# Memory: traced peak in arrays of n floats, m = 4, n = 2^16
# ---------------------------------------------------------------------------


MEM_N, MEM_M, MEM_ALPHA = 2 ** 16, 4, 11.0


def _peak_arrays(func, *args) -> float:
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1] / (8 * MEM_N)
    finally:
        tracemalloc.stop()


class TestMemory:
    @pytest.fixture(scope="class")
    def setup(self):
        grid = RadialGrid.geometric(1e-4, 1e3, MEM_N)
        u = bliss_profile(MEM_M, MEM_ALPHA, 1.0)
        return grid, u, iterate_chain(u, MEM_M, MEM_ALPHA, grid)

    def test_chain_checks_within_eleven_arrays(self, setup):
        grid, u, chain = setup
        assert _peak_arrays(iterate_chain, u, MEM_M, MEM_ALPHA, grid) <= 11.0

    def test_post_chain_checks_work_in_blocks(self, setup):
        # blocked differences, tail views and one residual buffer: the
        # checks hold a few arrays besides the chain they judge
        _, _, chain = setup
        assert _peak_arrays(verify_inverse, chain, 1) <= 5.0
        assert _peak_arrays(origin_behavior, chain) <= 6.0
        assert _peak_arrays(decay_report, chain) <= 1.0

    def test_fixed_point_keeps_only_the_running_member(self, setup):
        grid, u, _ = setup
        assert _peak_arrays(fixed_point_residual, u, MEM_M, MEM_ALPHA, grid) <= 9.0
