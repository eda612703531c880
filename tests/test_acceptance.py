"""Acceptance suite: every criterion at its stated tolerance.

Each test runs one criterion through :mod:`polyrad.suite` (the same code the
``verify-all`` subcommand uses), prints its pass/fail line, and enforces the
stated runtime budget where one exists.
"""

import pytest

from polyrad import suite


def _report(result, budget=None):
    print(result.line())
    if not result.passed:
        pytest.fail(f"{result.name}: {result.details}")
    if budget is not None:
        assert result.seconds < budget, (
            f"{result.name} took {result.seconds:.1f}s, budget {budget}s"
        )


def test_criterion_01_polyharmonic_identity():
    # exact equality (-Delta)^m (1+r^2)^(-(a-2m+1)/2) = P(a,m)(1+r^2)^(-(a+2m+1)/2)
    _report(suite.check_polyharmonic_identity(), budget=10.0)


def test_polyharmonic_identity_names_its_range():
    assert suite.check_polyharmonic_identity(3).name.endswith("m = 1..3")
    assert suite.check_polyharmonic_identity().name.endswith(
        f"m = 1..{suite.SYMBOLIC_MAX_M}")


def test_criterion_02_coefficient_recursion():
    # G(i,j+1) = -K_j H(i,j) exactly, with all four reduced case forms and
    # the quadratic bracket identity
    _report(suite.check_coefficient_recursion(), budget=5.0)


def test_criterion_03_vanishing_top_row():
    _report(suite.check_vanishing_top_row())


def test_criterion_04_best_constant_m1():
    # twenty samples in (2, 50) at 1e-12, pinned value at alpha = 3,
    # quadrature route at 1e-10
    _report(suite.check_best_constant_m1())


def test_criterion_05_quadrature_vs_gamma():
    _report(suite.check_quadrature_vs_gamma())


def test_criterion_06_attainment_dilation():
    # |quotient - S|/S <= 1e-6 and eps-spread <= 1e-8 over five (m, alpha)
    # pairs and three dilations
    _report(suite.check_attainment_dilation(), budget=60.0)


def test_criterion_07_minimality_probes():
    _report(suite.check_minimality_probes())


def test_criterion_08_classification():
    # deviations <= 1e-6, 1e-6, 1e-5 for the three pinned cases
    _report(suite.check_classification(), budget=30.0)


def test_criterion_09_fixed_point():
    # solution residual <= 1e-3 on the 8192-node grid, scaled profile >= 1e-2
    _report(suite.check_fixed_point())


def test_criterion_10_chain_structure():
    # finite-difference inverse residual <= 1e-4 on the resolved window,
    # decay slopes within +-0.05 of -(alpha+1-2k), bound exponents satisfied
    _report(suite.check_chain_structure())


def test_criterion_11_origin_behavior():
    # extrapolated first/third derivatives vanish at the stated scales,
    # second derivative matches -w_{k-1}(0)/(alpha+1) within 1e-3
    _report(suite.check_origin_behavior())


def test_golden_coefficient_table():
    _report(suite.check_golden_table())


def test_full_suite_runtime_budget():
    import time

    start = time.perf_counter()
    results = suite.run_all()
    elapsed = time.perf_counter() - start
    for result in results:
        print(result.line())
    assert all(r.passed for r in results)
    assert elapsed < 300.0
