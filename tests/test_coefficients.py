"""Coefficient system: boundary conventions, recursion, expansion checks."""

import pytest

from polyrad.coefficients import (
    CoeffTable,
    base_profile_expr,
    binomial,
    d_factor,
    e_factor,
    g_coefficient,
    h_case_reduced,
    h_coefficient,
    k_factor,
    lmq_bracket,
    lmq_product_form,
    lmq_values,
    p_constant,
    recursion_report,
    top_row_report,
    verify_expansion,
)
from polyrad.radial import AlphaPoly, apply_polyharmonic


class TestFactors:
    def test_d_examples(self):
        assert d_factor(0, 3, 5) == 1
        assert d_factor(-1, 3, 5) == 0
        assert d_factor(1, 1, 2) == 1          # single factor m - 1
        assert d_factor(4, 3, 5) == 0           # i >= j+1
        assert d_factor(2, 3, 5) == (5 - 2) * (5 - 3)

    def test_e_examples(self):
        assert e_factor(2, 2) == AlphaPoly.one()
        assert e_factor(0, 1) == AlphaPoly.linear(1, 1)
        assert e_factor(5, 3).is_zero
        assert e_factor(-1, 3).is_zero
        # product structure: E(0,2) = (a+1)(a+3)
        assert e_factor(0, 2) == AlphaPoly.linear(1, 1) * AlphaPoly.linear(1, 3)

    def test_k_examples(self):
        assert k_factor(0, 5) == AlphaPoly.one()
        assert k_factor(1, 2) == AlphaPoly.linear(1, -3)
        with pytest.raises(ValueError):
            k_factor(3, 2)

    def test_k_times_e_gives_product_constant(self):
        for m in range(1, 9):
            assert k_factor(m, m) * e_factor(0, m) == p_constant(m)

    def test_k_recursion(self):
        for m in range(2, 9):
            for j in range(m):
                grown = k_factor(j, m) * AlphaPoly.linear(1, -2 * m + 1 + 2 * j)
                assert k_factor(j + 1, m) == grown

    def test_binomial_zero_conventions(self):
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0
        assert binomial(4, 2) == 6


class TestPConstant:
    def test_examples(self):
        assert p_constant(1) == AlphaPoly((-1, 0, 1))  # (a-1)(a+1)
        assert p_constant(2)(4) == 105                 # 1*3*5*7
        assert p_constant(1)(3) == 8

    def test_degree(self):
        for m in range(1, 9):
            assert p_constant(m).degree == 2 * m


class TestG:
    def test_top_row(self):
        for m in range(1, 9):
            assert g_coefficient(0, m, m) == p_constant(m)
            for i in range(1, m + 1):
                assert g_coefficient(i, m, m).is_zero
        assert all(top_row_report(m)["passed"] for m in range(1, 9))

    def test_first_step_row(self):
        # G(1,1) = 2 (alpha - 2m + 1)(m - 1)
        for m in (1, 2, 5):
            want = (2 * (m - 1)) * AlphaPoly.linear(1, 1 - 2 * m)
            assert g_coefficient(1, 1, m) == want

    def test_symbolic_cross_oracle_at_alpha4(self):
        # coefficients of -Delta u for m=2 match the operator algebra
        assert g_coefficient(0, 1, 2)(4) == 5
        assert g_coefficient(1, 1, 2)(4) == 2

    def test_out_of_range_zero(self):
        assert g_coefficient(-1, 2, 3).is_zero
        assert g_coefficient(4, 2, 3).is_zero


class TestRecursion:
    @pytest.mark.parametrize("m", range(2, 9))
    def test_g_equals_minus_k_h(self, m):
        for j in range(1, m):
            kj = k_factor(j, m)
            for i in range(0, j + 2):
                assert g_coefficient(i, j + 1, m) == -(kj * h_coefficient(i, j, m)), (
                    f"i={i}, j={j}, m={m}"
                )

    @pytest.mark.parametrize("m", range(2, 9))
    def test_case_reduced_forms(self, m):
        for j in range(1, m):
            for i in range(0, j + 2):
                assert h_coefficient(i, j, m) == h_case_reduced(i, j, m), (
                    f"i={i}, j={j}, m={m}"
                )

    def test_case2_explicit_form(self):
        # H(0,j) = -E(0,j+1) (alpha + 1 - 2m + 2j)
        m, j = 4, 2
        want = -(e_factor(0, j + 1) * AlphaPoly.linear(1, 1 - 2 * m + 2 * j))
        assert h_coefficient(0, j, m) == want

    def test_lmq_bracket_identity(self):
        for m in range(2, 9):
            for j in range(1, m):
                l, mm, q = lmq_values(j, m)
                assert l == -(j + 1) * (m - j - 1)
                assert lmq_bracket(j, m) == lmq_product_form(j, m)

    def test_recursion_report_all_m(self):
        for m in range(1, 9):
            rep = recursion_report(m)
            assert rep["passed"], rep["failures"]

    def test_h_range_validation(self):
        with pytest.raises(ValueError):
            h_coefficient(0, 2, 2)  # j must be < m
        with pytest.raises(ValueError):
            h_coefficient(4, 2, 4)  # i <= j+1


class TestCoeffTable:
    def test_boundary_conventions(self):
        m = 3
        for j in range(m + 1):
            assert d_factor(-1, j, m) == 0
            assert d_factor(0, j, m) == 1
            assert e_factor(j, j) == AlphaPoly.one()
            assert e_factor(j + 1, j).is_zero
            assert e_factor(-1, j).is_zero
        assert k_factor(0, m) == AlphaPoly.one()
        for j in range(1, m + 1):
            assert g_coefficient(-1, j, m).is_zero
            assert g_coefficient(j + 1, j, m).is_zero and g_coefficient(j + 2, j, m).is_zero
        table = CoeffTable.build(m)
        assert set(table.g) == {(i, j) for j in range(1, m + 1) for i in range(j + 1)}

    def test_expansion_expr_matches_operator(self):
        table = CoeffTable.build(2)
        u = base_profile_expr(2)
        assert table.expansion_expr(1) == apply_polyharmonic(u, 1)
        assert table.expansion_expr(2) == apply_polyharmonic(u, 2)

    def test_json_shape(self):
        obj = CoeffTable.build(2).to_json_obj()
        assert obj["m"] == 2
        entries = {(e["i"], e["j"]): e["coeff"] for e in obj["g_entries"]}
        assert entries[0, 1] == g_coefficient(0, 1, 2).to_strings()
        # degree-indexed rational strings
        assert all(isinstance(c, str) for coeffs in entries.values() for c in coeffs)


class TestVerifyExpansion:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_passes(self, m):
        report = verify_expansion(m)
        assert report.passed
        assert [c.j for c in report.checks] == list(range(1, m + 1))

    def test_high_order_exact(self):
        # every order past the pinned m <= 8, up to 16: under 0.3 s in all
        for m in range(9, 17):
            report = verify_expansion(m)
            assert report.passed and len(report.checks) == m, m
            assert recursion_report(m)["passed"], m
            assert top_row_report(m)["passed"], m

    @pytest.mark.parametrize("build, per_m2", [(recursion_report, 10),
                                               (CoeffTable.build, 2)])
    def test_product_count_grows_like_m_squared(self, monkeypatch, build, per_m2):
        # Each product is by a factor of bounded degree or, in the check
        # G(i, j+1) = -K_j H(i, j), one of O(m^2) products of degree O(m), so
        # the work is O(m^3) when the count grows like m^2.  Code that
        # rebuilds K_j and E(i, j) for every (i, j) fails both bounds: it
        # makes 1390 -> 7802 products for the recursion report and
        # 340 -> 2344 for the table at m = 8 -> 16.
        calls = []
        mul = AlphaPoly.__mul__

        def counted(self, other):
            calls.append(None)
            return mul(self, other)

        monkeypatch.setattr(AlphaPoly, "__mul__", counted)
        monkeypatch.setattr(AlphaPoly, "__rmul__", counted)
        counts = {}
        for m in (8, 16):
            calls.clear()
            build(m)
            counts[m] = len(calls)
            assert counts[m] <= per_m2 * m * m, counts
        assert counts[16] <= 4.5 * counts[8], counts

    def test_derived_coefficients_are_ints(self):
        table = CoeffTable.build(6)
        polys = [*table.g.values(), p_constant(6), h_coefficient(0, 1, 6)]
        assert all(type(c) is int for poly in polys for c in poly.coefficients)

    def test_m1_single_check(self):
        report = verify_expansion(1)
        assert len(report.checks) == 1 and report.checks[0].ok

    def test_corrupted_table_fails_with_diff(self):
        m = 3
        table = CoeffTable.build(m)
        bad = table.with_g_entry(1, 2, table.g[1, 2] + AlphaPoly.one())
        report = verify_expansion(m, table=bad)
        assert not report.passed
        failed = [c for c in report.checks if not c.ok]
        assert failed and failed[0].j == 2
        assert failed[0].diff  # nonzero difference expression serialized
