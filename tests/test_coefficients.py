"""Coefficient system: boundary conventions, recursion, expansion checks."""

import pytest

from polyrad import coefficients
from polyrad.coefficients import (
    CoeffTable,
    base_profile_expr,
    d_factor,
    e_row,
    g_row,
    h_reduced_row,
    h_row,
    k_factor,
    lmq_bracket,
    lmq_product_form,
    p_constant,
    recursion_report,
    top_row_report,
    verify_expansion,
)
from polyrad.radial import AlphaPoly, apply_polyharmonic

ONE = AlphaPoly.one()


class TestFactors:
    def test_d_examples(self):
        assert d_factor(0, 3, 5) == 1
        assert d_factor(-1, 3, 5) == 0
        assert d_factor(1, 1, 2) == 1          # single factor m - 1
        assert d_factor(4, 3, 5) == 0           # i >= j+1
        assert d_factor(2, 3, 5) == (5 - 2) * (5 - 3)

    def test_e_examples(self):
        assert e_row(2, ONE)[2] == ONE
        assert e_row(1, ONE)[0] == AlphaPoly.linear(1, 1)
        # product structure: E(0,2) = (a+1)(a+3)
        assert e_row(2, ONE)[0] == AlphaPoly.linear(1, 1) * AlphaPoly.linear(1, 3)
        p = AlphaPoly.linear(2, -5)
        assert e_row(3, p) == [p * e for e in e_row(3, ONE)]

    def test_k_examples(self):
        assert k_factor(0, 5) == AlphaPoly.one()
        assert k_factor(1, 2) == AlphaPoly.linear(1, -3)
        with pytest.raises(ValueError):
            k_factor(3, 2)

    def test_k_times_e_gives_product_constant(self):
        for m in range(1, 9):
            assert k_factor(m, m) * e_row(m, ONE)[0] == p_constant(m)

    def test_k_recursion(self):
        for m in range(2, 9):
            for j in range(m):
                grown = k_factor(j, m) * AlphaPoly.linear(1, -2 * m + 1 + 2 * j)
                assert k_factor(j + 1, m) == grown


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
            top = g_row(m, m)
            assert top[0] == p_constant(m)
            assert all(g.is_zero for g in top[1:])
        assert all(top_row_report(m)["passed"] for m in range(1, 9))

    def test_first_step_row(self):
        # G(1,1) = 2 (alpha - 2m + 1)(m - 1)
        for m in (1, 2, 5):
            want = (2 * (m - 1)) * AlphaPoly.linear(1, 1 - 2 * m)
            assert g_row(1, m)[1] == want

    def test_symbolic_cross_oracle_at_alpha4(self):
        # coefficients of -Delta u for m=2 match the operator algebra
        assert [g(4) for g in g_row(1, 2)] == [5, 2]

    def test_row_range(self):
        assert [len(g_row(j, 3)) for j in (1, 2, 3)] == [2, 3, 4]
        for j in (0, 4):
            with pytest.raises(ValueError):
                g_row(j, 3)


class TestRecursion:
    @pytest.mark.parametrize("m", range(2, 9))
    def test_g_equals_minus_k_h(self, m):
        for j in range(1, m):
            kj = k_factor(j, m)
            assert g_row(j + 1, m) == [-(kj * h) for h in h_row(j, m)], f"j={j}, m={m}"

    @pytest.mark.parametrize("m", range(2, 9))
    def test_case_reduced_forms(self, m):
        for j in range(1, m):
            assert h_row(j, m) == h_reduced_row(j, m), f"j={j}, m={m}"

    def test_case2_explicit_form(self):
        # H(0,j) = -E(0,j+1) (alpha + 1 - 2m + 2j)
        m, j = 4, 2
        want = -(e_row(j + 1, ONE)[0] * AlphaPoly.linear(1, 1 - 2 * m + 2 * j))
        assert h_row(j, m)[0] == want

    def test_lmq_bracket_identity(self):
        for m in range(2, 9):
            for j in range(1, m):
                # at alpha = -1 the bracket reduces to Q_j
                assert lmq_bracket(j, m)(-1) == 4 * j * (j + 1) * (m - j - 1) * (m - j)
                assert lmq_bracket(j, m) == lmq_product_form(j, m)

    def test_recursion_report_all_m(self):
        for m in range(1, 9):
            rep = recursion_report(m)
            assert rep["passed"], rep["failures"]

    def test_h_range_validation(self):
        for row in (h_row, h_reduced_row):
            with pytest.raises(ValueError):
                row(2, 2)  # j must be < m
            assert len(row(2, 4)) == 4  # i = 0..j+1


def _b_plus_one(abc):
    def mutated(rho, sigma):
        a, b, c = abc(rho, sigma)
        return a, b + ONE, c
    return mutated


def _k_one_factor_long_at_2(k):
    # K_2 picks up the factor of K_3: an off-by-one in the product range
    return lambda j, m: k(j, m) * AlphaPoly.linear(1, -2 * m + 1 + 2 * j) if j == 2 else k(j, m)


def _one_reduced_entry_changed_at_2(row):
    def mutated(j, m):
        out = row(j, m)
        if j == 2:
            out[1] = out[1] + ONE
        return out
    return mutated


MUTATIONS = [
    ("abc_coefficients", _b_plus_one, recursion_report, ["G(i,j+1) = -K_j H(i,j)"]),
    ("k_factor", _k_one_factor_long_at_2, recursion_report, ["K-recursion"]),
    ("lmq_bracket", lambda f: lambda j, m: f(j, m) + ONE, recursion_report,
     ["L/M/Q bracket", "case-reduced H"]),
    ("h_reduced_row", _one_reduced_entry_changed_at_2, recursion_report, ["case-reduced H"]),
    ("p_constant", lambda f: lambda m: 2 * f(m), top_row_report, ["G(0,m) != P"]),
]


@pytest.mark.parametrize("name, mutate, report, expected", MUTATIONS,
                         ids=[case[0] for case in MUTATIONS])
def test_mutated_ingredient_fails_its_report(monkeypatch, name, mutate, report, expected):
    # criteria 2 and 3 compare independently built rows, so each mutation
    # fails by name; a report that compared a row with itself would not
    monkeypatch.setattr(coefficients, name, mutate(getattr(coefficients, name)))
    rep = report(4)
    assert not rep["passed"]
    for want in expected:
        assert any(f.startswith(want) for f in rep["failures"]), (want, rep["failures"])


class TestCoeffTable:
    def test_boundary_conventions(self):
        m = 3
        for j in range(m + 1):
            assert d_factor(-1, j, m) == 0
            assert d_factor(0, j, m) == 1
            row = e_row(j, ONE)
            assert len(row) == j + 1 and row[j] == ONE
        assert k_factor(0, m) == ONE
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
        assert entries[0, 1] == g_row(1, 2)[0].to_strings()
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
        polys = [*table.g.values(), p_constant(6), *h_row(1, 6), *h_reduced_row(1, 6)]
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
