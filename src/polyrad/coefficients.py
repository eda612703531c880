"""Exact combinatorial coefficients of the polyharmonic expansion.

For the profile u(r) = (1+r^2)^(-(alpha-2m+1)/2) the iterated operator
(-Delta_alpha)^j u expands as

    (1+r^2)^(-(alpha-2m+1+4j)/2) * sum_{i=0}^{j} G(i, j) r^(2i)

with

    G(i, j) = 2^i binom(j, i) K_j D(i, j) E(i, j),
    D(i, j) = prod_{h=j-i+1}^{j} (m - h)          (1 for i = 0, 0 outside),
    E(i, j) = prod_{h=i}^{j-1} (alpha + 1 + 2h)   (1 for i = j, 0 outside),
    K_j     = prod_{h=0}^{j-1} (alpha - 2m + 1 + 2h).

The induction from j to j+1 combines one Laplacian application with the
three-line quantity H(i, j) built from the A/B/C polynomials at
sigma = alpha - 2m + 1 + 4j, and satisfies the exact recursion

    G(i, j+1) = -K_j * H(i, j).

H is implemented here directly from its three-line definition; the reduced
closed forms of the four index cases (i = 0, 1 <= i <= j-1, i = j, i = j+1)
are provided separately so that a transcription error in either form is
caught by comparing them.

The top row collapses: G(0, m) equals the degree-2m product
P(alpha, m) = prod_{h=-m}^{m-1} (alpha + 1 + 2h) and G(i, m) = 0 for i >= 1,
which is what makes the profile an exact eigenfunction-like solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .errors import DomainError
from .radial import (
    AlphaPoly,
    ExponentAffine,
    RadialExpr,
    RadialTerm,
    abc_coefficients,
    apply_polyharmonic,
)


def binomial(j: int, i: int) -> int:
    """Binomial coefficient with the zero convention outside 0 <= i <= j."""
    if i < 0 or i > j:
        return 0
    return math.comb(j, i)


def d_factor(i: int, j: int, m: int) -> int:
    """D(i, j): 1 at i = 0, prod_{h=j-i+1}^{j} (m-h) for 1 <= i <= j,
    zero outside."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if i < 0 or i >= j + 1:
        return 0
    if i == 0:
        return 1
    out = 1
    for h in range(j - i + 1, j + 1):
        out *= m - h
    return out


def e_factor(i: int, j: int) -> AlphaPoly:
    """E(i, j): prod_{h=i}^{j-1} (alpha + 1 + 2h), 1 at i = j, zero outside."""
    if i < 0 or i >= j + 1:
        return AlphaPoly.zero()
    out = AlphaPoly.one()
    for h in range(i, j):
        out = out * AlphaPoly.linear(1, 1 + 2 * h)
    return out


def k_factor(j: int, m: int) -> AlphaPoly:
    """K_j = prod_{h=0}^{j-1} (alpha - 2m + 1 + 2h); the empty product is 1."""
    if not 0 <= j <= m:
        raise ValueError(f"need 0 <= j <= m, got j={j}, m={m}")
    out = AlphaPoly.one()
    for h in range(j):
        out = out * AlphaPoly.linear(1, -2 * m + 1 + 2 * h)
    return out


def g_coefficient(i: int, j: int, m: int) -> AlphaPoly:
    """G(i, j) = 2^i binom(j, i) K_j D(i, j) E(i, j)."""
    if not 1 <= j <= m:
        raise ValueError(f"need 1 <= j <= m, got j={j}, m={m}")
    b = binomial(j, i)
    d = d_factor(i, j, m)
    if b == 0 or d == 0:
        return AlphaPoly.zero()
    return (Fraction(2) ** i * b * d) * (k_factor(j, m) * e_factor(i, j))


def p_constant(m: int) -> AlphaPoly:
    """P(alpha, m) = prod_{h=-m}^{m-1} (alpha + 1 + 2h), degree 2m."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    out = AlphaPoly.one()
    for h in range(-m, m):
        out = out * AlphaPoly.linear(1, 1 + 2 * h)
    return out


def induction_sigma(j: int, m: int) -> ExponentAffine:
    """The exponent sigma = alpha - 2m + 1 + 4j entering the j -> j+1 step."""
    return ExponentAffine(1, 1 - 2 * m + 4 * j)


def h_coefficient(i: int, j: int, m: int) -> AlphaPoly:
    """H(i, j) from its three-line definition at sigma = alpha - 2m + 1 + 4j:

        2^(i-1) binom(j, i-1) D(i-1, j) E(i-1, j) A(2i-2, alpha, sigma)
      + 2^i     binom(j, i)   D(i, j)   E(i, j)   B(2i,   alpha, sigma)
      + 2^(i+1) binom(j, i+1) D(i+1, j) E(i+1, j) C(2i+2, alpha).
    """
    if not 1 <= j < m:
        raise ValueError(f"need 1 <= j < m, got j={j}, m={m}")
    if not 0 <= i <= j + 1:
        raise ValueError(f"need 0 <= i <= j+1, got i={i}, j={j}")
    sigma = induction_sigma(j, m)
    out = AlphaPoly.zero()
    for offset in (-1, 0, 1):
        ii = i + offset
        weight = Fraction(2) ** ii * binomial(j, ii) * d_factor(ii, j, m)
        if weight == 0:
            continue
        a, b, c = abc_coefficients(2 * ii, sigma)
        piece = (a, b, c)[offset + 1]  # offset -1 -> A, 0 -> B, +1 -> C
        out = out + weight * (e_factor(ii, j) * piece)
    return out


# ---------------------------------------------------------------------------
# Reduced case forms of H (cases i=0, 1<=i<=j-1, i=j, i=j+1)
# ---------------------------------------------------------------------------


def lmq_values(j: int, m: int) -> Tuple[int, int, int]:
    """The bracket coefficients of the middle cases:
    L_j = -(j+1)(m-j-1),  M_j = 2(j+1)(m-j-1)(m-2j),
    Q_j = 4j(j+1)(m-j-1)(m-j)."""
    l = -(j + 1) * (m - j - 1)
    mm = 2 * (j + 1) * (m - j - 1) * (m - 2 * j)
    q = 4 * j * (j + 1) * (m - j - 1) * (m - j)
    return l, mm, q


def lmq_bracket(j: int, m: int) -> AlphaPoly:
    """(alpha+1)^2 L_j + (alpha+1) M_j + Q_j."""
    l, mm, q = lmq_values(j, m)
    ap1 = AlphaPoly.linear(1, 1)
    return l * (ap1 * ap1) + mm * ap1 + AlphaPoly.constant(q)


def lmq_product_form(j: int, m: int) -> AlphaPoly:
    """-(j+1)(m-j-1)(alpha + 2j + 1)(alpha - 2m + 2j + 1); equals the
    bracket for every j, m."""
    factor = -(j + 1) * (m - j - 1)
    return factor * (
        AlphaPoly.linear(1, 2 * j + 1) * AlphaPoly.linear(1, -2 * m + 2 * j + 1)
    )


def h_case_reduced(i: int, j: int, m: int) -> AlphaPoly:
    """The case-reduced closed form of H(i, j)."""
    if not 1 <= j < m:
        raise ValueError(f"need 1 <= j < m, got j={j}, m={m}")
    if i == 0:
        return -(e_factor(0, j + 1) * AlphaPoly.linear(1, 1 - 2 * m + 2 * j))
    if 1 <= i <= j - 1:
        w = Fraction(2) ** i * binomial(j + 1, i) * d_factor(i, j + 1, m)
        return -w * (AlphaPoly.linear(1, -2 * m + 2 * j + 1) * e_factor(i, j + 1))
    if i == j:
        return (Fraction(2) ** j * d_factor(j - 1, j, m)) * lmq_bracket(j, m)
    if i == j + 1:
        w = Fraction(2) ** (j + 1) * d_factor(j, j, m) * (m - j - 1)
        return -w * AlphaPoly.linear(1, -2 * m + 2 * j + 1)
    raise ValueError(f"need 0 <= i <= j+1, got i={i}, j={j}")


# ---------------------------------------------------------------------------
# Table and verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoeffTable:
    """Exact G coefficient table for fixed m: entries G(i, j) for
    1 <= j <= m and 0 <= i <= j."""

    m: int
    g: Dict[Tuple[int, int], AlphaPoly] = field(repr=False)

    @classmethod
    def build(cls, m: int) -> "CoeffTable":
        if m < 1:
            raise DomainError(f"m must be >= 1, got {m}")
        g = {(i, j): g_coefficient(i, j, m)
             for j in range(1, m + 1) for i in range(j + 1)}
        return cls(m=m, g=g)

    def with_g_entry(self, i: int, j: int, poly: AlphaPoly) -> "CoeffTable":
        """Copy with one G entry replaced (fault injection in tests)."""
        g = dict(self.g)
        g[i, j] = poly
        return CoeffTable(m=self.m, g=g)

    def expansion_expr(self, j: int) -> RadialExpr:
        """(1+r^2)^(-(alpha-2m+1+4j)/2) * sum_i G(i, j) r^(2i) as a
        canonical expression."""
        if not 1 <= j <= self.m:
            raise ValueError(f"need 1 <= j <= m, got j={j}, m={self.m}")
        sigma = induction_sigma(j, self.m)
        return RadialExpr(
            RadialTerm(self.g[i, j], 2 * i, sigma) for i in range(j + 1)
        )

    def to_json_obj(self) -> dict:
        entries = [
            {"i": i, "j": j, "coeff": self.g[i, j].to_strings()}
            for j in range(1, self.m + 1)
            for i in range(j + 1)
        ]
        return {"m": self.m, "g_entries": entries}


def base_profile_expr(m: int) -> RadialExpr:
    """The unit-amplitude profile (1+r^2)^(-(alpha-2m+1)/2)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return RadialExpr.single(1, 0, ExponentAffine(1, 1 - 2 * m))


@dataclass(frozen=True)
class ExpansionCheck:
    j: int
    ok: bool
    diff: Optional[str]  # serialized difference expression when not ok


@dataclass(frozen=True)
class ExpansionReport:
    m: int
    checks: Tuple[ExpansionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "passed": self.passed,
            "checks": [
                {"j": c.j, "ok": c.ok, **({"diff": c.diff} if c.diff else {})}
                for c in self.checks
            ],
        }


def verify_expansion(m: int, table: Optional[CoeffTable] = None) -> ExpansionReport:
    """Symbolically apply (-Delta_alpha)^j to the base profile for each
    j = 1..m and assert exact coefficient-by-coefficient equality with the
    tabulated expansion.  A failure reports the nonzero difference."""
    if table is None:
        table = CoeffTable.build(m)
    u = base_profile_expr(m)
    checks = []
    lhs = u
    for j in range(1, m + 1):
        lhs = apply_polyharmonic(lhs, 1, signed=True)
        lhs.require_nonnegative_powers()
        diff = lhs - table.expansion_expr(j)
        checks.append(
            ExpansionCheck(j=j, ok=diff.is_zero, diff=None if diff.is_zero else diff.to_json())
        )
    return ExpansionReport(m=m, checks=tuple(checks))


def recursion_report(m: int) -> dict:
    """Exact checks of the induction identity and its reduced forms:

    - G(i, j+1) = -K_j H(i, j) for all 0 <= i <= j+1, 1 <= j < m;
    - the four case-reduced forms reproduce the three-line H;
    - K_{j+1} = (alpha - 2m + 1 + 2j) K_j;
    - the bracket (alpha+1)^2 L_j + (alpha+1) M_j + Q_j equals its product
      form.
    """
    failures = []
    for j in range(1, m):
        kj = k_factor(j, m)
        if k_factor(j + 1, m) != kj * AlphaPoly.linear(1, -2 * m + 1 + 2 * j):
            failures.append(f"K-recursion at j={j}")
        if lmq_bracket(j, m) != lmq_product_form(j, m):
            failures.append(f"L/M/Q bracket at j={j}")
        for i in range(0, j + 2):
            h = h_coefficient(i, j, m)
            if g_coefficient(i, j + 1, m) != -(kj * h):
                failures.append(f"G(i,j+1) = -K_j H(i,j) at i={i}, j={j}")
            if h != h_case_reduced(i, j, m):
                failures.append(f"case-reduced H at i={i}, j={j}")
    return {"m": m, "passed": not failures, "failures": failures}


def top_row_report(m: int) -> dict:
    """G(0, m) = P(alpha, m) and G(i, m) = 0 for 1 <= i <= m, exactly."""
    failures = []
    if g_coefficient(0, m, m) != p_constant(m):
        failures.append("G(0,m) != P")
    for i in range(1, m + 1):
        if not g_coefficient(i, m, m).is_zero:
            failures.append(f"G({i},{m}) != 0")
    return {"m": m, "passed": not failures, "failures": failures}
