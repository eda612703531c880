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

Each quantity is one function that returns the row the reports walk:
``e_row`` (E(i, j) times a given polynomial), ``g_row`` (G(i, j) for
0 <= i <= j), ``h_row`` (H(i, j) from its three-line definition for
0 <= i <= j+1) and ``h_reduced_row`` (the reduced closed forms of the four
index cases i = 0, 1 <= i <= j-1, i = j, i = j+1).  The reduced forms are a
separate row so that a transcription error in either form is caught by
comparing the two.

The top row collapses: G(0, m) equals the degree-2m product
P(alpha, m) = prod_{h=-m}^{m-1} (alpha + 1 + 2h) and G(i, m) = 0 for i >= 1,
which is what makes the profile an exact eigenfunction-like solution.

Cost: each row builds its E(i, j) or K_j E(i, j) entries once, each entry
its neighbour times a linear factor, so ``CoeffTable.build``,
``recursion_report`` and ``top_row_report`` cost O(m^3) products where
rebuilding them for every (i, j) cost O(m^4).  Nothing outlives a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul
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


def e_row(j: int, p: AlphaPoly) -> list:
    """[p E(0, j), ..., p E(j, j)], each the next one times a linear factor
    (E(i, j) = (alpha + 1 + 2i) E(i+1, j))."""
    factors = (AlphaPoly.linear(1, 1 + 2 * i) for i in range(j - 1, -1, -1))
    return list(accumulate(factors, mul, initial=p))[::-1]


def k_factor(j: int, m: int) -> AlphaPoly:
    """K_j = prod_{h=0}^{j-1} (alpha - 2m + 1 + 2h); the empty product is 1."""
    if not 0 <= j <= m:
        raise ValueError(f"need 0 <= j <= m, got j={j}, m={m}")
    out = AlphaPoly.one()
    for h in range(j):
        out = out * AlphaPoly.linear(1, -2 * m + 1 + 2 * h)
    return out


def g_row(j: int, m: int) -> list:
    """[G(0, j), ..., G(j, j)] with G(i, j) = 2^i binom(j, i) K_j D(i, j) E(i, j)."""
    if not 1 <= j <= m:
        raise ValueError(f"need 1 <= j <= m, got j={j}, m={m}")
    return [(2 ** i * math.comb(j, i) * d_factor(i, j, m)) * ke
            for i, ke in enumerate(e_row(j, k_factor(j, m)))]


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


def h_row(j: int, m: int) -> list:
    """[H(0, j), ..., H(j+1, j)] from the three-line definition at
    sigma = alpha - 2m + 1 + 4j:

        H(i, j) = 2^(i-1) binom(j, i-1) D(i-1, j) E(i-1, j) A(2i-2, alpha, sigma)
                + 2^i     binom(j, i)   D(i, j)   E(i, j)   B(2i,   alpha, sigma)
                + 2^(i+1) binom(j, i+1) D(i+1, j) E(i+1, j) C(2i+2, alpha),

    where line i' of the row, for 0 <= i' <= j, feeds A to H(i'+1, j), B to
    H(i', j) and C to H(i'-1, j).
    """
    if not 1 <= j < m:
        raise ValueError(f"need 1 <= j < m, got j={j}, m={m}")
    sigma = induction_sigma(j, m)
    row = [AlphaPoly.zero()] * (j + 2)
    for ii, e in enumerate(e_row(j, AlphaPoly.one())):
        line = (2 ** ii * math.comb(j, ii) * d_factor(ii, j, m)) * e
        for i, piece in zip((ii + 1, ii, ii - 1), abc_coefficients(2 * ii, sigma)):
            if i >= 0:
                row[i] = row[i] + line * piece
    return row


# ---------------------------------------------------------------------------
# Reduced case forms of H (cases i=0, 1<=i<=j-1, i=j, i=j+1)
# ---------------------------------------------------------------------------


def lmq_bracket(j: int, m: int) -> AlphaPoly:
    """(alpha+1)^2 L_j + (alpha+1) M_j + Q_j with
    L_j = -(j+1)(m-j-1),  M_j = 2(j+1)(m-j-1)(m-2j),
    Q_j = 4j(j+1)(m-j-1)(m-j)."""
    l = -(j + 1) * (m - j - 1)
    mm = 2 * (j + 1) * (m - j - 1) * (m - 2 * j)
    q = 4 * j * (j + 1) * (m - j - 1) * (m - j)
    ap1 = AlphaPoly.linear(1, 1)
    return l * (ap1 * ap1) + mm * ap1 + AlphaPoly.constant(q)


def lmq_product_form(j: int, m: int) -> AlphaPoly:
    """-(j+1)(m-j-1)(alpha + 2j + 1)(alpha - 2m + 2j + 1); equals the
    bracket for every j, m."""
    factor = -(j + 1) * (m - j - 1)
    return factor * (
        AlphaPoly.linear(1, 2 * j + 1) * AlphaPoly.linear(1, -2 * m + 2 * j + 1)
    )


def h_reduced_row(j: int, m: int) -> list:
    """[H(0, j), ..., H(j+1, j)] from the closed forms of the cases i = 0,
    1 <= i <= j-1, i = j (the L/M/Q bracket) and i = j+1."""
    if not 1 <= j < m:
        raise ValueError(f"need 1 <= j < m, got j={j}, m={m}")
    e_next = e_row(j + 1, AlphaPoly.one())
    s = AlphaPoly.linear(1, -2 * m + 2 * j + 1)
    return [
        -(e_next[0] * s),
        *(-(2 ** i * math.comb(j + 1, i) * d_factor(i, j + 1, m)) * (s * e_next[i])
          for i in range(1, j)),
        (2 ** j * d_factor(j - 1, j, m)) * lmq_bracket(j, m),
        -(2 ** (j + 1) * d_factor(j, j, m) * (m - j - 1)) * s,
    ]


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
        g = {(i, j): gij for j in range(1, m + 1) for i, gij in enumerate(g_row(j, m))}
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
        want = table.expansion_expr(j)
        ok = lhs == want  # canonical forms: equal iff the difference is zero
        checks.append(ExpansionCheck(j=j, ok=ok, diff=None if ok else (lhs - want).to_json()))
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
    k = [k_factor(j, m) for j in range(m + 1)]
    for j in range(1, m):
        kj = k[j]
        if k[j + 1] != kj * AlphaPoly.linear(1, -2 * m + 1 + 2 * j):
            failures.append(f"K-recursion at j={j}")
        if lmq_bracket(j, m) != lmq_product_form(j, m):
            failures.append(f"L/M/Q bracket at j={j}")
        rows = zip(g_row(j + 1, m), h_row(j, m), h_reduced_row(j, m), strict=True)
        for i, (g, h, h_reduced) in enumerate(rows):
            if g != -(kj * h):
                failures.append(f"G(i,j+1) = -K_j H(i,j) at i={i}, j={j}")
            if h != h_reduced:
                failures.append(f"case-reduced H at i={i}, j={j}")
    return {"m": m, "passed": not failures, "failures": failures}


def top_row_report(m: int) -> dict:
    """G(0, m) = P(alpha, m) and G(i, m) = 0 for 1 <= i <= m, exactly."""
    top = g_row(m, m)
    failures = ["G(0,m) != P"] if top[0] != p_constant(m) else []
    failures += [f"G({i},{m}) != 0" for i in range(1, m + 1) if not top[i].is_zero]
    return {"m": m, "passed": not failures, "failures": failures}
