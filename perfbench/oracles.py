"""Reference values the benchmark judges polyrad's outputs against.

Each formula here is coded from the mathematics, not from polyrad: exact
integer and rational products for the symbolic layer, ``math.gamma`` (polyrad
uses ``math.lgamma``) for the best constant, and the closed form of w_eps for
profile values.  The pass thresholds are the acceptance suite's, except for
the minimality probes, which are judged relative to S (see
``PROBE_REL_TOL``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

import numpy as np

#: |q - S| / S for a Rayleigh quotient of w_eps (suite criterion 6).
ATTAIN_REL_TOL = 1e-6
#: (S - q) / S for a perturbed profile.  The suite's check_minimality_probes
#: and the CLI's rayleigh --perturb use the absolute S - q <= 1e-6, which only
#: fits small S: S grows to 6e10 at m = 7 and 1e13 to 2e14 at m = 8, where a
#: relative roundoff of 2e-15 already exceeds 1e-6.
PROBE_REL_TOL = 1e-6
#: closed form against this module's gamma route.
BEST_CONSTANT_REL_TOL = 1e-12
#: quadrature route against the closed form (suite criterion 4).
QUADRATURE_ROUTE_REL_TOL = 1e-10
#: profile values on a grid against the closed form of w_eps.
PROFILE_REL_TOL = 1e-12
#: the two closed forms of S at m = 1 against each other, and S(1, 3)
#: against 4/sqrt(3) (suite criterion 4).
CLOSED_FORM_REL_TOL = 1e-12
#: quadrature of the gamma identity (suite criterion 5).
GAMMA_QUAD_REL_TOL = 1e-10
GAMMA_QUAD_ALPHA1_TOL = 1e-12
#: spread of the quotient over the dilations eps (suite criterion 6).
DILATION_SPREAD_TOL = 1e-8
#: max_rel_dev of each IVP case of suite criterion 8, keyed as its report.
CLASSIFICATION_TOLS = {"(m=2,alpha=4,eps=1)": 1e-6, "(m=1,alpha=3,eps=0.5)": 1e-6,
                       "(m=3,alpha=8,eps=1)": 1e-5}
#: suite thresholds for the regularity chain (criteria 9-11).
FIXED_POINT_TOL = 1e-3
#: the fixed-point residual of the 1.1 u profile must reach this.
SCALED_PROFILE_MIN = 0.01
INVERSE_TOL = 1e-4
DECAY_SLOPE_TOL = 0.05
ORIGIN_D1_TOL = 1e-3
ORIGIN_D3_TOL = 1e-2
ORIGIN_D2_TOL = 1e-3
#: the verdict a classification of exact w_eps data must return.
IVP_VERDICT = "coincides"


def poly_mul(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def p_coefficients(m: int) -> List[int]:
    """Coefficients, lowest degree first, of
    P(alpha, m) = prod_{h=-m}^{m-1} (alpha + 1 + 2h)."""
    out = [1]
    for h in range(-m, m):
        out = poly_mul(out, [1 + 2 * h, 1])
    return out


def p_value(m: int, alpha: float) -> float:
    """P(alpha, m) with exact rational arithmetic and one final rounding."""
    a = Fraction(alpha)
    out = Fraction(1)
    for h in range(-m, m):
        out *= a + 1 + 2 * h
    return float(out)


def g_value(i: int, j: int, m: int, alpha: int) -> Fraction:
    """G(i, j) = 2^i binom(j, i) K_j D(i, j) E(i, j) at an integer alpha."""
    if not 0 <= i <= j:
        return Fraction(0)
    k = math.prod(alpha - 2 * m + 1 + 2 * h for h in range(j))
    d = math.prod(m - h for h in range(j - i + 1, j + 1))
    e = math.prod(alpha + 1 + 2 * h for h in range(i, j))
    return Fraction(2 ** i * math.comb(j, i) * k * d * e)


def best_constant(m: int, alpha: float) -> float:
    """S = P [Gamma((alpha+1)/2)^2 / (2 Gamma(alpha+1))]^(2m/(alpha+1))."""
    bracket = math.gamma((alpha + 1.0) / 2.0) ** 2 / (2.0 * math.gamma(alpha + 1.0))
    return p_value(m, alpha) * bracket ** (2.0 * m / (alpha + 1.0))


def w_eps(m: int, alpha: float, eps: float, r: np.ndarray) -> np.ndarray:
    """w_eps(r) = P^(gap/(4m)) (eps / (eps^2 + r^2))^(gap/2), gap = alpha-2m+1."""
    gap = alpha - 2 * m + 1
    amplitude = p_value(m, alpha) ** (gap / (4.0 * m))
    return amplitude * (eps / (eps * eps + r * r)) ** (gap / 2.0)


def sup_rel_dev(got: np.ndarray, want: np.ndarray) -> float:
    """sup |got - want| / sup |want|."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def q_closed_form(k: int, m: int, alpha: float) -> float:
    """q_k = 2(alpha+1) / (alpha + 2m + 1 - 4k)."""
    return 2.0 * (alpha + 1.0) / (alpha + 2.0 * m + 1.0 - 4.0 * k)


def decay_exponent(k: int, alpha: float) -> float:
    """w_k ~ r^-(alpha + 1 - 2k) for the extremal chain, k >= 1."""
    return alpha + 1.0 - 2.0 * k
