"""Special functions and closed-form best constants.

The best constant of the weighted embedding, under the condition
alpha - 2m + 1 > 0, is

    S^(-1/2) = P^(-1/2) * [ 2 Gamma(alpha+1) / Gamma((alpha+1)/2)^2 ]^(m/(alpha+1))

with P = prod_{h=-m}^{m-1} (alpha + 1 + 2h).  Equivalently

    S = P * [ Gamma((alpha+1)/2)^2 / (2 Gamma(alpha+1)) ]^(2m/(alpha+1)),

where the bracket is the exact value of the improper integral
int_0^inf r^alpha (1+r^2)^(-(alpha+1)) dr, which the quadrature route in
:mod:`polyrad.functionals` evaluates directly as a cross-check.  P itself is
formed in integers from the exact ratio of the float alpha and rounded once
(:func:`p_value`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import p_shifts
from .errors import DomainError

#: Relative accuracy assumed for a single gamma evaluation when propagating
#: error estimates.  The platform implementation is comfortably better than
#: the 1e-13 contract on [0.5, 60].
GAMMA_EPS = 1e-14


def beta_integral(x: float, y: float) -> float:
    """Gamma(x) Gamma(y) / Gamma(x + y), the value of
    int_0^inf s^(x-1) (1+s)^(-(x+y)) ds for x, y > 0."""
    if not (x > 0 and y > 0):
        raise DomainError(f"beta_integral requires positive arguments, got ({x!r}, {y!r})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def sobolev_gap(m: int, alpha: float) -> float:
    """alpha - 2m + 1; positive in the embedding regime."""
    return alpha - 2 * m + 1


def require_sobolev(m: int, alpha: float) -> None:
    if m < 1:
        raise DomainError(f"m must be a positive integer, got {m}")
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    if not sobolev_gap(m, alpha) > 0:
        raise DomainError(
            f"Sobolev condition violated: alpha - 2m + 1 = {sobolev_gap(m, alpha):g} <= 0 "
            f"(m={m}, alpha={alpha:g})"
        )


def critical_exponent(m: int, alpha: float) -> float:
    """2* = 2 (alpha + 1) / (alpha - 2m + 1)."""
    require_sobolev(m, alpha)
    return 2.0 * (alpha + 1.0) / sobolev_gap(m, alpha)


def p_value(m: int, alpha: float) -> float:
    """P(alpha, m) at the float alpha with one rounding, so no cancellation
    occurs for large m.  With alpha = n/d exactly, the product of the 2m
    integers n + (1 + 2h) d is divided by d^(2m) once; int/int division
    rounds correctly, so this is the float of the exact rational P.  Raises
    DomainError when P exceeds the float range or alpha is infinite, and
    ValueError when alpha is NaN."""
    try:
        n, d = float(alpha).as_integer_ratio()
        return math.prod(n + s * d for s in p_shifts(m)) / d ** (2 * m)
    except OverflowError:
        raise DomainError(f"P(alpha, m) overflows a float at m={m}, alpha={alpha!r}") from None


@dataclass(frozen=True)
class BestConstantResult:
    m: int
    alpha: float
    S: float
    S_inv_sqrt: float
    route: str  # "closed_form" | "quadrature"
    err_estimate: float

    def __post_init__(self):
        if not self.S > 0:
            raise DomainError("result requires S > 0")

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "alpha": self.alpha,
            "S": self.S,
            "S_inv_sqrt": self.S_inv_sqrt,
            "route": self.route,
            "err_estimate": self.err_estimate,
        }


def best_constant(m: int, alpha: float, route: str = "closed_form") -> BestConstantResult:
    """Best-constant pair (S, S^(-1/2)) for given (m, alpha).

    ``route="closed_form"`` uses the gamma-function formula;
    ``route="quadrature"`` replaces the gamma bracket by exp-sinh quadrature
    of the defining improper integral (cross-check path); it raises
    DomainError when that integral, about 2^-alpha, is below the smallest
    normal float (alpha above about 1015), where its relative accuracy is
    gone.
    """
    require_sobolev(m, alpha)
    p = p_value(m, alpha)
    expo = 2.0 * m / (alpha + 1.0)
    if route == "closed_form":
        # bracket = Gamma((alpha+1)/2)^2 / (2 Gamma(alpha+1)), via lgamma
        log_bracket = 2.0 * math.lgamma((alpha + 1.0) / 2.0) - math.log(2.0) \
            - math.lgamma(alpha + 1.0)
        s = p * math.exp(expo * log_bracket)
        # three gamma evaluations, one exp/pow; P itself is exact
        err = s * (3.0 * expo + 1.0) * GAMMA_EPS
    elif route == "quadrature":
        from . import functionals  # local import to avoid a module cycle

        def integrand(r: np.ndarray) -> np.ndarray:
            # log form keeps r^alpha finite for large alpha
            return np.exp(alpha * np.log(r) - (alpha + 1.0) * np.log1p(r * r))

        report = functionals.improper_integral(integrand, origin_power=alpha,
                                               tail_power=-alpha - 2.0)
        if report.value < np.finfo(float).tiny:
            raise DomainError(f"the quadrature integral {report.value!r} is below "
                              f"the smallest normal float at alpha={alpha!r}")
        s = p * report.value ** expo
        err = s * expo * (report.err_estimate / report.value)
    else:
        raise ValueError(f"unknown route {route!r}")
    return BestConstantResult(
        m=m,
        alpha=float(alpha),
        S=s,
        S_inv_sqrt=s ** -0.5,
        route=route,
        err_estimate=err,
    )


def bliss_m1_inv_sqrt(alpha: float) -> float:
    """The first-order closed form written literally:
    [(alpha-1)(alpha+1)]^(-1/2) [2 Gamma(alpha+1) / Gamma((alpha+1)/2)^2]^(1/(alpha+1)).

    Kept separate from :func:`best_constant` so the m = 1 consistency check
    compares two independently coded expressions.
    """
    require_sobolev(1, alpha)
    p = (alpha - 1.0) * (alpha + 1.0)
    bracket = 2.0 * math.gamma(alpha + 1.0) / math.gamma((alpha + 1.0) / 2.0) ** 2
    return p ** -0.5 * bracket ** (1.0 / (alpha + 1.0))
