"""Weighted norms, Rayleigh quotients and the extremal profile family.

Improper integrals over (0, inf) are evaluated by adaptive Gauss-Kronrod
quadrature on [0, split] plus the inversion substitution r -> 1/u for the
tail, which turns the algebraically decaying integrands of this calculus
into smooth integrands on a finite interval.

Radial profiles carry their symbolic structure: a profile is a finite sum of
pieces ``coeff * expr(alpha; r / scale)`` with ``expr`` in the exact term
algebra of :mod:`polyrad.radial`.  Because the weighted Laplacian scales as
``Delta_alpha [f(./eps)](r) = eps^-2 (Delta_alpha f)(r/eps)`` (and d/dr as
eps^-1), the m-th order gradient of a piece is again a piece with the same
scale and the coefficient multiplied by scale^-m.  This gives every profile
an exact derivative chain at numeric alpha, which is how seminorms of the
extremal family

    w_eps(r) = P^((alpha-2m+1)/(4m)) * (eps / (eps^2 + r^2))^((alpha-2m+1)/2)

are computed (the amplitude P^(...) is irrational, so it lives in the float
coefficient, never in the rational algebra).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import integrate as _integrate

from .coefficients import base_profile_expr
from .constants import critical_exponent, p_value, require_sobolev, sobolev_gap
from .errors import (
    DivisionGuardError,
    DomainError,
    NonConvergenceError,
    UnsupportedProfileError,
)
from .radial import ExponentAffine, RadialExpr, nabla_m


#: Accuracy contract of every improper integral: quad's relative and absolute
#: tolerances and subdivision limit, and the split point of the r -> 1/r tail
#: transform.  ``rayleigh_quotient`` also refuses a profile norm below
#: QUAD_ABS_TOL.
QUAD_REL_TOL = 1e-10
QUAD_ABS_TOL = 1e-14
QUAD_MAX_SUBDIVISIONS = 2000
QUAD_SPLIT_POINT = 1.0


@dataclass(frozen=True)
class NormReport:
    value: float
    err_estimate: float

    def __post_init__(self):
        if self.err_estimate < 0:
            raise ValueError("error estimate must be nonnegative")


# ---------------------------------------------------------------------------
# Radial profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfilePiece:
    """coeff * expr(alpha; r / scale)."""

    coeff: float
    expr: RadialExpr
    scale: float = 1.0


@dataclass(frozen=True)
class RadialProfile:
    """A radial function: a sum of symbolic pieces bound to a numeric alpha,
    with an optional declared tail decay exponent."""

    alpha: float
    pieces: Tuple[ProfilePiece, ...] = ()
    decay_exponent: Optional[float] = None  # |f(r)| ~ r^-decay for large r

    @classmethod
    def from_expr(cls, expr: RadialExpr, alpha: float, coeff: float = 1.0,
                  scale: float = 1.0, decay_exponent: Optional[float] = None
                  ) -> "RadialProfile":
        return cls(alpha=float(alpha),
                   pieces=(ProfilePiece(float(coeff), expr, float(scale)),),
                   decay_exponent=decay_exponent)

    @classmethod
    def zero(cls, alpha: float) -> "RadialProfile":
        return cls(alpha=float(alpha), decay_exponent=np.inf)

    def __call__(self, r):
        if not self.pieces:
            return np.zeros_like(np.asarray(r, dtype=float)) if np.ndim(r) else 0.0
        total = 0.0
        for p in self.pieces:
            total = total + p.coeff * p.expr.evaluate(self.alpha, r / p.scale)
        return total

    def nabla(self, m: int) -> "RadialProfile":
        """The m-th order gradient as a profile, through the exact symbolic
        chain.  Raises DomainError when a piece's coefficient times scale^-m
        leaves the float range."""
        pieces = []
        for p in self.pieces:
            try:
                coeff = p.coeff * p.scale ** (-m)
            except OverflowError:
                coeff = math.inf
            if not math.isfinite(coeff):
                raise DomainError(f"gradient coefficient {p.coeff!r} * {p.scale!r}^-{m} "
                                  "is not a finite float")
            pieces.append(ProfilePiece(coeff, nabla_m(p.expr, m), p.scale))
        decay = None if self.decay_exponent is None else self.decay_exponent + m
        return RadialProfile(alpha=self.alpha, pieces=tuple(pieces), decay_exponent=decay)

    def __add__(self, other: "RadialProfile") -> "RadialProfile":
        if not isinstance(other, RadialProfile):
            return NotImplemented
        if self.alpha != other.alpha:
            raise DomainError("cannot add profiles bound to different alpha")
        decays = [d for d in (self.decay_exponent, other.decay_exponent) if d is not None]
        return RadialProfile(
            alpha=self.alpha,
            pieces=self.pieces + other.pieces,
            decay_exponent=min(decays) if len(decays) == 2 else None,
        )

    def __mul__(self, scalar) -> "RadialProfile":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return RadialProfile(
            alpha=self.alpha,
            pieces=tuple(ProfilePiece(scalar * p.coeff, p.expr, p.scale)
                         for p in self.pieces),
            decay_exponent=self.decay_exponent,
        )

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Extremal family
# ---------------------------------------------------------------------------


def bliss_amplitude(m: int, alpha: float, eps: float) -> float:
    """w_eps(0) = P^((alpha-2m+1)/(4m)) * eps^(-(alpha-2m+1)/2).  Raises
    DomainError when it is not a positive finite float."""
    require_sobolev(m, alpha)
    if not 0 < eps < math.inf:
        raise DomainError(f"dilation parameter must be positive and finite, got {eps!r}")
    gap = sobolev_gap(m, alpha)
    try:
        amp = p_value(m, alpha) ** (gap / (4.0 * m)) * eps ** (-gap / 2.0)
    except OverflowError:
        amp = math.inf
    if not 0 < amp < math.inf:
        raise DomainError(f"amplitude w_eps(0) = {amp!r} is outside the float range "
                          f"at m={m}, alpha={alpha!r}, eps={eps!r}")
    return amp


def bliss_profile(m: int, alpha: float, eps: float) -> RadialProfile:
    """The extremal profile w_eps, with its exact derivative chain via the
    dilation scaling laws."""
    amp = bliss_amplitude(m, alpha, eps)
    return RadialProfile.from_expr(
        base_profile_expr(m), alpha, coeff=amp, scale=eps,
        decay_exponent=sobolev_gap(m, alpha),
    )


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

_BENIGN_QUAD = "roundoff error is detected"


def _quad(func, lo: float, hi: float) -> Tuple[float, float]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _integrate.IntegrationWarning)
        out = _integrate.quad(
            func, lo, hi,
            epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL,
            limit=QUAD_MAX_SUBDIVISIONS, full_output=1,
        )
    if len(out) > 3:
        message = out[3]
        if _BENIGN_QUAD not in message:
            raise NonConvergenceError(
                f"quadrature on [{lo:g}, {hi:g}] did not converge: {message.strip()}"
            )
    return out[0], out[1]


def _check_tail_decay(g, split: float) -> None:
    """Reject tails that decay no faster than 1/r.

    The integrands of this calculus have algebraic tails, so the log-log
    slope over geometrically growing radii is a reliable integrability
    probe; it catches divergent cases that float underflow would otherwise
    disguise as convergent.
    """
    prev = None
    slope = None
    for k in range(1, 8):
        r = split * 10.0 ** k
        try:
            v = abs(g(r))
        except OverflowError:
            raise NonConvergenceError(
                f"integrand overflows at r={r:g}; tail not integrable as written"
            ) from None
        if v == 0.0 or not math.isfinite(v):
            return  # decayed below floating range (or NaN: leave to quad)
        if prev is not None:
            slope = (math.log(v) - math.log(prev)) / math.log(10.0)
            if slope < -1.5:
                return  # clearly integrable already
        prev = v
    if slope is None or slope > -1.02:
        raise NonConvergenceError(
            "integrand tail decays like r^-p with p <= 1; integral diverges "
            f"(measured log-log slope {slope if slope is not None else 'n/a'})"
        )


def improper_integral(f) -> NormReport:
    """int_0^inf f(r) dr by adaptive quadrature on [0, split] plus the
    transformed tail int_0^(1/split) f(1/u) u^-2 du.

    ``f`` may be a plain callable or a :class:`RadialProfile` used as the
    integrand.  Divergent or pathological integrands surface as
    :class:`NonConvergenceError`.
    """
    g = f if callable(f) else None
    if g is None:
        raise TypeError(f"integrand must be callable, got {type(f).__name__}")
    c = QUAD_SPLIT_POINT
    _check_tail_decay(g, c)
    head_val, head_err = _quad(g, 0.0, c)
    tail_val, tail_err = _quad(lambda u: g(1.0 / u) / (u * u), 0.0, 1.0 / c)
    return NormReport(value=head_val + tail_val, err_estimate=head_err + tail_err)


def _weighted_power_integral(f, q: float, theta: float) -> NormReport:
    """int_0^inf |f(r)|^q r^theta dr."""
    def integrand(r: float) -> float:
        return abs(f(r)) ** q * r ** theta

    return improper_integral(integrand)


def weighted_lebesgue_norm(f, q: float, theta: float) -> NormReport:
    """( int_0^inf |f|^q r^theta dr )^(1/q) for q >= 1, theta > -1."""
    if q < 1:
        raise DomainError(f"Lebesgue exponent must be >= 1, got {q!r}")
    if theta <= -1:
        raise DomainError(f"weight exponent must exceed -1, got {theta!r}")
    report = _weighted_power_integral(f, q, theta)
    if report.value <= 0.0:
        return NormReport(value=0.0, err_estimate=report.err_estimate ** (1.0 / q))
    value = report.value ** (1.0 / q)
    return NormReport(value=value,
                      err_estimate=value * report.err_estimate / (q * report.value))


def gradient_seminorm(f: RadialProfile, m: int, alpha: float) -> NormReport:
    """( int_0^inf |nabla_m f|^2 r^alpha dr )^(1/2) through the symbolic
    derivative chain of ``f``."""
    _check_profile_alpha(f, alpha)
    return weighted_lebesgue_norm(f.nabla(m), 2.0, alpha)


def rayleigh_quotient(f: RadialProfile, m: int, alpha: float) -> float:
    """||nabla_m f||^2_{L^2_alpha} / ||f||^2_{L^{2*}_alpha}."""
    _check_profile_alpha(f, alpha)
    two_star = critical_exponent(m, alpha)
    num = _weighted_power_integral(f.nabla(m), 2.0, alpha).value
    den_q = _weighted_power_integral(f, two_star, alpha).value
    if den_q ** (1.0 / two_star) < QUAD_ABS_TOL:
        raise DivisionGuardError(
            f"profile norm {den_q ** (1.0 / two_star):.3e} below QUAD_ABS_TOL; "
            "Rayleigh quotient undefined"
        )
    return num / den_q ** (2.0 / two_star)


def _check_profile_alpha(f: RadialProfile, alpha: float) -> None:
    if not isinstance(f, RadialProfile):
        raise UnsupportedProfileError(
            f"gradient operations need a RadialProfile, got {type(f).__name__}"
        )
    if abs(f.alpha - alpha) > 1e-12 * max(1.0, abs(alpha)):
        raise DomainError(
            f"profile is bound to alpha={f.alpha!r}, operation requested alpha={alpha!r}"
        )


# ---------------------------------------------------------------------------
# Versioned perturbation directions for minimality probes
# ---------------------------------------------------------------------------

#: Ten fixed directions phi = r^(2a) (1+r^2)^(-(alpha-2m+1+2b)/2), indexed by
#: (a, b).  All decay at least as fast as the extremal profile and are smooth
#: and even at the origin, so they live in the energy space.  Versioned: do
#: not reorder or edit entries, append only.
PERTURBATION_DIRECTIONS: Tuple[Tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 1),
    (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
)


def perturbation_direction(index: int, m: int, alpha: float) -> RadialProfile:
    """The index-th versioned probe direction as a symbolic profile."""
    require_sobolev(m, alpha)
    a, b = PERTURBATION_DIRECTIONS[index]
    expr = RadialExpr.single(1, 2 * a, ExponentAffine(1, 1 - 2 * m + 2 * b))
    return RadialProfile.from_expr(
        expr, alpha, decay_exponent=sobolev_gap(m, alpha) + 2 * (b - a)
    )
