"""Weighted norms, Rayleigh quotients and the extremal profile family.

Improper integrals over (0, inf) are evaluated by the exp-sinh rule of
Takahasi and Mori (Publ. RIMS 9, 1974): the substitution r = exp(pi/2 sinh t)
turns the algebraic decay of this calculus' integrands at 0 and at infinity
into double-exponential decay in t, so the trapezoid rule in t on a fixed
window converges geometrically in the step.  Each level is one numpy call on
an array of radii; halving the step reuses every node, and the difference of
two successive sums is the error estimate (Bailey, Jeyabalan and Li, Exp.
Math. 14, 2005).  Past the window the sum goes on in closed form along the
integrand's power law at 0 and at infinity, which every caller states (a
profile's exact terms give it), so slowly decaying tails (small Sobolev
gaps) are summed, not cut.

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
coefficient, never in the exact integer algebra).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .coefficients import base_profile_expr
from .constants import critical_exponent, p_value, require_sobolev, sobolev_gap
from .errors import DomainError, NonConvergenceError
from .radial import ExponentAffine, RadialExpr, nabla_m


#: Accuracy contract of every improper integral: the relative tolerance on
#: two successive exp-sinh sums and on the power-law continuation.
QUAD_REL_TOL = 1e-10
#: ``rayleigh_quotient`` refuses a profile norm below this.
QUAD_ABS_TOL = 1e-14
#: The exp-sinh rule: the trapezoid window |t| <= DE_WINDOW (r from about
#: 2e-31 to 5e30), the step of the first evaluation, whose every other node
#: gives the sum at twice the step, and the smallest step tried.
DE_WINDOW = 4.5
DE_FIRST_STEP = 1.0 / 16.0
DE_MIN_STEP = 1.0 / 512.0


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
    """A radial function: a sum of symbolic pieces bound to a numeric alpha."""

    alpha: float
    pieces: Tuple[ProfilePiece, ...] = ()

    @classmethod
    def from_expr(cls, expr: RadialExpr, alpha: float, coeff: float = 1.0,
                  scale: float = 1.0) -> "RadialProfile":
        return cls(alpha=float(alpha),
                   pieces=(ProfilePiece(float(coeff), expr, float(scale)),))

    @classmethod
    def zero(cls, alpha: float) -> "RadialProfile":
        return cls(alpha=float(alpha))

    @property
    def decay_exponent(self) -> float:
        """The tail exponent mu of |f(r)| ~ r^-mu for large r: a term
        c r^rho (1+r^2)^(-sigma/2) falls like r^(rho-sigma), so mu is the
        least sigma(alpha) - rho over the terms with c(alpha) != 0 of the
        pieces with a nonzero coefficient, and inf when there are none."""
        return min((t.sigma.value_at(self.alpha) - t.r_power
                    for p in self.pieces if p.coeff != 0.0
                    for t in p.expr.terms if t.coeff(self.alpha) != 0.0),
                   default=math.inf)

    def __call__(self, r):
        """The value at r.  On an int or float array each piece is evaluated
        in one fresh buffer and summed in place, to the bits of the scalar
        sum from 0.0."""
        if not self.pieces:
            return np.zeros_like(np.asarray(r, dtype=float)) if np.ndim(r) else 0.0
        if not (isinstance(r, np.ndarray) and r.ndim and r.dtype.kind in "iuf"):
            total = 0.0
            for p in self.pieces:
                total = total + p.coeff * p.expr.evaluate(self.alpha, r / p.scale)
            return total
        total = None
        for p in self.pieces:
            piece = p.expr._evaluate_array(self.alpha, r / p.scale)
            piece *= p.coeff
            if total is None:
                total = piece
            else:
                total += piece
        total += 0.0  # as 0.0 + x: an exact zero reads +0.0
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
            pieces.append(ProfilePiece(coeff, _nabla_expr(p.expr, m), p.scale))
        return RadialProfile(alpha=self.alpha, pieces=tuple(pieces))

    def __add__(self, other: "RadialProfile") -> "RadialProfile":
        if not isinstance(other, RadialProfile):
            return NotImplemented
        if self.alpha != other.alpha:
            raise DomainError("cannot add profiles bound to different alpha")
        return RadialProfile(alpha=self.alpha, pieces=self.pieces + other.pieces)

    def __mul__(self, scalar) -> "RadialProfile":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return RadialProfile(
            alpha=self.alpha,
            pieces=tuple(ProfilePiece(scalar * p.coeff, p.expr, p.scale)
                         for p in self.pieces),
        )

    __rmul__ = __mul__


# kept: the 230 quotients of a scalar-highm pass take 46-53 ms with it, 135-180 without
@functools.lru_cache(maxsize=256)
def _nabla_expr(expr: RadialExpr, m: int) -> RadialExpr:
    """nabla_m(expr, m), kept per (expr, m): the exact expression depends on
    neither alpha nor the dilation, and deriving it is about half the cost of
    a Rayleigh quotient at m = 8."""
    return nabla_m(expr, m)


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
    return RadialProfile.from_expr(base_profile_expr(m), alpha, coeff=amp, scale=eps)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def _de_summands(f, t: np.ndarray) -> np.ndarray:
    """f(r) dr/dt at the exp-sinh nodes t, with r = exp(pi/2 sinh t).
    Raises NonConvergenceError at the first node where it is not finite."""
    r = np.exp(0.5 * math.pi * np.sinh(t))
    with np.errstate(all="ignore"):
        values = np.asarray(f(r), dtype=float) * (0.5 * math.pi * np.cosh(t) * r)
    bad = ~np.isfinite(values)
    if bad.any():
        raise NonConvergenceError(
            f"integrand is not finite at r={r[np.argmax(bad)]:g}"
        )
    return values


def _power_law_factor(rate: float, t: np.ndarray) -> np.ndarray:
    """The summand at |t| over the summand at |t| = DE_WINDOW, for an
    integrand that follows a power law in r from the window's end on:
    exp(-rate (phi(|t|) - phi(DE_WINDOW))) cosh t / cosh DE_WINDOW with
    phi = pi/2 sinh, formed in log space because r leaves the float range.
    ``rate`` is the power plus one at the origin and minus that at infinity."""
    phi = 0.5 * math.pi * (np.sinh(np.abs(t)) - math.sinh(DE_WINDOW))
    with np.errstate(over="ignore"):
        return np.exp(np.log(np.cosh(t) / math.cosh(DE_WINDOW)) - rate * phi)


# kept: the 230 quotients of a scalar-highm pass take 46-53 ms with it, 80-120 without
@functools.lru_cache(maxsize=256)
def _continuation_weight(rate: float, h: float) -> float:
    """h times the sum of the power-law factors at |t| = DE_WINDOW + k h,
    k >= 1: the summands beyond one end of the window at step h, per unit
    summand at the end.  The nodes stop where the factor falls below e^-40.
    Kept per (rate, h), which a sweep over eps or probe directions repeats."""
    t_max = math.asinh(math.sinh(DE_WINDOW) + 40.0 / (0.5 * math.pi * rate))
    t = DE_WINDOW + h * np.arange(1, math.ceil((t_max - DE_WINDOW) / h) + 1)
    return h * float(_power_law_factor(rate, t).sum())


def _decay_rate(power: float, sign: float, where: str) -> float:
    """sign * (power + 1), the rate at which a summand following r^power
    decays beyond the window's end."""
    rate = sign * (power + 1.0)
    if not rate > 0.0:
        raise NonConvergenceError(
            f"integrand behaves like r^{power!r} {where}; integral diverges"
        )
    return rate


def improper_integral(f, *, origin_power: float, tail_power: float) -> NormReport:
    """int_0^inf f(r) dr by the exp-sinh rule: r = exp(pi/2 sinh t) and the
    trapezoid rule in t on [-DE_WINDOW, DE_WINDOW], halving the step with
    nested nodes until two successive sums agree to QUAD_REL_TOL |I|.

    ``f`` is called with arrays of radii, with numpy's floating-point
    warnings off; a :class:`RadialProfile` or any numpy expression in r
    serves.  The caller states the power law f follows at both ends:
    f(r) ~ r^origin_power as r -> 0 and f(r) ~ r^tail_power as r -> inf.
    Beyond the window (r below about 2e-31 or above 5e30) the sum goes on
    in closed form along that law, with the amplitude taken from the
    summand at the window's end.  The law is checked against the node
    2 DE_FIRST_STEP inside each end; its mismatch times the continued sum
    is added to the error estimate and must stay within QUAD_REL_TOL |I|.

    The sums at steps 2 DE_FIRST_STEP and DE_FIRST_STEP come from one
    evaluation, the coarser one a strided slice of it; each further level
    evaluates only its new nodes.  Both tests are relative, so an integral
    of any magnitude is resolved to QUAD_REL_TOL.  The error estimate is
    the last difference, floored at the roundoff of the sum.

    Raises :class:`NonConvergenceError` for a divergent stated law
    (origin_power <= -1 or tail_power >= -1), a law that does not fit the
    integrand to the tolerance, non-finite values and no convergence by
    DE_MIN_STEP.
    """
    if not callable(f):
        raise TypeError(f"integrand must be callable, got {type(f).__name__}")
    rates = (_decay_rate(origin_power, 1.0, "at the origin"),
             _decay_rate(tail_power, -1.0, "at infinity"))
    h = DE_FIRST_STEP
    n = round(DE_WINDOW / h)
    values = _de_summands(f, h * np.arange(-n, n + 1))
    ends = (float(values[0]), float(values[-1]))

    def beyond(step: float) -> float:
        return sum(end * _continuation_weight(rate, step)
                   for end, rate in zip(ends, rates))

    fine = h * float(values.sum())
    coarse = 2.0 * h * float(values[::2].sum())
    total, coarse_total = fine + beyond(h), coarse + beyond(2.0 * h)
    magnitude = h * float(np.abs(values).sum())
    model_err = 0.0
    for end, inner, rate in zip(ends, (float(values[2]), float(values[-3])), rates):
        continued = end * _continuation_weight(rate, h)
        if continued != 0.0:
            with np.errstate(all="ignore"):  # a subnormal end: NaN raises below
                predicted = end * _power_law_factor(rate, DE_WINDOW - 2.0 * h)
                model_err += abs(continued * (inner / predicted - 1.0))
    if not model_err <= QUAD_REL_TOL * abs(total):
        raise NonConvergenceError(
            f"integrand does not follow the stated power law beyond the exp-sinh "
            f"window: continuation error {model_err:.3e} against a sum of {total:.3e}"
        )
    while abs(total - coarse_total) > QUAD_REL_TOL * abs(total):
        if h / 2.0 < DE_MIN_STEP:
            raise NonConvergenceError(
                f"exp-sinh rule did not converge by step {h:g}: successive sums "
                f"{coarse_total!r} and {total!r}"
            )
        h /= 2.0
        n *= 2
        new = _de_summands(f, h * np.arange(1 - n, n, 2))
        fine = 0.5 * fine + h * float(new.sum())
        coarse_total, total = total, fine + beyond(h)
        magnitude = 0.5 * magnitude + h * float(np.abs(new).sum())
    # the floor counts the window's summands and the continued sums
    roundoff = np.finfo(float).eps * (magnitude + abs(total - fine))
    return NormReport(value=total,
                      err_estimate=max(abs(total - coarse_total), roundoff) + model_err)


def _weighted_power_integral(f: RadialProfile, q: float, theta: float) -> NormReport:
    """int_0^inf |f(r)|^q r^theta dr, summed as exp(q log|f| + theta log r)
    because r^theta overflows at the window's ends for theta above 10.

    The integrand is continued below the window as r^theta, which holds
    when |f| tends to a nonzero limit at the origin, and above it as
    r^(theta - q mu), mu the profile's exact ``decay_exponent``."""
    def integrand(r: np.ndarray) -> np.ndarray:
        # log(0) = -inf is exp'd back to 0; the caller silences its warning
        return np.exp(q * np.log(np.abs(f(r))) + theta * np.log(r))

    return improper_integral(integrand, origin_power=theta,
                             tail_power=theta - q * f.decay_exponent)


def weighted_lebesgue_norm(f: RadialProfile, q: float, theta: float) -> NormReport:
    """( int_0^inf |f|^q r^theta dr )^(1/q) for a :class:`RadialProfile`
    f, q >= 1 and theta > -1.

    The quadrature continues the integrand past r ~ 2e-31 as r^theta, so
    |f| must tend to a nonzero limit at the origin or be negligible there,
    and past r ~ 5e30 by the profile's exact decay exponent.  Otherwise it
    raises :class:`NonConvergenceError` (see :func:`improper_integral`).
    Raises TypeError for anything but a RadialProfile."""
    _require_profile(f)
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
        raise DomainError(
            f"profile norm {den_q ** (1.0 / two_star):.3e} below QUAD_ABS_TOL; "
            "Rayleigh quotient undefined"
        )
    return num / den_q ** (2.0 / two_star)


def _require_profile(f) -> None:
    if not isinstance(f, RadialProfile):
        raise TypeError(
            f"norms and gradients need a RadialProfile, got {type(f).__name__}"
        )


def _check_profile_alpha(f: RadialProfile, alpha: float) -> None:
    _require_profile(f)
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
    return RadialProfile.from_expr(expr, alpha)


def probe_profile(w: RadialProfile, index: int, amp: float, m: int,
                  alpha: float) -> RadialProfile:
    """w + amp * (the index-th probe direction).  Raises DomainError at
    amp = 0, where the probe is w itself and checks nothing."""
    if amp == 0:
        raise DomainError("probe amplitude must be nonzero: at 0 the probe is "
                          "the profile itself")
    return w + amp * perturbation_direction(index, m, alpha)
