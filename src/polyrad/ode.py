"""Singular initial value problem for the critical polyharmonic equation.

The 2m-th order scalar problem is integrated as the equivalent coupled
second-order system in u_j = (-Delta_alpha)^j y:

    -Delta_alpha u_j     = u_{j+1},        j = 0..m-2,
    -Delta_alpha u_{m-1} = |u_0|^(2*-2) u_0,

i.e. u_j'' = -(alpha/r) u_j' - u_{j+1}, a 2m-dimensional first order system
with a regular singular point at r = 0.  Integration starts from a
fourth-order Taylor state at a small handoff radius r0, built from the even
initial data and the origin relations

    u_j'(0) = 0,      u_j''(0) = -u_{j+1}(0) / (alpha + 1),

(the fourth-order coefficient follows from the same relations one level
up), and proceeds with an embedded Dormand-Prince 5(4) pair under a
standard error-per-step controller.  The pair is FSAL: its last stage is f
at the new state, and it becomes the next step's first stage only after
the step is accepted; a rejected attempt retries from f(r, y).

Forward integration is not well conditioned: the singular homogeneous
modes r^-(alpha-2j+1) decay with increasing r, but the regular modes of the
linearization grow like r^(2j) while w_eps decays like r^-(alpha-2m+1), so
a roundoff error at ``rel_tol`` grows relative to the solution by about
r^(alpha-2m+1+2(m-1)).  At alpha - 2m + 1 between 2 and 2.75 and
r_max = 20, exact family data for m = 5 is classified "departs" and
m = 6..8 raise BlowupError or StepUnderflowError.

Nonsingular solutions with vanishing odd-order data coincide with the
dilation family w_eps; ``classification_check`` quantifies that statement by
integrating from w_eps data and measuring the deviation from the exact state
``family_state`` derives from ``bliss_profile``, and ``departure_from_family``
measures how far a perturbed data set drifts from every member of the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .constants import critical_exponent, require_sobolev, sobolev_gap
from .errors import BlowupError, DomainError, StepUnderflowError
from .functionals import bliss_amplitude, bliss_profile


#: ``integrate`` raises BlowupError once |u_0| exceeds this.
OVERFLOW_LIMIT = 1e12
#: ``integrate`` raises StepUnderflowError once the step falls below this
#: times r; relative to r, so the floor scales with the dilation.
STEP_FLOOR = 1e-12


@dataclass(frozen=True)
class IVPSpec:
    """Problem statement: even-order initial data (odd-order data is zero by
    hypothesis) plus integration controls."""

    m: int
    alpha: float
    even_initial: Tuple[float, ...]   # u_j(0) for j = 0..m-1
    r0: float = 1e-4                  # series handoff radius
    r_max: float = 20.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        require_sobolev(self.m, self.alpha)
        if len(self.even_initial) != self.m:
            raise ValueError(
                f"need m={self.m} even-order values, got {len(self.even_initial)}"
            )
        if not 0 < self.r0 < self.r_max:
            raise DomainError(f"need 0 < series handoff radius ({self.r0:g}) "
                              f"< r_max ({self.r_max:g})")
        object.__setattr__(self, "even_initial", tuple(float(v) for v in self.even_initial))


@dataclass(frozen=True)
class SolveStats:
    steps: int
    rejected: int
    min_step: float
    rhs_evaluations: int


@dataclass(frozen=True)
class SolveResult:
    """Accepted-step trajectory: state y = (u_0, u_0', ..., u_{m-1}, u_{m-1}')
    at every node."""

    r: np.ndarray
    y: np.ndarray            # shape (len(r), 2m)
    stats: SolveStats

    def component(self, j: int) -> np.ndarray:
        return self.y[:, 2 * j]


# ---------------------------------------------------------------------------
# Nonlinearity and series start
# ---------------------------------------------------------------------------


def nonlinearity(m: int, alpha: float):
    """g(w) = |w|^(2*-2) w and its derivative g'(w) = (2*-1)|w|^(2*-2)."""
    p = critical_exponent(m, alpha) - 2.0  # 4m/(alpha-2m+1) > 0

    def g(w: float) -> float:
        return abs(w) ** p * w

    def gprime(w: float) -> float:
        return (p + 1.0) * abs(w) ** p

    return g, gprime


def series_coefficients(spec: IVPSpec) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Even Taylor coefficients (value, r^2, r^4) of each u_j at the origin.
    Raises DomainError when the data overflow them."""
    m, alpha = spec.m, spec.alpha
    g, gprime = nonlinearity(m, alpha)
    u0 = np.asarray(spec.even_initial, dtype=float)
    try:
        with np.errstate(over="raise", invalid="raise"):
            closing = g(u0[0])                                # u_m(0)
            chain_vals = np.append(u0, closing)
            a2 = -chain_vals[1:] / (2.0 * (1.0 + alpha))      # a2[j], j = 0..m-1
            a2_closing = gprime(u0[0]) * a2[0]                # r^2 coeff of g(u_0)
            a2_ext = np.append(a2, a2_closing)
            a4 = -a2_ext[1:] / (4.0 * (3.0 + alpha))          # a4[j], j = 0..m-1
    except FloatingPointError:
        raise DomainError(f"initial data {u0.tolist()} overflow the series "
                          f"start at the origin") from None
    return u0, a2, a4


def series_start(spec: IVPSpec) -> np.ndarray:
    """Fourth-order Taylor state (u_j, u_j') at the handoff radius r0; the
    local error is O(r0^6) because the odd orders vanish."""
    u0, a2, a4 = series_coefficients(spec)
    r = spec.r0
    y = np.empty(2 * spec.m)
    y[0::2] = u0 + a2 * r * r + a4 * r ** 4
    y[1::2] = 2.0 * a2 * r + 4.0 * a4 * r ** 3
    return y


# ---------------------------------------------------------------------------
# Embedded Dormand-Prince 5(4)
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                    -17253 / 339200, 22 / 525, -1 / 40])


def _make_rhs(m: int, alpha: float):
    """The system's right-hand side, written into a given row: rhs(r, y, dy)
    stores f(r, y) in dy and allocates nothing."""
    g, _ = nonlinearity(m, alpha)

    def rhs(r: float, y: np.ndarray, dy: np.ndarray) -> None:
        # u_j' = v_j and v_j' = -(alpha/r) v_j - u_{j+1}, closed by u_m = g(u_0)
        dy[0::2] = y[1::2]
        dv = dy[1::2]
        np.multiply(y[1::2], -(alpha / r), out=dv)
        head = dv[: m - 1]
        np.subtract(head, y[2::2], out=head)
        dv[m - 1] -= g(y[0])

    return rhs


def integrate(spec: IVPSpec) -> SolveResult:
    """Adaptive integration of the coupled system from r0 to r_max.

    The stages, the stage point and the error estimate live in arrays
    allocated once per call.  Raises :class:`StepUnderflowError` when the
    controller collapses the step below the floor and :class:`BlowupError`
    when |u_0| exceeds the overflow limit or a step is not finite; both
    carry the partial trajectory in ``.result``.
    """
    rhs = _make_rhs(spec.m, spec.alpha)
    r_max, rel_tol, abs_tol = spec.r_max, spec.rel_tol, spec.abs_tol
    r = spec.r0
    y = series_start(spec)
    n = y.size
    nodes, states = [r], [y.copy()]
    evals = 1
    steps = rejected = 0
    min_step = math.inf
    h = min(0.05 * spec.r0, r_max - spec.r0)
    stages = np.empty((7, n))
    # stage s combines the rows before it; row 6 is the 5th-order update
    combine = [(stages[:s].T, _DP_A[s], _DP_C[s]) for s in range(1, 7)]
    stages_t = stages.T
    ys, tmp, scale = np.empty(n), np.empty(n), np.empty(n)

    def _finish() -> SolveResult:
        result = SolveResult(
            r=np.array(nodes),
            y=np.array(states),
            stats=SolveStats(steps=steps, rejected=rejected,
                             min_step=min_step if steps else 0.0,
                             rhs_evaluations=evals),
        )
        # a caller that keeps the raised error keeps this frame alive through
        # its traceback; only the arrays need to live that long
        for per_step in (nodes, states):
            per_step.clear()
        return result

    # an overflowing stage shows up as a non-finite step, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        rhs(r, y, stages[0])
        while r < r_max:
            h = min(h, r_max - r)
            if h < STEP_FLOOR * r:
                raise StepUnderflowError(
                    f"step {h:.3e} underflowed at r={r:.6g} (blow-up or stiffness)",
                    _finish(),
                )
            for s, (prev_t, a_s, c_s) in enumerate(combine, 1):
                # np.dot runs the same BLAS product as ``@``, with less overhead
                np.dot(prev_t, a_s, out=tmp)
                tmp *= h
                np.add(y, tmp, out=ys)
                rhs(r + c_s * h, ys, stages[s])
            evals += 6
            # the last stage point is the 5th-order solution y_new, so ys
            # holds it and stage 6 is f(r + h, y_new)
            np.dot(stages_t, _DP_ERR, out=tmp)
            tmp *= h
            np.abs(y, out=scale)
            np.maximum(scale, np.abs(ys), out=scale)
            scale *= rel_tol
            scale += abs_tol
            tmp /= scale
            err_norm = math.sqrt(np.add.reduce(tmp * tmp) / n)
            # the last stage is the RHS at y_new, so a non-finite y_new
            # also makes the error norm non-finite
            if not math.isfinite(err_norm):
                raise BlowupError(f"non-finite step from r={r:.6g} with h={h:.3e} "
                                  f"(non-global solution)", _finish())
            if err_norm <= 1.0:
                r += h
                y, ys = ys, y            # the old state's buffer takes the next stages
                stages[0] = stages[6]    # FSAL, only after acceptance
                steps += 1
                min_step = min(min_step, h)
                nodes.append(r)
                states.append(y.copy())
                if abs(y[0]) > OVERFLOW_LIMIT:
                    raise BlowupError(
                        f"|u_0| = {abs(y[0]):.3e} exceeded {OVERFLOW_LIMIT:g} "
                        f"at r={r:.6g} (non-global solution)",
                        _finish(),
                    )
                factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
            else:
                rejected += 1
                factor = max(0.2, 0.9 * err_norm ** -0.2)
            h *= factor
    return _finish()


# ---------------------------------------------------------------------------
# Classification against the dilation family
# ---------------------------------------------------------------------------


#: ``classification_check`` reports "coincides" at a deviation up to this.
CLASSIFY_TOL = 1e-4
#: ``classify --perturb-index`` reports "departs" at a departure of at least this.
DEPARTURE_TOL = 0.01


def handoff_radius(eps: float) -> float:
    """Series handoff radius for data near w_eps: fixed relative to the
    dilation scale, so the start error is the same for every member."""
    return 1e-4 * eps


def match_epsilon(m: int, alpha: float, v0: float) -> float:
    """The dilation parameter with w_eps(0) = v0, by inverting
    w_eps(0) = bliss_amplitude(m, alpha, 1) * eps^(-(alpha-2m+1)/2)."""
    amp1 = bliss_amplitude(m, alpha, 1.0)
    if not v0 > 0:
        raise DomainError(f"center value must be positive, got {v0!r}")
    try:
        eps = (amp1 / v0) ** (2.0 / sobolev_gap(m, alpha))
    except OverflowError:
        eps = math.inf
    if not 0.0 < eps < math.inf:
        raise DomainError(f"no finite positive dilation parameter matches center "
                          f"value {v0!r} (the inversion gives eps = {eps!r})")
    return eps


def family_state(m: int, alpha: float, eps: float, r) -> np.ndarray:
    """The exact state of w_eps in the layout of ``SolveResult.y``: row i is
    (u_0, u_0', ..., u_{m-1}, u_{m-1}') at r[i], with u_j = (-Delta_alpha)^j
    w_eps.  Each level is one ``nabla(2)`` of the one before."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    state = np.empty((r.size, 2 * m))
    level = bliss_profile(m, alpha, eps)
    for j in range(m):
        sign = (-1.0) ** j
        state[:, 2 * j] = sign * level(r)
        state[:, 2 * j + 1] = sign * level.nabla(1)(r)
        if j < m - 1:
            level = level.nabla(2)
    return state


@dataclass(frozen=True)
class ClassificationReport:
    m: int
    alpha: float
    eps: float
    r_max: float
    max_rel_dev: float
    stats: SolveStats
    verdict: str

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "alpha": self.alpha,
            "eps": self.eps,
            "r_max": self.r_max,
            "max_rel_dev": self.max_rel_dev,
            "steps": self.stats.steps,
            "rejected_steps": self.stats.rejected,
            "verdict": self.verdict,
        }


def classification_check(m: int, alpha: float, eps: float, r_max: float
                         ) -> ClassificationReport:
    """Integrate from w_eps initial data at the tolerances of :class:`IVPSpec`
    and measure the sup-norm-relative deviation of every component (u_j and
    u_j') from the exact state."""
    spec = IVPSpec(
        m=m, alpha=alpha, even_initial=family_state(m, alpha, eps, 0.0)[0, 0::2],
        r0=handoff_radius(eps), r_max=r_max,
    )
    result = integrate(spec)
    exact = family_state(m, alpha, eps, result.r)
    max_dev = float(np.max(np.max(np.abs(result.y - exact), axis=0)
                           / np.max(np.abs(exact), axis=0)))
    return ClassificationReport(
        m=m, alpha=float(alpha), eps=float(eps), r_max=float(r_max),
        max_rel_dev=max_dev, stats=result.stats,
        verdict="coincides" if max_dev <= CLASSIFY_TOL else "departs",
    )


def departure_from_family(m: int, alpha: float, result: SolveResult) -> float:
    """min over eps of sup_r |u_0(r) - w_eps(r)| / w_eps(r) on the trajectory
    nodes: small only when the solution coincides with a family member.  The
    eps grid spans a factor of 16, geometrically centred on the member that
    matches u_0(r0), or on eps = 1 when u_0(r0) <= 0 and none matches."""
    u0 = result.component(0)
    centre = match_epsilon(m, alpha, float(u0[0])) if u0[0] > 0 else 1.0
    best = math.inf
    for eps in centre * np.geomspace(0.25, 4.0, 61):
        w = bliss_profile(m, alpha, eps)(result.r)
        best = min(best, float(np.max(np.abs(u0 - w) / w)))
    return best

