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
up), and proceeds with the embedded Dormand-Prince 5(4) pair of Hairer,
Norsett and Wanner (Solving ODEs I, II.4-5) under a standard error-per-step
controller.  The pair is FSAL: its last stage is f at the new state, and it
becomes the next step's first stage only after the step is accepted; a
rejected attempt retries from f(r, y).  ``integrate`` steps on Python
floats, which beat numpy calls at these sizes (2m <= 16).

Forward integration is not well conditioned: the singular homogeneous
modes r^-(alpha-2j+1) decay with increasing r, but the regular modes of the
linearization grow like r^(2j) while w_eps decays like r^-(alpha-2m+1), so
a roundoff error at ``rel_tol`` grows relative to the solution by about
r^(alpha-2m+1+2(m-1)).  At alpha - 2m + 1 between 2 and 2.75 and
r_max = 20, exact family data for m = 5 is classified "departs" and
m = 6..8 raise BlowupError.

A maximal solution ends where its state becomes unbounded, so the run
stops once some level |u_j| exceeds OVERFLOW_LIMIT lam^(gap/2 + 2j), with
gap = alpha - 2m + 1 and lam = max_j |u_j(r0)|^(1/(gap/2 + 2j)) the
dilation scale of the start state.  Level j of w_eps scales like
eps^-(gap/2 + 2j), so the bounds, and the radius where a run stops, follow
the dilation.

Nonsingular solutions with vanishing odd-order data coincide with the
dilation family w_eps; ``classification_check`` quantifies that statement by
integrating from w_eps data and measuring the deviation from the exact state
``family_state`` derives from ``bliss_profile``, and ``departure_from_family``
measures how far a perturbed data set drifts from every member of the family.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .constants import critical_exponent, require_sobolev, sobolev_gap
from .errors import BlowupError, DomainError, StepUnderflowError
from .functionals import bliss_amplitude, bliss_profile


#: ``integrate`` raises BlowupError once some level |u_j| exceeds this
#: times lam^(gap/2 + 2j), lam the dilation scale of the start state.
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
        # plain floats throughout: a numpy scalar would slow every stage and
        # turn an overflow into a warning and inf
        for name in ("alpha", "r0", "r_max", "rel_tol", "abs_tol"):
            object.__setattr__(self, name, float(getattr(self, name)))
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

# The tableau of Hairer, Norsett and Wanner, Solving ODEs I, Table II.5.2:
# stage nodes _Cs, stage weights _Asj, 5th-order weights _Bj (b2 = 0, and
# b7 = 0 because the pair is FSAL) and error weights _Ej = b_j - b*_j (e2 = 0).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)


def _make_rhs(m: int, alpha: float):
    """The system's right-hand side on a list state: rhs(r, y) returns f(r, y)
    as a new list.  Raises OverflowError when |u_0|^(2*-2) leaves the float
    range."""
    g, _ = nonlinearity(m, alpha)

    def rhs(r: float, y: list) -> list:
        # u_j' = v_j and v_j' = -(alpha/r) v_j - u_{j+1}, closed by u_m = g(u_0):
        # y shifted left by one holds v_j at 2j and u_{j+1} at 2j + 1
        k = -(alpha / r)
        dy = y[1:]
        dy.append(g(y[0]))
        for i in range(1, len(dy), 2):
            dy[i] = k * y[i] - dy[i]
        return dy

    return rhs


def _power(x: float, e: float) -> float:
    """x ** e for x >= 0, inf past the float range."""
    try:
        return x ** e
    except OverflowError:
        return math.inf


def _level_bounds(gap: float, y: list) -> Tuple[float, tuple]:
    """The dilation scale lam = max_j |u_j|^(1/(gap/2 + 2j)) of the state y
    and each level's (2j, OVERFLOW_LIMIT * lam^(gap/2 + 2j)); zero data
    give zero bounds."""
    lam = max(_power(abs(y[i]), 1.0 / (gap / 2.0 + i)) for i in range(0, len(y), 2))
    return lam, tuple((i, OVERFLOW_LIMIT * _power(lam, gap / 2.0 + i))
                      for i in range(0, len(y), 2))


def integrate(spec: IVPSpec) -> SolveResult:
    """Adaptive integration of the coupled system from r0 to r_max.

    The state and the stages are lists of Python floats: at 2m <= 16 entries
    a float loop is several times cheaper than a numpy call per stage, whose
    cost is nearly all call overhead.  (A much larger system, such as the
    full variational one, may favour arrays again.)  Each stage point is one
    sum with h folded into that step's coefficients.  The accepted nodes and
    states are kept in ``array('d')`` buffers, 8 bytes a value, which become
    ``SolveResult.r`` and ``.y`` without a copy.

    A trial step whose stages leave the float range, or whose error norm
    is not finite, is rejected and retried at a fifth of its size, so a
    long trial step past a blow-up does not decide where the run stops.
    Raises :class:`StepUnderflowError` when the controller collapses the
    step below the floor and :class:`BlowupError` when, after an accepted
    step, some level |u_j| exceeds its bound OVERFLOW_LIMIT lam^(gap/2 + 2j)
    (see ``_level_bounds``), when f overflows at the start state or when
    the error scale is zero; both carry the partial trajectory in
    ``.result``.
    """
    rhs = _make_rhs(spec.m, spec.alpha)
    r_max, rel_tol, abs_tol = spec.r_max, spec.rel_tol, spec.abs_tol
    r = spec.r0
    y = series_start(spec).tolist()
    n = len(y)
    gap = sobolev_gap(spec.m, spec.alpha)
    lam, bounds = _level_bounds(gap, y)
    nodes, states = array("d", (r,)), array("d", y)
    evals = 1
    steps = rejected = 0
    min_step = math.inf
    h = min(0.05 * spec.r0, r_max - spec.r0)

    def _finish() -> SolveResult:
        return SolveResult(
            r=np.frombuffer(nodes, dtype=float),
            y=np.frombuffer(states, dtype=float).reshape(-1, n),
            stats=SolveStats(steps=steps, rejected=rejected,
                             min_step=min_step if steps else 0.0,
                             rhs_evaluations=evals),
        )

    def _non_finite() -> BlowupError:
        return BlowupError(f"non-finite step from r={r:.6g} with h={h:.3e} "
                           f"(non-global solution)", _finish())

    try:
        k1 = rhs(r, y)
    except OverflowError:
        raise _non_finite() from None
    while r < r_max:
        h = min(h, r_max - r)
        if h < STEP_FLOOR * r:
            raise StepUnderflowError(
                f"step {h:.3e} underflowed at r={r:.6g} (blow-up or stiffness)",
                _finish(),
            )
        evals += 6               # counted also when a stage ends the attempt
        try:
            a1 = h * _A21
            k2 = rhs(r + _C2 * h, [yi + a1 * p1 for yi, p1 in zip(y, k1)])
            a1, a2 = h * _A31, h * _A32
            k3 = rhs(r + _C3 * h, [yi + a1 * p1 + a2 * p2
                                   for yi, p1, p2 in zip(y, k1, k2)])
            a1, a2, a3 = h * _A41, h * _A42, h * _A43
            k4 = rhs(r + _C4 * h, [yi + a1 * p1 + a2 * p2 + a3 * p3
                                   for yi, p1, p2, p3 in zip(y, k1, k2, k3)])
            a1, a2, a3, a4 = h * _A51, h * _A52, h * _A53, h * _A54
            k5 = rhs(r + _C5 * h, [yi + a1 * p1 + a2 * p2 + a3 * p3 + a4 * p4
                                   for yi, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
            a1, a2, a3, a4, a5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
            k6 = rhs(r + h, [yi + a1 * p1 + a2 * p2 + a3 * p3 + a4 * p4 + a5 * p5
                             for yi, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
            a1, a3, a4, a5, a6 = h * _B1, h * _B3, h * _B4, h * _B5, h * _B6
            y_new = [yi + a1 * p1 + a3 * p3 + a4 * p4 + a5 * p5 + a6 * p6
                     for yi, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
            k7 = rhs(r + h, y_new)
            e1, e3, e4, e5, e6, e7 = h * _E1, h * _E3, h * _E4, h * _E5, h * _E6, h * _E7
            total = 0.0
            for yi, zi, p1, p3, p4, p5, p6, p7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
                err = (e1 * p1 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7) / (
                    abs_tol + rel_tol * max(abs(yi), abs(zi)))
                total += err * err
        except OverflowError:
            total = math.inf     # a stage past the float range
        except ZeroDivisionError:
            # a zero error scale (abs_tol = 0 at a zero state)
            raise _non_finite() from None
        # the last stage is the RHS at y_new, so a non-finite y_new also
        # makes the error norm non-finite, and the step is rejected
        err_norm = math.sqrt(total / n)
        if err_norm <= 1.0:
            r += h
            y, k1 = y_new, k7        # FSAL, only after acceptance
            steps += 1
            min_step = min(min_step, h)
            nodes.append(r)
            states.extend(y)
            for i, bound in bounds:
                if abs(y[i]) > bound:
                    raise BlowupError(
                        f"u_{i // 2} = {y[i]:.3e} exceeded OVERFLOW_LIMIT "
                        f"({OVERFLOW_LIMIT:g}) x dilation scale {lam:.6g}"
                        f"^{gap / 2.0 + i:g} = {bound:.3e} at r={r:.6g} "
                        f"(non-global solution)",
                        _finish(),
                    )
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        else:
            rejected += 1
            factor = max(0.2, 0.9 * err_norm ** -0.2) if math.isfinite(err_norm) else 0.2
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
            "rhs_evaluations": self.stats.rhs_evaluations,
            "min_step": self.stats.min_step,
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

