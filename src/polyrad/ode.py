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
floats, which beat numpy calls at these sizes (2m <= 16), through one
generated step kernel per order m: straight-line code over local names, with
no list, zip or call per stage, compiled on first use and cached by m.

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
integrating from w_1 data to ``unit_radius(eps, r_max)`` = r_max/eps (the
equation is dilation invariant, u_j(r) = eps^-(gap/2 + 2j) U_j(r/eps), so
every eps is the same float problem) and measuring the deviation from the
exact state ``family_state`` derives from ``bliss_profile``;
``departure_from_family`` measures how far a perturbed data set drifts from
every member of the family.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .constants import critical_exponent, require_sobolev, sobolev_gap
from .errors import BlowupError, DomainError, OdeError, StepUnderflowError
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
        if not 0 < self.r0 < self.r_max < math.inf:
            raise DomainError(f"need 0 < series handoff radius ({self.r0:g}) "
                              f"< r_max ({self.r_max:g}) < inf")
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
# Series start
# ---------------------------------------------------------------------------


def _closing_power(m: int, alpha: float) -> float:
    """p = 2* - 2 > 0 of the closing term u_m = g(u_0) = |u_0|^p u_0."""
    return critical_exponent(m, alpha) - 2.0


def series_start(spec: IVPSpec) -> list:
    """Fourth-order Taylor state (u_0, u_0', ..., u_{m-1}, u_{m-1}') at the
    handoff radius r0, on floats; the local error is O(r0^6) because the odd
    orders vanish.  Level j's r^2 coefficient is a2_j = -u_{j+1}(0) / (2(alpha + 1))
    and its r^4 coefficient -a2_{j+1} / (4(alpha + 3)), where u_m = g(u_0)
    has the r^2 coefficient a2_m = (p + 1)|u_0|^p a2_0.  Raises DomainError
    when the data make a coefficient overflow."""
    alpha, u0, r = spec.alpha, spec.even_initial, spec.r0
    p = _closing_power(spec.m, alpha)
    try:
        power = abs(u0[0]) ** p
    except OverflowError:
        power = math.inf
    a2 = [-v / (2.0 * (1.0 + alpha)) for v in u0[1:] + (power * u0[0],)]
    a4 = [-v / (4.0 * (3.0 + alpha)) for v in a2[1:] + [(p + 1.0) * power * a2[0]]]
    if not all(map(math.isfinite, a2 + a4)):
        raise DomainError(f"initial data {list(u0)} overflow the series "
                          f"start at the origin")
    y = []
    for u, b, c in zip(u0, a2, a4):
        y += [u + b * r * r + c * r ** 4, 2.0 * b * r + 4.0 * c * r ** 3]
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


# The step as data for the kernel generator: each stage's node (None for
# r + h) and its (weight, stage) terms, then the 5th-order solution and the
# error estimate.  Weights are named, never formatted, so one kernel per m
# serves every alpha and tolerance.
_STAGE_ROWS = (
    ("_C2", (("_A21", 1),)),
    ("_C3", (("_A31", 1), ("_A32", 2))),
    ("_C4", (("_A41", 1), ("_A42", 2), ("_A43", 3))),
    ("_C5", (("_A51", 1), ("_A52", 2), ("_A53", 3), ("_A54", 4))),
    (None, (("_A61", 1), ("_A62", 2), ("_A63", 3), ("_A64", 4), ("_A65", 5))),
)
_SOLUTION_ROW = (("_B1", 1), ("_B3", 3), ("_B4", 4), ("_B5", 5), ("_B6", 6))
_ERROR_ROW = (("_E1", 1), ("_E3", 3), ("_E4", 4), ("_E5", 5), ("_E6", 6), ("_E7", 7))


def _rhs_lines(n: int, point: list, slope: list) -> list:
    """Assignments of f at the state ``point`` to the odd entries of
    ``slope`` (names), with k = -(alpha/r) bound.  u_j' = v_j needs no code,
    as slope[2j] is point[2j + 1]; v_j' = k v_j - u_{j+1} is closed by
    u_m = |u_0|^p u_0."""
    lines = []
    for i in range(1, n, 2):
        source = point[i + 1] if i + 1 < n else f"abs({point[0]}) ** p * {point[0]}"
        lines.append(f"{slope[i]} = k * {point[i]} - {source}")
    return lines


def _kernel_source(m: int) -> str:
    """Python source of ``make(alpha, p, abs_tol, rel_tol)``, which returns
    the pair (rhs, step) for the order m, written out straight-line.

    ``rhs(r, y)`` is f(r, y) as a tuple.  ``step(r, h, y, k1)`` is one
    Dormand-Prince attempt from the state y with k1 = f(r, y); it returns
    (y_new, k7, err_sum), k7 = f(r + h, y_new) and err_sum the sum of the
    squared scaled error components.  Stage s keeps the odd entries of its
    point in z{s}_i and of its slope in k{s}_i; its slope's even entries are
    the point's odd ones.  Each sum runs left to right in the order of the
    tableau, so the arithmetic is that of the loop over stages."""
    n = 2 * m
    state = [f"y{i}" for i in range(n)]

    def slope(prefix: str, point: list) -> list:
        return [point[i + 1] if i % 2 == 0 else f"{prefix}{i}" for i in range(n)]

    rhs = [f"{', '.join(state)} = y", "k = -(alpha / r)"]
    rhs += _rhs_lines(n, state, slope("f", state))
    rhs.append(f"return {', '.join(slope('f', state))}")

    points = {s: [f"z{s}_{i}" for i in range(n)] for s in range(2, 8)}
    slopes = {s: slope(f"k{s}_", points[s]) for s in range(2, 8)}
    slopes[1] = [f"k1_{i}" for i in range(n)]
    step = [f"{', '.join(state)} = y", f"{', '.join(slopes[1])} = k1"]

    def combine(s: int, row) -> None:
        step.extend(f"a{t} = h * {w}" for w, t in row)
        for i in range(n):
            terms = "".join(f" + a{t} * {slopes[t][i]}" for _, t in row)
            step.append(f"{points[s][i]} = {state[i]}{terms}")

    for s, (node, row) in enumerate(_STAGE_ROWS, start=2):
        combine(s, row)
        step.append(f"k = -(alpha / (r + {node} * h))" if node else "k = -(alpha / (r + h))")
        step += _rhs_lines(n, points[s], slopes[s])
    combine(7, _SOLUTION_ROW)           # y_new, at r + h as stage 6
    step += _rhs_lines(n, points[7], slopes[7])
    step += [f"a{t} = h * {w}" for w, t in _ERROR_ROW]
    for i in range(n):
        # max(|y_i|, |y_new_i|) as max() picks it: the second only if larger
        terms = " + ".join(f"a{t} * {slopes[t][i]}" for _, t in _ERROR_ROW)
        step += [f"a = abs({state[i]})", f"b = abs({points[7][i]})",
                 f"q = ({terms}) / (abs_tol + rel_tol * (b if b > a else a))",
                 "total += q * q" if i else "total = q * q"]
    step.append(f"return ({', '.join(points[7])}), ({', '.join(slopes[7])}), total")
    indent = "\n        "
    return (f"def make(alpha, p, abs_tol, rel_tol):\n"
            f"    def rhs(r, y):{indent}{indent.join(rhs)}\n"
            f"    def step(r, h, y, k1):{indent}{indent.join(step)}\n"
            f"    return rhs, step\n")


# kept: a compile takes 0.6 / 1.5 / 2.6 ms at m = 1 / 4 / 8, a classification 3 / 10 / 51
@functools.lru_cache(maxsize=16)    # bounded: a kernel's code grows with m
def _kernel(m: int):
    """The compiled ``make`` of ``_kernel_source(m)``, built on first use;
    its globals are this module's, where the tableau names live."""
    namespace: dict = {}
    exec(compile(_kernel_source(m), f"<dormand-prince m={m}>", "exec"),
         globals(), namespace)
    return namespace["make"]


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

    The state and the stages are Python floats, and each attempt is one call
    of the step kernel ``_kernel(m)`` (see ``_kernel_source``), which takes
    alpha and the tolerances as closure values.  Every sum keeps the
    left-to-right order of a loop over the stages, so the trajectory is the
    same bit for bit as that of the loop (``tests/test_ode.py`` checks it
    against one).  The accepted nodes and states are kept in ``array('d')``
    buffers, 8 bytes a value, which become ``SolveResult.r`` and ``.y``
    without a copy.

    A trial step whose stages leave the float range, or whose error norm
    is not finite, is rejected and retried at a fifth of its size, so a
    long trial step past a blow-up does not decide where the run stops.
    Raises :class:`StepUnderflowError` when the controller collapses the
    step below the floor (a stiff problem, or f overflowing every trial
    step) and :class:`BlowupError` when, after an accepted step, some
    level |u_j| exceeds its bound OVERFLOW_LIMIT lam^(gap/2 + 2j) (see
    ``_level_bounds``), when f overflows at the start state or when the
    error scale is zero; both carry the partial trajectory in ``.result``.
    """
    r_max, rel_tol, abs_tol = spec.r_max, spec.rel_tol, spec.abs_tol
    p = _closing_power(spec.m, spec.alpha)
    rhs, step = _kernel(spec.m)(spec.alpha, p, abs_tol, rel_tol)
    r = spec.r0
    y = series_start(spec)
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
            y_new, k7, total = step(r, h, y, k1)
        except OverflowError:
            total = math.inf     # a stage past the float range
        except ZeroDivisionError:
            # a zero error scale (abs_tol = 0 at a zero state)
            raise _non_finite() from None
        # the last stage is the RHS at y_new, so a non-finite y_new also
        # makes the error norm non-finite, and the step is rejected
        err_norm = math.sqrt(total / n)
        if err_norm <= 1.0:
            # the step clipped to r_max lands on it: r + (r_max - r) can
            # fall an ulp short, and the next step would be below the floor
            r = r_max if h == r_max - r else r + h
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


def unit_radius(eps: float, r: float) -> float:
    """The radius r/eps of the eps = 1 problem that is the image of radius
    r of w_eps under the dilation; raises DomainError unless 0 < eps < inf."""
    if not 0.0 < eps < math.inf:
        raise DomainError(f"dilation parameter must be positive and finite, got {eps!r}")
    return r / eps


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
    reached_r: float
    stop_reason: Optional[str] = None    # the error of a run stopped early

    def to_json_obj(self) -> dict:
        obj = {
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
        if self.stop_reason is not None:
            obj.update(reached_r=self.reached_r, stop_reason=self.stop_reason)
        return obj


def classification_check(m: int, alpha: float, eps: float, r_max: float
                         ) -> ClassificationReport:
    """Integrate from w_1 data to ``unit_radius(eps, r_max)`` at the defaults
    of :class:`IVPSpec`; the sup-relative deviation of every component (u_j,
    u_j') from the exact state is that of w_eps on [0, r_max].  A run that
    stops early raises its :class:`OdeError`; ``stopped_classification``
    reports it."""
    spec = IVPSpec(m=m, alpha=alpha, even_initial=family_state(m, alpha, 1.0, 0.0)[0, 0::2],
                   r_max=unit_radius(eps, r_max))
    return _classification_report(m, alpha, eps, r_max, integrate(spec))


def describe_stop(err: OdeError) -> str:
    """The ``stop_reason`` that a report gives for ``err``."""
    return f"{type(err).__name__}: {err}"


def stopped_classification(m: int, alpha: float, eps: float, r_max: float,
                           err: OdeError) -> ClassificationReport:
    """The report of a ``classification_check`` run that raised ``err``: the
    deviation and counters of the partial unit trajectory it carries, the
    radius reached and the error as ``stop_reason``.  w_eps is global, so
    the verdict is "departs"."""
    return _classification_report(m, alpha, eps, r_max, err.result, describe_stop(err))


def _classification_report(m: int, alpha: float, eps: float, r_max: float,
                           result: SolveResult, stop_reason: Optional[str] = None
                           ) -> ClassificationReport:
    exact = family_state(m, alpha, 1.0, result.r)
    max_dev = float(np.max(np.max(np.abs(result.y - exact), axis=0)
                           / np.max(np.abs(exact), axis=0)))
    coincides = stop_reason is None and max_dev <= CLASSIFY_TOL
    return ClassificationReport(
        m=m, alpha=float(alpha), eps=float(eps), r_max=float(r_max),
        max_rel_dev=max_dev, stats=replace(result.stats, min_step=result.stats.min_step * eps),
        verdict="coincides" if coincides else "departs",
        reached_r=float(result.r[-1]) * eps, stop_reason=stop_reason,
    )


def departure_from_family(m: int, alpha: float, result: SolveResult) -> float:
    """min over eps of sup_r |u_0(r) - w_eps(r)| / sup_r w_eps(r) on the
    trajectory nodes: small only when the solution coincides with a family
    member.  Relative to the sup, as in ``classification_check``: w_eps falls
    like r^-gap, so a pointwise ratio grows with the integration's absolute
    error in the tail.  The eps grid spans a factor of 16, geometrically
    centred on the member that matches u_0(r0), or on eps = 1 when
    u_0(r0) <= 0 and none matches."""
    u0 = result.component(0)
    centre = match_epsilon(m, alpha, float(u0[0])) if u0[0] > 0 else 1.0
    best = math.inf
    for eps in centre * np.geomspace(0.25, 4.0, 61):
        w = bliss_profile(m, alpha, eps)(result.r)
        best = min(best, float(np.max(np.abs(u0 - w)) / np.max(w)))
    return best

