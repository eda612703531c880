"""Singular initial value problem for the critical polyharmonic equation.

The 2m-th order scalar problem is integrated as the equivalent coupled
second-order system in u_j = (-Delta_alpha)^j y:

    -Delta_alpha u_j     = u_{j+1},        j = 0..m-2,
    -Delta_alpha u_{m-1} = |u_0|^(2*-2) u_0,

i.e. u_j'' = -(alpha/r) u_j' - u_{j+1}, a 2m-dimensional first order system
with a regular singular point at r = 0.  Solutions with even initial data
are analytic there, so integration starts from their Taylor series (the
Taylor-series start of Corliss and Chang, ACM TOMS 8, 1982): SERIES_TERMS
terms of each level in s = r^2, from the origin relations

    c_{j,k+1} = -c_{j+1,k} / (2(k+1)(2k+1+alpha)),

with the closing level |u_0|^p u_0 expanded by J.C.P. Miller's power
recurrence.  The series is formed at the data's dilation scale, so no
coefficient leaves the float range at any dilation, and without a given
``r0`` the run starts at ``series_radius``, where every level's last term
is below rounding: r0 = 0.37 down to 0.23 for exact data at m = 1..8 and
gap 2.4, which the singular coefficient -(alpha/r) v_j, holding the step to
a fraction of r, made cost 40-45 % of a run from the fourth-order start at
r0 = 1e-4.  From there the embedded Dormand-Prince 8(5,3) pair DOP853 of
Hairer, Norsett and Wanner (Solving ODEs I, II.10) proceeds under a
standard error-per-step controller: an 8th-order pair suits the 1e-10
tolerance of the classification, where the 5(4) pair took 4-8 times the
steps and left 10-100 times the deviation.  Each attempt evaluates f at
eleven stages past the first; f at the new state is evaluated only once the
step is accepted, and becomes the next step's first stage.  ``integrate``
steps on Python floats, which beat numpy calls at these sizes (2m <= 16),
through one generated step kernel per order m: straight-line code over local
names, with no list, zip or call per stage, compiled on first use and cached
by m.

Forward integration is not well conditioned: the singular homogeneous
modes r^-(alpha-2j+1) decay with increasing r, but the regular modes of the
linearization grow like r^(2j) while w_eps decays like r^-(alpha-2m+1), so
a roundoff error at ``rel_tol`` grows relative to the solution by about
r^(alpha-2m+1+2(m-1)).  At alpha - 2m + 1 between 2 and 2.75 and
r_max = 20, exact family data for m <= 4 coincide (deviations up to
2.0e-6), m = 5 reads 1.3e-6 to 2.1e-4 and coincides at 9 of 16 gaps on an
even grid, m = 6 reaches r_max but departs and m = 7, 8 raise
BlowupError.  From m = 4 on a tighter ``rel_tol`` no longer shrinks the
deviation, so the float data, not the integrator, set it there.

A maximal solution ends where its state becomes unbounded, so the run
stops once some level |u_j| exceeds OVERFLOW_LIMIT lam^(gap/2 + 2j), with
gap = alpha - 2m + 1 and lam = max_j |u_j(0)|^(1/(gap/2 + 2j)) the
dilation scale of the data.  Level j of w_eps scales like
eps^-(gap/2 + 2j), so the bounds, the start radius and the radius where a
run stops follow the dilation.

Nonsingular solutions with vanishing odd-order data coincide with the
dilation family w_eps; ``classification_check`` quantifies that statement by
integrating from w_1 data to ``unit_radius(eps, r_max)`` = r_max/eps (the
equation is dilation invariant, u_j(r) = eps^-(gap/2 + 2j) U_j(r/eps), so
every eps is the same float problem) and measuring the deviation from the
exact state ``family_state`` derives from ``bliss_profile``.  It stops the
run with DepartureError once |u_0 - w_1| passes CLASSIFY_TOL w_1(0), where
the verdict "departs" is settled: at gap 2.5 exact data for m = 6, 7, 8
stop there at r = 10.5, 7.2 and 6.6, in runs that would reach r_max or
raise BlowupError at r = 15.3.  ``departure_from_family`` measures how far
a perturbed data set drifts from every member of the family.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .constants import critical_exponent, require_sobolev, sobolev_gap
from .errors import (BlowupError, DepartureError, DomainError, OdeError,
                     StepUnderflowError)
from .functionals import bliss_amplitude, bliss_profile


#: ``integrate`` raises BlowupError once some level |u_j| exceeds this
#: times lam^(gap/2 + 2j), lam the dilation scale of the start state.
OVERFLOW_LIMIT = 1e12
#: ``integrate`` raises StepUnderflowError once the step falls below this
#: times r; relative to r, so the floor scales with the dilation.
STEP_FLOOR = 1e-12
#: ``integrate`` hands its ``departed`` check each run of this many accepted
#: steps: one array call per run costs under 1 us a step.
DEPARTURE_CHECK_STEPS = 32
#: Terms of each level's series in s = r^2 at the handoff radius.
SERIES_TERMS = 20
#: ``series_radius`` takes each level's last series term below this, the
#: unit roundoff, times the level's dilation scale.
ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class IVPSpec:
    """Problem statement: even-order initial data (odd-order data is zero by
    hypothesis) plus integration controls.  Without an ``r0`` the run
    starts at ``series_radius``."""

    m: int
    alpha: float
    even_initial: Tuple[float, ...]   # u_j(0) for j = 0..m-1
    r0: Optional[float] = None        # series handoff radius
    r_max: float = 20.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        # plain floats throughout: a numpy scalar would slow every stage and
        # turn an overflow into a warning and inf
        for name in ("alpha", "r_max", "rel_tol", "abs_tol"):
            object.__setattr__(self, name, float(getattr(self, name)))
        require_sobolev(self.m, self.alpha)
        if len(self.even_initial) != self.m:
            raise ValueError(
                f"need m={self.m} even-order values, got {len(self.even_initial)}"
            )
        object.__setattr__(self, "even_initial", tuple(float(v) for v in self.even_initial))
        r0 = series_radius(self) if self.r0 is None else self.r0
        object.__setattr__(self, "r0", float(r0))
        if not 0 < self.r0 < self.r_max < math.inf:
            raise DomainError(f"need 0 < series handoff radius ({self.r0:g}) "
                              f"< r_max ({self.r_max:g}) < inf")


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


def _power(x: float, e: float) -> float:
    """x ** e for x >= 0, inf past the float range."""
    try:
        return x ** e
    except OverflowError:
        return math.inf


def _dilation_scale(gap: float, data) -> float:
    """lam = max_j |u_j(0)|^(1/(gap/2 + 2j)): the dilation under which the
    data's largest level is of unit size."""
    return max(_power(abs(v), 1.0 / (gap / 2.0 + 2.0 * j)) for j, v in enumerate(data))


def _series(m: int, alpha: float, data) -> Tuple[float, list]:
    """(lam, rows): the dilation scale of the data u_j(0) and, for each level,
    the SERIES_TERMS coefficients C_jk of its dilation to unit scale,

        U_j(rho) = lam^-(gap/2 + 2j) u_j(rho / lam) = sum_k C_jk rho^(2k),

    which solves the same system.  In s = rho^2 the origin relations read
    C_j,k+1 = -C_j+1,k / (2(k+1)(2k+1+alpha)), with level m the closing
    term g(U_0), whose coefficients follow from those of U_0 by J.C.P.
    Miller's power recurrence (Knuth, TAOCP 2, 4.7) at the exponent
    q = p + 1.  g is not a series in s when u_0(0) = 0; level m is then
    zero, and ``series_radius`` bounds what that neglects.  Raises
    DomainError when lam overflows."""
    gap = sobolev_gap(m, alpha)
    lam = _dilation_scale(gap, data)
    if lam == math.inf:
        raise DomainError(f"initial data {list(data)} overflow the series "
                          f"start at the origin")
    # |u_j(0)| <= lam^e, so a lam^e past the float range meets a datum
    # negligible at unit scale, and an underflowed one (zero data among
    # them) a zero or subnormal one
    scales = [_power(lam, gap / 2.0 + 2.0 * j) for j in range(m)]
    rows = [[v / s if s else 0.0] for v, s in zip(data, scales)]
    u0 = rows[0]
    a0 = u0[0]
    p = _closing_power(m, alpha)
    q = p + 1.0
    closing = [abs(a0) ** p * a0]
    for k in range(1, SERIES_TERMS):
        n = k - 1
        if n:
            closing.append(sum(((q + 1.0) * i - n) * u0[i] * closing[n - i]
                               for i in range(1, n + 1)) / (n * a0) if a0 else 0.0)
        d = 2.0 * k * (2.0 * k - 1.0 + alpha)
        for j in range(m):
            rows[j].append(-(rows[j + 1][n] if j + 1 < m else closing[n]) / d)
    return lam, rows + [closing]


def _horner(row: list, s: float) -> float:
    """sum_k row[k] s^k for k >= 1."""
    total = 0.0
    for c in reversed(row[1:]):
        total = (total + c) * s
    return total


def series_radius(spec: IVPSpec) -> float:
    """The handoff radius of a spec without ``r0``: rho / lam, capped at
    r_max / 2, with lam the data's dilation scale (see ``_series``) and rho
    the largest unit-scale radius where every level's last term
    |C_j,N-1| rho^(2(N-1)), N = SERIES_TERMS, is below ROUNDOFF and at most
    half of an earlier term of its level, the closing level included: past
    their peak, as a ratio estimate of the radius of convergence demands
    (at a closing power q in the hundreds Miller's terms still grow at
    k = N).  When u_0(0) = 0, rho is halved until the neglected closing
    term's share of level m - 1, rho^2 |U_0|^q / (2(alpha + 1)), is below
    ROUNDOFF too."""
    lam, rows = _series(spec.m, spec.alpha, spec.even_initial)
    cap = 0.5 * spec.r_max
    if lam == 0.0:
        return cap
    bounds = [lam * cap]
    bounds += [(ROUNDOFF / abs(row[-1])) ** (0.5 / (SERIES_TERMS - 1))
               for row in rows[:-1] if row[-1]]
    bounds += [math.sqrt(max((0.5 * abs(c / row[-1])) ** (1.0 / (len(row) - 1 - k))
                             for k, c in enumerate(row[:-1])))
               for row in rows if row[-1]]
    rho = min(bounds)
    if not rows[0][0]:
        q = _closing_power(spec.m, spec.alpha) + 1.0
        while (math.isfinite(rho) and rho * rho * _power(abs(_horner(rows[0], rho * rho)), q)
               > 2.0 * (spec.alpha + 1.0) * ROUNDOFF):
            rho *= 0.5
    return min(rho / lam, cap)


def series_start(spec: IVPSpec) -> list:
    """The state (u_0, u_0', ..., u_{m-1}, u_{m-1}') at the handoff radius
    r0 from the SERIES_TERMS-term series of each level (see ``_series``),
    on floats: u_j(r0) = u_j(0) + lam^(gap/2 + 2j) sum_{k>=1} C_jk rho^(2k)
    and u_j'(r0) = lam^(gap/2 + 2j) sum_k 2k C_jk rho^(2k) / r0 at
    rho = lam r0, by Horner's rule, so the data enter unrounded.  Raises
    DomainError when the data make the dilation scale or the state
    overflow."""
    m, data, r = spec.m, spec.even_initial, spec.r0
    lam, rows = _series(m, spec.alpha, data)
    gap = sobolev_gap(m, spec.alpha)
    s = (lam * r) ** 2
    y = []
    for j, (v, row) in enumerate(zip(data, rows)):
        scale = _power(lam, gap / 2.0 + 2.0 * j)
        tail = _horner(row, s)
        slope = _horner([2.0 * k * c for k, c in enumerate(row)], s)
        # a level far below its scale may have lam^e = inf and a zero tail
        y += [v + scale * tail if tail else v, scale * slope / r if slope else 0.0]
    if not all(map(math.isfinite, y)):
        raise DomainError(f"initial data {list(data)} overflow the series "
                          f"start at the origin")
    return y


# ---------------------------------------------------------------------------
# Embedded Dormand-Prince 8(5,3)
# ---------------------------------------------------------------------------

# The DOP853 tableau of Hairer, Norsett and Wanner, Solving ODEs I, II.10
# (after Prince and Dormand 1981), as the step's data for the kernel
# generator: for each stage s = 2..12 its node c_s and its nonzero (a_sj, j)
# terms, then the 8th-order solution (b_j, j) and the 5th- and 3rd-order
# error weights (e_j, j).  The values are those of scipy's
# dop853_coefficients: the doubles nearest the published 30-digit ones,
# except e3_1, e3_9 and e3_12, which are the differences b_j - bhat_j in
# doubles.
_STAGE_ROWS = (
    (0.05260015195876773, ((0.05260015195876773, 1),)),
    (0.0789002279381516, ((0.0197250569845379, 1), (0.0591751709536137, 2))),
    (0.1183503419072274, ((0.02958758547680685, 1), (0.08876275643042054, 3))),
    (0.2816496580927726, ((0.2413651341592667, 1), (-0.8845494793282861, 3),
                          (0.924834003261792, 4))),
    (0.3333333333333333, ((0.037037037037037035, 1), (0.17082860872947386, 4),
                          (0.12546768756682242, 5))),
    (0.25, ((0.037109375, 1), (0.17025221101954405, 4), (0.06021653898045596, 5),
            (-0.017578125, 6))),
    (0.3076923076923077, ((0.03709200011850479, 1), (0.17038392571223998, 4),
                          (0.10726203044637328, 5), (-0.015319437748624402, 6),
                          (0.008273789163814023, 7))),
    (0.6512820512820513, ((0.6241109587160757, 1), (-3.3608926294469414, 4),
                          (-0.868219346841726, 5), (27.59209969944671, 6),
                          (20.154067550477894, 7), (-43.48988418106996, 8))),
    (0.6, ((0.47766253643826434, 1), (-2.4881146199716677, 4), (-0.590290826836843, 5),
           (21.230051448181193, 6), (15.279233632882423, 7), (-33.28821096898486, 8),
           (-0.020331201708508627, 9))),
    (0.8571428571428571, ((-0.9371424300859873, 1), (5.186372428844064, 4),
                          (1.0914373489967295, 5), (-8.149787010746927, 6),
                          (-18.52006565999696, 7), (22.739487099350505, 8),
                          (2.4936055526796523, 9), (-3.0467644718982196, 10))),
    (1.0, ((2.273310147516538, 1), (-10.53449546673725, 4), (-2.0008720582248625, 5),
           (-17.9589318631188, 6), (27.94888452941996, 7), (-2.8589982771350235, 8),
           (-8.87285693353063, 9), (12.360567175794303, 10), (0.6433927460157636, 11))),
)
_SOLUTION_ROW = (
    (0.054293734116568765, 1), (4.450312892752409, 6), (1.8915178993145003, 7),
    (-5.801203960010585, 8), (0.3111643669578199, 9), (-0.1521609496625161, 10),
    (0.20136540080403034, 11), (0.04471061572777259, 12),
)
_ERROR5_ROW = (
    (0.01312004499419488, 1), (-1.2251564463762044, 6), (-0.4957589496572502, 7),
    (1.6643771824549864, 8), (-0.35032884874997366, 9), (0.3341791187130175, 10),
    (0.08192320648511571, 11), (-0.022355307863886294, 12),
)
_ERROR3_ROW = (
    (-0.18980075407240762, 1), (4.450312892752409, 6), (1.8915178993145003, 7),
    (-5.801203960010585, 8), (-0.4226823213237919, 9), (-0.1521609496625161, 10),
    (0.20136540080403034, 11), (0.02265179219836082, 12),
)


def _coefficient_names() -> dict:
    """Every nonzero coefficient under the name the kernel gives it: C{s}
    and A{s}_{j} of stage s, B{j}, E5_{j} and E3_{j}.  Names, not
    formatted values, so one kernel per m serves every alpha and tolerance."""
    names = {}
    for s, (node, row) in enumerate(_STAGE_ROWS, start=2):
        names[f"C{s}"] = node
        names.update((f"A{s}_{j}", w) for w, j in row)
    for prefix, row in (("B", _SOLUTION_ROW), ("E5_", _ERROR5_ROW), ("E3_", _ERROR3_ROW)):
        names.update((f"{prefix}{j}", w) for w, j in row)
    return names


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
    DOP853 attempt from the state y with k1 = f(r, y); it returns
    (y_new, err5, err3), the sums of the squared components of the 5th- and
    3rd-order error estimates sum_j e_j k_j, each scaled by abs_tol +
    rel_tol max(|y_i|, |y_new_i|).  f(r + h, y_new) is left to the caller,
    which needs it only once the step is accepted.  Stage s keeps the odd
    entries of its point in z{s}_i and of its slope in k{s}_i; its slope's
    even entries are the point's odd ones.  Each sum runs left to right in
    the order of the tableau, so the arithmetic is that of the loop over
    stages."""
    n = 2 * m
    state = [f"y{i}" for i in range(n)]
    new = len(_STAGE_ROWS) + 2          # y_new is the point after the last stage

    def slope(prefix: str, point: list) -> list:
        return [point[i + 1] if i % 2 == 0 else f"{prefix}{i}" for i in range(n)]

    rhs = [f"{', '.join(state)} = y", "k = -(alpha / r)"]
    rhs += _rhs_lines(n, state, slope("f", state))
    rhs.append(f"return {', '.join(slope('f', state))}")

    points = {s: [f"z{s}_{i}" for i in range(n)] for s in range(2, new + 1)}
    slopes = {s: slope(f"k{s}_", points[s]) for s in range(2, new)}
    slopes[1] = [f"k1_{i}" for i in range(n)]
    step = [f"{', '.join(state)} = y", f"{', '.join(slopes[1])} = k1"]

    def combine(s: int, prefix: str, row) -> None:
        step.extend(f"a{t} = h * {prefix}{t}" for _, t in row)
        for i in range(n):
            terms = "".join(f" + a{t} * {slopes[t][i]}" for _, t in row)
            step.append(f"{points[s][i]} = {state[i]}{terms}")

    def weighted_sum(prefix: str, row, i: int) -> str:
        return " + ".join(f"{prefix}{t} * {slopes[t][i]}" for _, t in row)

    for s, (_, row) in enumerate(_STAGE_ROWS, start=2):
        combine(s, f"A{s}_", row)
        step.append(f"k = -(alpha / (r + C{s} * h))")
        step += _rhs_lines(n, points[s], slopes[s])
    combine(new, "B", _SOLUTION_ROW)
    for i in range(n):
        # max(|y_i|, |y_new_i|) as max() picks it: the second only if larger
        step += [f"a = abs({state[i]})", f"b = abs({points[new][i]})",
                 "s = abs_tol + rel_tol * (b if b > a else a)",
                 f"q = ({weighted_sum('E5_', _ERROR5_ROW, i)}) / s",
                 "err5 += q * q" if i else "err5 = q * q",
                 f"q = ({weighted_sum('E3_', _ERROR3_ROW, i)}) / s",
                 "err3 += q * q" if i else "err3 = q * q"]
    step.append(f"return ({', '.join(points[new])}), err5, err3")
    indent = "\n        "
    return (f"def make(alpha, p, abs_tol, rel_tol):\n"
            f"    def rhs(r, y):{indent}{indent.join(rhs)}\n"
            f"    def step(r, h, y, k1):{indent}{indent.join(step)}\n"
            f"    return rhs, step\n")


# kept: a build takes 1.3 / 3.2 / 8.5 ms at m = 1 / 4 / 8, a classification 1 / 6 / 25
@functools.lru_cache(maxsize=16)    # bounded: a kernel's code grows with m
def _kernel(m: int):
    """The compiled ``make`` of ``_kernel_source(m)``, built on first use;
    its globals are the tableau's ``_coefficient_names``."""
    namespace: dict = {}
    exec(compile(_kernel_source(m), f"<dop853 m={m}>", "exec"),
         _coefficient_names(), namespace)
    return namespace["make"]


def _level_bounds(gap: float, data) -> Tuple[float, tuple]:
    """The dilation scale lam of the data u_j(0) (``_dilation_scale``) and
    each level's (2j, OVERFLOW_LIMIT * lam^(gap/2 + 2j)), 2j its index in
    the state; zero data give zero bounds."""
    lam = _dilation_scale(gap, data)
    return lam, tuple((2 * j, OVERFLOW_LIMIT * _power(lam, gap / 2.0 + 2.0 * j))
                      for j in range(len(data)))


def integrate(spec: IVPSpec,
              departed: Optional[Callable[[np.ndarray, np.ndarray], Optional[str]]] = None
              ) -> SolveResult:
    """Adaptive integration of the coupled system from r0 to r_max.

    The state and the stages are Python floats, and each attempt is one call
    of the step kernel ``_kernel(m)`` (see ``_kernel_source``), which takes
    alpha and the tolerances as closure values.  Every sum keeps the
    left-to-right order of a loop over the stages, so the trajectory is the
    same bit for bit as that of the loop (``tests/test_ode.py`` checks it
    against one).  The accepted nodes and states are kept in ``array('d')``
    buffers, 8 bytes a value, which become ``SolveResult.r`` and ``.y``
    without a copy.

    A trial step whose stages, or f at whose new state, leave the float
    range, or whose error norm is not finite, is rejected and retried at a
    fifth of its size, so a long trial step past a blow-up does not decide
    where the run stops.  f at the new state is evaluated only for a step
    that passes the error test, so ``rhs_evaluations`` is one at the start,
    eleven per attempt and one per step that passed the error test.
    Raises :class:`StepUnderflowError` when the controller collapses the
    step below the floor (a stiff problem, or f overflowing every trial
    step) and :class:`BlowupError` when, after an accepted step, some
    level |u_j| exceeds its bound OVERFLOW_LIMIT lam^(gap/2 + 2j) (see
    ``_level_bounds``), when f overflows at the start state or when the
    error scale is zero.  ``departed``, when given, is called with the radii
    and the states (rows as in ``SolveResult.y``) of each run of
    DEPARTURE_CHECK_STEPS accepted steps, and returns None or the reason to
    stop, which raises :class:`DepartureError`.  Each error carries the
    partial trajectory in ``.result``.
    """
    r_max, rel_tol, abs_tol = spec.r_max, spec.rel_tol, spec.abs_tol
    p = _closing_power(spec.m, spec.alpha)
    rhs, step = _kernel(spec.m)(spec.alpha, p, abs_tol, rel_tol)
    r = spec.r0
    y = series_start(spec)
    n = len(y)
    gap = sobolev_gap(spec.m, spec.alpha)
    lam, bounds = _level_bounds(gap, spec.even_initial)
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
        evals += 11              # counted also when a stage ends the attempt
        try:
            y_new, err5, err3 = step(r, h, y, k1)
            # the 5th-order estimate, damped where the 3rd-order one is large
            err_norm = h * err5 / math.sqrt(n * (err5 + 0.01 * err3)) if err5 else 0.0
            if err_norm <= 1.0:
                # the step clipped to r_max lands on it: r + (r_max - r) can
                # fall an ulp short, and the next step would be below the floor
                r_new = r_max if h == r_max - r else r + h
                evals += 1
                k1_new = rhs(r_new, y_new)
        except OverflowError:
            err_norm = math.inf  # a stage, or f at y_new, past the float range
        except ZeroDivisionError:
            # a zero error scale (abs_tol = 0 at a zero state)
            raise _non_finite() from None
        if err_norm <= 1.0:
            r, y, k1 = r_new, y_new, k1_new
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
            if departed is not None and steps % DEPARTURE_CHECK_STEPS == 0:
                reason = departed(
                    np.frombuffer(nodes[-DEPARTURE_CHECK_STEPS:]),
                    np.frombuffer(states[-DEPARTURE_CHECK_STEPS * n:]).reshape(-1, n))
                if reason is not None:
                    raise DepartureError(reason, _finish())
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.125))
        else:
            rejected += 1
            factor = max(0.2, 0.9 * err_norm ** -0.125) if math.isfinite(err_norm) else 0.2
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
    reports it.

    The run stops with :class:`DepartureError` once |u_0 - w_1| exceeds
    CLASSIFY_TOL w_1(0) at a node: w_1 falls from its sup w_1(0), so the
    deviation already exceeds CLASSIFY_TOL and the verdict is "departs"
    whatever the rest of the run does."""
    w = bliss_profile(m, alpha, 1.0)
    limit = CLASSIFY_TOL * w(0.0)

    def departed(r: np.ndarray, y: np.ndarray) -> Optional[str]:
        gaps = np.abs(y[:, 0] - w(r))
        far = np.flatnonzero(gaps > limit)
        if not far.size:
            return None
        k = far[0]
        return (f"u_0 - w_1 = {gaps[k]:.3e} exceeded CLASSIFY_TOL ({CLASSIFY_TOL:g}) "
                f"x w_1(0) = {limit:.3e} at r={r[k]:.6g} (departs from the family)")

    spec = IVPSpec(m=m, alpha=alpha, even_initial=family_state(m, alpha, 1.0, 0.0)[0, 0::2],
                   r_max=unit_radius(eps, r_max))
    return _classification_report(m, alpha, eps, r_max, integrate(spec, departed))


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


def departure_from_family(spec: IVPSpec, result: SolveResult) -> float:
    """min over eps of sup_r |u_0(r) - w_eps(r)| / sup_r w_eps(r) on the
    nodes of ``result``, the trajectory of ``spec``: small only when the
    solution coincides with a family member.  Relative to the sup, as in
    ``classification_check``: w_eps falls like r^-gap, so a pointwise ratio
    grows with the integration's absolute error in the tail.  The eps grid
    spans a factor of 16, geometrically centred on the member that matches
    the datum u_0(0), or on eps = 1 when u_0(0) <= 0 and none matches."""
    m, alpha, v0 = spec.m, spec.alpha, spec.even_initial[0]
    u0 = result.component(0)
    centre = match_epsilon(m, alpha, v0) if v0 > 0 else 1.0
    best = math.inf
    for eps in centre * np.geomspace(0.25, 4.0, 61):
        w = bliss_profile(m, alpha, eps)(result.r)
        best = min(best, float(np.max(np.abs(u0 - w)) / np.max(w)))
    return best
