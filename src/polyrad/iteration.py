"""Numerical realization of the regularity iteration chain.

Starting from a decaying profile u, the chain is

    w_0 = |u|^(2*-2) u,
    w_k(r) = int_r^inf t^(-alpha) ( int_0^t s^alpha w_{k-1}(s) ds ) dt,

so that -Delta_alpha w_k = w_{k-1} and, when u solves the critical equation,
w_m = u (the fixed point).  Everything lives on a geometric grid; integrals
are trapezoid sums in log coordinates (the integrands vary polynomially in
log r), the inner integral is closed at the origin by a power-law
extrapolation of the first two nodes, and the outer integral is closed at
r_max analytically from the declared algebraic decay exponent:

    with  w(s) ~ w(R) (s/R)^(-mu)  for s > R = r_max,

    int_R^inf t^-alpha ( I(R) + int_R^t s^alpha w ds ) dt
        = I(R) R^(1-alpha) / (alpha-1)  +  w(R) R^2 / ((mu-2)(alpha-1)),

which converges exactly when mu > 2 (and alpha > 1, implied by the
embedding condition).  The companion exponent sequence is

    q_0 = 2*/(2*-1),   q_k = q_{k-1} (alpha+1) / (alpha - 2 q_{k-1} + 1)
                           = 2 (alpha+1) / (alpha + 2m + 1 - 4k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .constants import critical_exponent, require_sobolev
from .errors import DomainError, TailDivergenceError
from .functionals import RadialProfile


# ---------------------------------------------------------------------------
# Grid containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialGrid:
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("grid needs at least three nodes")
        if not nodes[0] > 0:
            raise ValueError("grid must start at a positive radius")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def geometric(cls, r_min: float = 1e-4, r_max: float = 1e3,
                  n: int = 4096) -> "RadialGrid":
        return cls(np.geomspace(r_min, r_max, n))

    @property
    def r_min(self) -> float:
        return float(self.nodes[0])

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class GridFunction:
    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must align with the grid nodes")
        object.__setattr__(self, "values", values)

    @classmethod
    def sample(cls, profile, grid: RadialGrid) -> "GridFunction":
        return cls(grid, np.asarray(profile(grid.nodes), dtype=float))


# ---------------------------------------------------------------------------
# q-sequence
# ---------------------------------------------------------------------------


def q_sequence(m: int, alpha: float) -> List[float]:
    """q_0..q_m by the recursion; agrees with the closed form
    2(alpha+1)/(alpha+2m+1-4k) to round-off."""
    require_sobolev(m, alpha)
    two_star = critical_exponent(m, alpha)
    qs = [two_star / (two_star - 1.0)]
    for _ in range(m):
        q = qs[-1]
        qs.append(q * (alpha + 1.0) / (alpha - 2.0 * q + 1.0))
    return qs


def q_closed_form(k: int, m: int, alpha: float) -> float:
    return 2.0 * (alpha + 1.0) / (alpha + 2.0 * m + 1.0 - 4.0 * k)


# ---------------------------------------------------------------------------
# Chain construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IterationChain:
    m: int
    alpha: float
    w: Tuple[GridFunction, ...]            # w_0 .. w_m
    q: Tuple[float, ...]                   # q_0 .. q_m
    decay: Tuple[float, ...]               # declared tail exponent per w_k
    source_integrals: Tuple[GridFunction, ...] = field(repr=False)
    # source_integrals[k-1](r) = int_0^r s^alpha w_{k-1} ds, so that
    # r^alpha w_k'(r) = -source_integrals[k-1](r) identically.

    @property
    def grid(self) -> RadialGrid:
        return self.w[0].grid


def _origin_power(r0: float, r1: float, v0: float, v1: float,
                  alpha: float) -> float:
    """int_0^r0 s^alpha w ds assuming w(s) ~ v0 (s/r0)^p between 0 and the
    first node, with p fitted from the first two nodes (p = 0 when the
    local behavior gives no usable power)."""
    if v0 == 0.0:
        return 0.0
    p = 0.0
    if v1 != 0.0 and np.sign(v0) == np.sign(v1):
        p = float(np.log(abs(v1 / v0)) / np.log(r1 / r0))
        # keep the extrapolated integral convergent at the origin
        p = min(max(p, -alpha - 0.99), 8.0)
    return v0 * r0 ** (alpha + 1.0) / (alpha + 1.0 + p)


def _cumtrapz_log(y: np.ndarray, log_r: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of y d(log r), starting at 0."""
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(log_r))
    return out


def _inverse_neg_laplacian(w: GridFunction, alpha: float, mu: float
                           ) -> Tuple[GridFunction, GridFunction]:
    """One chain step: returns (w_next, inner_integral) where
    w_next(r) = int_r^inf t^-alpha inner(t) dt and
    inner(t) = int_0^t s^alpha w(s) ds, with analytic closures at both ends.

    ``mu`` is the declared algebraic decay exponent of w; the outer tail
    converges only for mu > 2.
    """
    if not mu > 2.0:
        raise TailDivergenceError(
            f"declared decay r^-{mu:g} is too slow: outer integral needs mu > 2"
        )
    r = w.grid.nodes
    log_r = np.log(r)
    vals = w.values
    inner0 = _origin_power(r[0], r[1], vals[0], vals[1], alpha)
    inner = inner0 + _cumtrapz_log(r ** (alpha + 1.0) * vals, log_r)
    # outer integral, accumulated from the right (suffix sums keep the far
    # tail free of cancellation) plus the analytic tail beyond r_max
    R = r[-1]
    tail = inner[-1] * R ** (1.0 - alpha) / (alpha - 1.0) \
        + vals[-1] * R * R / ((mu - 2.0) * (alpha - 1.0))
    outer_integrand = r ** (1.0 - alpha) * inner
    pieces = 0.5 * (outer_integrand[1:] + outer_integrand[:-1]) * np.diff(log_r)
    suffix = np.concatenate((np.cumsum(pieces[::-1])[::-1], [0.0]))
    w_next = tail + suffix
    return GridFunction(w.grid, w_next), GridFunction(w.grid, inner)


def iterate_chain(u: RadialProfile, m: int, alpha: float,
                  grid: Optional[RadialGrid] = None) -> IterationChain:
    """Build w_0..w_m from the profile u on the grid.

    The profile must carry a tail decay exponent; it closes the truncated
    integrals analytically.  Raises :class:`TailDivergenceError` when the
    declared decay is too slow for the outer integral to converge.
    """
    require_sobolev(m, alpha)
    if grid is None:
        grid = RadialGrid.geometric()
    if u.decay_exponent is None:
        raise DomainError("profile needs a declared decay exponent for the chain")
    two_star = critical_exponent(m, alpha)
    u_vals = np.asarray(u(grid.nodes), dtype=float)
    w0 = np.abs(u_vals) ** (two_star - 2.0) * u_vals
    w = [GridFunction(grid, w0)]
    decay = [u.decay_exponent * (two_star - 1.0)]
    inners = []
    for _ in range(m):
        w_next, inner = _inverse_neg_laplacian(w[-1], alpha, decay[-1])
        w.append(w_next)
        inners.append(inner)
        decay.append(min(alpha - 1.0, decay[-1] - 2.0))
    return IterationChain(
        m=m,
        alpha=float(alpha),
        w=tuple(w),
        q=tuple(q_sequence(m, alpha)),
        decay=tuple(decay),
        source_integrals=tuple(inners),
    )


# ---------------------------------------------------------------------------
# Finite-difference residuals
# ---------------------------------------------------------------------------


def neg_laplacian_fd(gf: GridFunction, alpha: float) -> GridFunction:
    """-(u'' + (alpha/r) u') by three-point stencils with exact local
    weights for the non-uniform grid; the result loses one node per side."""
    r = gf.grid.nodes
    u = gf.values
    h1 = r[1:-1] - r[:-2]
    h2 = r[2:] - r[1:-1]
    du = (-h2 / (h1 * (h1 + h2)) * u[:-2]
          + (h2 - h1) / (h1 * h2) * u[1:-1]
          + h1 / (h2 * (h1 + h2)) * u[2:])
    d2u = 2.0 * (u[:-2] / (h1 * (h1 + h2))
                 - u[1:-1] / (h1 * h2)
                 + u[2:] / (h2 * (h1 + h2)))
    interior = RadialGrid(r[1:-1])
    return GridFunction(interior, -(d2u + alpha / r[1:-1] * du))


@dataclass(frozen=True)
class InverseReport:
    j: int
    residuals: dict       # k -> sup |(-Delta)^j w_k - w_{k-j}| / sup |w_{k-j}|
    windows: dict         # k -> (r_lo, r_hi) of the resolved sub-grid

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


#: ``verify_inverse`` measures only where the roundoff floor of the repeated
#: difference stays below this fraction of the target scale.
INVERSE_NOISE_FLOOR = 1e-5


def verify_inverse(chain: IterationChain, j: int) -> InverseReport:
    """Apply (-Delta_alpha)^j by finite differences to each chain member w_k
    (j <= k <= m) and report the sup-norm-relative residual against w_{k-j}.

    Repeated differencing amplifies float roundoff like eps / h^(2j), which
    on a geometric grid blows up toward the origin (h ~ delta * r).  The
    residual is therefore measured over the resolved sub-grid where that
    roundoff floor stays below INVERSE_NOISE_FLOOR of the target scale;
    the report carries the window.
    """
    if not 1 <= j <= chain.m:
        raise ValueError(f"need 1 <= j <= m, got j={j}")
    eps = float(np.finfo(float).eps)
    residuals = {}
    windows = {}
    for k in range(j, chain.m + 1):
        fd = chain.w[k]
        for _ in range(j):
            fd = neg_laplacian_fd(fd, chain.alpha)
        target = chain.w[k - j].values[j:-j]
        scale = float(np.max(np.abs(target)))
        if scale == 0.0:
            residuals[k] = float(np.max(np.abs(fd.values)))
            windows[k] = (float(fd.grid.r_min), float(fd.grid.r_max))
            continue
        r = fd.grid.nodes
        h = np.gradient(r)
        input_scale = float(np.max(np.abs(chain.w[k].values)))
        floor = eps * input_scale * (6.0 / h ** 2) ** j / scale
        mask = floor <= INVERSE_NOISE_FLOOR
        if not np.any(mask):
            raise DomainError(
                f"no grid nodes resolve a {j}-fold finite difference at "
                f"noise floor {INVERSE_NOISE_FLOOR:g}; refine or shrink the grid"
            )
        residuals[k] = float(np.max(np.abs(fd.values - target)[mask]) / scale)
        windows[k] = (float(r[mask].min()), float(r[mask].max()))
    return InverseReport(j=j, residuals=residuals, windows=windows)


# ---------------------------------------------------------------------------
# Decay slopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayEntry:
    k: int
    slope: Optional[float]           # least-squares slope over the last decade
    bound_exponent: float            # -(alpha+2m+1-4k)/2
    bound_satisfied: Optional[bool]
    skipped: bool = False


@dataclass(frozen=True)
class DecayReport:
    entries: Tuple[DecayEntry, ...]

    def entry(self, k: int) -> DecayEntry:
        return self.entries[k]


#: ``decay_report`` accepts a fitted slope up to this above the bound exponent.
DECAY_SLACK = 0.05


def decay_report(chain: IterationChain) -> DecayReport:
    """Fit log|w_k| against log r over the last grid decade and compare with
    the guaranteed bound exponent -(alpha+2m+1-4k)/2.  Chains that vanish in
    the tail are flagged skipped."""
    grid = chain.grid
    if grid.r_max < 50.0:
        raise DomainError("decay fit needs the grid to reach r_max >= 50")
    mask = grid.nodes >= grid.r_max / 10.0
    if mask.sum() < 2:
        raise DomainError(
            f"decay fit needs two grid nodes in the last decade, got {int(mask.sum())}"
        )
    log_r = np.log(grid.nodes[mask])
    entries = []
    for k, gf in enumerate(chain.w):
        bound = -(chain.alpha + 2.0 * chain.m + 1.0 - 4.0 * k) / 2.0
        tail = gf.values[mask]
        if np.any(tail <= 0.0) or tail.max() < 1e-300:
            entries.append(DecayEntry(k=k, slope=None, bound_exponent=bound,
                                      bound_satisfied=None, skipped=True))
            continue
        slope = float(np.polyfit(log_r, np.log(tail), 1)[0])
        entries.append(DecayEntry(
            k=k, slope=slope, bound_exponent=bound,
            bound_satisfied=bool(slope <= bound + DECAY_SLACK),
        ))
    return DecayReport(entries=tuple(entries))


def bliss_decay_exponent(k: int, alpha: float) -> float:
    """Tail exponent of the extremal chain member w_k, k >= 1:
    w_k ~ r^-(alpha+1-2k)."""
    return alpha + 1.0 - 2.0 * k


# ---------------------------------------------------------------------------
# Origin behavior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OriginEntry:
    k: int
    value: float           # extrapolated w_k(0)
    d1: float               # extrapolated w_k'(0)
    d2: float               # extrapolated w_k''(0)
    d3: float               # extrapolated w_k'''(0)
    d2_expected: Optional[float]  # -w_{k-1}(0)/(alpha+1), when k >= 1


@dataclass(frozen=True)
class OriginReport:
    entries: Tuple[OriginEntry, ...]

    def entry(self, k: int) -> OriginEntry:
        return self.entries[k]


#: ``origin_behavior`` fits the nodes at r <= ORIGIN_FIT_RADIUS.
ORIGIN_FIT_RADIUS = 0.05


def _origin_fit(gf: GridFunction) -> Tuple[float, float, float, float]:
    """Least-squares degree-6 fit on the nodes below r_fit =
    ORIGIN_FIT_RADIUS, in the scaled variable x = r/r_fit; returns
    (f(0), f'(0), f''(0), f'''(0)).

    Degree 6 matters: the window is one-sided, so an unmodeled even r^6
    term would leak into the odd coefficients.
    """
    r_fit = ORIGIN_FIT_RADIUS
    r = gf.grid.nodes
    mask = r <= r_fit
    if mask.sum() < 12:
        raise DomainError(
            f"grid too coarse near the origin: {int(mask.sum())} nodes below {r_fit:g}"
        )
    x = r[mask] / r_fit
    design = np.vander(x, 7, increasing=True)
    coeff, *_ = np.linalg.lstsq(design, gf.values[mask], rcond=None)
    return (
        float(coeff[0]),
        float(coeff[1] / r_fit),
        float(2.0 * coeff[2] / r_fit ** 2),
        float(6.0 * coeff[3] / r_fit ** 3),
    )


def origin_behavior(chain: IterationChain) -> OriginReport:
    """One-sided extrapolation of w_k and its first three derivatives at the
    origin.  For a positive chain the first and third derivatives vanish and
    w_k''(0) = -w_{k-1}(0)/(alpha+1)."""
    if chain.grid.r_min > 1e-3:
        raise DomainError("origin extrapolation needs the grid to reach r <= 1e-3")
    fits = [_origin_fit(gf) for gf in chain.w]
    entries = []
    for k, (v, d1, d2, d3) in enumerate(fits):
        expected = None if k == 0 else -fits[k - 1][0] / (chain.alpha + 1.0)
        entries.append(OriginEntry(k=k, value=v, d1=d1, d2=d2, d3=d3,
                                   d2_expected=expected))
    return OriginReport(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Fixed point
# ---------------------------------------------------------------------------


#: ``fixed_point_residual`` divides by max(|u|, FIXED_POINT_FLOOR).
FIXED_POINT_FLOOR = 1e-12


def fixed_point_residual(u: RadialProfile, m: int, alpha: float,
                         grid: Optional[RadialGrid] = None) -> float:
    """sup over grid nodes of |w_m - u| / max(|u|, FIXED_POINT_FLOOR); small
    exactly for solution profiles."""
    if grid is None:
        grid = RadialGrid.geometric()
    chain = iterate_chain(u, m, alpha, grid)
    u_vals = np.asarray(u(grid.nodes), dtype=float)
    denom = np.maximum(np.abs(u_vals), FIXED_POINT_FLOOR)
    return float(np.max(np.abs(chain.w[m].values - u_vals) / denom))
