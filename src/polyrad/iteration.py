"""Numerical realization of the regularity iteration chain.

Starting from a decaying profile u, the chain is

    w_0 = |u|^(2*-2) u,
    w_k(r) = int_r^inf t^(-alpha) ( int_0^t s^alpha w_{k-1}(s) ds ) dt,

so that -Delta_alpha w_k = w_{k-1} and, when u solves the critical equation,
w_m = u (the fixed point).  Everything lives on a geometric grid; integrals
are trapezoid sums in log coordinates (the integrands vary polynomially in
log r), the inner integral is closed at the origin by a power-law
extrapolation of the first two nodes, and the outer integral is closed at
r_max analytically from the algebraic decay exponent that the profile's
exact terms determine (``RadialProfile.decay_exponent``):

    with  w(s) ~ w(R) (s/R)^(-mu)  for s > R = r_max,

    int_R^inf t^-alpha ( I(R) + int_R^t s^alpha w ds ) dt
        = I(R) R^(1-alpha) / (alpha-1)  +  w(R) R^2 / ((mu-2)(alpha-1)),

which converges exactly when mu > 2 (and alpha > 1, implied by the
embedding condition).  The companion exponent sequence is

    q_0 = 2*/(2*-1),   q_k = q_{k-1} (alpha+1) / (alpha - 2 q_{k-1} + 1)
                           = 2 (alpha+1) / (alpha + 2m + 1 - 4k).

A grid owns a read-only copy of its nodes, and a chain holds its grid once
and its members as read-only float arrays on that grid; ``iterate_chain``
and ``fixed_point_residual`` need the grid given.

Cost: each call builds its grid-only arrays once.  The chain is stepped
in place, with the log-spacing and power weights hoisted, and once per
(u, m, alpha, grid): while a chain that ``iterate_chain`` built is alive,
``fixed_point_residual`` on the same inputs reads its w_m and evaluates
only u, and otherwise steps the chain keeping only the running member.
The chain steps, ``verify_inverse`` and the origin fit sweep the grid in
cache-sized blocks, so no scratch array spans the grid.  The checks read
each member about once.  ``verify_inverse`` forms each block's stencil
weights once for every k it judges there, and differences no member whose
noise floor fails at every node of the block; ``decay_report`` fits a
view of each member's tail in closed form; and ``origin_behavior`` solves
one set of 7-column normal equations for all members, summed over the
blocks of its window and refined twice by two more block sweeps.  At 2^20
nodes and m = 4 (one core of a 2-core x86 host) the chain takes about
0.08 s, the inverse check 0.027 s and the origin fit 0.022 s; the traced
peak of ``iterate_chain`` is about 8.5 grid-sized arrays, and the origin
fit's is the 12 rows of its block buffers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .constants import critical_exponent, require_sobolev
from .errors import DomainError, NonConvergenceError
from .functionals import RadialProfile


# ---------------------------------------------------------------------------
# Grid containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialGrid:
    nodes: np.ndarray

    def __post_init__(self):
        # the grid owns its nodes: a read-only copy, so no caller's array
        # can change a grid that a live chain is keyed on
        nodes = np.array(self.nodes, dtype=float)
        nodes.flags.writeable = False
        if nodes.ndim != 1 or nodes.size < 3:
            raise DomainError("grid needs at least three nodes")
        if not nodes[0] > 0:
            raise DomainError("grid must start at a positive radius")
        if not np.all(np.diff(nodes) > 0):
            raise DomainError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def geometric(cls, r_min: float, r_max: float, n: int) -> "RadialGrid":
        if n < 3:
            raise DomainError(f"grid needs at least three nodes, got {n}")
        if not 0 < r_min < r_max < np.inf:
            raise DomainError(f"need 0 < r_min < r_max < inf, got r_min={r_min:g}, "
                              f"r_max={r_max:g}")
        return cls(np.geomspace(r_min, r_max, n))

    @property
    def r_min(self) -> float:
        return float(self.nodes[0])

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    def __len__(self) -> int:
        return len(self.nodes)


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
    grid: RadialGrid
    w: Tuple[np.ndarray, ...]              # w_0 .. w_m on grid.nodes
    q: Tuple[float, ...]                   # q_0 .. q_m


#: Nodes per block of the grid sweeps (the chain steps, ``verify_inverse``
#: and the origin fit): 128 KiB per float array, so a block's weights and
#: work arrays stay in cache.
_BLOCK = 16384


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


def _chain_values(u: RadialProfile, u_vals: np.ndarray, m: int, alpha: float,
                  grid: RadialGrid) -> Iterator[np.ndarray]:
    """Yield w_0 .. w_m on the grid from the samples u_vals = u(grid.nodes).

    Each step is w_next(r) = int_r^inf t^-alpha inner(t) dt, where
    inner(t) = int_0^t s^alpha w(s) ds, with analytic closures at both ends;
    the decay exponent mu of each member closes the outer tail, which
    converges only for mu > 2.  mu starts from the decay exponent derived
    from u's exact terms.  The grid weights d(log r)/2, r^(alpha+1) and
    r^(1-alpha) are built once.  Each step allocates only the member it
    yields: it sweeps the grid in blocks of _BLOCK intervals through two
    block buffers, writing the inner integral into that member and then
    overwriting it with the outer one from the right, and carries the
    running sums between blocks so that the sums are numpy's cumsum over
    the whole grid bit for bit.  Raises :class:`DomainError` when
    w_0 is zero at every node although u has a nonzero term, or when either
    power weight is not a finite nonzero float at an end node.
    """
    require_sobolev(m, alpha)
    two_star = critical_exponent(m, alpha)
    w = np.abs(u_vals)
    w **= two_star - 2.0
    w *= u_vals
    if not np.any(w) and np.isfinite(u.decay_exponent):  # a nonzero profile
        scales = ", ".join(f"{p.scale:g}" for p in u.pieces)
        raise DomainError(
            f"w_0 = |u|^(2*-2) u underflows to zero at every grid node "
            f"(profile dilation eps = {scales}); the chain would be all zeros"
        )
    del u_vals  # the caller need not keep the samples alive
    yield w
    r = grid.nodes
    R = r[-1]
    half_dlog = np.diff(np.log(r))
    half_dlog *= 0.5
    with np.errstate(over="ignore"):
        r_inner = r ** (alpha + 1.0)
        r_outer = r ** (1.0 - alpha)
    ends = (r_inner[0], r_inner[-1], r_outer[0], r_outer[-1])
    if not all(0.0 < x < np.inf for x in ends):
        raise DomainError(
            f"chain weights r^(alpha+1) and r^(1-alpha) leave the float range at "
            f"alpha={alpha:g} on the grid ends r_min={r[0]:g}, r_max={R:g}"
        )
    intervals = len(half_dlog)
    size = min(_BLOCK, intervals)
    values, pieces = np.empty(size + 1), np.empty(size)
    mu = u.decay_exponent * (two_star - 1.0)
    for _ in range(m):
        if not mu > 2.0:
            raise NonConvergenceError(
                f"decay r^-{mu:g} is too slow: outer integral needs mu > 2"
            )
        # inner: cumulative trapezoid in log r, from the origin closure,
        # written into the next member's array.  Each block adds the running
        # sum into its first piece, which is numpy's sequential cumsum bit
        # for bit (-0.0 is the exact additive identity)
        origin = _origin_power(r[0], r[1], w[0], w[1], alpha)
        inner = np.empty_like(r)
        inner[0] = 0.0 + origin  # the sum from 0.0: a -0.0 closure reads 0.0
        total = -0.0
        for lo in range(0, intervals, _BLOCK):
            n = min(_BLOCK, intervals - lo)
            g = np.multiply(r_inner[lo:lo + n + 1], w[lo:lo + n + 1], out=values[:n + 1])
            p = np.add(g[1:], g[:-1], out=pieces[:n])
            p *= half_dlog[lo:lo + n]
            p[0] += total
            block = np.cumsum(p, out=inner[lo + 1:lo + n + 1])
            total = block[-1]
            block += origin
        tail = inner[-1] * R ** (1.0 - alpha) / (alpha - 1.0) \
            + w[-1] * R * R / ((mu - 2.0) * (alpha - 1.0))
        # outer integral, accumulated from the right (suffix sums keep the
        # far tail free of cancellation) plus the analytic tail beyond
        # r_max, in place over the inner integral: a block's right end was
        # overwritten by the block after it, so its value is carried over
        w = inner
        right = w[-1] * r_outer[-1]
        w[-1] = 0.0
        total = -0.0
        for hi in range(intervals, 0, -_BLOCK):
            n = min(_BLOCK, hi)
            lo = hi - n
            np.multiply(r_outer[lo:hi], w[lo:hi], out=values[:n])
            values[n] = right
            right = values[0]
            p = np.add(values[1:n + 1], values[:n], out=pieces[:n])
            p *= half_dlog[lo:hi]
            p = p[::-1]
            p[0] += total
            block = np.cumsum(p, out=w[lo:hi][::-1])
            total = block[-1]
        w += tail
        yield w
        mu = min(alpha - 1.0, mu - 2.0)


#: The live chains, by (u, m, float(alpha), id(grid)): ``fixed_point_residual``
#: reads w_m of the chain that ``iterate_chain`` built for the same inputs
#: instead of stepping it again.  The weak values keep no chain alive, and a
#: live chain keeps its grid, so the grid's id is not reused while it is here.
_LIVE_CHAINS: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def iterate_chain(u: RadialProfile, m: int, alpha: float,
                  grid: RadialGrid) -> IterationChain:
    """Build w_0..w_m from the profile u on the grid; the members are
    read-only.

    The tail decay exponent derived from u's exact terms closes the
    truncated integrals analytically.  Raises :class:`NonConvergenceError`
    when that decay is too slow for the outer integral to converge, and
    :class:`DomainError` when w_0 is zero at every node on a nonzero profile or
    the power weights leave the float range at this alpha on this grid.
    """
    with np.errstate(over="ignore"):  # u reads 0 where 1 + (r/eps)^2 overflows
        members = tuple(_chain_values(u, np.asarray(u(grid.nodes), dtype=float),
                                      m, alpha, grid))
    for w in members:
        w.flags.writeable = False
    chain = IterationChain(m=m, alpha=float(alpha), grid=grid, w=members,
                           q=tuple(q_sequence(m, alpha)))
    # an equal chain already alive stays the one on record
    _LIVE_CHAINS.setdefault((u, m, float(alpha), id(grid)), chain)
    return chain


# ---------------------------------------------------------------------------
# Finite-difference residuals
# ---------------------------------------------------------------------------


#: Rows of the work array that ``_laplacians`` needs.
_STENCIL_ROWS = 10


def _laplacians(r: np.ndarray, members, alpha: float,
                work: np.ndarray) -> Iterator[np.ndarray]:
    """Yield u'' + (alpha/r) u' at the interior nodes r[1:-1] for each sample
    array u on the nodes r in ``members``, by three-point stencils with exact
    local weights for the non-uniform grid.  Everything is formed in the
    first len(r) - 2 columns of the _STENCIL_ROWS rows of ``work``, the
    weights once; each result is one row, which the next member
    overwrites."""
    h1, h2, div_lo, div_mid, div_hi, c_mid, alpha_r, du, term, out = \
        work[:, :len(r) - 2]
    np.subtract(r[1:-1], r[:-2], out=h1)
    np.subtract(r[2:], r[1:-1], out=h2)
    np.add(h1, h2, out=div_hi)
    np.multiply(h1, div_hi, out=div_lo)
    np.multiply(h1, h2, out=div_mid)
    div_hi *= h2
    # the coefficients of u[:-2], u[1:-1] and u[2:] in u'
    np.subtract(h2, h1, out=c_mid)
    c_mid /= div_mid
    c_lo = np.negative(h2, out=h2)
    c_lo /= div_lo
    c_hi = np.divide(h1, div_hi, out=h1)
    np.divide(alpha, r[1:-1], out=alpha_r)
    for u in members:
        lo, mid, hi = u[:-2], u[1:-1], u[2:]
        np.multiply(c_lo, lo, out=du)
        np.multiply(c_mid, mid, out=term)
        du += term
        np.multiply(c_hi, hi, out=term)
        du += term
        du *= alpha_r
        np.divide(lo, div_lo, out=out)
        np.divide(mid, div_mid, out=term)
        out -= term
        np.divide(hi, div_hi, out=term)
        out += term
        out *= 2.0
        out += du
        yield out


def neg_laplacian_fd(r: np.ndarray, u: np.ndarray, alpha: float) -> np.ndarray:
    """-(u'' + (alpha/r) u') of the samples u on the nodes r by three-point
    stencils with exact local weights for the non-uniform grid; the result
    lives on the interior nodes r[1:-1]."""
    work = np.empty((_STENCIL_ROWS, len(r) - 2))
    return np.negative(next(_laplacians(r, (u,), alpha, work)))


@dataclass(frozen=True)
class InverseReport:
    residuals: dict       # k -> sup |(-Delta) w_k - w_{k-1}| / sup |w_{k-1}|
    windows: dict         # k -> (r_lo, r_hi) of the resolved sub-grid

    @property
    def max_residual(self) -> float:
        # np.max keeps a NaN wherever it sits; the built-in max does not
        return float(np.max(list(self.residuals.values()), initial=0.0))


#: ``verify_inverse`` measures only where the roundoff floor of the
#: difference stays below this fraction of the target scale.
INVERSE_NOISE_FLOOR = 1e-5


def _sup_abs(w: np.ndarray) -> Tuple[float, float]:
    """(sup |w[1:-1]|, sup |w|) without a full-size temporary; NaN when the
    range holds a NaN."""
    inner = np.maximum(w[1:-1].max(), -w[1:-1].min())
    return inner, np.maximum(inner, np.maximum(abs(w[0]), abs(w[-1])))


def verify_inverse(chain: IterationChain, j: int) -> InverseReport:
    """Apply -Delta_alpha by finite differences to each chain member w_k
    (1 <= k <= m) and report the sup-norm-relative residual against w_{k-1}.

    Only j = 1 is accepted: since w_k = (-Delta_alpha)^-1 w_{k-1}, the
    single difference per k already implies the j-fold ones, and any other
    j raises ``ValueError``.

    Differencing amplifies float roundoff like eps / h^2, which on a
    geometric grid blows up toward the origin (h ~ delta * r).  The residual
    is therefore measured over the resolved sub-grid where that roundoff
    floor, eps sup|w_k| (6/h^2) / sup|w_{k-1}| with h the central spacing,
    stays below INVERSE_NOISE_FLOOR; the report carries the window.

    After one pass for the sup norms, the grid is walked in blocks of
    _BLOCK interior nodes.  Each block forms its noise floor first and
    judges only the members that one of its nodes resolves: since the floor
    grows with 6/h^2, a member whose floor fails at the block's least 6/h^2
    is not differenced there, and a block that judges no member forms no
    stencil weights.  Otherwise the block forms its stencil weights once,
    differences the judged members and reduces the residual and the
    window's ends, so each member is read about once and every work array
    stays in cache.  A NaN in a difference inside the window makes
    the residual NaN; a member that holds a NaN or an infinity raises
    :class:`DomainError` naming it and its first non-finite node.
    """
    if j != 1:
        raise ValueError(f"only j = 1 is checked, got j={j}: the single "
                         f"difference per k implies the j-fold ones")
    nodes = chain.grid.nodes
    interior = len(nodes) - 2
    if interior < 3:
        raise DomainError(f"a finite difference needs at least 5 grid nodes, "
                          f"got {len(nodes)}")
    eps = float(np.finfo(float).eps)
    members = chain.w
    sups = [_sup_abs(w) for w in members]
    for k, (_, full) in enumerate(sups):
        if not np.isfinite(full):
            i = int(np.argmin(np.isfinite(members[k])))
            raise DomainError(f"chain member w_{k} holds {float(members[k][i])!r} "
                              f"at node {i} (r={nodes[i]:.6g}); the finite-difference "
                              f"check needs finite members")
    # per k: the target scale sup|w_{k-1}[1:-1]|, and the floor factor
    # eps sup|w_k| in the order eps * sup|w_k| * noise / scale
    scales = [inner for inner, _ in sups[:-1]]
    factors = [eps * full for _, full in sups[1:]]
    # running maxima by np.maximum, which keeps a NaN (max(0.0, nan) is 0.0)
    worst = np.zeros(chain.m)
    first = [None] * chain.m
    last = [None] * chain.m
    size = min(_BLOCK, interior)
    work = np.empty((_STENCIL_ROWS, size))
    noise, floor = np.empty((2, size))
    resolved = np.empty(size, dtype=bool)
    for lo in range(0, interior, _BLOCK):
        hi = min(lo + _BLOCK, interior)
        size = hi - lo
        r = nodes[lo:hi + 2]
        # 6/h^2 with h = np.gradient(nodes[1:-1]): central differences,
        # one-sided at the two ends
        h = np.subtract(r[2:], r[:-2], out=noise[:size])
        h /= 2.0
        if lo == 0:
            h[0] = nodes[2] - nodes[1]
        if hi == interior:
            h[-1] = nodes[-2] - nodes[-3]
        np.square(h, out=h)
        six_h2 = np.divide(6.0, h, out=h)
        # the floor grows with 6/h^2 (each rounded step is monotone), so its
        # values at the block's least and largest 6/h^2 settle most blocks:
        # a member whose floor fails even at the least is not differenced
        least, most = six_h2.min(), six_h2.max()
        whole = [scale == 0.0 or factor * most / scale <= INVERSE_NOISE_FLOOR
                 for scale, factor in zip(scales, factors)]
        judged = [i for i in range(chain.m) if whole[i]
                  or factors[i] * least / scales[i] <= INVERSE_NOISE_FLOOR]
        if not judged:
            continue
        laps = _laplacians(r, [members[i + 1][lo:hi + 2] for i in judged],
                           chain.alpha, work)
        for i, lap in zip(judged, laps):
            # |-lap - w_{k-1}| = |lap + w_{k-1}| bit for bit
            lap += members[i][lo + 1:hi + 1]
            np.abs(lap, out=lap)
            if whole[i]:
                start, stop, top = lo, hi - 1, lap.max()
            else:
                f = np.multiply(six_h2, factors[i], out=floor[:size])
                f /= scales[i]
                mask = np.less_equal(f, INVERSE_NOISE_FLOOR, out=resolved[:size])
                start = lo + int(np.argmax(mask))
                stop = hi - 1 - int(np.argmax(mask[::-1]))
                top = np.max(lap, where=mask, initial=0.0)
            if first[i] is None:
                first[i] = start
            last[i] = stop
            worst[i] = np.maximum(worst[i], top)
    residuals = {}
    windows = {}
    for i in range(chain.m):
        if scales[i] == 0.0:
            residuals[i + 1] = float(worst[i])
            windows[i + 1] = (float(nodes[1]), float(nodes[-2]))
            continue
        if first[i] is None:
            raise DomainError(
                f"no grid nodes resolve the finite difference at noise floor "
                f"{INVERSE_NOISE_FLOOR:g}; refine or shrink the grid"
            )
        residuals[i + 1] = float(worst[i] / scales[i])
        windows[i + 1] = (float(nodes[first[i] + 1]), float(nodes[last[i] + 1]))
    return InverseReport(residuals=residuals, windows=windows)


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


#: ``decay_report`` accepts a fitted slope up to this above the bound exponent.
DECAY_SLACK = 0.05


def decay_report(chain: IterationChain) -> DecayReport:
    """Fit log|w_k| against log r over the last grid decade and compare with
    the guaranteed bound exponent -(alpha+2m+1-4k)/2.  Chains that vanish in
    the tail are flagged skipped.

    The slope is the closed-form least-squares one, sum(x log w) / sum(x^2)
    against the centred x = log r - mean(log r), on a view of each member's
    tail."""
    grid = chain.grid
    if grid.r_max < 50.0:
        raise DomainError("decay fit needs the grid to reach r_max >= 50")
    # the nodes increase, so the last decade is a suffix of the grid
    start = int(np.searchsorted(grid.nodes, grid.r_max / 10.0))
    count = len(grid) - start
    if count < 2:
        raise DomainError(
            f"decay fit needs two grid nodes in the last decade, got {count}"
        )
    x = np.log(grid.nodes[start:])
    x -= x.mean()
    sxx = float(x @ x)
    entries = []
    for k, w in enumerate(chain.w):
        bound = -(chain.alpha + 2.0 * chain.m + 1.0 - 4.0 * k) / 2.0
        tail = w[start:]
        if np.any(tail <= 0.0) or tail.max() < 1e-300:
            entries.append(DecayEntry(k=k, slope=None, bound_exponent=bound,
                                      bound_satisfied=None, skipped=True))
            continue
        slope = float(x @ np.log(tail)) / sxx
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


#: ``origin_behavior`` fits the nodes at r <= ORIGIN_FIT_RADIUS.
ORIGIN_FIT_RADIUS = 0.05

#: The origin fit's last refinement step may move each member's coefficients
#: by at most this fraction of their largest.
ORIGIN_REFINE_TOL = 1e-10


def _origin_fit(chain: IterationChain) -> Tuple[np.ndarray, ...]:
    """Least-squares degree-6 fit of every chain member on the nodes below
    r_fit = ORIGIN_FIT_RADIUS, in the scaled variable x = r/r_fit, with one
    design matrix for all members: a solve of the 7-column normal equations
    and two refinement steps on the residual.  Returns the arrays (f(0),
    f'(0), f''(0), f'''(0)) indexed by k.  Raises DomainError when the Gram
    matrix is singular or the refinement does not converge.

    The window is swept in blocks of _BLOCK nodes, each forming its own
    powers of x, so no matrix spans the window: the first sweep sums the
    Gram matrix P P^T and the right-hand sides P W^T of the samples W, and
    each refinement sweep sums P (W - P^T c).  A window of one block gives
    the bits of the whole-window products.

    Degree 6 matters: the window is one-sided, so an unmodeled even r^6
    term would leak into the odd coefficients.
    """
    r_fit = ORIGIN_FIT_RADIUS
    # the nodes increase, so the window is a prefix of the grid
    count = int(np.searchsorted(chain.grid.nodes, r_fit, side="right"))
    if count < 12:
        raise DomainError(
            f"grid too coarse near the origin: {count} nodes below {r_fit:g}"
        )
    rows, size = chain.m + 1, min(_BLOCK, count)
    # flat buffers, so that each block's matrices are C-contiguous
    power_buf, residual_buf = np.empty(7 * size), np.empty(rows * size)

    def sweep(coeff, gram=None):
        """P (W - P^T coeff)^T summed over the blocks, with W the members'
        samples and coeff None read as zero; adds P P^T into ``gram``."""
        rhs = np.zeros((7, rows))
        for lo in range(0, count, _BLOCK):
            n = min(_BLOCK, count - lo)
            # built as contiguous rows, which is cheaper than np.vander's
            # strided columns
            powers = power_buf[:7 * n].reshape(7, n)
            powers[0] = 1.0
            x = np.divide(chain.grid.nodes[lo:lo + n], r_fit, out=powers[1])
            for i in range(2, 7):
                np.multiply(powers[i - 1], x, out=powers[i])
            residual = residual_buf[:rows * n].reshape(rows, n)
            if coeff is None:
                for k, w in enumerate(chain.w):
                    residual[k] = w[lo:lo + n]
            else:
                # residual = samples - coeff^T powers, one member per row
                np.dot(coeff.T, powers, out=residual)
                for k, w in enumerate(chain.w):
                    np.subtract(w[lo:lo + n], residual[k], out=residual[k])
            if gram is not None:
                gram += powers @ powers.T
            rhs += powers @ residual.T
        return rhs

    gram = np.zeros((7, 7))
    rhs = sweep(None, gram)
    try:
        coeff = np.linalg.solve(gram, rhs)
        for _ in range(2):
            step = np.linalg.solve(gram, sweep(coeff))
            coeff += step
    except np.linalg.LinAlgError as err:
        raise DomainError(
            f"origin fit: the Gram matrix of the {count} nodes below "
            f"{r_fit:g} is singular"
        ) from err
    moved = np.max(np.abs(step), axis=0)
    if not np.all(moved <= ORIGIN_REFINE_TOL * np.max(np.abs(coeff), axis=0)):
        raise DomainError(
            f"origin fit: refinement did not converge on the {count} nodes below "
            f"{r_fit:g} (last step {float(np.max(moved)):.3g}); the Gram matrix "
            f"is too ill-conditioned"
        )
    return (
        coeff[0],
        coeff[1] / r_fit,
        2.0 * coeff[2] / r_fit ** 2,
        6.0 * coeff[3] / r_fit ** 3,
    )


def origin_behavior(chain: IterationChain) -> OriginReport:
    """One-sided extrapolation of w_k and its first three derivatives at the
    origin.  For a positive chain the first and third derivatives vanish and
    w_k''(0) = -w_{k-1}(0)/(alpha+1)."""
    if chain.grid.r_min > 1e-3:
        raise DomainError("origin extrapolation needs the grid to reach r <= 1e-3")
    value, d1, d2, d3 = _origin_fit(chain)
    entries = []
    for k in range(chain.m + 1):
        expected = None if k == 0 else float(-value[k - 1] / (chain.alpha + 1.0))
        entries.append(OriginEntry(k=k, value=float(value[k]), d1=float(d1[k]),
                                   d2=float(d2[k]), d3=float(d3[k]),
                                   d2_expected=expected))
    return OriginReport(entries=tuple(entries))


# ---------------------------------------------------------------------------
# Fixed point
# ---------------------------------------------------------------------------


#: ``fixed_point_residual`` divides by max(|u|, FIXED_POINT_FLOOR sup|u|).
FIXED_POINT_FLOOR = 1e-12


def fixed_point_residual(u: RadialProfile, m: int, alpha: float,
                         grid: RadialGrid) -> float:
    """sup over grid nodes of |w_m - u| / max(|u|, FIXED_POINT_FLOOR sup|u|),
    relative so that a tiny profile is judged too; small exactly for solution
    profiles.

    While a chain that ``iterate_chain`` built from the same (u, m, alpha)
    on this grid object is alive, its w_m is read, not written; otherwise
    the chain is stepped without keeping the members before w_m.  Both give
    the same bits."""
    live = _LIVE_CHAINS.get((u, m, float(alpha), id(grid)))
    with np.errstate(over="ignore"):  # u reads 0 where 1 + (r/eps)^2 overflows
        u_vals = np.asarray(u(grid.nodes), dtype=float)
    sup = max(u_vals.max(), -u_vals.min()) or 1.0    # the zero profile reads 0
    if live is not None and live.grid is grid:
        diff = np.subtract(live.w[-1], u_vals)
    else:
        for diff in _chain_values(u, u_vals, m, alpha, grid):
            pass
        diff -= u_vals  # the generator's fresh last member
    denom = np.abs(u_vals, out=u_vals)
    np.maximum(denom, FIXED_POINT_FLOOR * sup, out=denom)
    np.abs(diff, out=diff)
    diff /= denom
    return float(np.max(diff))
