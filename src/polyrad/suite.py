"""The acceptance suite: one callable check per criterion.

Each check pins its parameters and tolerances here, returns a
:class:`CheckResult` with the measured numbers, and is shared between the
command-line ``verify-all`` report and the test suite, so both always agree
on what "passing" means.  The CLI subcommands that repeat a verdict read
the same threshold constants.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from . import coefficients as coeff
from . import constants as const
from . import functionals as fun
from . import iteration as it
from . import ode
from .errors import DomainError
from .radial import ExponentAffine, RadialExpr, apply_polyharmonic

#: Seed for the randomized alpha samples of the m = 1 consistency check;
#: fixed so reports are reproducible run to run.
DEFAULT_SEED = 20250810

#: Order bound of the exact symbolic checks 1-3 and of verify-polyharmonic.
SYMBOLIC_MAX_M = 8
ATTAINMENT_CASES = ((1, 3.0), (1, 5.0), (2, 4.0), (2, 6.0), (3, 8.0))
PROBE_M, PROBE_ALPHA = 1, 3.0
EPS_SET = (0.5, 1.0, 2.0)
PROBE_AMPLITUDES = (0.05, 0.1)
GAMMA_QUAD_ALPHAS = (1.5, 3.0, 4.0, 7.25)
CLASSIFICATION_CASES = (
    (2, 4.0, 1.0, 20.0, 1e-6),
    (1, 3.0, 0.5, 20.0, 1e-6),
    (3, 8.0, 1.0, 20.0, 1e-5),
)
CHAIN_M, CHAIN_ALPHA = 2, 4.0
CHAIN_R_MIN, CHAIN_R_MAX = 1e-4, 1e3
FULL_GRID_NODES = 8192
CHAIN_GRID_NODES = 4096

# Pass thresholds, one name each.  The comment names the criteria and the
# CLI subcommands that judge by it.
CLOSED_FORM_REL_TOL = 1e-12        # 4: closed forms of S(1, alpha), S(1, 3)
QUADRATURE_ROUTE_REL_TOL = 1e-10   # 4, best-constant --cross-check
GAMMA_QUAD_REL_TOL = 1e-10         # 5: quadrature against the gamma identity
GAMMA_QUAD_ALPHA1_TOL = 1e-12      # 5: absolute error of the alpha = 1 integral
ATTAIN_REL_TOL = 1e-6              # 6, rayleigh: |q - S| / S for w_eps
DILATION_SPREAD_TOL = 1e-8         # 6: spread of q over EPS_SET, relative to S
#: Criterion 7 bounds S - q at its pinned case, where S(1, 3) = 2.31;
#: ``rayleigh --perturb`` bounds (S - q) / S, which holds at any size of S.
PROBE_TOL = 1e-6
FIXED_POINT_TOL = 1e-3             # 9, iterate: residual of the fixed point
SCALED_PROFILE_MIN = 0.01          # 9: the residual of 1.1 u must reach this
INVERSE_TOL = 1e-4                 # 10, iterate: finite-difference inverse
DECAY_SLOPE_TOL = 0.05             # 10: |slope + decay exponent|
ORIGIN_D1_TOL = 1e-3               # 11: |w_k'(0)| / w_k(0)
ORIGIN_D2_TOL = 1e-3               # 11: relative error of w_k''(0)
ORIGIN_D3_TOL = 1e-2               # 11: |w_k'''(0)| / w_k(0)
Q_SEQUENCE_TOL = 1e-9              # iterate: q_k against its closed form


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.criterion:2d}: {self.name} ({self.seconds:.2f}s)"


def _timed(criterion: int, name: str, body: Callable[[dict], bool]) -> CheckResult:
    details: dict = {}
    start = time.perf_counter()
    try:
        passed = body(details)
    except Exception as exc:  # a crash is a failure with the reason recorded
        details["error"] = f"{type(exc).__name__}: {exc}"
        passed = False
    return CheckResult(criterion=criterion, name=name, passed=bool(passed),
                       seconds=time.perf_counter() - start, details=details)


# --------------------------------------------------------------------------
# 1-3: exact symbolic identities
# --------------------------------------------------------------------------


def check_polyharmonic_identity(max_m: int = SYMBOLIC_MAX_M) -> CheckResult:
    if max_m < 1:  # raised, not recorded by _timed as a failed check
        raise DomainError(f"max_m must be a positive integer, got {max_m}")

    def body(details: dict) -> bool:
        results = {}
        for m in range(1, max_m + 1):
            lhs = apply_polyharmonic(coeff.base_profile_expr(m), m, signed=True)
            rhs = RadialExpr.single(coeff.p_constant(m), 0, ExponentAffine(1, 1 + 2 * m))
            results[m] = bool(lhs == rhs)
        details["per_m"] = results
        return all(results.values())

    return _timed(1, f"exact polyharmonic identity, m = 1..{max_m}", body)


def _check_reports(criterion: int, name: str,
                   report: Callable[[int], dict]) -> CheckResult:
    """Criteria 2 and 3: ``report(m)`` passes for m = 1..SYMBOLIC_MAX_M."""
    def body(details: dict) -> bool:
        reports = [report(m) for m in range(1, SYMBOLIC_MAX_M + 1)]
        details["failures"] = [f for r in reports for f in r["failures"]]
        return all(r["passed"] for r in reports)

    return _timed(criterion, f"{name}, m <= {SYMBOLIC_MAX_M}", body)


def check_coefficient_recursion() -> CheckResult:
    return _check_reports(2, "coefficient recursion and case reductions",
                          coeff.recursion_report)


def check_vanishing_top_row() -> CheckResult:
    return _check_reports(3, "vanishing top row and product constant",
                          coeff.top_row_report)


# --------------------------------------------------------------------------
# 4-5: constants and quadrature
# --------------------------------------------------------------------------


def check_best_constant_m1(seed: int = DEFAULT_SEED) -> CheckResult:
    def body(details: dict) -> bool:
        rng = random.Random(seed)
        alphas = [rng.uniform(2.0, 50.0) for _ in range(20)]
        worst = 0.0
        for a in alphas:
            general = const.best_constant(1, a).S_inv_sqrt
            literal = const.bliss_m1_inv_sqrt(a)
            worst = max(worst, abs(general - literal) / literal)
        value = const.best_constant(1, 3.0).S
        value_err = abs(value - 4.0 / math.sqrt(3.0)) / value
        quad = const.best_constant(1, 3.0, route="quadrature").S
        route_err = abs(quad - value) / value
        details.update(closed_form_rel_diff=worst, S_m1_alpha3=value,
                       value_rel_err=value_err, route_rel_diff=route_err)
        return (worst <= CLOSED_FORM_REL_TOL and value_err <= CLOSED_FORM_REL_TOL
                and route_err <= QUADRATURE_ROUTE_REL_TOL)

    return _timed(4, "first-order best constant: two closed forms and quadrature", body)


def check_quadrature_vs_gamma() -> CheckResult:
    def body(details: dict) -> bool:
        rels = {}
        for a in GAMMA_QUAD_ALPHAS:
            got = fun.improper_integral(
                lambda r, a=a: r ** a * (1.0 + r * r) ** (-(a + 1.0)),
                origin_power=a, tail_power=-a - 2.0,
            ).value
            want = const.beta_integral((a + 1.0) / 2.0, (a + 1.0) / 2.0) / 2.0
            rels[a] = abs(got - want) / want
        exact = fun.improper_integral(lambda r: r * (1.0 + r * r) ** -2.0,
                                      origin_power=1.0, tail_power=-3.0).value
        details.update(rel_errors=rels, alpha1_value=exact,
                       alpha1_abs_err=abs(exact - 0.5))
        return (max(rels.values()) <= GAMMA_QUAD_REL_TOL
                and abs(exact - 0.5) <= GAMMA_QUAD_ALPHA1_TOL)

    return _timed(5, "improper quadrature against the gamma identity", body)


# --------------------------------------------------------------------------
# 6-7: variational checks
# --------------------------------------------------------------------------


def check_attainment_dilation() -> CheckResult:
    def body(details: dict) -> bool:
        worst_attain = 0.0
        worst_spread = 0.0
        for m, a in ATTAINMENT_CASES:
            s = const.best_constant(m, a).S
            quotients = [
                fun.rayleigh_quotient(fun.bliss_profile(m, a, e), m, a)
                for e in EPS_SET
            ]
            worst_attain = max(worst_attain,
                               max(abs(q - s) / s for q in quotients))
            worst_spread = max(worst_spread,
                               (max(quotients) - min(quotients)) / s)
        details.update(attainment_rel=worst_attain, dilation_spread=worst_spread)
        return worst_attain <= ATTAIN_REL_TOL and worst_spread <= DILATION_SPREAD_TOL

    return _timed(6, "minimizer attainment and dilation invariance", body)


def check_minimality_probes() -> CheckResult:
    m, alpha = PROBE_M, PROBE_ALPHA

    def body(details: dict) -> bool:
        s = const.best_constant(m, alpha).S
        w = fun.bliss_profile(m, alpha, 1.0)
        worst_gap = -math.inf
        for index in range(len(fun.PERTURBATION_DIRECTIONS)):
            for amp in PROBE_AMPLITUDES:
                q = fun.rayleigh_quotient(fun.probe_profile(w, index, amp, m, alpha),
                                          m, alpha)
                worst_gap = max(worst_gap, s - q)
        details.update(S=s, worst_S_minus_quotient=worst_gap)
        return worst_gap <= PROBE_TOL

    return _timed(7, "local minimality probes along the versioned directions", body)


# --------------------------------------------------------------------------
# 8: classification
# --------------------------------------------------------------------------


def check_classification() -> CheckResult:
    def body(details: dict) -> bool:
        devs = {}
        ok = True
        for m, a, e, r_max, tol in CLASSIFICATION_CASES:
            rep = ode.classification_check(m, a, e, r_max)
            devs[f"(m={m},alpha={a:g},eps={e:g})"] = rep.max_rel_dev
            ok = ok and rep.max_rel_dev <= tol
        details["max_rel_dev"] = devs
        return ok

    return _timed(8, "initial value problem reproduces the dilation family", body)


# --------------------------------------------------------------------------
# 9-11: regularity chain
# --------------------------------------------------------------------------


def _chain_grid(nodes: int) -> it.RadialGrid:
    return it.RadialGrid.geometric(CHAIN_R_MIN, CHAIN_R_MAX, nodes)


def _build_chain() -> it.IterationChain:
    """The chain of w_1 at (CHAIN_M, CHAIN_ALPHA) on the CHAIN_GRID_NODES
    grid, which criteria 10 and 11 both check."""
    u = fun.bliss_profile(CHAIN_M, CHAIN_ALPHA, 1.0)
    return it.iterate_chain(u, CHAIN_M, CHAIN_ALPHA, _chain_grid(CHAIN_GRID_NODES))


def check_fixed_point() -> CheckResult:
    nodes = FULL_GRID_NODES

    def body(details: dict) -> bool:
        grid = _chain_grid(nodes)
        u = fun.bliss_profile(CHAIN_M, CHAIN_ALPHA, 1.0)
        res = it.fixed_point_residual(u, CHAIN_M, CHAIN_ALPHA, grid)
        res_bad = it.fixed_point_residual(1.1 * u, CHAIN_M, CHAIN_ALPHA, grid)
        details.update(grid_nodes=nodes, solution_residual=res,
                       scaled_profile_residual=res_bad)
        return res <= FIXED_POINT_TOL and res_bad >= SCALED_PROFILE_MIN

    return _timed(9, "regularity fixed point and its failure off the solution", body)


def check_chain_structure() -> CheckResult:
    def body(details: dict) -> bool:
        chain = _build_chain()
        inverse = it.verify_inverse(chain, 1)
        details["fd_residual"] = inverse.residuals
        ok = inverse.max_residual <= INVERSE_TOL
        decay = it.decay_report(chain)
        slopes = {}
        for k, entry in enumerate(decay.entries):
            slopes[k] = entry.slope
            ok = ok and bool(entry.bound_satisfied)
            if k >= 1:
                expected = -it.bliss_decay_exponent(k, CHAIN_ALPHA)
                ok = ok and abs(entry.slope - expected) <= DECAY_SLOPE_TOL
        details["slopes"] = slopes
        details["grid_nodes"] = CHAIN_GRID_NODES
        return ok

    return _timed(10, "chain inverse structure and decay exponents", body)


def check_origin_behavior() -> CheckResult:
    def body(details: dict) -> bool:
        report = it.origin_behavior(_build_chain())
        ok = True
        rows = {}
        for entry in report.entries:
            d1_rel = abs(entry.d1) / entry.value
            d3_rel = abs(entry.d3) / entry.value
            row = {"d1_over_value": d1_rel, "d3_over_value": d3_rel}
            ok = ok and d1_rel <= ORIGIN_D1_TOL and d3_rel <= ORIGIN_D3_TOL
            if entry.k >= 1:
                d2_rel = abs(entry.d2 - entry.d2_expected) / abs(entry.d2_expected)
                row["d2_rel_err"] = d2_rel
                ok = ok and d2_rel <= ORIGIN_D2_TOL
            rows[entry.k] = row
        details.update(grid_nodes=CHAIN_GRID_NODES, per_k=rows)
        return ok

    return _timed(11, "origin derivatives of the chain", body)


# --------------------------------------------------------------------------
# Golden artifact (not an acceptance criterion; wired into verify-all)
# --------------------------------------------------------------------------

GOLDEN_TABLE_M = 3


def golden_table_path() -> str:
    return os.path.join(os.path.dirname(__file__), "golden",
                        f"coeff_table_m{GOLDEN_TABLE_M}.json")


def coeff_table_json(m: int) -> str:
    obj = {"schema_version": 1, **coeff.CoeffTable.build(m).to_json_obj()}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def check_golden_table(path: Optional[str] = None) -> CheckResult:
    def body(details: dict) -> bool:
        golden = path or golden_table_path()
        details["artifact"] = golden
        with open(golden, "r", encoding="utf-8") as handle:
            stored = handle.read()
        fresh = coeff_table_json(GOLDEN_TABLE_M)
        if stored != fresh:
            details["error"] = f"golden coefficient table mismatch: {golden}"
            return False
        return True

    return _timed(0, "golden coefficient table byte-for-byte", body)


# --------------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------------


def run_all(seed: int = DEFAULT_SEED, golden: Optional[str] = None) -> List[CheckResult]:
    """Run the full acceptance suite plus the golden-artifact comparison."""
    return [
        check_polyharmonic_identity(),
        check_coefficient_recursion(),
        check_vanishing_top_row(),
        check_best_constant_m1(seed=seed),
        check_quadrature_vs_gamma(),
        check_attainment_dilation(),
        check_minimality_probes(),
        check_classification(),
        check_fixed_point(),
        check_chain_structure(),
        check_origin_behavior(),
        check_golden_table(golden),
    ]
