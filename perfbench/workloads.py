"""The four benchmark workloads: input generation and one timed pass each.

A pass drives polyrad only through the public functions of its modules,
judges every outcome against :mod:`oracles`, and records one case per
judged outcome.  A wrong or raised outcome is a failed case; it never aborts
the pass.  Every call into a module runs inside a tracer span named after
the module and function; the span's ``metric`` is the per-layer metric its
self time adds to.

Inputs come from the benchmark seed only.  Each run draws a pool of input
sets up front and pass k uses set k mod pool size.  Each drawn parameter is
stratified over the pool: set k takes it from the k-th of POOL_SIZE equal
slices of its range, in a seeded order.  So any POOL_SIZE consecutive
passes cover every range evenly, and a run's median pass time depends
little on the seed.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from polyrad import cli, suite
from polyrad import coefficients as coeff
from polyrad import constants as const
from polyrad import functionals as fun
from polyrad import iteration as it
from polyrad import ode
from polyrad import radial
from polyrad.errors import OdeError

import oracles

OUT_DIR = Path(__file__).resolve().parent / "out"
POOL_SIZE = 8
LAYERS = ("radial", "coefficients", "constants", "functionals", "iteration",
          "ode", "suite", "cli")

SYMBOLIC_ORDERS = (4, 8, 12, 14)
# Rayleigh cases: the orders of the suite's attainment cases, then 4..8.
RAYLEIGH_ORDERS = tuple(m for m, _ in suite.ATTAINMENT_CASES) + (4, 5, 6, 7, 8)
IVP_ORDERS = tuple(range(1, 9))
IVP_EPS, IVP_R_MAX = 1.0, 20.0
# The IVP reports a wrong verdict for m >= 5: m = 5 departs, m = 6..8 raise
# BlowupError or StepUnderflowError.  These cases count as failed; they are
# listed so that `correct` stays a gate for every other outcome.
IVP_KNOWN_DEFECT_FROM_M = 5
# alpha = 2m - 1 + gap.  For the IVP and Rayleigh cases gap is drawn from
# [2, 2.75]: the m <= 4 deviations stay below the 1e-4 verdict threshold
# (m = 4 crosses it near gap 3.5) and the failing m >= 5 trajectories keep
# a steady cost.  At gap 1.5 the m = 6 case departs after half the steps.
SCALAR_GAP = (2.0, 2.75)
GRID_ORDERS = (2, 3, 4)
GRID_NODES = (65536, 1 << 20)
GRID_RANGE = (1e-4, 1e3)
# Chain cases: gap in [1, 4], eps in [1, 2].  Below eps = 1 the origin fit
# (r <= 0.05, degree 6) misses the suite's d3 tolerance, which was pinned
# at eps = 1.
GRID_GAP = (1.0, 4.0)
GRID_EPS = (1.0, 2.0)


@dataclass
class Case:
    layer: str
    name: str
    ok: bool
    known_defect: bool
    reason: Optional[str] = None


@dataclass
class Cases:
    """The judged outcomes of one pass."""

    items: List[Case] = field(default_factory=list)

    def judge(self, layer: str, name: str, value_fn: Callable[[], object],
              oracle: Callable[[object], Optional[str]],
              known_defect: bool = False):
        """Run ``value_fn`` and judge its value; ``oracle`` returns None for a
        right value and the reason otherwise.  Returns the value (None when
        the call raised)."""
        value = None
        try:
            value = value_fn()
            reason = oracle(value)
        except Exception as exc:  # a raised outcome is a failed case
            reason = f"{type(exc).__name__}: {exc}"
        self.items.append(Case(layer, name, reason is None, known_defect, reason))
        return value

    def failed_by_layer(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for case in self.items:
            if not case.ok:
                out[case.layer] += 1
        return out


def _traced(tracer, name: str, metric: str, fn, *args, **kwargs):
    with tracer.span(name, metric):
        return fn(*args, **kwargs)


def _stratified(rng: random.Random, bounds: Tuple[float, float]) -> List[float]:
    """POOL_SIZE draws, one from each equal slice of ``bounds``, shuffled."""
    lo, hi = bounds
    width = (hi - lo) / POOL_SIZE
    values = [lo + width * (k + rng.random()) for k in range(POOL_SIZE)]
    rng.shuffle(values)
    return values


def _alphas(rng: random.Random, m: int, gap: Tuple[float, float]) -> List[float]:
    """alpha = 2m - 1 + gap for each input set."""
    return [2 * m - 1 + g for g in _stratified(rng, gap)]


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

SUITE_CHECKS = {
    "check_golden_table": 0,
    "check_polyharmonic_identity": 1,
    "check_coefficient_recursion": 2,
    "check_vanishing_top_row": 3,
    "check_best_constant_m1": 4,
    "check_quadrature_vs_gamma": 5,
    "check_attainment_dilation": 6,
    "check_minimality_probes": 7,
    "check_classification": 8,
    "check_fixed_point": 9,
    "check_chain_structure": 10,
    "check_origin_behavior": 11,
}


@contextmanager
def suite_spans(tracer):
    """Wrap each suite check in a span for the length of a traced pass.

    ``suite.run_all`` looks the checks up as module globals at call time,
    so replacing the attributes puts a span around every check the CLI runs
    without touching polyrad's code.
    """
    saved = {name: getattr(suite, name) for name in SUITE_CHECKS}

    def wrap(name, fn):
        metric = f"suite.check_s.c{SUITE_CHECKS[name]:02d}"

        def traced(*args, **kwargs):
            with tracer.span(f"suite.{name}", metric):
                return fn(*args, **kwargs)
        return traced

    for name, fn in saved.items():
        setattr(suite, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(suite, name, fn)


def verify_all_inputs(seed: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(1, 2 ** 31) for _ in range(POOL_SIZE)]


def verify_all_pass(suite_seed: int, tracer, cases: Cases) -> None:
    report_path = OUT_DIR / f"verify-all-{os.getpid()}.json"
    argv = ["verify-all", "--output", str(report_path), "--seed", str(suite_seed)]
    printed = io.StringIO()

    def run_cli():
        report_path.unlink(missing_ok=True)
        with redirect_stdout(printed), redirect_stderr(io.StringIO()):
            if tracer.enabled:
                with suite_spans(tracer):
                    code = _traced(tracer, "cli.main", "cli.overhead_s", cli.main, argv)
            else:
                code = cli.main(argv)
        return code, json.loads(report_path.read_text())

    def cli_oracle(outcome) -> Optional[str]:
        code, report = outcome
        passes = printed.getvalue().count("[PASS]")
        if code != 0:
            return f"exit code {code}"
        if passes != len(SUITE_CHECKS):
            return f"{passes} PASS lines, want {len(SUITE_CHECKS)}"
        return None if report["passed"] else "report not passed"

    _, report = cases.judge("cli", "verify-all", run_cli, cli_oracle) or (None, {})
    checks = {c["criterion"]: c for c in report.get("checks", [])}
    for criterion in sorted(SUITE_CHECKS.values()):
        def check_oracle(check) -> Optional[str]:
            if not check["passed"]:
                return f"criterion {criterion} failed: {check['details']}"
            return _SUITE_DETAIL_ORACLES.get(criterion, lambda d: None)(check["details"])

        cases.judge("suite", f"c{criterion:02d}", lambda: checks[criterion], check_oracle)


# verify-all's chain checks run at m = 2, alpha = 4 on these grids.
SUITE_CHAIN_M, SUITE_CHAIN_ALPHA = 2, 4.0
SUITE_GRID_NODES = {9: 8192, 10: 4096, 11: 4096}
# criterion 5 checks the gamma identity at these alphas
SUITE_GAMMA_ALPHAS = (1.5, 3.0, 4.0, 7.25)


def _first(*failures) -> Optional[str]:
    return next((f for f in failures if f), None)


def _over(what: str, value: float, tol: float) -> Optional[str]:
    return None if value <= tol else f"{what} = {value:.3e} > {tol:g}"


def _keys(what: str, got: dict, want) -> Optional[str]:
    want = sorted(str(k) for k in want)
    return None if sorted(got) == want else f"{what} covers {sorted(got)}, want {want}"


def _nodes(criterion: int, details: dict) -> Optional[str]:
    want = SUITE_GRID_NODES[criterion]
    return None if details["grid_nodes"] == want else \
        f"grid of {details['grid_nodes']} nodes, want {want}"


def _c04(d: dict) -> Optional[str]:
    want = 4.0 / math.sqrt(3.0)
    return _first(
        None if abs(d["S_m1_alpha3"] - want) <= 1e-11 * want
        else f"S(1, 3) = {d['S_m1_alpha3']!r}, want 4/sqrt(3)",
        _over("closed_form_rel_diff", d["closed_form_rel_diff"], oracles.CLOSED_FORM_REL_TOL),
        _over("value_rel_err", d["value_rel_err"], oracles.CLOSED_FORM_REL_TOL),
        _over("route_rel_diff", d["route_rel_diff"], oracles.QUADRATURE_ROUTE_REL_TOL))


def _c05(d: dict) -> Optional[str]:
    return _first(
        _keys("rel_errors", d["rel_errors"], SUITE_GAMMA_ALPHAS),
        _over("alpha1_abs_err", d["alpha1_abs_err"], oracles.GAMMA_QUAD_ALPHA1_TOL),
        *(_over(f"rel_error at {a}", e, oracles.GAMMA_QUAD_REL_TOL)
          for a, e in d["rel_errors"].items()))


def _c07(d: dict) -> Optional[str]:
    want = oracles.best_constant(1, 3.0)
    return _first(
        None if abs(d["S"] - want) <= oracles.BEST_CONSTANT_REL_TOL * want
        else f"S = {d['S']!r}, want {want!r}",
        _over("worst (S - q)/S", d["worst_S_minus_quotient"] / want, oracles.PROBE_REL_TOL))


def _c10(d: dict) -> Optional[str]:
    return _first(
        _nodes(10, d),
        _keys("fd_residual", d["fd_residual"], range(1, SUITE_CHAIN_M + 1)),
        _keys("slopes", d["slopes"], range(SUITE_CHAIN_M + 1)),
        *(_over(f"fd_residual k={k}", r, oracles.INVERSE_TOL)
          for k, r in d["fd_residual"].items()),
        *(_over(f"|slope + decay exponent| k={k}",
                abs(s + oracles.decay_exponent(int(k), SUITE_CHAIN_ALPHA)),
                oracles.DECAY_SLOPE_TOL)
          for k, s in d["slopes"].items() if int(k) >= 1))


def _c11(d: dict) -> Optional[str]:
    rows = d["per_k"]
    return _first(
        _nodes(11, d),
        _keys("per_k", rows, range(SUITE_CHAIN_M + 1)),
        *(_first(_over(f"|d1|/w k={k}", row["d1_over_value"], oracles.ORIGIN_D1_TOL),
                 _over(f"|d3|/w k={k}", row["d3_over_value"], oracles.ORIGIN_D3_TOL),
                 _over(f"d2 rel err k={k}", row.get("d2_rel_err", 0.0),
                       oracles.ORIGIN_D2_TOL))
          for k, row in rows.items()),
        *(f"no d2 at k={k}" for k, row in rows.items()
          if int(k) >= 1 and "d2_rel_err" not in row))


# Criterion -> judge of its report details: the numbers behind the verdict,
# held to the suite's thresholds, and the full set of cases and grid sizes,
# so a loosened threshold or skipped work shows as a failed case.
_SUITE_DETAIL_ORACLES: Dict[int, Callable[[dict], Optional[str]]] = {
    1: lambda d: _first(_keys("per_m", d["per_m"], range(1, 9)),
                        *(f"identity fails at m={m}" for m, ok in d["per_m"].items()
                          if ok is not True)),
    2: lambda d: None if d["failures"] == [] else str(d["failures"]),
    3: lambda d: None if d["failures"] == [] else str(d["failures"]),
    4: _c04,
    5: _c05,
    6: lambda d: _first(
        _over("attainment_rel", d["attainment_rel"], oracles.ATTAIN_REL_TOL),
        _over("dilation_spread", d["dilation_spread"], oracles.DILATION_SPREAD_TOL)),
    7: _c07,
    8: lambda d: _first(
        _keys("max_rel_dev", d["max_rel_dev"], oracles.CLASSIFICATION_TOLS),
        *(_over(f"max_rel_dev {case}", dev, oracles.CLASSIFICATION_TOLS[case])
          for case, dev in d["max_rel_dev"].items())),
    9: lambda d: _first(
        _nodes(9, d),
        _over("solution_residual", d["solution_residual"], oracles.FIXED_POINT_TOL),
        None if d["scaled_profile_residual"] >= oracles.SCALED_PROFILE_MIN
        else f"1.1 u residual {d['scaled_profile_residual']:.3e} < "
             f"{oracles.SCALED_PROFILE_MIN:g}"),
    10: _c10,
    11: _c11,
}


# ---------------------------------------------------------------------------
# symbolic-highm
# ---------------------------------------------------------------------------


def symbolic_inputs(seed: int) -> list:
    return [SYMBOLIC_ORDERS]  # no alpha: the seed does not change the work


def _identity_oracle(m: int):
    want = [Fraction(c) for c in oracles.p_coefficients(m)]

    def oracle(lhs) -> Optional[str]:
        if len(lhs.terms) != 1:
            return f"{len(lhs.terms)} terms, want 1"
        term = lhs.terms[0]
        if term.r_power != 0 or (term.sigma.alpha_multiplier,
                                 term.sigma.constant_shift) != (1, 1 + 2 * m):
            return f"term shape r^{term.r_power} sigma {term.sigma}"
        if list(term.coeff.coefficients) != want:
            return "coefficient differs from P(alpha, m)"
        return None
    return oracle


def _table_oracle(m: int):
    alphas = (2 * m + 3, 4 * m + 7)  # integers in the embedding range

    def oracle(table) -> Optional[str]:
        for j in range(1, m + 1):
            for i in range(j + 1):
                for a in alphas:
                    if table.g[i, j](a) != oracles.g_value(i, j, m, a):
                        return f"G({i},{j}) at alpha={a}"
        return None
    return oracle


def _report_oracle(report) -> Optional[str]:
    return None if report["passed"] and not report["failures"] else str(report["failures"])


def symbolic_pass(orders, tracer, cases: Cases) -> None:
    for m in orders:
        with tracer.span("harness.case", m=m):
            _symbolic_case(m, tracer, cases)


def _symbolic_case(m: int, tracer, cases: Cases) -> None:
    cases.judge(
        "radial", f"apply_polyharmonic m={m}",
        lambda: _traced(tracer, "radial.apply_polyharmonic",
                        f"radial.apply_polyharmonic_s.m{m}",
                        radial.apply_polyharmonic, coeff.base_profile_expr(m), m,
                        signed=True),
        _identity_oracle(m))
    table = cases.judge(
        "coefficients", f"CoeffTable.build m={m}",
        lambda: _traced(tracer, "coefficients.CoeffTable.build",
                        f"coefficients.table_build_s.m{m}", coeff.CoeffTable.build, m),
        _table_oracle(m))
    cases.judge(
        "coefficients", f"recursion_report m={m}",
        lambda: _traced(tracer, "coefficients.recursion_report",
                        f"coefficients.recursion_s.m{m}", coeff.recursion_report, m),
        _report_oracle)
    cases.judge(
        "coefficients", f"top_row_report m={m}",
        lambda: _traced(tracer, "coefficients.top_row_report",
                        f"coefficients.top_row_s.m{m}", coeff.top_row_report, m),
        _report_oracle)
    cases.judge(
        "coefficients", f"verify_expansion m={m}",
        lambda: _traced(tracer, "coefficients.verify_expansion",
                        f"coefficients.verify_expansion_s.m{m}",
                        coeff.verify_expansion, m, table),
        lambda rep: None if rep.passed and len(rep.checks) == m
        else f"failed at j={[c.j for c in rep.checks if not c.ok]}")


# ---------------------------------------------------------------------------
# scalar-highm
# ---------------------------------------------------------------------------


def scalar_inputs(seed: int) -> list:
    rng = random.Random(seed)
    rayleigh = [_alphas(rng, m, SCALAR_GAP) for m in RAYLEIGH_ORDERS]
    ivp = [_alphas(rng, m, SCALAR_GAP) for m in IVP_ORDERS]
    return [
        {
            "rayleigh": [(m, a[k]) for m, a in zip(RAYLEIGH_ORDERS, rayleigh)],
            "ivp": [(m, a[k]) for m, a in zip(IVP_ORDERS, ivp)],
        }
        for k in range(POOL_SIZE)
    ]


def _rel_within(tol: float, want: float):
    return lambda got: None if abs(got - want) <= tol * want else \
        f"rel diff {abs(got - want) / want:.3e} > {tol:g}"


def _rayleigh_case(m: int, alpha: float, tracer, cases: Cases) -> None:
    s = oracles.best_constant(m, alpha)
    tag = f"m={m} alpha={alpha:.6g}"
    cases.judge("constants", f"best_constant {tag}",
                lambda: _traced(tracer, "constants.best_constant",
                                "constants.best_constant_s",
                                const.best_constant, m, alpha).S,
                _rel_within(oracles.BEST_CONSTANT_REL_TOL, s))
    cases.judge("constants", f"best_constant quadrature {tag}",
                lambda: _traced(tracer, "constants.best_constant",
                                "constants.quadrature_route_s",
                                const.best_constant, m, alpha, route="quadrature").S,
                _rel_within(oracles.QUADRATURE_ROUTE_REL_TOL, s))
    metric = f"functionals.rayleigh_s.m{m}"

    def quotient(make_profile):
        with tracer.span("functionals.rayleigh_quotient", metric):
            q = fun.rayleigh_quotient(make_profile(), m, alpha)
        tracer.add("functionals.quotients", 1)
        return q

    def attain_oracle(q) -> Optional[str]:
        rel = abs(q - s) / s
        tracer.peak("functionals.attain_rel_err", rel)
        return None if rel <= oracles.ATTAIN_REL_TOL else f"|q - S|/S = {rel:.3e}"

    def probe_oracle(q) -> Optional[str]:
        gap = (s - q) / s
        tracer.peak("functionals.probe_rel_gap", gap)
        return None if gap <= oracles.PROBE_REL_TOL else f"(S - q)/S = {gap:.3e}"

    for eps in suite.EPS_SET:
        cases.judge("functionals", f"rayleigh {tag} eps={eps:g}",
                    lambda: quotient(lambda: fun.bliss_profile(m, alpha, eps)),
                    attain_oracle)
    for index in range(len(fun.PERTURBATION_DIRECTIONS)):
        for amp in suite.PROBE_AMPLITUDES:
            cases.judge(
                "functionals", f"probe {tag} direction={index} amp={amp:g}",
                lambda: quotient(lambda: fun.bliss_profile(m, alpha, 1.0)
                                 + amp * fun.perturbation_direction(index, m, alpha)),
                probe_oracle)


def _ivp_case(m: int, alpha: float, tracer, cases: Cases) -> None:
    def classify():
        with tracer.span("ode.classification_check", f"ode.classify_s.m{m}"):
            try:
                return ode.classification_check(m, alpha, IVP_EPS, IVP_R_MAX), None
            except OdeError as err:
                return None, err

    def oracle(outcome) -> Optional[str]:
        report, err = outcome
        if report is not None:
            stats, reached, dev = report.stats, IVP_R_MAX, report.max_rel_dev
        else:
            # the partial trajectory rides on the error
            partial = err.result
            stats, reached = partial.stats, float(partial.r[-1])
            dev = oracles.sup_rel_dev(partial.component(0),
                                      oracles.w_eps(m, alpha, IVP_EPS, partial.r))
        tracer.add(f"ode.steps.m{m}", stats.steps)
        tracer.add(f"ode.rejected.m{m}", stats.rejected)
        tracer.add(f"ode.rhs_evals.m{m}", stats.rhs_evaluations)
        tracer.peak(f"ode.max_rel_dev.m{m}", dev)
        tracer.peak(f"ode.reached_r.m{m}", reached)
        if err is not None:
            return f"{type(err).__name__} at r={reached:.4g}"
        if report.verdict != oracles.IVP_VERDICT:
            return f"verdict {report.verdict} (max_rel_dev {dev:.3e})"
        return None

    cases.judge("ode", f"classification m={m} alpha={alpha:.6g}", classify, oracle,
                known_defect=m >= IVP_KNOWN_DEFECT_FROM_M)


def scalar_pass(inputs: dict, tracer, cases: Cases) -> None:
    for m, alpha in inputs["rayleigh"]:
        with tracer.span("harness.case", m=m, alpha=alpha):
            _rayleigh_case(m, alpha, tracer, cases)
    for m, alpha in inputs["ivp"]:
        with tracer.span("harness.case", m=m, alpha=alpha, eps=IVP_EPS):
            _ivp_case(m, alpha, tracer, cases)


def scalar_derived(values: Dict[str, float]) -> None:
    seconds = sum(values.get(f"ode.classify_s.m{m}", 0.0) for m in IVP_ORDERS)
    evals = sum(values.get(f"ode.rhs_evals.m{m}", 0.0) for m in IVP_ORDERS)
    values["ode.us_per_rhs"] = 1e6 * seconds / evals


# ---------------------------------------------------------------------------
# grid-highres
# ---------------------------------------------------------------------------


def grid_inputs(seed: int) -> list:
    rng = random.Random(seed)
    grids = tuple(it.RadialGrid.geometric(*GRID_RANGE, n) for n in GRID_NODES)
    draws = [(m, _alphas(rng, m, GRID_GAP), _stratified(rng, GRID_EPS))
             for m in GRID_ORDERS]
    return [
        {"grids": grids, "cases": [(m, alphas[k], eps[k]) for m, alphas, eps in draws]}
        for k in range(POOL_SIZE)
    ]


def _chain_oracle(m: int, alpha: float):
    def oracle(chain) -> Optional[str]:
        if len(chain.w) != m + 1:
            return f"{len(chain.w)} chain members, want {m + 1}"
        for k, q in enumerate(chain.q):
            want = oracles.q_closed_form(k, m, alpha)
            if abs(q - want) > 1e-12 * want:
                return f"q_{k} = {q!r}, want {want!r}"
        return None
    return oracle


def _decay_oracle(alpha: float):
    def oracle(report) -> Optional[str]:
        for k, entry in enumerate(report.entries):
            if not entry.bound_satisfied:
                return f"decay bound fails at k={k}"
            if k >= 1 and abs(entry.slope + oracles.decay_exponent(k, alpha)) \
                    > oracles.DECAY_SLOPE_TOL:
                return f"slope {entry.slope:.4f} at k={k}"
        return None
    return oracle


def _origin_oracle(report) -> Optional[str]:
    for e in report.entries:
        if abs(e.d1) / e.value > oracles.ORIGIN_D1_TOL:
            return f"|d1|/value = {abs(e.d1) / e.value:.3e} at k={e.k}"
        if abs(e.d3) / e.value > oracles.ORIGIN_D3_TOL:
            return f"|d3|/value = {abs(e.d3) / e.value:.3e} at k={e.k}"
        if e.k >= 1 and abs(e.d2 - e.d2_expected) > oracles.ORIGIN_D2_TOL * abs(e.d2_expected):
            return f"d2 off at k={e.k}"
    return None


def _grid_case(grid, m: int, alpha: float, eps: float, tracer, cases: Cases) -> None:
    n = len(grid)
    tag = f"n={n} m={m} alpha={alpha:.6g} eps={eps:.6g}"
    chain_bytes = 8 * n * (2 * m + 1)  # w_0..w_m and the m source integrals

    def profile():
        with tracer.span("functionals.RadialProfile.__call__",
                         f"functionals.profile_eval_s.n{n}"):
            u = fun.bliss_profile(m, alpha, eps)
            return u, u(grid.nodes)

    def profile_oracle(outcome) -> Optional[str]:
        want = oracles.w_eps(m, alpha, eps, grid.nodes)
        rel = float(abs(outcome[1] / want - 1.0).max())
        return None if rel <= oracles.PROFILE_REL_TOL else f"pointwise rel err {rel:.3e}"

    u, _ = cases.judge("functionals", f"profile {tag}", profile, profile_oracle) \
        or (None, None)

    def chain_call():
        chain = _traced(tracer, "iteration.iterate_chain",
                        f"iteration.iterate_chain_s.n{n}", it.iterate_chain,
                        u, m, alpha, grid)
        tracer.add("iteration.node_steps", n * m)
        tracer.add("iteration.bytes_computed", chain_bytes)
        return chain

    chain = cases.judge("iteration", f"iterate_chain {tag}", chain_call,
                        _chain_oracle(m, alpha))
    cases.judge("iteration", f"verify_inverse {tag}",
                lambda: _traced(tracer, "iteration.verify_inverse",
                                f"iteration.verify_inverse_s.n{n}",
                                it.verify_inverse, chain, 1),
                lambda inv: None if inv.max_residual <= oracles.INVERSE_TOL
                else f"residual {inv.max_residual:.3e}")
    cases.judge("iteration", f"decay_report {tag}",
                lambda: _traced(tracer, "iteration.decay_report",
                                f"iteration.decay_report_s.n{n}", it.decay_report, chain),
                _decay_oracle(alpha))
    cases.judge("iteration", f"origin_behavior {tag}",
                lambda: _traced(tracer, "iteration.origin_behavior",
                                f"iteration.origin_behavior_s.n{n}",
                                it.origin_behavior, chain),
                _origin_oracle)

    def fixed_point():
        res = _traced(tracer, "iteration.fixed_point_residual",
                      f"iteration.fixed_point_s.n{n}", it.fixed_point_residual,
                      u, m, alpha, grid)
        tracer.add("iteration.bytes_computed", chain_bytes)
        tracer.peak(f"iteration.fixed_point_residual.n{n}", res)
        return res

    cases.judge("iteration", f"fixed_point_residual {tag}", fixed_point,
                lambda res: None if res <= oracles.FIXED_POINT_TOL
                else f"residual {res:.3e}")


def grid_pass(inputs: dict, tracer, cases: Cases) -> None:
    for grid in inputs["grids"]:
        for m, alpha, eps in inputs["cases"]:
            with tracer.span("harness.case", n=len(grid), m=m, alpha=alpha, eps=eps):
                _grid_case(grid, m, alpha, eps, tracer, cases)


def grid_derived(values: Dict[str, float]) -> None:
    seconds = sum(v for k, v in values.items() if k.startswith("iteration.iterate_chain_s."))
    values["iteration.node_steps_per_s"] = values.pop("iteration.node_steps", 0.0) / seconds


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]
    run_pass: Callable[[object, object, Cases], None]
    derive: Callable[[Dict[str, float]], None] = lambda values: None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-all", verify_all_inputs, verify_all_pass),
        Workload("symbolic-highm", symbolic_inputs, symbolic_pass),
        Workload("scalar-highm", scalar_inputs, scalar_pass, scalar_derived),
        Workload("grid-highres", grid_inputs, grid_pass, grid_derived),
    )
}


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, better), in the order BENCHMARK.json lists
# them.  The traced run reports every one of them.
# ---------------------------------------------------------------------------

PER_LAYER = (
    [(f"radial.apply_polyharmonic_s.m{m}", "s", "lower") for m in SYMBOLIC_ORDERS]
    + [(f"coefficients.{key}.m{m}", "s", "lower")
       for key in ("verify_expansion_s", "table_build_s", "recursion_s", "top_row_s")
       for m in SYMBOLIC_ORDERS]
    + [("constants.best_constant_s", "s", "lower"),
       ("constants.quadrature_route_s", "s", "lower")]
    + [(f"functionals.rayleigh_s.m{m}", "s", "lower") for m in IVP_ORDERS]
    + [("functionals.attain_rel_err", "ratio", "lower"),
       ("functionals.probe_rel_gap", "ratio", "lower")]
    + [(f"functionals.profile_eval_s.n{n}", "s", "lower") for n in GRID_NODES]
    + [(f"iteration.{key}.n{n}", "s", "lower")
       for key in ("iterate_chain_s", "verify_inverse_s", "decay_report_s",
                   "origin_behavior_s", "fixed_point_s")
       for n in GRID_NODES]
    + [("iteration.node_steps_per_s", "1/s", "higher")]
    + [(f"iteration.fixed_point_residual.n{n}", "ratio", "lower") for n in GRID_NODES]
    + [(f"ode.classify_s.m{m}", "s", "lower") for m in IVP_ORDERS]
    + [(f"ode.{key}.m{m}", "count", "lower")
       for key in ("steps", "rejected", "rhs_evals") for m in IVP_ORDERS]
    + [(f"ode.max_rel_dev.m{m}", "ratio", "lower") for m in IVP_ORDERS]
    + [(f"ode.reached_r.m{m}", "r", "higher") for m in IVP_ORDERS]
    + [("ode.us_per_rhs", "us", "lower")]
    + [(f"suite.check_s.c{c:02d}", "s", "lower") for c in sorted(SUITE_CHECKS.values())]
    + [("cli.overhead_s", "s", "lower")]
    + [(f"{layer}.failed", "count", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower"), ("trace.overhead_share", "ratio", "lower")]
)

# Counts fixed by the inputs, so no optimisation moves them: the traced run
# prints them and writes them to its result file, but they are not
# benchmark metrics.
INFORMATIONAL = (("functionals.quotients", "count"), ("iteration.bytes_computed", "B"))
