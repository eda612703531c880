"""Command-line front end.

Subcommands
-----------
verify-polyharmonic   exact operator identity for m = 1..max-m
coeff-table           expansion-coefficient table as JSON
best-constant         closed-form best constant, optional quadrature cross-check
rayleigh              quotient sweep over dilations (CSV), optional probes
iterate               regularity chain: per-step CSV plus verification summary
classify              singular IVP against the dilation family
verify-all            the full acceptance suite

Exit codes: 0 all checks pass, 1 verification failure, 2 invalid arguments.
Every float flag must be a finite number; argparse rejects anything else.
Argument domains (the embedding condition alpha - 2m + 1 > 0, positive
dilation parameters, grid and radius bounds, ...) are checked only by the
library, which raises ``DomainError``; ``main`` turns that, and an
``--output`` or ``--output-dir`` that cannot be written, into exit 2.  The
output targets are checked before any computation.
JSON reports carry a top-level ``schema_version``; numeric fields are
rounded to 12 significant digits so reports are stable across runs.  CSV
output uses comma delimiters and ``.`` decimals regardless of locale.  Pass
thresholds, the chain grid and the dilation sweep are the named constants of
:mod:`polyrad.suite` and :mod:`polyrad.ode`.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import constants as const
from . import functionals as fun
from . import iteration as it
from . import ode
from . import suite
from .errors import DomainError, PolyradError

SCHEMA_VERSION = 1


def _round12(obj):
    """Round every float to 12 significant digits (report stability)."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, path: Optional[str]) -> None:
    body = dict(schema_version=SCHEMA_VERSION, **obj)
    _emit(json.dumps(_round12(body), indent=2, sort_keys=True) + "\n", path)


def _check_outputs(args: argparse.Namespace) -> None:
    """Raise, before any work, the OSError that writing the outputs would
    raise: ``--output`` and, for ``iterate``, a CSV in ``--output-dir``,
    which is created here.  A file that did not exist is removed again, so a
    run that fails later leaves no empty report behind."""
    paths = [args.output]
    if args.subcommand == "iterate":
        os.makedirs(args.output_dir, exist_ok=True)
        paths.append(f"{args.output_dir}/chain_k0.csv")
    for path in filter(None, paths):
        existed = os.path.lexists(path)
        open(path, "a", encoding="utf-8").close()  # "a" keeps an existing file
        if not existed:
            os.remove(path)


def _finite(text: str) -> float:
    """argparse type of every float flag: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _float_list(text: str) -> List[float]:
    values = [_finite(x) for x in text.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError("needs at least one number")
    return values


def _csv_text(header: List[str], rows: List[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return buffer.getvalue()


#: Rows that ``_write_chain_csv`` formats per write.
_CSV_CHUNK = 16384


def _write_chain_csv(path: str, k: int, nodes: np.ndarray, w: np.ndarray) -> None:
    """Write the text of ``_csv_text(["r", f"w_{k}"], rows)`` for the rows
    (r, w_k(r)), streamed in chunks of rows: no list of all rows and no
    string of the whole file is built."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"r,w_{k}\n")
        for lo in range(0, len(nodes), _CSV_CHUNK):
            rows = zip(nodes[lo:lo + _CSV_CHUNK].tolist(), w[lo:lo + _CSV_CHUNK].tolist())
            handle.writelines(f"{r:.12g},{v:.12g}\n" for r, v in rows)


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the process exit code)
# ---------------------------------------------------------------------------


def _cmd_verify_polyharmonic(args: argparse.Namespace) -> int:
    result = suite.check_polyharmonic_identity(max_m=args.max_m)
    _emit_json(
        {
            "subcommand": "verify-polyharmonic",
            "max_m": args.max_m,
            "results": [
                {"m": m, "exact": ok} for m, ok in result.details["per_m"].items()
            ],
            "passed": result.passed,
        },
        args.output,
    )
    return 0 if result.passed else 1


def _cmd_coeff_table(args: argparse.Namespace) -> int:
    _emit(suite.coeff_table_json(args.m), args.output)
    return 0


def _cmd_best_constant(args: argparse.Namespace) -> int:
    m, alpha = args.m, args.alpha
    closed = const.best_constant(m, alpha)
    report = {"subcommand": "best-constant", **closed.to_json_obj()}
    ok = True
    if args.cross_check:
        quad = const.best_constant(m, alpha, route="quadrature")
        rel = abs(quad.S - closed.S) / closed.S
        ok = rel <= suite.QUADRATURE_ROUTE_REL_TOL
        report["cross_check"] = {
            "S_quadrature": quad.S,
            "err_estimate": quad.err_estimate,
            "rel_diff": rel,
            "agrees": ok,
        }
    _emit_json(report, args.output)
    return 0 if ok else 1


def _cmd_rayleigh(args: argparse.Namespace) -> int:
    m, alpha = args.m, args.alpha
    s_closed = const.best_constant(m, alpha).S
    rows = []
    ok = True
    for eps in args.eps_list:
        q = fun.rayleigh_quotient(fun.bliss_profile(m, alpha, eps), m, alpha)
        rel = abs(q - s_closed) / s_closed
        ok = ok and rel <= suite.ATTAIN_REL_TOL
        rows.append([f"{eps:.12g}", q, s_closed, rel])
    if args.perturb:
        amp = args.perturb_amplitude
        w = fun.bliss_profile(m, alpha, 1.0)
        for index in range(len(fun.PERTURBATION_DIRECTIONS)):
            q = fun.rayleigh_quotient(fun.probe_profile(w, index, amp, m, alpha),
                                      m, alpha)
            rel = (q - s_closed) / s_closed
            ok = ok and -rel <= suite.PROBE_TOL  # (S - q) / S
            rows.append([f"probe{index:02d}@{amp:g}", q, s_closed, rel])
    _emit(_csv_text(["epsilon", "quotient", "S_closed_form", "rel_diff"], rows),
          args.output)
    return 0 if ok else 1


def _cmd_iterate(args: argparse.Namespace) -> int:
    m, alpha = args.m, args.alpha
    grid = it.RadialGrid.geometric(args.r_min, args.r_max, args.grid_points)
    u = fun.bliss_profile(m, alpha, args.eps)
    chain = it.iterate_chain(u, m, alpha, grid)
    inverse = it.verify_inverse(chain, 1)
    decay = it.decay_report(chain)
    origin = it.origin_behavior(chain)
    fixed = it.fixed_point_residual(u, m, alpha, grid)
    q_closed = [it.q_closed_form(k, m, alpha) for k in range(len(chain.q))]
    q_ok = all(abs(q - c) <= suite.Q_SEQUENCE_TOL * c for q, c in zip(chain.q, q_closed))
    checks = {
        "q_sequence_closed_form": q_ok,
        "fd_inverse_residual": inverse.max_residual,
        "fixed_point_residual": fixed,
        "monotone_decreasing": all(
            bool(np.all(w[1:] <= w[:-1])) for w in chain.w[1:]
        ),
        "decay": [dataclasses.asdict(e) for e in decay.entries],
        "origin": [dataclasses.asdict(e) for e in origin.entries],
    }
    passed = (q_ok and checks["monotone_decreasing"]
              and inverse.max_residual <= suite.INVERSE_TOL
              and fixed <= suite.FIXED_POINT_TOL
              and all(e.bound_satisfied for e in decay.entries if not e.skipped))
    for k, w in enumerate(chain.w):
        _write_chain_csv(f"{args.output_dir}/chain_k{k}.csv", k, grid.nodes, w)
    _emit_json(
        {"subcommand": "iterate", "m": m, "alpha": alpha, "eps": args.eps,
         "grid_points": args.grid_points, "checks": checks, "passed": passed},
        args.output,
    )
    return 0 if passed else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    m, alpha, eps, r_max = args.m, args.alpha, args.eps, args.r_max
    if args.perturb_index is None:
        try:
            report = ode.classification_check(m, alpha, eps, r_max)
        except ode.OdeError as err:
            report = ode.stopped_classification(m, alpha, eps, r_max, err)
        _emit_json({"subcommand": "classify", **report.to_json_obj()}, args.output)
        return 0 if report.verdict == "coincides" else 1
    data = ode.family_state(m, alpha, 1.0, 0.0)[0, 0::2]
    if not 0 <= args.perturb_index < m:
        raise DomainError(f"--perturb-index must lie in [0, m), got {args.perturb_index}")
    data[args.perturb_index] *= args.perturb_scale
    spec = ode.IVPSpec(m=m, alpha=alpha, even_initial=data,
                       r_max=ode.unit_radius(eps, r_max))
    stop_reason = None
    try:
        result = ode.integrate(spec)
    except ode.OdeError as err:
        result = err.result
        stop_reason = ode.describe_stop(err)
    departure = ode.departure_from_family(m, alpha, result)
    verdict = "departs" if departure >= ode.DEPARTURE_TOL else "coincides"
    _emit_json(
        {"subcommand": "classify", "m": m, "alpha": alpha, "eps": eps,
         "r_max": r_max, "perturb_index": args.perturb_index,
         "perturb_scale": args.perturb_scale, "reached_r": float(result.r[-1]) * eps,
         "departure": departure, "steps": result.stats.steps,
         "rejected_steps": result.stats.rejected,
         "rhs_evaluations": result.stats.rhs_evaluations,
         "stop_reason": stop_reason, "verdict": verdict},
        args.output,
    )
    return 0 if verdict == "departs" else 1


def _cmd_verify_all(args: argparse.Namespace) -> int:
    results = suite.run_all(seed=args.seed, golden=args.golden)
    for result in results:
        print(result.line())
    passed = all(r.passed for r in results)
    report = {
        "subcommand": "verify-all",
        "seed": args.seed,
        "passed": passed,
        "checks": [
            {"criterion": r.criterion, "name": r.name, "passed": r.passed,
             "seconds": round(r.seconds, 3), "details": r.details}
            for r in results
        ],
    }
    if not passed:
        for r in results:
            if not r.passed:
                print(f"FAILED: {r.name}: {r.details}", file=sys.stderr)
    _emit_json(report, args.output)
    return 0 if passed else 1


_HANDLERS = {
    "verify-polyharmonic": _cmd_verify_polyharmonic,
    "coeff-table": _cmd_coeff_table,
    "best-constant": _cmd_best_constant,
    "rayleigh": _cmd_rayleigh,
    "iterate": _cmd_iterate,
    "classify": _cmd_classify,
    "verify-all": _cmd_verify_all,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyrad",
        description="Verification toolkit for the weighted radial polyharmonic calculus.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, with_malpha=True):
        p.add_argument("--output", help="write the report here instead of stdout")
        if with_malpha:
            p.add_argument("--m", type=int, required=True, help="operator order")
            p.add_argument("--alpha", type=_finite, required=True,
                           help="weight exponent (needs alpha - 2m + 1 > 0)")

    p = sub.add_parser("verify-polyharmonic",
                       help="exact operator identity for m = 1..max-m")
    p.add_argument("--max-m", type=int, default=suite.SYMBOLIC_MAX_M)
    common(p, with_malpha=False)

    p = sub.add_parser("coeff-table", help="expansion coefficient table as JSON")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--output", help="write the table here instead of stdout")

    p = sub.add_parser("best-constant", help="best embedding constant")
    common(p)
    p.add_argument("--cross-check", action="store_true",
                   help="also compute the quadrature route and compare")

    p = sub.add_parser("rayleigh", help="Rayleigh quotient sweep (CSV)")
    common(p)
    p.add_argument("--eps-list", type=_float_list, default=list(suite.EPS_SET),
                   help="comma-separated dilation parameters")
    p.add_argument("--perturb", action="store_true",
                   help="append the ten fixed perturbation probes")
    p.add_argument("--perturb-amplitude", type=_finite, default=0.1)

    p = sub.add_parser("iterate", help="regularity chain with verification summary")
    common(p)
    p.add_argument("--eps", type=_finite, default=1.0)
    p.add_argument("--grid-points", type=int, default=suite.CHAIN_GRID_NODES)
    p.add_argument("--r-min", type=_finite, default=suite.CHAIN_R_MIN)
    p.add_argument("--r-max", type=_finite, default=suite.CHAIN_R_MAX)
    p.add_argument("--output-dir", default=".", help="directory for per-step CSV files")

    p = sub.add_parser("classify", help="singular IVP against the dilation family")
    common(p)
    p.add_argument("--eps", type=_finite, default=1.0)
    p.add_argument("--r-max", type=_finite, default=20.0)
    p.add_argument("--perturb-index", type=int, default=None,
                   help="index of the even-order value to scale")
    p.add_argument("--perturb-scale", type=_finite, default=1.05)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--golden", default=None,
                   help="path of the golden coefficient table")
    p.add_argument("--seed", type=int, default=suite.DEFAULT_SEED,
                   help="seed for the randomized alpha samples of criterion 4")
    common(p, with_malpha=False)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return _HANDLERS[args.subcommand](args)
    except (DomainError, OSError) as exc:  # arguments the checks or the files cannot take
        parser.error(str(exc))
    except PolyradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
