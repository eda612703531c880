"""polyrad benchmark.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics (setup_s, verdict_s,
verdict_s_tail, peak_rss_mb).  ``--trace 1`` records spans around every call
into a polyrad module and prints every per-layer metric, with the tracing
overhead measured against untraced passes of the same run; the other
workloads' layers come from one traced pass each.  Either way the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

runs every workload, each in its own process, and prints all of their
metrics in one table.  The README in this directory explains the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verify-all", "symbolic-highm", "scalar-highm", "grid-highres")
SETUP_SAMPLES = 5
TAIL_ABOVE = 10
CHILD_TIMEOUT = 170.0


def load_polyrad():
    """Import polyrad from this checkout's src/ on the serial path.

    OpenBLAS is held to one thread too: on two cores its worker
    threads slowed verify-all passes by about 20 % and set-up by about
    0.2 s.  Returns the POLYRAD_THREADS state to record.  Raises ImportError
    when the checkout holds no polyrad sources.
    """
    threads = os.environ.pop("POLYRAD_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import polyrad

    if SRC.resolve() not in Path(polyrad.__file__).resolve().parents:
        raise ImportError(f"polyrad imported from {polyrad.__file__}, not from {SRC}")
    return "unset" if threads is None else f"removed (was {threads!r}); serial path"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("POLYRAD_THREADS", None)
    return env


def tail(times):
    """The highest percentile of ``times`` that leaves at least TAIL_ABOVE
    samples above it: (value, percentile, samples above).  With too few
    samples for that, the maximum, reported at percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    if n > TAIL_ABOVE:
        i = n - TAIL_ABOVE - 1
        return ordered[i], 100.0 * (i + 1) / n, TAIL_ABOVE
    return ordered[-1], 100.0, 0


def measure_setup(workload: str, seed: int) -> list:
    """Wall time from launching a fresh interpreter until it has imported
    polyrad and generated the workload's inputs, SETUP_SAMPLES times."""
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--role", "setup",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup run failed (exit {proc.returncode})")
    return times


class Runner:
    """Runs passes of one workload and keeps their cases."""

    def __init__(self, name: str, seed: int):
        from workloads import WORKLOADS

        self.workload = WORKLOADS[name]
        self.inputs = self.workload.make_inputs(seed)
        self.passes = 0
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer):
        from workloads import Cases

        cases = Cases()
        inputs = self.inputs[self.passes % len(self.inputs)]
        self.passes += 1
        start = time.perf_counter()
        self.workload.run_pass(inputs, tracer, cases)
        seconds = time.perf_counter() - start
        self.attempted += len(cases.items)
        self.failures += [c for c in cases.items if not c.ok]
        return seconds, cases

    def traced_pass(self, tracer):
        from tracing import pass_metrics

        trace = tracer.begin_trace()
        with tracer.span("harness.pass", workload=self.workload.name,
                         input_set=self.passes % len(self.inputs)):
            seconds, cases = self.run_pass(tracer)
        values = pass_metrics(tracer, trace)
        values.update({f"{layer}.failed": count
                       for layer, count in cases.failed_by_layer().items()})
        self.workload.derive(values)
        return seconds, values


def summary(runners) -> dict:
    failures = [c for r in runners for c in r.failures]
    return {
        "correct": all(r.passes > 0 for r in runners)
        and all(c.known_defect for c in failures),
        "attempted": sum(r.attempted for r in runners),
        "failed": len(failures),
    }


def failure_lines(runners, limit: int = 12) -> list:
    seen = {}
    for c in (c for r in runners for c in r.failures):
        key = (c.layer, c.name.split(" alpha=")[0])
        seen.setdefault(key, f"{c.layer} {c.name}: {c.reason}"
                        + (" [known defect]" if c.known_defect else ""))
    return list(seen.values())[:limit]


def medians(samples: list) -> dict:
    keys = {key for values in samples for key in values}
    return {key: statistics.median(v[key] for v in samples if key in v) for key in keys}


def run_untraced(runner: Runner, seconds: float) -> list:
    """Untraced passes for ``seconds`` (at least one); their wall times."""
    from tracing import NULL_TRACER

    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(runner.run_pass(NULL_TRACER)[0])
    return times


def run_traced(runner: Runner, tracer, seconds: float):
    """Traced passes for ``seconds`` (at least one), each after an untraced
    pass, so drift hits both alike.  Returns (untraced times, traced times,
    per-pass layer values)."""
    from tracing import NULL_TRACER

    plain, traced, values = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass(NULL_TRACER)[0])
        seconds_traced, layer_values = runner.traced_pass(tracer)
        traced.append(seconds_traced)
        values.append(layer_values)
    return plain, traced, values


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main_run(args, threads_state: str) -> int:
    from environment import environment
    from tracing import NULL_TRACER, Tracer
    from workloads import INFORMATIONAL, OUT_DIR, PER_LAYER, WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed)
    runners = [runner]
    if not args.trace:
        setup = measure_setup(args.workload, args.seed)
        runner.run_pass(NULL_TRACER)  # warm-up
        times = run_untraced(runner, args.seconds)
        tail_value, tail_pct, above = tail(times)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "verdict_s": (statistics.median(times), "s"),
            "verdict_s_tail": (tail_value, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extra = {"passes": len(times), "pass_seconds": times, "setup_seconds": setup,
                 "tail_percentile": tail_pct, "passes_above_tail": above}
        notes = [f"verdict_s: median of {len(times)} passes",
                 f"verdict_s_tail: p{tail_pct:.1f} of {len(times)} passes, "
                 f"{above} above" + ("" if above else
                                     " (fewer than 11 passes: the maximum)"),
                 f"setup_s: median of {len(setup)} fresh interpreters"]
    else:
        tracer = Tracer()
        runner.run_pass(NULL_TRACER)  # warm-up
        plain, traced, samples = run_traced(runner, tracer, args.seconds)
        layer = medians(samples)
        base = statistics.median(plain)
        layer["trace.overhead_s"] = statistics.median(traced) - base
        layer["trace.overhead_share"] = layer["trace.overhead_s"] / base
        # Every traced run reports every per-layer metric: each other
        # workload adds its own from one warm-up and one traced pass here.
        for name in WORKLOADS:
            if name != args.workload:
                other = Runner(name, args.seed)
                runners.append(other)
                other.run_pass(NULL_TRACER)
                for key, value in other.traced_pass(tracer)[1].items():
                    layer[key] = layer.get(key, 0.0) + value if key.endswith(".failed") \
                        else value
        metrics = {name: (layer[name], unit) for name, unit, _ in PER_LAYER}
        info = {name: (layer[name], unit) for name, unit in INFORMATIONAL}
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        extra = {"untraced_seconds": plain, "traced_seconds": traced,
                 "informational": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
                 "spans": str(spans.relative_to(ROOT))}
        notes = [f"tracing overhead: {layer['trace.overhead_share']:+.2%} "
                 f"({len(traced)} traced vs {len(plain)} untraced passes)",
                 "the other workloads' layers: one traced pass each, after a warm-up",
                 *(f"{k} = {fmt(v)} {u} (fixed by the inputs; not a metric)"
                   for k, (v, u) in info.items()),
                 f"spans written to {extra['spans']}"]

    result_summary = summary(runners)
    share = result_summary["failed"] / result_summary["attempted"]
    env = environment(ROOT, threads_state)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **result_summary, "failed_share": share,
              "failures": failure_lines(runners), "environment": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **extra}
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({env['note']})")
    print("environment " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {fmt(value)} {unit}")
    print(f"  failed_share = {fmt(share)} ratio  "
          f"({result_summary['failed']} of {result_summary['attempted']} cases)")
    for line in notes + failure_lines(runners):
        print(f"  # {line}")
    print(json.dumps({**result_summary,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of all metrics."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=CHILD_TIMEOUT + 60)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        share = result["failed"] / result["attempted"]
        rows.append((name, result, share))
    print()
    for name, result, share in rows:
        print(f"{name}: correct={result['correct']} failed_share={fmt(share)} ratio "
              f"({result['failed']}/{result['attempted']})")
        for key, metric in result["metrics"].items():
            print(f"  {key} = {fmt(metric['value'])} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup"),
                        default="main", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        threads_state = load_polyrad()
    except ImportError as exc:
        print(f"error: cannot import polyrad from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.role == "setup":
        from workloads import WORKLOADS

        WORKLOADS[args.workload].make_inputs(args.seed)
        print("ready", flush=True)
        return 0
    return main_run(args, threads_state)


if __name__ == "__main__":
    sys.exit(main())
