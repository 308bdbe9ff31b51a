"""Run one cfmatch benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; cfmatch is imported from its src/
directory.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run,
whose spans are also written to .perfbench-tmp/spans-<workload>.jsonl.
`--workload all` runs every workload in turn, each in a fresh process,
and prints a table.  See README.md in this directory.
"""

import os
import sys

# numpy sizes its thread pools when first imported, so this comes first.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# setup_s is the median over this many fresh processes.
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up as a run would, print the monotonic clock, exit.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from starting a fresh run process to the point
    where it would make its first timed call."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(samples)


def probe(args) -> None:
    """The set-up of a run, then the monotonic clock."""
    import bench
    import tracing  # noqa: F401  (a run imports it too)

    bench.Setup(bench.WORKLOADS[args.workload], args.seed).close()
    print(time.monotonic())


def run_workload(args) -> dict:
    import bench
    import tracing

    workload = bench.WORKLOADS[args.workload]
    print("env " + json.dumps(bench.environment()), flush=True)
    setup_s = measure_setup(args.workload, args.seed)
    reference = bench.load_reference(workload, args.seed)
    setup = bench.Setup(workload, args.seed)
    try:
        if not args.trace:
            results = bench.run_calls(setup, seconds=args.seconds, reference=reference)
            metrics = bench.e2e_metrics(results, setup_s)
            units = bench.E2E_METRICS
        else:
            # Time half the budget untraced, then trace the same calls and
            # require identical outputs.
            plain = bench.run_calls(setup, seconds=args.seconds / 2, reference=reference)
            tracer = tracing.Tracer()
            with tracer:
                traced = bench.run_calls(setup, count=len(plain), reference=reference)
            for p, t in zip(plain, traced):
                if t.entries != p.entries or t.summaries != p.summaries:
                    print(f"check: {workload.name}: traced output differs from untraced",
                          file=sys.stderr)
                    t.failed = t.attempted
            tracer.write_spans(bench.spans_path(workload))
            metrics = tracer.layer_metrics(workload, traced, sum(r.seconds for r in plain))
            units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
            results = plain + traced
    finally:
        setup.close()
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own fresh process, one at a time."""
    import bench

    print("env " + json.dumps(bench.environment()), flush=True)
    results = {}
    for name in bench.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results[name] = result
        print(f"{name}: correct={result['correct']} "
              f"failed_frac={result['failed'] / result['attempted']:.4g} "
              f"({result['failed']}/{result['attempted']})")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cfmatch", "__init__.py")):
        print(f"error: cfmatch sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        result = run_all(args)
    else:
        import bench
        if args.workload not in bench.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; known: "
                  f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
            return 2
        if args.setup_probe:
            probe(args)
            return 0
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
