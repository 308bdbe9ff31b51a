"""Write the committed reference outputs of the benchmark workloads.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs the first `reference_calls` calls of each named workload (default:
all) at the default seed and writes perfbench/reference/<workload>.json.
Regenerate only when a change is meant to alter the program's outputs,
and say why in CHANGES.md.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench  # noqa: E402


def _round(value):
    """Floats to 12 significant digits: far finer than bench.REL_TOL."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_round(v) for v in value]
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    return value


def reference_calls(workload: bench.Workload) -> list[dict]:
    setup = bench.Setup(workload, bench.DEFAULT_SEED)
    try:
        results = bench.run_calls(setup, count=workload.reference_calls)
    finally:
        setup.close()
    if any(r.failed for r in results):
        raise SystemExit(f"{workload.name}: structural check failed; no reference written")
    return [{"entries": _round(r.entries), "summaries": _round(r.summaries)}
            for r in results]


def write(workload: bench.Workload, calls: list[dict]) -> str:
    path = os.path.join(bench.REFERENCE_DIR, f"{workload.name}.json")
    os.makedirs(bench.REFERENCE_DIR, exist_ok=True)
    lines = [f'{{"workload": {json.dumps(workload.name)}, '
             f'"seed": {bench.DEFAULT_SEED}, "calls": [']
    for i, call in enumerate(calls):
        lines.append(' {"entries": [')
        lines.append(",\n".join("  " + json.dumps(e) for e in call["entries"]))
        lines.append(' ], "summaries": [')
        lines.append(",\n".join("  " + json.dumps(s, sort_keys=True)
                                for s in call["summaries"]))
        lines.append(" ]}" + ("," if i + 1 < len(calls) else ""))
    lines.append("]}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return path


def main(names) -> int:
    for name in names or bench.WORKLOADS:
        workload = bench.WORKLOADS[name]
        print(write(workload, reference_calls(workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
