"""Workloads, timed calls and output checks of the cfmatch benchmark.

A workload is a scene size, a strategy list and an entry point.  Sweep
workloads time `cfmatch.cli.cmd_run(RunSpec(...))`; the others time
`cfmatch.run_episode(config, strategies)`.  A run repeats timed calls,
each on the inputs of its own scenario seed, until the timed seconds
reach the run's budget, and checks every call's output before the next
one starts.

Importing this module imports cfmatch; run.py puts the checkout's src/
directory first on sys.path before it does.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace

import numpy as np

import cfmatch
import cfmatch.cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
# Sweep output goes below the checkout and is removed when the run ends;
# the spans of a traced run are left there.
TMP_DIR = os.path.join(ROOT, ".perfbench-tmp")

# The seed whose first calls have committed reference outputs.
DEFAULT_SEED = 0
# Digests may move by float reordering; a changed matching moves them
# by far more than this.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Strategies that must keep both quotas; the others ignore them by design.
QUOTA_RESPECTING = {"ea", "da", "da-smp"}

# name -> unit, in print order; bounds live in BENCHMARK.json.
E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    num_steps timesteps per timed call.  A non-empty kappa0 makes the
    timed call one cmd_run over those thresholds; otherwise it is one
    run_episode.  reference_calls is how many leading calls of a
    DEFAULT_SEED run the committed reference covers.
    """

    name: str
    num_ues: int
    num_aps: int
    num_steps: int
    strategies: tuple[str, ...]
    kappa0: tuple[float, ...] = ()
    reference_calls: int = 0

    @property
    def is_sweep(self) -> bool:
        return bool(self.kappa0)

    @property
    def thresholds(self) -> tuple[float, ...]:
        return self.kappa0 or (1.0,)


WORKLOADS = {w.name: w for w in (
    # The everyday CLI sweep: per-step fixed costs, repeated per threshold.
    Workload("sweep-default", 20, 50, 100, ("ea", "da", "bc", "md", "cs"),
             kappa0=(0.8, 0.9, 1.0), reference_calls=1),
    # The da-smp swap scan: many tiny evaluations, so per-call overhead.
    Workload("swap-10x25", 10, 25, 1, ("da-smp",), reference_calls=40),
    # The gca drop loop of full re-evaluations.
    Workload("greedy-30x60", 30, 60, 1, ("gca", "ea"), reference_calls=40),
    # The largest scene: flop-bound ea, context build and memory.
    Workload("quota-70x140", 70, 140, 1, ("ea", "da", "bc", "md", "cs"),
             reference_calls=40),
)}


def call_seed(seed: int, index: int) -> int:
    """Scenario seed of the index-th timed call of a run."""
    return seed * 1_000_000 + index


@dataclass
class CallResult:
    """Outcome of one timed call, after its output was checked.

    entries: one digest per (threshold, timestep, strategy) operation,
    identical across runs of identical code.
    """

    seconds: float
    attempted: int
    failed: int
    scored_steps: int
    entries: list = field(default_factory=list)
    summaries: list = field(default_factory=list)
    da_iterations: int = 0
    swap_count: int = 0
    files_written: int = 0
    bytes_written: int = 0


class Setup:
    """Everything a run builds before its first timed call.

    Builds and validates the scenario config (and, for a sweep, writes
    the config file and builds the RunSpec).  close() removes what it
    wrote.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.tmp = None
        self.spec = None
        fields_ = {"num_ues": workload.num_ues, "num_aps": workload.num_aps,
                   "num_steps": workload.num_steps}
        if workload.is_sweep:
            os.makedirs(TMP_DIR, exist_ok=True)
            self.tmp = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_DIR)
            config_path = os.path.join(self.tmp, "config.json")
            with open(config_path, "w", encoding="utf-8") as f:
                json.dump(fields_, f)
            self.config = cfmatch.cli.load_config(config_path)
            self.spec = cfmatch.cli.RunSpec(
                config_path=config_path, strategies=list(workload.strategies),
                seeds=[call_seed(seed, 0)], kappa0_values=list(workload.kappa0),
                out_dir=os.path.join(self.tmp, "out"), fmt="csv")
        else:
            self.config = cfmatch.ScenarioConfig(seed=call_seed(seed, 0), **fields_)

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None
            try:
                os.rmdir(TMP_DIR)
            except OSError:
                pass  # another run still uses it


def spans_path(workload: Workload) -> str:
    """Where a traced run of workload writes its spans."""
    return os.path.join(TMP_DIR, f"spans-{workload.name}.jsonl")


def load_reference(workload: Workload, seed: int) -> list:
    """Reference calls for this seed; empty when it has none."""
    path = os.path.join(REFERENCE_DIR, f"{workload.name}.json")
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)["calls"]


def run_calls(setup: Setup, seconds: float | None = None, count: int | None = None,
              reference: list | None = None) -> list[CallResult]:
    """Time calls until their timed seconds reach `seconds` (at least
    one call), or exactly `count` calls."""
    reference = reference or []
    results: list[CallResult] = []
    timed = 0.0
    index = 0
    while (index < count) if count is not None else (index == 0 or timed < seconds):
        ref = reference[index] if index < len(reference) else None
        result = _timed_call(setup, index, ref)
        timed += result.seconds
        results.append(result)
        index += 1
    return results


def _timed_call(setup: Setup, index: int, ref: dict | None) -> CallResult:
    w = setup.workload
    seed = call_seed(setup.seed, index)
    if w.is_sweep:
        out_dir = os.path.join(setup.tmp, f"out{index}")
        spec = replace(setup.spec, seeds=[seed], out_dir=out_dir)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(sink):
                status = cfmatch.cli.cmd_run(spec)
            error = None if status == 0 else f"cmd_run returned {status}"
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        try:
            return _check(w, seconds, error, ref, *_read_sweep(w, seed, out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    config = replace(setup.config, seed=seed)
    strategies = list(w.strategies)
    t0 = time.perf_counter()
    try:
        records = cfmatch.run_episode(config, strategies)
        error = None
    except Exception:
        records = []
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    return _check(w, seconds, error, ref, *_read_records(w, records))


def _digest(kappa: np.ndarray, rate: np.ndarray) -> list[float]:
    """Order-sensitive sums: a changed matching moves them, float
    reordering only in the last digits."""
    weight = np.arange(1, kappa.size + 1)
    return [float(kappa.sum()), float(weight @ kappa),
            float(rate.sum()), float(weight @ rate)]


def _entry(kappa0, t, strategy, kappa, rate, satisfied, assoc, violation,
           counters, problems: list) -> list:
    """Digest one (threshold, timestep, strategy) result; structural
    faults are appended to problems."""
    key = (kappa0, t, strategy)
    if violation and strategy in QUOTA_RESPECTING:
        problems.append((key, "quota violation"))
    if not (np.all(np.isfinite(kappa)) and kappa.min() >= 0.0 and kappa.max() <= 1.0):
        problems.append((key, "kappa outside [0, 1]"))
    if not (np.all(np.isfinite(rate)) and rate.min() >= 0.0):
        problems.append((key, "rate not finite and nonnegative"))
    if satisfied != int(np.count_nonzero(kappa >= kappa0)):
        problems.append((key, f"satisfied count {satisfied} disagrees with kappa"))
    return [kappa0, t, strategy, int(satisfied), int(assoc), bool(violation),
            counters, *_digest(kappa, rate)]


def _read_records(w: Workload, records) -> tuple[list, list, dict, list]:
    kappa0 = w.thresholds[0]
    entries, problems = [], []
    for rec in records:
        c = rec.counters
        counters = [c.favorable_tests, c.association_ops, c.swap_count,
                    c.da_iterations, list(c.tests_per_round)]
        entries.append(_entry(kappa0, rec.timestep, rec.strategy, rec.kappa,
                              rec.per_ue_rate, rec.satisfied_count,
                              rec.association_count, rec.quota_violation,
                              counters, problems))
    return entries, [], {"files": 0, "bytes": 0}, problems


def _read_sweep(w: Workload, seed: int, out_dir: str) -> tuple[list, list, dict, list]:
    """Parse a sweep's records and summary files back into entries."""
    entries, summaries, problems = [], [], []
    written = {"files": 0, "bytes": 0}
    if os.path.isdir(out_dir):
        names = os.listdir(out_dir)
        written["files"] = len(names)
        written["bytes"] = sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)
    for kappa0 in w.kappa0:
        tag = f"seed{seed}_kappa{kappa0:g}"
        try:
            entries += _parse_records(os.path.join(out_dir, f"records_{tag}.csv"),
                                      seed, kappa0, w.num_ues, problems)
            with open(os.path.join(out_dir, f"summary_{tag}.json"), encoding="utf-8") as f:
                payload = json.load(f)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(((kappa0, None, None), f"unreadable output: {exc!r}"))
            continue
        for strategy in w.strategies:
            stats = payload.get("per_strategy", {}).get(strategy)
            if stats is None or stats.get("timesteps") != w.num_steps:
                problems.append(((kappa0, None, strategy), "summary timesteps wrong"))
                continue
            summaries.append([kappa0, strategy, stats])
    return entries, summaries, written, problems


def _parse_records(path: str, seed: int, kappa0: float, num_ues: int,
                   problems: list) -> list:
    groups: dict[tuple[int, str], list[dict]] = {}
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            groups.setdefault((int(row["timestep"]), row["strategy"]), []).append(row)
    entries = []
    for (t, strategy), rows in groups.items():
        key = (kappa0, t, strategy)
        if ([int(r["ue_index"]) for r in rows] != list(range(num_ues))
                or any(int(r["seed"]) != seed or float(r["kappa_0"]) != kappa0
                       for r in rows)
                or len({r["associations_total"] for r in rows}) != 1):
            problems.append((key, "malformed record rows"))
            continue
        kappa = np.array([float(r["kappa"]) for r in rows])
        rate = np.array([float(r["rate_bps"]) for r in rows])
        flags = np.array([int(r["satisfied"]) for r in rows], dtype=bool)
        if not np.array_equal(flags, kappa >= kappa0):
            problems.append((key, "satisfied flags disagree with kappa"))
        entries.append(_entry(kappa0, t, strategy, kappa, rate, int(flags.sum()),
                              int(rows[0]["associations_total"]),
                              any(int(r["quota_violation"]) for r in rows),
                              None, problems))
    return entries


def _close(a, b) -> bool:
    """Ints, strings and lists exactly; floats within the tolerance."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return a == b


def _check(w: Workload, seconds: float, error: str | None, ref: dict | None,
           entries: list, summaries: list, written: dict,
           problems: list) -> CallResult:
    """Count failed operations: one operation is one strategy solved and
    scored at one (threshold, timestep).

    problems holds (scope, message) pairs; a scope is a (kappa0,
    timestep, strategy) key in which None matches anything.
    """
    keys = [(k0, t, s) for k0 in w.thresholds
            for t in range(1, w.num_steps + 1) for s in w.strategies]
    if error is not None:
        problems.append(((None, None, None), f"call failed: {error}"))
    found = {tuple(e[:3]): e for e in entries}
    problems += [(k, "missing") for k in keys if k not in found]
    if ref is not None and error is None:
        ref_entries = {tuple(e[:3]): e for e in ref["entries"]}
        problems += [(k, "differs from reference") for k in keys
                     if k in found and not _close(found[k], ref_entries.get(k))]
        ref_summaries = {(k0, s): stats for k0, s, stats in ref["summaries"]}
        problems += [((k0, None, s), "summary differs from reference")
                     for k0, s, stats in summaries
                     if not _close(stats, ref_summaries.get((k0, s)))]
    failed = {k for k in keys for scope, _ in problems
              if all(a is None or a == b for a, b in zip(scope, k))}
    for scope, message in problems[:5]:
        print(f"check: {w.name}: {scope}: {message}", file=sys.stderr)
    steps = {(k0, t) for k0, t, _ in keys}
    bad_steps = {(k0, t) for k0, t, _ in failed}
    counters = [e[6] for e in entries if e[6] is not None]
    return CallResult(
        seconds=seconds, attempted=len(keys), failed=len(failed),
        scored_steps=len(steps - bad_steps),
        entries=entries, summaries=summaries,
        da_iterations=(sum(c[3] for c in counters)
                       + sum(st["da_iterations_total"] for _, _, st in summaries)),
        swap_count=(sum(c[2] for c in counters)
                    + sum(st["swap_count_total"] for _, _, st in summaries)),
        files_written=written["files"], bytes_written=written["bytes"])


def e2e_metrics(results: list[CallResult], setup_s: float) -> dict[str, float]:
    """End-to-end metrics of an untraced run."""
    timed = sum(r.seconds for r in results)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return {
        "setup_s": setup_s,
        "wall_s": timed / len(results),
        "steps_per_s": sum(r.scored_steps for r in results) / timed,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def environment() -> dict:
    """Where the figures were measured."""
    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}
