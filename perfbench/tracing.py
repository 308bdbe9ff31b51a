"""Spans around cfmatch's layers, installed from outside the package.

Each traced name is replaced where its caller looks it up (a module
global, a class attribute or a strategy registry entry) by a wrapper
that records one span: name, start, end and the enclosing span.  Spans
stay in memory until the run ends; the per-layer metrics are computed
from them then, and write_spans saves them.  Leaving the Tracer's
`with` block puts every original back.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict

import cfmatch
import cfmatch.baselines as baselines
import cfmatch.cli as cli
import cfmatch.matching as matching
import cfmatch.simulation as simulation
from cfmatch.evaluate import EvalContext, Matching

# Strategy names with per-strategy metrics; a strategy the workload does
# not run reports zeros.
STRATEGIES = ("ea", "da", "da-smp", "bc", "md", "cs", "gca")

# (owner, attribute, span): module globals, replaced in the module that
# calls them.
_GLOBALS = (
    (cfmatch, "run_episode", "simulation.run_episode"),  # the benchmark's call
    (cli, "run_episode", "simulation.run_episode"),
    (cli, "cmd_run", "cli.cmd_run"),
    (cli, "summarize", "simulation.summarize"),
    (simulation, "substream", "streams.substream"),
    (simulation, "step_mobility", "channel.step_mobility"),
    (simulation, "realize_channels", "channel.realize_channels"),
    (simulation, "draw_demands", "simulation.draw_demands"),
    (simulation, "EvalContext", "evaluate.EvalContext"),
    (matching, "build_preferences", "matching.build_preferences"),
    (matching, "ea_initial_association", "matching.ea_initial_association"),
    (matching, "cluster_evolution", "matching.cluster_evolution"),
    (matching, "is_favorable_pair", "matching.is_favorable_pair"),
    (matching, "associate", "matching.associate"),
    (baselines, "da_m2m", "baselines.da_m2m"),
    (baselines, "swap_matching", "baselines.swap_matching"),
)


def _metric_table() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better), in print order."""
    table = {}

    def add(name, unit, better="lower"):
        table[name] = (unit, better)

    for name in ("streams.substream", "channel.step_mobility", "channel.realize_channels"):
        add(f"{name}.calls", "count")
        add(f"{name}.s", "s")
    add("channel.draws_per_step", "1/step")
    add("evaluate.EvalContext.calls", "count")
    add("evaluate.EvalContext.s", "s")
    add("evaluate.EvalContext.cross_mb", "MB")
    add("evaluate.evaluate_assoc.calls", "count")
    add("evaluate.evaluate_assoc.s", "s")
    add("evaluate.evaluate_assoc.us_per_call", "us")
    add("evaluate.evaluate_assoc.cross_gb", "GB")
    add("evaluate.from_assoc.calls", "count")
    add("evaluate.from_assoc.s", "s")
    for name in ("build_preferences", "ea_initial_association", "cluster_evolution"):
        add(f"matching.{name}.s", "s")
    add("matching.favorable_tests", "count")
    add("matching.evolve_commits", "count")
    add("matching.evolve_commit_ratio", "ratio", "higher")
    for s in STRATEGIES:
        add(f"baselines.{s}.calls", "count")
        add(f"baselines.{s}.s", "s")
        add(f"baselines.{s}.self_s", "s")
        add(f"baselines.{s}.ms_p50", "ms")
        add(f"baselines.{s}.evals", "count")
    add("baselines.da_m2m.s", "s")
    add("baselines.da_iterations", "count")
    add("baselines.swap_matching.s", "s")
    add("baselines.swap_count", "count")
    add("baselines.swap_accept_ratio", "ratio", "higher")
    add("simulation.run_episode.calls", "count")
    add("simulation.run_episode.s", "s")
    add("simulation.run_episode.self_s", "s")
    add("simulation.score.s", "s")
    add("simulation.draw_demands.s", "s")
    add("simulation.summarize.s", "s")
    add("cli.cmd_run.s", "s")
    add("cli.cmd_run.self_s", "s")
    add("cli.bytes_written", "bytes")
    add("cli.files_written", "count")
    add("trace.overhead_frac", "ratio")
    return table


LAYER_METRICS = _metric_table()


class Tracer:
    """Records spans while installed (inside a `with` block)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._saved.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, span in _GLOBALS:
                self._replace(owner, attr, self.wrap(span, getattr(owner, attr)))
            self._replace(EvalContext, "evaluate_assoc",
                          self.wrap("evaluate.evaluate_assoc",
                                    vars(EvalContext)["evaluate_assoc"]))
            self._replace(Matching, "from_assoc",
                          classmethod(self.wrap("evaluate.from_assoc",
                                                vars(Matching)["from_assoc"].__func__)))
            for s, fn in list(baselines.STRATEGIES.items()):
                self._replace(baselines.STRATEGIES, s, self.wrap(f"baselines.{s}", fn))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def write_spans(self, path: str) -> None:
        """One JSON object per line: name, start, end, parent index."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span in zip(self.names, self.starts, self.ends, self.parents):
                f.write(json.dumps(dict(zip(("name", "start", "end", "parent"), span))))
                f.write("\n")

    def layer_metrics(self, workload, results, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced calls in results.

        untraced_s is the timed seconds of the same calls run untraced.
        """
        names, parents = self.names, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        per_call = defaultdict(list)
        evals = defaultdict(int)
        strategy_spans = {f"baselines.{s}" for s in STRATEGIES}
        owner = [-1] * len(dur)  # index of the enclosing strategy span
        score_s = 0.0
        commits = 0
        swap_evals = 0
        for i, name in enumerate(names):
            p = parents[i]
            parent = names[p] if p >= 0 else None
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
            if name in strategy_spans:
                owner[i] = i
                per_call[name].append(dur[i])
            elif p >= 0:
                owner[i] = owner[p]
            if name == "evaluate.evaluate_assoc":
                if owner[i] >= 0:
                    evals[names[owner[i]]] += 1
                if parent == "simulation.run_episode":
                    score_s += dur[i]
                elif parent == "baselines.swap_matching":
                    swap_evals += 1
            elif name == "matching.associate" and parent == "matching.cluster_evolution":
                commits += 1

        def ratio(a, b):
            return a / b if b else 0.0

        cross_bytes = 16.0 * workload.num_ues ** 2 * workload.num_aps
        distinct_steps = len(results) * workload.num_steps  # (seed, timestep) pairs
        swap_count = sum(r.swap_count for r in results)
        # Each refinement evaluates its starting matching once; the rest are trials.
        swap_trials = swap_evals - calls["baselines.swap_matching"]
        traced_s = sum(r.seconds for r in results)
        m = {
            "channel.draws_per_step": ratio(calls["channel.realize_channels"], distinct_steps),
            "evaluate.EvalContext.cross_mb": cross_bytes / 1e6,
            "evaluate.evaluate_assoc.us_per_call": 1e6 * ratio(
                total["evaluate.evaluate_assoc"], calls["evaluate.evaluate_assoc"]),
            "evaluate.evaluate_assoc.cross_gb": cross_bytes * calls["evaluate.evaluate_assoc"] / 1e9,
            "matching.favorable_tests": calls["matching.is_favorable_pair"],
            "matching.evolve_commits": commits,
            "matching.evolve_commit_ratio": ratio(commits, calls["matching.is_favorable_pair"]),
            "baselines.da_iterations": sum(r.da_iterations for r in results),
            "baselines.swap_count": swap_count,
            "baselines.swap_accept_ratio": ratio(swap_count, swap_trials),
            "simulation.score.s": score_s,
            "cli.bytes_written": sum(r.bytes_written for r in results),
            "cli.files_written": sum(r.files_written for r in results),
            "trace.overhead_frac": ratio(traced_s, untraced_s) - 1.0,
        }
        for s in STRATEGIES:
            span = f"baselines.{s}"
            m[f"{span}.ms_p50"] = 1e3 * statistics.median(per_call[span]) if per_call[span] else 0.0
            m[f"{span}.evals"] = evals[span]
        out = {}
        for metric in LAYER_METRICS:
            if metric in m:
                out[metric] = m[metric]
                continue
            span, _, kind = metric.rpartition(".")
            out[metric] = {"calls": calls, "s": total, "self_s": self_s}[kind][span]
        return out
