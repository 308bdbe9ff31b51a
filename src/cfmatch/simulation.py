"""Episode driver: mobility loop, per-timestep strategy runs, metrics.

One episode walks the UEs for num_steps timesteps, draws a fresh
channel realization (and by default fresh demands) each step from named
substreams of the master seed, runs every requested strategy on the
identical realization, and records per-UE satisfaction metrics.
Strategies consume no randomness, so adding or removing one never
changes what the others see.  A sweep over satisfaction thresholds
walks the episode once and re-runs only the strategies that read the
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from .channel import ScenarioConfig, generate_layout, step_mobility, realize_channels
from .evaluate import EvalContext
from .matching import GameCounters
from .baselines import THRESHOLD_STRATEGIES, get_strategy
from .streams import substream


@dataclass
class MetricsRecord:
    """Outcome of one strategy at one timestep.

    kappa and per_ue_rate are (K,) arrays; satisfied_count uses the
    configured threshold; quota_violation flags any quota overrun (a
    structural failure, always False for quota-respecting schemes).
    """

    timestep: int
    strategy: str
    kappa: np.ndarray
    per_ue_rate: np.ndarray
    satisfied_count: int
    association_count: int
    counters: GameCounters
    quota_violation: bool


@dataclass
class StrategySummary:
    """Aggregates for one strategy across an episode."""

    timesteps: int
    pct_satisfied_mean: float
    pct_satisfied_std: float
    kappa_mean: float
    kappa_std: float
    associations_mean: float
    associations_std: float
    favorable_tests_total: int
    association_ops_total: int
    swap_count_total: int
    da_iterations_total: int


def draw_demands(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw one demand per UE uniformly from the configured demand set."""
    choices = np.asarray(config.demand_set, dtype=float)
    return rng.choice(choices, size=config.num_ues)


def run_episode(config: ScenarioConfig, strategies: list[str]) -> list[MetricsRecord]:
    """Run every strategy over one seeded episode and collect records.

    Records appear in (timestep, strategy) order with strategies in the
    given order.  Identical configs and strategy lists reproduce
    identical records; the per-timestep channel and demand draws do not
    depend on which strategies run.
    """
    return run_sweep(config, strategies, [config.satisfaction_threshold])[0]


def run_sweep(config: ScenarioConfig, strategies: list[str],
              thresholds: list[float]) -> list[list[MetricsRecord]]:
    """Run one seeded episode for several satisfaction thresholds.

    Returns one record list per threshold, each equal to run_episode
    of config with that satisfaction_threshold.  Mobility, channels,
    demands and the evaluation context are drawn once per timestep, and
    so is every strategy outside THRESHOLD_STRATEGIES, whose result
    every threshold shares; only the satisfied count is taken per
    threshold.  The strategies in THRESHOLD_STRATEGIES run once per
    threshold.
    """
    fns = [(name, get_strategy(name)) for name in strategies]
    configs = [replace(config, satisfaction_threshold=k0) for k0 in thresholds]
    seed = config.seed
    layout = generate_layout(config, substream(seed, "layout"))
    waypoint_rng = substream(seed, "waypoints")
    demands = None
    records: list[list[MetricsRecord]] = [[] for _ in thresholds]
    for t in range(1, config.num_steps + 1):
        if t > 1:
            layout = step_mobility(layout, config, waypoint_rng)
        channels = realize_channels(layout, config,
                                    substream(seed, "shadowing", t),
                                    substream(seed, "fading", t))
        if demands is None or config.demand_refresh == "step":
            demands = draw_demands(config, substream(seed, "demands", t))
        ctx = EvalContext(channels, config)
        for name, fn in fns:
            solved = None
            for cfg, out in zip(configs, records):
                # a threshold-free strategy's first solve serves every threshold
                if solved is None or name in THRESHOLD_STRATEGIES:
                    matching, counters = fn(ctx, demands, cfg)
                    ev = ctx.evaluate_assoc(matching.assoc, demands)
                    solved = (ev, matching.association_count(), counters,
                              matching.quota_violation(cfg.ap_quota, cfg.ue_quota))
                ev, association_count, counters, quota_violation = solved
                out.append(MetricsRecord(
                    timestep=t,
                    strategy=name,
                    kappa=ev.kappa,
                    per_ue_rate=ev.rate,
                    satisfied_count=int(np.count_nonzero(
                        ev.kappa >= cfg.satisfaction_threshold)),
                    association_count=association_count,
                    counters=counters,
                    quota_violation=quota_violation,
                ))
        # free this step's columns before the next step computes its own
        del channels, ctx
    return records


def _sample_std(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1))


def summarize(records: list[MetricsRecord]) -> dict[str, StrategySummary]:
    """Aggregate records per strategy: means and sample standard
    deviations across timesteps, keyed by strategy name in order of
    first appearance."""
    if not records:
        raise ValueError("cannot summarize an empty record list")
    grouped: dict[str, list[MetricsRecord]] = {}
    for rec in records:
        grouped.setdefault(rec.strategy, []).append(rec)

    summary = {}
    for name, recs in grouped.items():
        num_ues = recs[0].kappa.shape[0]
        pct = np.array([100.0 * r.satisfied_count / num_ues for r in recs])
        kappa_t = np.array([r.kappa.mean() for r in recs])
        assoc = np.array([float(r.association_count) for r in recs])
        summary[name] = StrategySummary(
            timesteps=len(recs),
            pct_satisfied_mean=float(pct.mean()),
            pct_satisfied_std=_sample_std(pct),
            kappa_mean=float(kappa_t.mean()),
            kappa_std=_sample_std(kappa_t),
            associations_mean=float(assoc.mean()),
            associations_std=_sample_std(assoc),
            favorable_tests_total=sum(r.counters.favorable_tests for r in recs),
            association_ops_total=sum(r.counters.association_ops for r in recs),
            swap_count_total=sum(r.counters.swap_count for r in recs),
            da_iterations_total=sum(r.counters.da_iterations for r in recs),
        )
    return summary
