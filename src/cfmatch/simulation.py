"""Episode driver: mobility loop, per-timestep strategy runs, metrics.

One episode walks the UEs for num_steps timesteps, draws a fresh
channel realization (and by default fresh demands) each step from named
substreams of the master seed, runs every requested strategy on the
identical realization, and records per-UE satisfaction metrics.
Strategies consume no randomness, so adding or removing one never
changes what the others see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .channel import ScenarioConfig, generate_layout, step_mobility, realize_channels
from .evaluate import EvalContext
from .matching import GameCounters
from .baselines import get_strategy
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

    strategy: str
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


@dataclass
class EpisodeSummary:
    """Per-strategy summaries, keyed by strategy name."""

    per_strategy: dict[str, StrategySummary] = field(default_factory=dict)


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
    fns = [(name, get_strategy(name)) for name in strategies]
    seed = config.seed
    layout = generate_layout(config, substream(seed, "layout"))
    waypoint_rng = substream(seed, "waypoints")
    demands = None
    records: list[MetricsRecord] = []
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
            matching, counters = fn(ctx, demands, config)
            ev = ctx.evaluate_assoc(matching.assoc, demands)
            satisfied = int(np.count_nonzero(ev.kappa >= config.satisfaction_threshold))
            records.append(MetricsRecord(
                timestep=t,
                strategy=name,
                kappa=ev.kappa,
                per_ue_rate=ev.rate,
                satisfied_count=satisfied,
                association_count=matching.association_count(),
                counters=counters,
                quota_violation=matching.quota_violation(config.ap_quota,
                                                         config.ue_quota),
            ))
        # free this step's K^2 M cache before the next step builds its own
        del channels, ctx
    return records


def _sample_std(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1))


def summarize(records: list[MetricsRecord]) -> EpisodeSummary:
    """Aggregate records per strategy: means and sample standard
    deviations across timesteps."""
    if not records:
        raise ValueError("cannot summarize an empty record list")
    order: list[str] = []
    grouped: dict[str, list[MetricsRecord]] = {}
    for rec in records:
        if rec.strategy not in grouped:
            grouped[rec.strategy] = []
            order.append(rec.strategy)
        grouped[rec.strategy].append(rec)

    summary = EpisodeSummary()
    for name in order:
        recs = grouped[name]
        num_ues = recs[0].kappa.shape[0]
        pct = np.array([100.0 * r.satisfied_count / num_ues for r in recs])
        kappa_t = np.array([r.kappa.mean() for r in recs])
        assoc = np.array([float(r.association_count) for r in recs])
        summary.per_strategy[name] = StrategySummary(
            strategy=name,
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
