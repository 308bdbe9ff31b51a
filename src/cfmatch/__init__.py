"""Deterministic simulator and algorithms for user-centric AP clustering
in downlink cell-free MIMO networks."""

from .channel import (ScenarioConfig, Layout, ChannelRealization,
                      generate_layout, step_mobility, realize_channels)
from .evaluate import NetworkEvaluation, EvalContext
from .matching import GameCounters, ea_m2m
from .baselines import (best_channel, min_distance, canonical, gca, da_m2m,
                        STRATEGIES, get_strategy)
from .simulation import (MetricsRecord, StrategySummary, draw_demands,
                         run_episode, run_sweep, summarize)
from .cli import RunSpec, load_config, cmd_run, main
from .streams import substream

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig", "Layout", "ChannelRealization", "generate_layout",
    "step_mobility", "realize_channels",
    "NetworkEvaluation", "EvalContext",
    "GameCounters", "ea_m2m",
    "best_channel", "min_distance", "canonical", "gca", "da_m2m",
    "STRATEGIES", "get_strategy",
    "MetricsRecord", "StrategySummary", "draw_demands",
    "run_episode", "run_sweep", "summarize",
    "RunSpec", "load_config", "cmd_run", "main",
    "substream",
    "__version__",
]
