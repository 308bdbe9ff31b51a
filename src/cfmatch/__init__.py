"""Deterministic simulator and algorithms for user-centric AP clustering
in downlink cell-free MIMO networks."""

from .channel import (ScenarioConfig, Layout, ChannelRealization,
                      generate_layout, step_mobility, path_gain,
                      draw_shadowing, realize_channels)
from .evaluate import (Matching, NetworkEvaluation, EvalContext,
                       lmmse_beamformer, equal_power_allocation,
                       compute_beamformers, received_power,
                       interference_power, evaluate_network, as_eval_context)
from .matching import (PreferenceState, UEPartition, GameCounters,
                       build_preferences, associate, ea_initial_association,
                       is_favorable_pair, cluster_evolution, ea_m2m)
from .baselines import (best_channel, min_distance, canonical, gca, da_m2m,
                        swap_matching, STRATEGIES, get_strategy)
from .simulation import (MetricsRecord, StrategySummary, EpisodeSummary,
                         draw_demands, run_episode, run_sweep, summarize)
from .cli import RunSpec, load_config, cmd_run, main
from .streams import substream, STREAM_IDS

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig", "Layout", "ChannelRealization", "generate_layout",
    "step_mobility", "path_gain", "draw_shadowing", "realize_channels",
    "Matching", "NetworkEvaluation", "EvalContext", "lmmse_beamformer",
    "equal_power_allocation", "compute_beamformers", "received_power",
    "interference_power", "evaluate_network", "as_eval_context",
    "PreferenceState", "UEPartition", "GameCounters", "build_preferences",
    "associate", "ea_initial_association", "is_favorable_pair",
    "cluster_evolution", "ea_m2m",
    "best_channel", "min_distance", "canonical", "gca", "da_m2m",
    "swap_matching", "STRATEGIES", "get_strategy",
    "MetricsRecord", "StrategySummary", "EpisodeSummary", "draw_demands",
    "run_episode", "run_sweep", "summarize",
    "RunSpec", "load_config", "cmd_run", "main",
    "substream", "STREAM_IDS",
    "__version__",
]
