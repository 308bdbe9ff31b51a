"""Regenerate the golden matching corpus, tests/golden/matchings.json.

    PYTHONPATH=src python tests/make_golden.py

Each entry pins one strategy's matching on one scene: the SHA-256 of its
boolean association matrix plus every GameCounters field.  The seeded
scenes are the first two timesteps of episodes at 5x8, 10x25 and 20x50
(UEs x APs), seeds 0-2.  Two more 5x8 scenes copy AP columns (and, in
the second, UE rows) so that gains tie exactly and every tie-break
rule decides something.  Three larger scenes pin only their first step
and the strategies that run at that size: 70x140 for ea, da, bc, md and
cs, 30x60 for gca, whose clusters start wider than M/2 and shrink below
it, 50x100 for gca, its largest pinned scene (25 drops), and 24x120 for
da-smp, whose 1.05 MB of columns puts its swap scan on the context's
computed-on-first-read columns (17 swaps).
test_golden.py recomputes the corpus and compares.  Regenerate it only
for a change meant to alter a matching, and say why in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

from cfmatch import (EvalContext, ScenarioConfig, STRATEGIES, draw_demands,
                     generate_layout, get_strategy, realize_channels,
                     step_mobility, substream)
from helpers import channels_from_vectors

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "matchings.json")

SIZES = ((5, 8), (10, 25), (20, 50))
SEEDS = (0, 1, 2)
NUM_STEPS = 2
# ea is the only strategy that reads the threshold
EA_THRESHOLDS = (0.5, 1.0)
# first step only, with the strategies named
LARGE_SCENES = {"70x140-seed0": ("ea", "da", "bc", "md", "cs"),
                "30x60-seed0": ("gca",), "50x100-seed0": ("gca",),
                "24x120-seed0": ("da-smp",)}


def seeded_steps(num_ues, num_aps, seed):
    """(step label, config, context, demands) of each step of a seeded
    episode, drawn as run_sweep draws them."""
    cfg = ScenarioConfig(num_ues=num_ues, num_aps=num_aps, num_steps=NUM_STEPS,
                         seed=seed)
    layout = generate_layout(cfg, substream(seed, "layout"))
    waypoint_rng = substream(seed, "waypoints")
    for t in range(1, NUM_STEPS + 1):
        if t > 1:
            layout = step_mobility(layout, cfg, waypoint_rng)
        ch = realize_channels(layout, cfg, substream(seed, "shadowing", t),
                              substream(seed, "fading", t))
        demands = draw_demands(cfg, substream(seed, "demands", t))
        yield f"step{t}", cfg, EvalContext(ch, cfg), demands


def tie_scene(name):
    """(config, context, demands) of a 5x8 scene with exact gain ties.

    dup-aps: APs m and m + 4 have identical channels.
    dup-pairs: APs 2i and 2i + 1 have identical channels, and so do
    UEs 0 and 1, and UEs 2 and 3; each AP serves one UE, so every AP
    breaks a tie between two UEs.  UE 4's gains to APs 2 and 3 sit
    exactly on its gca seeding floor, a quarter of its best gain.
    """
    rng = np.random.default_rng(1234 if name == "dup-aps" else 4321)
    base_ues = 5 if name == "dup-aps" else 3
    gains = 10.0 ** rng.uniform(-8.0, -6.2, size=(base_ues, 4))
    shape = (base_ues, 4, 4)
    vectors = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
               / np.sqrt(2.0) * np.sqrt(gains)[:, :, None])
    if name == "dup-aps":
        vectors = np.concatenate([vectors, vectors], axis=1)
        cfg = ScenarioConfig(num_ues=5, num_aps=8, antennas_per_ap=4, ap_quota=2,
                             ue_quota=3, num_steps=1)
    else:
        # gains 2^-20 and 2^-22, both exact, the latter 6.02 dB below
        vectors[2, 0] = 2.0 ** -10
        vectors[2, 1] = 2.0 ** -11
        vectors = np.repeat(vectors[[0, 0, 1, 1, 2]], 2, axis=1)
        cfg = ScenarioConfig(num_ues=5, num_aps=8, antennas_per_ap=4, ap_quota=1,
                             ue_quota=2, num_steps=1,
                             power_diff_threshold=10.0 * np.log10(4.0))
    demands = rng.choice(np.asarray(cfg.demand_set), size=cfg.num_ues)
    return cfg, EvalContext(channels_from_vectors(vectors), cfg), demands


# scene label -> the strategies pinned on it
SCENES = {**{f"{k}x{m}-seed{seed}": tuple(STRATEGIES) for k, m in SIZES for seed in SEEDS},
          "dup-aps": tuple(STRATEGIES), "dup-pairs": tuple(STRATEGIES), **LARGE_SCENES}


def scene_steps(label):
    """(step label, config, context, demands) of each step of a scene."""
    if label.startswith("dup-"):
        return [("step1", *tie_scene(label))]
    size, seed = label.split("-seed")
    num_ues, num_aps = (int(n) for n in size.split("x"))
    steps = seeded_steps(num_ues, num_aps, int(seed))
    return [next(steps)] if label in LARGE_SCENES else list(steps)


def entry(assoc, counters) -> dict:
    assoc = np.ascontiguousarray(assoc, dtype=bool)
    return {"assoc_sha256": hashlib.sha256(assoc.tobytes()).hexdigest(),
            **dataclasses.asdict(counters)}


def scene_entries(label) -> dict:
    """Entry key -> entry for every strategy on each step of a scene."""
    out = {}
    for step, cfg, ctx, demands in scene_steps(label):
        for name in SCENES[label]:
            thresholds = EA_THRESHOLDS if name == "ea" else (cfg.satisfaction_threshold,)
            for k0 in thresholds:
                run_cfg = dataclasses.replace(cfg, satisfaction_threshold=k0)
                key = f"{step}/{name}" + (f"@{k0:g}" if name == "ea" else "")
                out[key] = entry(*get_strategy(name)(ctx, demands, run_cfg))
    return out


def golden_entries() -> dict:
    """Scene label -> entry key -> entry, for the whole corpus."""
    return {label: scene_entries(label) for label in SCENES}


def main() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump(golden_entries(), f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
