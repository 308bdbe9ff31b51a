"""Shared builders and checkers for randomized test instances."""

import sys

import numpy as np

from cfmatch import (ChannelRealization, ScenarioConfig, EvalContext,
                     generate_layout, realize_channels, draw_demands, substream)
from cfmatch import matching as matching_module
from cfmatch.baselines import _pair_trades, _scan_base
from cfmatch.evaluate import quota_violation

from bruteforce import reference_associate, reference_preferences


def small_config(num_aps, num_ues, antennas_per_ap=1, **overrides):
    """ScenarioConfig for tiny instances; quotas default to full size."""
    params = dict(num_aps=num_aps, num_ues=num_ues,
                  antennas_per_ap=antennas_per_ap,
                  ap_quota=num_ues, ue_quota=num_aps, num_steps=1)
    params.update(overrides)
    return ScenarioConfig(**params)


def random_channels(rng, num_ues, num_aps, antennas):
    """Random realization with gains spread over a few orders of
    magnitude; distances drawn independently so distance- and
    gain-based orderings genuinely differ."""
    gains = 10.0 ** rng.uniform(-9.0, -6.0, size=(num_ues, num_aps))
    shape = (num_ues, num_aps, antennas)
    alpha = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    vectors = alpha * np.sqrt(gains)[:, :, None]
    distances = rng.uniform(1.0, 300.0, size=(num_ues, num_aps))
    return ChannelRealization(gains=gains, vectors=vectors, distances=distances)


def seeded_scene(num_ues, num_aps, seed, **overrides):
    """The config, context and demands of the first step of a seeded scene."""
    cfg = ScenarioConfig(num_ues=num_ues, num_aps=num_aps, num_steps=1, seed=seed,
                         **overrides)
    layout = generate_layout(cfg, substream(seed, "layout"))
    ch = realize_channels(layout, cfg, substream(seed, "shadowing", 1),
                          substream(seed, "fading", 1))
    demands = draw_demands(cfg, substream(seed, "demands", 1))
    return cfg, EvalContext(ch, cfg), demands


def channels_from_vectors(vectors):
    """Wrap explicit channel vectors; gains follow their energy."""
    vectors = np.asarray(vectors, dtype=complex)
    gains = np.abs(vectors) ** 2
    gains = gains.mean(axis=2)
    distances = 1.0 / np.sqrt(gains)
    return ChannelRealization(gains=gains, vectors=vectors, distances=distances)


def power_shares(assoc, max_power):
    """(K, M) power AP m spends on UE k under an equal split: its budget
    over the UEs it serves, counted here, or 0 where it does not serve k."""
    loads = np.count_nonzero(assoc, axis=0)
    return np.where(assoc, max_power / np.maximum(loads, 1), 0.0)


def beam_weights(ctx, assoc):
    """evaluate_assoc's beam weights w[j, m] of a boolean association matrix."""
    return np.sqrt(power_shares(assoc, ctx.max_power)) * ctx.inv_denom


def all_columns(ctx):
    """Every column of the context, (M, K, K): [m, j] is column (m, j),
    cross[m, :, j]."""
    return ctx.columns(np.arange(ctx.num_aps)[:, None], np.arange(ctx.num_ues))


def cross_einsum(ctx, w):
    """Amplitudes as one einsum over every column in (K, K, M) layout: the
    contraction that EvalContext.amplitudes matches bit for bit while no
    cluster is wider than M/2."""
    return np.einsum("kjm,jm->kj", np.ascontiguousarray(all_columns(ctx).transpose(2, 1, 0)), w)


def assert_dense_close(amp, reference):
    """amp is within 1e-15 of reference, relative to its largest entry."""
    assert np.abs(amp - reference).max(initial=0.0) <= 1e-15 * np.abs(reference).max(initial=0.0)


def assert_amplitudes(ctx, w, amp):
    """amp is ctx.amplitudes(w): the bits of cross_einsum while no cluster is
    wider than M/2, within 1e-15 of them in the wide branches beyond."""
    if 2 * np.count_nonzero(w, axis=1).max(initial=0) > ctx.num_aps:
        assert_dense_close(amp, cross_einsum(ctx, w))
    else:
        assert np.array_equal(amp, cross_einsum(ctx, w))


def pair_trades(ctx, assoc, demands, k, k2):
    """_pair_trades of UEs k, k2 at the start of a scan of assoc, one row
    per trade in scan order: (gives, takes, kappa), kappa of shape (T, K)."""
    weight = ctx.beam_weights(assoc.sum(axis=0))
    base = _scan_base(ctx, assoc, weight)
    only_k, only_k2, kappa = _pair_trades(ctx, weight, base, demands, k, k2)
    gives, takes = (x.ravel() for x in np.meshgrid(only_k, only_k2, indexing="ij"))
    return gives, takes, kappa.reshape(-1, ctx.num_ues)


def trade_kappa_error(ctx, assoc, demands, pairs):
    """(worst |batched - exact| kappa, trade count) over the trades of pairs."""
    worst, trades = 0.0, 0
    for k, k2 in pairs:
        gives, takes, kappa = pair_trades(ctx, assoc, demands, k, k2)
        for t in range(gives.size):
            trial = assoc.copy()
            trial[k, gives[t]] = trial[k2, takes[t]] = False
            trial[k, takes[t]] = trial[k2, gives[t]] = True
            exact = ctx.evaluate_assoc(trial, demands).kappa
            worst = max(worst, float(np.abs(kappa[t] - exact).max()))
            trades += 1
    return worst, trades


def dominant_interferer_scene():
    """(config, context, demands, assoc) of 3 UEs on 3 single-antenna APs,
    UE j on AP j, where trading APs 0 and 1 between UEs 0 and 1 removes
    nearly all of UE 2's interference.

    UE 2 hears UE 0's beam from AP 0 ten times stronger than its own
    signal; the trade hands AP 0 to UE 1, whose far stronger channel there
    shrinks that beam, and UE 2's interference falls by about 1e10.  Taking
    the old terms out of a kept row sum would leave the rounding of the old
    sum, over 1e-6 of what is left.  Demands put every traded kappa at 2/3."""
    vectors = np.full((3, 3, 1), 1e-9, dtype=complex)
    vectors[0, 0], vectors[1, 0], vectors[2, 0] = 1e-4, 1e1, 1e-3
    vectors[0, 1] = vectors[1, 1] = vectors[2, 2] = 1e-4
    cfg = small_config(3, 3, ap_quota=1, ue_quota=1, noise_var=1e-15)
    ctx = EvalContext(channels_from_vectors(vectors), cfg)
    assoc, traded = np.eye(3, dtype=bool), np.eye(3, dtype=bool)[[1, 0, 2]]
    demands = 1.5 * ctx.evaluate_assoc(traded, np.full(3, 3e7)).rate
    sinr = ctx.evaluate_assoc(assoc, demands).sinr[2]
    assert ctx.evaluate_assoc(traded, demands).sinr[2] > 1e9 * sinr
    return cfg, ctx, demands, assoc


def random_demands(rng, config):
    return rng.choice(np.asarray(config.demand_set, float), size=config.num_ues)


def records_by_strategy(records):
    grouped = {}
    for rec in records:
        grouped.setdefault(rec.strategy, []).append(rec)
    return grouped


def check_matching_valid(assoc, config):
    """Definition-level validity: a (K, M) boolean matrix within quotas."""
    assert isinstance(assoc, np.ndarray) and assoc.dtype == bool
    assert assoc.shape == (config.num_ues, config.num_aps)
    assert not quota_violation(assoc, config.ap_quota, config.ue_quota)


def record_commits(monkeypatch):
    """Record every association the ea game commits from now on.

    Wraps the module global cfmatch.matching.associate, which the game
    calls, and returns the list it appends (phase, k, m) to: phase is
    "evolve" for a call made inside cluster_evolution, "init" otherwise.
    """
    commits = []
    associate = matching_module.associate

    def recorded(k, m, state, assoc):
        caller = sys._getframe(1).f_code.co_name
        commits.append(("evolve" if caller == "cluster_evolution" else "init", k, m))
        associate(k, m, state, assoc)

    monkeypatch.setattr(matching_module, "associate", recorded)
    return commits


def replay_ea_trace(ctx, demands, config, trace, final_assoc):
    """Re-derive the game from its commit trace, asserting the
    favorable-pair rule at every evolution commit.

    Checks, per evolution commit: the UE sat inside the AP's
    remaining-quota window, its own satisfaction strictly rose, and the
    summed satisfaction over UEs served at commit time did not drop.
    The replayed matching must equal the game's final matching.  The
    lists are the tests' own (reference_preferences, reference_associate).
    """
    demands = np.asarray(demands, dtype=float)
    state = reference_preferences(ctx.channels.gains, config)
    assoc = np.zeros((ctx.num_ues, ctx.num_aps), dtype=bool)
    evolve_commits = 0
    for kind, k, m in trace:
        if kind == "evolve":
            assert k in state.ap_prefs[m][:state.ap_quota[m]]
            before = ctx.evaluate_assoc(assoc, demands)
            served = assoc.any(axis=1)
            reference_associate(k, m, state, assoc)
            after = ctx.evaluate_assoc(assoc, demands)
            assert after.kappa[k] > before.kappa[k]
            assert float(after.kappa[served].sum()) >= float(before.kappa[served].sum())
            evolve_commits += 1
        else:
            reference_associate(k, m, state, assoc)
    np.testing.assert_array_equal(assoc, final_assoc)
    return evolve_commits
