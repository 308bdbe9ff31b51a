"""Shared builders and checkers for randomized test instances."""

import sys

import numpy as np

from cfmatch import (ChannelRealization, ScenarioConfig, Matching, EvalContext,
                     generate_layout, realize_channels, draw_demands, substream)
from cfmatch import matching as matching_module

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


def beam_weights(ctx, assoc):
    """evaluate_assoc's beam weights w[j, m] of a boolean association matrix."""
    return assoc * (np.sqrt(ctx.power_share(assoc))[None, :] * ctx.inv_denom)


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


def random_demands(rng, config):
    return rng.choice(np.asarray(config.demand_set, float), size=config.num_ues)


def records_by_strategy(records):
    grouped = {}
    for rec in records:
        grouped.setdefault(rec.strategy, []).append(rec)
    return grouped


def check_matching_valid(matching, config):
    """Definition-level validity: a (K, M) boolean matrix within quotas."""
    assert matching.assoc.dtype == bool
    assert matching.assoc.shape == (config.num_ues, config.num_aps)
    assert not matching.quota_violation(config.ap_quota, config.ue_quota)


def record_commits(monkeypatch):
    """Record every association the ea game commits from now on.

    Wraps the module global cfmatch.matching.associate, which the game
    calls, and returns the list it appends (phase, k, m) to: phase is
    "evolve" for a call made inside cluster_evolution, "init" otherwise.
    """
    commits = []
    associate = matching_module.associate

    def recorded(k, m, state, matching):
        caller = sys._getframe(1).f_code.co_name
        commits.append(("evolve" if caller == "cluster_evolution" else "init", k, m))
        associate(k, m, state, matching)

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
    matching = Matching.empty(ctx.num_ues, ctx.num_aps)
    evolve_commits = 0
    for kind, k, m in trace:
        if kind == "evolve":
            assert k in state.ap_prefs[m][:state.ap_quota[m]]
            before = ctx.evaluate_assoc(matching.assoc, demands)
            served = matching.assoc.any(axis=1)
            reference_associate(k, m, state, matching)
            after = ctx.evaluate_assoc(matching.assoc, demands)
            assert after.kappa[k] > before.kappa[k]
            assert float(after.kappa[served].sum()) >= float(before.kappa[served].sum())
            evolve_commits += 1
        else:
            reference_associate(k, m, state, matching)
    np.testing.assert_array_equal(matching.assoc, final_assoc)
    return evolve_commits
