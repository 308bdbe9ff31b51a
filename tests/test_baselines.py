import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cfmatch import (ScenarioConfig, best_channel, min_distance,
                     canonical, gca, da_m2m, STRATEGIES,
                     get_strategy, GameCounters, ChannelRealization, EvalContext)
from cfmatch import baselines
from cfmatch.baselines import (SCREEN_MARGIN, _accepts, _pair_trades, _scan_base,
                               swap_matching)

from bruteforce import reference_da_m2m, reference_gca, reference_swap_matching
from make_golden import tie_scene
from helpers import (small_config, random_channels, channels_from_vectors,
                     random_demands, check_matching_valid, seeded_scene, all_columns)


def _demands(num_ues, value=3e7):
    return np.full(num_ues, value)


def test_best_channel_picks_argmax():
    gains = np.array([[0.1, 0.9, 0.5],
                      [0.7, 0.2, 0.7]])
    ch = ChannelRealization(gains=gains,
                            vectors=np.sqrt(gains)[:, :, None].astype(complex),
                            distances=np.ones_like(gains))
    cfg = small_config(3, 2)
    m, _ = best_channel(EvalContext(ch, cfg), _demands(2), cfg)
    expected = np.array([[False, True, False],
                         [True, False, False]])  # tie at 0.7 -> lower index
    np.testing.assert_array_equal(m, expected)
    assert np.count_nonzero(m) == 2


def test_min_distance_picks_nearest():
    gains = np.array([[0.1, 0.9], [0.5, 0.2]])
    dists = np.array([[5.0, 50.0], [50.0, 5.0]])
    ch = ChannelRealization(gains=gains,
                            vectors=np.sqrt(gains)[:, :, None].astype(complex),
                            distances=dists)
    cfg = small_config(2, 2)
    m, _ = min_distance(EvalContext(ch, cfg), _demands(2), cfg)
    np.testing.assert_array_equal(m, np.eye(2, dtype=bool))


def test_distance_and_gain_orders_can_differ():
    # shadowing can make the nearest AP a poor channel; the two schemes
    # must rank independently
    gains = np.array([[0.1, 0.9]])
    dists = np.array([[5.0, 50.0]])
    ch = ChannelRealization(gains=gains,
                            vectors=np.sqrt(gains)[:, :, None].astype(complex),
                            distances=dists)
    cfg = small_config(2, 1)
    ctx = EvalContext(ch, cfg)
    bc, _ = best_channel(ctx, _demands(1), cfg)
    md, _ = min_distance(ctx, _demands(1), cfg)
    np.testing.assert_array_equal(bc, [[False, True]])
    np.testing.assert_array_equal(md, [[True, False]])


def test_canonical_all_pairs():
    cfg = small_config(4, 3)
    ch = random_channels(np.random.default_rng(1), 3, 4, 1)
    m, _ = canonical(EvalContext(ch, cfg), _demands(3), cfg)
    assert np.count_nonzero(m) == 12
    assert (m.sum(axis=0) == 3).all()
    assert (m.sum(axis=1) == 4).all()


def test_gca_threshold_window():
    # 30 dB window: gains within a factor 1000 of the row max stay
    gains = np.array([[1e-6, 2e-9, 0.9e-9],
                      [1e-7, 1e-7, 1e-13]])
    ch = ChannelRealization(gains=gains,
                            vectors=np.sqrt(gains)[:, :, None].astype(complex),
                            distances=np.ones_like(gains))
    cfg = small_config(3, 2, noise_var=1e-2)  # noise high: no pruning gain
    m, _ = gca(EvalContext(ch, cfg), _demands(2), cfg)
    # 0.9e-9 is below 1e-6/1000
    np.testing.assert_array_equal(m, [[True, True, False], [True, True, False]])


def test_gca_infinite_window_is_canonical():
    cfg = small_config(3, 2, power_diff_threshold=float("inf"))
    ch = random_channels(np.random.default_rng(3), 2, 3, 1)
    m, _ = gca(EvalContext(ch, cfg), _demands(2), cfg)
    assert np.count_nonzero(m) == 6


def test_gca_window_past_the_float_range_acts_as_infinite():
    # 10 ** (3083 / 10) overflows a float: such a window seeds every AP,
    # as +inf does, in gca and in its reference
    ch = random_channels(np.random.default_rng(5), 4, 6, 2)
    out = {}
    for window in (3083.0, 1e308, float("inf")):
        cfg = small_config(6, 4, power_diff_threshold=window, noise_var=1e-6)
        ctx = EvalContext(ch, cfg)
        out[window], _ = gca(ctx, _demands(4), cfg)
        np.testing.assert_array_equal(reference_gca(ctx, _demands(4), cfg), out[window])
    np.testing.assert_array_equal(out[3083.0], out[float("inf")])
    np.testing.assert_array_equal(out[1e308], out[float("inf")])


def test_gca_zero_window_is_best_channel():
    cfg = small_config(4, 3, power_diff_threshold=0.0, noise_var=1e-2)
    ch = random_channels(np.random.default_rng(4), 3, 4, 1)
    ctx = EvalContext(ch, cfg)
    m, _ = gca(ctx, _demands(3), cfg)
    b, _ = best_channel(ctx, _demands(3), cfg)
    np.testing.assert_array_equal(m, b)


def _gca_pruning_instance():
    """Find an instance where exactly one AP removal raises the worst
    spectral efficiency and no second removal improves further."""
    rng = np.random.default_rng(19)
    for _ in range(500):
        ch = random_channels(rng, 2, 3, 1)
        cfg = small_config(3, 2, noise_var=10.0 ** rng.uniform(-9, -7))
        demands = _demands(2)
        floor = ch.gains.max(axis=1) / 10.0 ** (cfg.power_diff_threshold / 10.0)
        assoc = ch.gains >= floor[:, None]
        ctx = EvalContext(ch, cfg)

        def worst_se(a):
            ev = ctx.evaluate_assoc(a, demands)
            return float(np.log2(1.0 + ev.sinr).min())

        base = worst_se(assoc)
        active = np.flatnonzero(assoc.any(axis=0))
        improvements = {}
        for m in active:
            trial = assoc.copy()
            trial[:, m] = False
            improvements[int(m)] = worst_se(trial) - base
        positive = {m: g for m, g in improvements.items() if g > 0}
        if len(positive) != 1:
            continue
        only_m = next(iter(positive))
        pruned = assoc.copy()
        pruned[:, only_m] = False
        base2 = worst_se(pruned)
        second = [worst_se(np.where(np.arange(3)[None, :] == m2, False, pruned))
                  for m2 in np.flatnonzero(pruned.any(axis=0))]
        if all(v <= base2 for v in second):
            return ctx, cfg, demands, pruned
    raise AssertionError("search found no single-prune instance")


def test_gca_prunes_harmful_ap():
    ctx, cfg, demands, expected = _gca_pruning_instance()
    m, _ = gca(ctx, demands, cfg)
    np.testing.assert_array_equal(m, expected)


def test_da_exact_count_at_defaults():
    cfg = ScenarioConfig(seed=0)
    rng = np.random.default_rng(0)
    ch = random_channels(rng, 20, 50, 2)
    m, counters = da_m2m(EvalContext(ch, cfg), random_demands(rng, cfg), cfg)
    assert np.count_nonzero(m) == min(50 * 12, 20 * 8) == 160
    check_matching_valid(m, cfg)
    assert counters.da_iterations >= 1


def test_da_everyone_gets_top_choices_without_contention():
    # AP quota >= K means no rejection: each UE holds its best APs
    cfg = small_config(5, 3, ap_quota=3, ue_quota=2)
    ch = random_channels(np.random.default_rng(6), 3, 5, 1)
    m, _ = da_m2m(EvalContext(ch, cfg), _demands(3), cfg)
    for k in range(3):
        top2 = list(np.argsort(-ch.gains[k], kind="stable")[:2])
        assert sorted(np.flatnonzero(m[k])) == sorted(top2)


def test_da_single_pair():
    cfg = small_config(1, 1, ap_quota=1, ue_quota=1)
    ch = random_channels(np.random.default_rng(7), 1, 1, 1)
    m, _ = da_m2m(EvalContext(ch, cfg), _demands(1), cfg)
    assert np.count_nonzero(m) == 1


def test_da_respects_quotas_randomized():
    rng = np.random.default_rng(8)
    for _ in range(60):
        num_ues = int(rng.integers(1, 8))
        num_aps = int(rng.integers(1, 8))
        cfg = small_config(num_aps, num_ues,
                          ap_quota=int(rng.integers(1, num_ues + 1)),
                          ue_quota=int(rng.integers(1, num_aps + 1)))
        ch = random_channels(rng, num_ues, num_aps, 1)
        m, _ = da_m2m(EvalContext(ch, cfg), _demands(num_ues), cfg)
        check_matching_valid(m, cfg)
        # with full-length lists the count hits the quota bound exactly
        assert np.count_nonzero(m) == min(num_aps * cfg.ap_quota,
                                            num_ues * cfg.ue_quota)


@pytest.mark.parametrize("num_ues, num_aps, num_seeds", [
    (5, 8, 40),
    (10, 25, 20),
    (20, 50, 10),
    (70, 140, 2),
])
def test_da_matches_reference_loop(num_ues, num_aps, num_seeds):
    # the array rounds must hold the offers the per-AP lists hold.  5x8
    # adds the tie scenes, whose duplicate APs and UEs have exactly equal
    # gains: the argsort ranks must break those ties as the lists do
    rng = np.random.default_rng(num_ues)
    scenes = []
    for seed in range(600, 600 + num_seeds):
        # every third scene lifts ap_quota to K or past it (no AP rejects),
        # every third ue_quota to M or past it (every list in one round)
        ap_quota = int(rng.integers(1, num_ues + 1)) + (num_ues if seed % 3 == 1 else 0)
        ue_quota = int(rng.integers(1, num_aps + 1)) + (num_aps if seed % 3 == 2 else 0)
        scenes.append(seeded_scene(num_ues, num_aps, seed,
                                   ap_quota=ap_quota, ue_quota=ue_quota))
    if num_aps == 8:
        scenes += [tie_scene("dup-aps"), tie_scene("dup-pairs")]
    for i, (cfg, ctx, demands) in enumerate(scenes):
        out, counters = da_m2m(ctx, demands, cfg)
        ref, ref_counters = reference_da_m2m(ctx, demands, cfg)
        np.testing.assert_array_equal(out, ref, err_msg=f"scene {i}")
        assert counters == ref_counters, f"scene {i}"


def test_swap_fixed_point_on_symmetric_instance():
    h = 1e-4 + 0j
    vectors = np.full((2, 2, 1), h)
    ch = channels_from_vectors(vectors)
    cfg = small_config(2, 2, ap_quota=1, ue_quota=1, noise_var=1e-9)
    m = np.eye(2, dtype=bool)
    counters = GameCounters()
    out = swap_matching(m, EvalContext(ch, cfg), _demands(2, 1e9), cfg, counters)
    np.testing.assert_array_equal(out, m)
    assert counters.swap_count == 0


def test_swap_crosses_misassigned_pairs():
    # UE 0's strong AP is 1 and UE 1's is 0, but they start uncrossed;
    # the only admissible swap crosses them and helps both
    vectors = np.zeros((2, 2, 1), dtype=complex)
    vectors[0, 0, 0] = 1e-5
    vectors[0, 1, 0] = 9e-4
    vectors[1, 0, 0] = 8e-4
    vectors[1, 1, 0] = 1e-5
    ch = channels_from_vectors(vectors)
    cfg = small_config(2, 2, ap_quota=1, ue_quota=1, noise_var=1e-9)
    demands = _demands(2, 1e9)
    start = np.eye(2, dtype=bool)
    ctx = EvalContext(ch, cfg)
    before = ctx.evaluate_assoc(start, demands)
    counters = GameCounters()
    out = swap_matching(start, ctx, demands, cfg, counters)
    after = ctx.evaluate_assoc(out, demands)
    np.testing.assert_array_equal(out,
                                  np.array([[False, True], [True, False]]))
    assert counters.swap_count == 1
    assert after.kappa[0] > before.kappa[0]
    assert after.kappa[1] > before.kappa[1]


def test_swap_preserves_structure_and_sum():
    rng = np.random.default_rng(9)
    for _ in range(25):
        num_ues = int(rng.integers(2, 6))
        num_aps = int(rng.integers(2, 6))
        cfg = small_config(num_aps, num_ues,
                          ap_quota=int(rng.integers(1, num_ues + 1)),
                          ue_quota=int(rng.integers(1, num_aps + 1)),
                          noise_var=1e-7)
        ch = random_channels(rng, num_ues, num_aps, 1)
        ctx = EvalContext(ch, cfg)
        m, counters = da_m2m(ctx, _demands(num_ues, 1e8), cfg)
        demands = rng.choice([5e6, 3e7, 1e8], size=num_ues)
        before = ctx.evaluate_assoc(m, demands)
        out = swap_matching(m, ctx, demands, cfg, counters)
        after = ctx.evaluate_assoc(out, demands)
        assert after.kappa.sum() >= before.kappa.sum()
        assert counters.swap_count <= cfg.ue_quota * num_ues ** 2
        # swaps trade APs one-for-one: every load and cluster size kept
        np.testing.assert_array_equal(out.sum(axis=0), m.sum(axis=0))
        np.testing.assert_array_equal(out.sum(axis=1), m.sum(axis=1))
        check_matching_valid(out, cfg)


def _da_scene(num_ues, num_aps, seed, **overrides):
    """The DA matching of the first step of a seeded scene, with the
    step's context and demands."""
    cfg, ctx, demands = seeded_scene(num_ues, num_aps, seed, **overrides)
    assoc, _ = da_m2m(ctx, demands, cfg)
    return cfg, ctx, demands, assoc


def _trades(ctx, assoc, demands, k, k2):
    """_pair_trades of UEs k, k2 at the start of a scan of assoc, one row
    per trade in scan order: (gives, takes, kappa), kappa of shape (T, K)."""
    weight = np.sqrt(ctx.power_share(assoc))[None, :] * ctx.inv_denom
    only_k, only_k2, kappa = _pair_trades(ctx, assoc, weight, _scan_base(ctx, assoc, weight),
                                          demands, k, k2)
    gives, takes = (x.ravel() for x in np.meshgrid(only_k, only_k2, indexing="ij"))
    return gives, takes, kappa.reshape(-1, ctx.num_ues)


def _trade_kappa_error(ctx, assoc, demands, pairs):
    """(worst |batched - exact| kappa, trade count) over the trades of pairs."""
    worst, trades = 0.0, 0
    for k, k2 in pairs:
        gives, takes, kappa = _trades(ctx, assoc, demands, k, k2)
        for t in range(gives.size):
            trial = assoc.copy()
            trial[k, gives[t]] = trial[k2, takes[t]] = False
            trial[k, takes[t]] = trial[k2, gives[t]] = True
            exact = ctx.evaluate_assoc(trial, demands).kappa
            worst = max(worst, float(np.abs(kappa[t] - exact).max()))
            trades += 1
    return worst, trades


# At 5x8 the default quotas let every UE hold every AP, leaving nothing to trade.
SMALL_QUOTAS = dict(ap_quota=2, ue_quota=3)


@pytest.mark.parametrize("num_ues, num_aps, num_seeds, overrides", [
    (5, 8, 100, SMALL_QUOTAS),
    (10, 25, 30, {}),
    (20, 50, 2, {}),
])
def test_swap_matches_reference_scan(num_ues, num_aps, num_seeds, overrides):
    # the screen may only skip trades the exact rule rejects, so the
    # scan must end where one exact evaluation per trade ends
    total_swaps = 0
    for seed in range(500, 500 + num_seeds):
        cfg, ctx, demands, start = _da_scene(num_ues, num_aps, seed, **overrides)
        fast, slow = GameCounters(), GameCounters()
        out = swap_matching(start, ctx, demands, cfg, fast)
        ref = reference_swap_matching(start, ctx, demands, cfg, slow)
        np.testing.assert_array_equal(out, ref, err_msg=f"seed {seed}")
        assert fast.swap_count == slow.swap_count, f"seed {seed}"
        total_swaps += fast.swap_count
    assert total_swaps > 0


def _dominant_interferer_scene():
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
    demands = 1.5 * ctx.evaluate_assoc(traded, _demands(3)).rate
    sinr = ctx.evaluate_assoc(assoc, demands).sinr[2]
    assert ctx.evaluate_assoc(traded, demands).sinr[2] > 1e9 * sinr
    return cfg, ctx, demands, assoc


@pytest.mark.parametrize("num_ues, num_aps, overrides", [
    (5, 8, SMALL_QUOTAS),
    (10, 25, {}),
])
def test_batched_trade_kappa_matches_exact_evaluation(num_ues, num_aps, overrides):
    # at 5x8 the tie scenes join, whose duplicated APs and UEs make equal
    # columns cancel, and a trade that removes a dominant interferer; at
    # 10x25 the first UE's pairs of the 24x120 scene, whose columns the
    # context computes on first read
    scenes = [_da_scene(num_ues, num_aps, seed, **overrides) + (None,)
              for seed in range(700, 704)]
    if num_aps == 8:
        for name in ("dup-aps", "dup-pairs"):
            cfg, ctx, demands = tie_scene(name)
            scenes.append((cfg, ctx, demands, da_m2m(ctx, demands, cfg)[0], None))
        scenes.append(_dominant_interferer_scene() + (None,))
    else:
        scenes.append(_da_scene(24, 120, 0) + ([(0, k2) for k2 in range(1, 24)],))
    worst, trades = 0.0, 0
    for cfg, ctx, demands, assoc, pairs in scenes:
        pairs = pairs or [(k, k2) for k in range(ctx.num_ues) for k2 in range(k + 1, ctx.num_ues)]
        scene_worst, scene_trades = _trade_kappa_error(ctx, assoc, demands, pairs)
        worst, trades = max(worst, scene_worst), trades + scene_trades
    assert trades > 0
    # about 1000x headroom below the screen's margin
    assert worst <= 1e-12
    assert 1e-12 <= SCREEN_MARGIN / 1000


def test_accepts_batch_matches_rows_and_screen_keeps_them():
    # the screen is the swap rule with slack: on a batch at slack 0 it is
    # the rule row by row, and with SCREEN_MARGIN it drops no row the
    # rule takes.  Besides the real trades, every mix of a 1e-10 loss,
    # tie or gain on k and k2 exercises the rule's ties; the raised
    # demands leave some UEs saturated at kappa 1 and some below it.
    cfg, ctx, demands, start = _da_scene(10, 25, seed=700)
    demands = 5 * demands
    current = ctx.evaluate_assoc(start, demands).kappa
    steps = np.array([-1e-10, 0.0, 1e-10])
    taken = screened = 0
    for k in range(10):
        for k2 in range(k + 1, 10):
            near = np.repeat(current[None], steps.size ** 2, axis=0)
            near[:, k] += np.repeat(steps, steps.size)
            near[:, k2] += np.tile(steps, steps.size)
            batch = np.concatenate([_trades(ctx, start, demands, k, k2)[2],
                                    np.minimum(1.0, near)])
            exact = _accepts(batch, current, k, k2)
            np.testing.assert_array_equal(
                exact, [_accepts(row, current, k, k2) for row in batch])
            screen = _accepts(batch, current, k, k2, SCREEN_MARGIN)
            assert not np.any(exact & ~screen)
            taken += int(np.count_nonzero(exact))
            screened += int(np.count_nonzero(screen))
    assert 0 < taken < screened
    # an exact tie of the sum is no drop: k gains what a third UE loses
    current, trade = np.array([0.5, 0.5, 0.5]), np.array([0.75, 0.5, 0.25])
    assert _accepts(trade, current, 0, 1) and _accepts(trade[None], current, 0, 1).all()


def test_swap_keeps_no_second_copy_of_the_columns():
    # 24x120 is over 1 MB of columns, so the context computes them on first
    # read and keeps them; with all of them computed first, tracemalloc sees
    # the scan's own buffers, and one more copy of every column, 16 K^2 M
    # bytes, would be over the bound alone
    cfg, ctx, demands, start = _da_scene(24, 120, 0)
    all_columns(ctx)
    tracemalloc.start()
    try:
        out = swap_matching(start, ctx, demands, cfg, GameCounters())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.array_equal(out, start)
    assert peak < 16 * ctx.num_ues ** 2 * ctx.num_aps


def test_swap_of_saturated_ues_evaluates_once(monkeypatch):
    # with every UE at kappa 1 no trade can strictly improve anyone, so
    # the screen drops them all and only the starting matching is scored
    cfg, ctx, _, start = _da_scene(10, 25, seed=11)
    demands = np.full(10, 1.0)
    assert np.all(ctx.evaluate_assoc(start, demands).kappa == 1.0)
    assert _trades(ctx, start, demands, 0, 1)[0].size > 0
    calls = []
    original = EvalContext.evaluate_assoc

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(EvalContext, "evaluate_assoc", counted)
    counters = GameCounters()
    out = swap_matching(start, ctx, demands, cfg, counters)
    assert len(calls) == 1
    assert counters.swap_count == 0
    np.testing.assert_array_equal(out, start)


def _gca_seed(ctx, config):
    """gca's starting clusters: every AP within the dB window of the best."""
    gains = ctx.channels.gains
    floor = gains.max(axis=1) / 10.0 ** (config.power_diff_threshold / 10.0)
    return gains >= floor[:, None]


@pytest.mark.parametrize("num_ues, num_aps, num_seeds", [
    (5, 8, 100),
    (10, 25, 30),
    (30, 60, 5),
])
def test_gca_matches_reference_loop(num_ues, num_aps, num_seeds):
    # the screen may only skip drops the exact rule would not pick, so
    # the loop must end where one exact evaluation per drop ends.  5x8 adds
    # the tie scenes, whose duplicate APs have exactly equal bounds
    scenes = [seeded_scene(num_ues, num_aps, seed) for seed in range(900, 900 + num_seeds)]
    if num_aps == 8:
        scenes += [tie_scene("dup-aps"), tie_scene("dup-pairs")]
    total_drops = 0
    for i, (cfg, ctx, demands) in enumerate(scenes):
        out, _ = gca(ctx, demands, cfg)
        np.testing.assert_array_equal(out, reference_gca(ctx, demands, cfg),
                                      err_msg=f"scene {i}")
        total_drops += int(np.count_nonzero(_gca_seed(ctx, cfg).any(axis=0))
                           - np.count_nonzero(out.any(axis=0)))
    assert total_drops > 0


@pytest.mark.parametrize("num_ues, num_aps", [(5, 8), (10, 25), (30, 60)])
def test_batched_drop_gains_match_exact_evaluation(monkeypatch, num_ues, num_aps):
    # replays gca and checks, in every round, every active drop against one
    # exact evaluation: a scored gain in minimum SE lies within 1e-12 of the
    # exact one, and an unscored drop (-inf) is one the exact rule cannot
    # pick.  That drop was either bounded SCREEN_MARGIN below current by the
    # rate it leaves UE k, or left by the early stop 3 SCREEN_MARGIN below
    # the best scored gain; either way its exact gain is at most
    # max(-SCREEN_MARGIN, best exact gain - 2 SCREEN_MARGIN), up to the
    # scores' error.  Stopped drops may still raise the minimum, just not
    # the most.  The screen reads amplitudes kept across rounds, so later
    # rounds also check what the committed drops' subtractions left.  5x8
    # adds dup-aps.
    scenes = [seeded_scene(num_ues, num_aps, seed) for seed in range(950, 953)]
    if num_aps == 8:
        scenes.append(tie_scene("dup-aps"))
    original = baselines._drop_gains
    worst = 0.0
    scored = []
    pruned = []
    stopped = []

    def screen(ctx, amp, weight, active, k, block, current):
        nonlocal worst
        out, worst_ue = original(ctx, amp, weight, active, k, block, current)
        # weight[m, j] is nonzero exactly where AP m serves UE j
        assoc = (weight != 0).T
        np.testing.assert_array_equal(active, assoc.any(axis=0))
        assert np.isneginf(out[~active]).all()
        exact = {}
        for m in np.flatnonzero(active):
            trial = assoc.copy()
            trial[:, m] = False
            se = np.log2(1.0 + ctx.evaluate_assoc(trial, demands).sinr)
            exact[m] = (float(se.min()) - current, float(se[k]) - current)
        best = max(gain for gain, _ in exact.values())
        for m, (gain, bound) in exact.items():
            if np.isneginf(out[m]):
                assert gain <= max(-SCREEN_MARGIN, best - 2 * SCREEN_MARGIN) + 1e-12
                (pruned if bound <= -SCREEN_MARGIN else stopped).append(m)
            else:
                worst = max(worst, abs(out[m] - gain))
                scored.append(m)
        rounds.append(out)
        return out, worst_ue

    monkeypatch.setattr(baselines, "_drop_gains", screen)
    rounds_after_drops = 0
    for cfg, ctx, demands in scenes:
        rounds = []
        gca(ctx, demands, cfg)
        rounds_after_drops += len(rounds) - 1
    assert rounds_after_drops > 0 and scored and pruned
    # at 5x8 the first 4 drops in bound order are nearly all the bound
    # leaves; the larger scenes read 61 and 616 stopped drops
    assert stopped or num_aps == 8
    # about 1000x headroom below the screen's margin
    assert worst <= 1e-12


def test_drop_gains_score_under_a_quarter_of_loaded_aps(monkeypatch):
    # traffic guard on the bound order: over gca's rounds at 30x60, the
    # drops _drop_gains scores (finite gains) against the loaded APs.  This
    # reads 0.133 (356 of 2,685); scoring every drop whose bound passes, as
    # before the early stop, read 0.362 (972).
    original = baselines._drop_gains
    scored = loaded = 0

    def counted(ctx, amp, weight, active, k, block, current):
        nonlocal scored, loaded
        out, worst_ue = original(ctx, amp, weight, active, k, block, current)
        scored += int(np.count_nonzero(np.isfinite(out)))
        loaded += int(np.count_nonzero(active))
        return out, worst_ue

    monkeypatch.setattr(baselines, "_drop_gains", counted)
    for seed in range(950, 953):
        cfg, ctx, demands = seeded_scene(30, 60, seed)
        gca(ctx, demands, cfg)
    assert loaded > 0
    assert scored < loaded / 4


def test_gca_memory_is_a_few_drop_blocks():
    # less the context and the columns a first solve computed, tracemalloc
    # sees the solve's own buffers; one (M, K, K) temporary, 16 K^2 M bytes,
    # would be twice the bound.  These clusters stay wider than M/2, so the
    # exact evaluations contract the channels and gather no columns.
    cfg, ctx, demands = seeded_scene(40, 80, 0)
    gca(ctx, demands, cfg)
    tracemalloc.start()
    try:
        out, _ = gca(ctx, demands, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * out.sum(axis=1).max() > ctx.num_aps
    assert peak < 16 * ctx.num_ues ** 2 * ctx.num_aps / 2


def test_gca_confirms_only_screen_survivors(monkeypatch):
    cfg, ctx, demands = seeded_scene(30, 60, seed=960)
    expected = reference_gca(ctx, demands, cfg)
    calls = []
    rounds = []  # (exact calls made before the round, its screen's estimate)
    survivors = []
    certified = []  # rounds the screen proves, by gca's own rule
    original_eval = EvalContext.evaluate_assoc
    original_gains = baselines._drop_gains
    original_screen = baselines._may_win

    def counted(self, *args):
        calls.append(args)
        return original_eval(self, *args)

    def gains(ctx, amp, weight, active, k, block, current):
        rounds.append((len(calls), current))
        return original_gains(ctx, amp, weight, active, k, block, current)

    def screen(gain):
        mask = original_screen(gain)
        survivors.append(int(np.count_nonzero(mask)))
        estimate = rounds[-1][1]
        certified.append(survivors[-1] == 1 and gain[mask][0] > SCREEN_MARGIN
                         and estimate + gain[mask][0] + SCREEN_MARGIN
                         <= 2 * (estimate - SCREEN_MARGIN))
        return mask

    monkeypatch.setattr(EvalContext, "evaluate_assoc", counted)
    monkeypatch.setattr(baselines, "_drop_gains", gains)
    monkeypatch.setattr(baselines, "_may_win", screen)
    out, _ = gca(ctx, demands, cfg)
    np.testing.assert_array_equal(out, expected)
    drops = int(np.count_nonzero(_gca_seed(ctx, cfg).any(axis=0))
                - np.count_nonzero(out.any(axis=0)))
    # one round per drop plus the last
    assert drops > 0
    assert len(survivors) == drops + 1
    # no near ties here: only each round's winner survives, none in the last
    assert sum(survivors) == drops
    # the screen proves every round but one, which the running minimum's
    # doubling guard leaves to the exact evaluator: it evaluates the
    # current matching once and confirms the lone survivor once
    assert sum(certified) == drops - 1
    assert len(calls) == 2
    made = np.diff([before for before, _ in rounds] + [len(calls)])
    assert not made[np.array(certified)].any()


def _lone_zero_gain_scene():
    """(config, context, demands) of a 2x3 scene whose first gca round
    has one screen survivor, at a gain of exactly 0: UE 0 (the worst,
    served by AP 0) and UE 1 (APs 1 and 2) use orthogonal antenna axes,
    so no beam reaches the other UE.  Dropping the weak AP 2 leaves the
    minimum as it is; every other drop lowers it."""
    vectors = np.zeros((2, 3, 2), complex)
    vectors[0, :, 0] = [1e-3, 1e-6, 1e-6]
    vectors[1, :, 1] = [1e-6, 3e-3, 3e-4]
    cfg = small_config(3, 2, antennas_per_ap=2)
    return cfg, EvalContext(channels_from_vectors(vectors), cfg), _demands(2)


@pytest.mark.parametrize("num_ues, num_aps", [(5, 8), (10, 25), (30, 60)])
def test_gca_certified_rounds_are_exact(monkeypatch, num_ues, num_aps):
    # replays gca's trajectory with one exact evaluation per active drop.
    # A round that ran no evaluate_assoc must be one the exact rule decides
    # the same way: the winner strictly raises the running minimum and beats
    # every other drop, and the running sum lands on the winner's minimum
    # bit for bit, so a later round may take min_se of the matching for it.
    # A last round without evaluations must see no drop raise the minimum.
    scenes = [seeded_scene(num_ues, num_aps, seed) for seed in range(970, 974)]
    if num_aps == 8:
        scenes += [tie_scene("dup-aps"), tie_scene("dup-pairs"), _lone_zero_gain_scene()]
    original_eval = EvalContext.evaluate_assoc
    original_gains = baselines._drop_gains
    calls = 0

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return original_eval(self, *args)

    def gains(ctx, amp, weight, active, k, block, current):
        # weight[m, j] is nonzero exactly where AP m serves UE j
        rounds.append(((weight != 0).T, calls))
        return original_gains(ctx, amp, weight, active, k, block, current)

    monkeypatch.setattr(EvalContext, "evaluate_assoc", counted)
    monkeypatch.setattr(baselines, "_drop_gains", gains)
    certified = 0
    for cfg, ctx, demands in scenes:
        rounds = []
        out, _ = gca(ctx, demands, cfg)
        rounds.append((out, calls))

        def min_se(a):
            return float(np.log2(1.0 + original_eval(ctx, a, demands).sinr).min())

        current = min_se(rounds[0][0])
        for (assoc, before), (after_assoc, after) in zip(rounds, rounds[1:]):
            ms = {}
            for m in np.flatnonzero(assoc.any(axis=0)):
                trial = assoc.copy()
                trial[:, m] = False
                ms[m] = min_se(trial)
            dropped = np.flatnonzero(assoc.any(axis=0) & ~after_assoc.any(axis=0))
            if after > before:
                # decided by the exact evaluator; the running sum as in reference_gca
                if dropped.size:
                    current += ms[dropped[0]] - current
                continue
            if not dropped.size:
                assert all(v < current for v in ms.values())
                continue
            certified += 1
            (winner,) = dropped
            best = ms.pop(winner)
            assert best > current
            assert all(v < best for v in ms.values())
            assert best <= 2 * current
            assert current + (best - current) == best
            current = best
    assert certified > 0


def test_registry_contents():
    assert set(STRATEGIES) == {"ea", "da", "da-smp", "bc", "md", "cs", "gca"}
    for name in STRATEGIES:
        fn = get_strategy(name)
        assert callable(fn)
    with pytest.raises(ValueError, match="unknown strategy"):
        get_strategy("EA")


def test_registry_uniform_signature():
    cfg = small_config(3, 2)
    rng = np.random.default_rng(12)
    ch = random_channels(rng, 2, 3, 1)
    demands = _demands(2)
    ctx = EvalContext(ch, cfg)
    for name in STRATEGIES:
        assoc, counters = get_strategy(name)(ctx, demands, cfg)
        assert isinstance(assoc, np.ndarray)
        assert isinstance(counters, GameCounters)
        assert assoc.dtype == bool and assoc.shape == (2, 3)


@pytest.mark.parametrize("num_ues, num_aps", [(5, 8), (10, 25)])
def test_threshold_free_strategies_ignore_the_threshold(num_ues, num_aps):
    # a threshold sweep solves these once per step and shares the result
    # with every threshold; one that starts reading the threshold must
    # join THRESHOLD_STRATEGIES, or this fails
    free = sorted(set(STRATEGIES) - baselines.THRESHOLD_STRATEGIES)
    assert free and baselines.THRESHOLD_STRATEGIES <= set(STRATEGIES)
    ea_moved = False
    for seed in range(40, 44):
        cfg, ctx, demands = seeded_scene(num_ues, num_aps, seed)
        outcomes = {}
        for k0 in (0.5, 0.8, 1.0):
            cfg = replace(cfg, satisfaction_threshold=k0)
            for name in STRATEGIES:
                outcomes.setdefault(name, []).append(get_strategy(name)(ctx, demands, cfg))
        for name in free:
            (assoc, counters), *others = outcomes[name]
            for other_assoc, other_counters in others:
                np.testing.assert_array_equal(other_assoc, assoc,
                                              err_msg=f"{name} seed {seed}")
                assert other_counters == counters, f"{name} seed {seed}"
        (assoc, counters), *others = outcomes["ea"]
        ea_moved |= any(not np.array_equal(a, assoc) or c != counters for a, c in others)
    # the scenes are ones where the threshold does matter to ea
    assert ea_moved
