import tracemalloc

import numpy as np
import pytest

from cfmatch import (Matching, build_preferences, associate,
                     ea_initial_association, is_favorable_pair,
                     cluster_evolution, ea_m2m, get_strategy, STRATEGIES,
                     GameCounters, EvalContext)
from cfmatch import matching as matching_module
from cfmatch.matching import _GrowingScores

from bruteforce import (reference_cluster_evolution, reference_ea_initial_association,
                        reference_preferences)
from helpers import (small_config, random_channels, channels_from_vectors,
                     random_demands, check_matching_valid, record_commits,
                     replay_ea_trace, seeded_scene)
from make_golden import tie_scene


def test_preferences_sorted_by_gain_desc():
    gains = np.array([[0.1, 0.9, 0.5],
                      [0.3, 0.3, 0.3]])
    cfg = small_config(3, 2, ap_quota=2, ue_quota=3)
    state = build_preferences(gains, cfg)
    assert state.ue_prefs[0] == [1, 2, 0]
    assert state.ue_prefs[1] == [0, 1, 2]  # ties break toward lower index
    assert state.ap_prefs[0] == [1, 0]
    assert state.ap_prefs[1] == [0, 1]
    assert state.ap_prefs[2] == [0, 1]
    assert state.ue_quota == [3, 3]
    assert state.ap_quota == [2, 2, 2]


def test_preferences_full_length_at_defaults():
    from cfmatch import ScenarioConfig
    rng = np.random.default_rng(1)
    ch = random_channels(rng, 20, 50, 1)
    state = build_preferences(ch.gains, ScenarioConfig())
    assert all(len(p) == 50 for p in state.ue_prefs)
    assert all(len(p) == 20 for p in state.ap_prefs)
    assert all(sorted(p) == list(range(50)) for p in state.ue_prefs)


def test_associate_updates_both_sides():
    gains = np.array([[2.0, 1.0], [1.5, 0.5]])
    cfg = small_config(2, 2, ap_quota=2, ue_quota=2)
    state = build_preferences(gains, cfg)
    m = Matching.empty(2, 2)
    associate(0, 1, state, m)
    assert m.assoc[0, 1]
    assert 1 not in state.ue_prefs[0]
    assert 0 not in state.ap_prefs[1]
    assert state.ue_quota[0] == 1
    assert state.ap_quota[1] == 1


def test_associate_ap_saturation_clears_all_lists():
    gains = np.array([[2.0, 1.0], [1.5, 0.5], [1.0, 0.1]])
    cfg = small_config(2, 3, ap_quota=1, ue_quota=2)
    state = build_preferences(gains, cfg)
    m = Matching.empty(3, 2)
    associate(1, 0, state, m)  # AP 0 quota 1 -> saturated
    assert state.ap_quota[0] == 0
    assert all(0 not in prefs for prefs in state.ue_prefs)
    assert state.ap_prefs[0] == []


def test_associate_ue_saturation_clears_all_lists():
    gains = np.array([[2.0, 1.0, 0.5], [1.5, 0.5, 0.2]])
    cfg = small_config(3, 2, ap_quota=2, ue_quota=1)
    state = build_preferences(gains, cfg)
    m = Matching.empty(2, 3)
    associate(0, 2, state, m)  # UE 0 quota 1 -> saturated
    assert state.ue_quota[0] == 0
    assert all(0 not in prefs for prefs in state.ap_prefs)
    assert state.ue_prefs[0] == []


def test_associate_contract_errors():
    gains = np.array([[2.0, 1.0], [1.5, 0.5]])
    cfg = small_config(2, 2, ap_quota=1, ue_quota=2)
    state = build_preferences(gains, cfg)
    m = Matching.empty(2, 2)
    associate(0, 0, state, m)
    with pytest.raises(ValueError):
        associate(1, 0, state, m)  # AP 0 exhausted
    with pytest.raises(ValueError):
        associate(0, 0, state, m)  # repeat


def test_initial_association_single_pair():
    gains = np.array([[1.0]])
    cfg = small_config(1, 1)
    state = build_preferences(gains, cfg)
    m = ea_initial_association(state)
    assert m.assoc[0, 0]


def test_initial_association_clamped_pointer_round_two(monkeypatch):
    # both UEs prefer AP 0; AP 0 (quota 1) prefers UE 1, AP 1 prefers
    # UE 0.  Round 1: UE 0 rejected at AP 0, UE 1 accepted there, AP 0
    # saturates and drops off UE 0's list.  Round 2: UE 0's pointer (1)
    # is past its one-AP list, so it re-aims at AP 1 and is accepted.
    gains = np.array([[0.9, 0.8],
                      [1.0, 0.7]])
    cfg = small_config(2, 2, ap_quota=1, ue_quota=1)
    state = build_preferences(gains, cfg)
    commits = record_commits(monkeypatch)
    m = ea_initial_association(state)
    assert commits == [("init", 1, 0), ("init", 0, 1)]
    expected = np.array([[False, True], [True, False]])
    np.testing.assert_array_equal(m.assoc, expected)


def test_initial_association_forced_branch(monkeypatch):
    # UE 1's only remaining AP ranks it outside the quota window while
    # the window holder (UE 0, already associated, quota left) never
    # requests again: the rounds stall and UE 1 takes the AP by forced
    # association.
    gains = np.array([[10.0, 5.0],
                      [9.0, 1.0]])
    cfg = small_config(2, 2, ap_quota=1, ue_quota=2)
    state = build_preferences(gains, cfg)
    commits = record_commits(monkeypatch)
    m = ea_initial_association(state)
    expected = np.array([[True, False], [False, True]])
    np.testing.assert_array_equal(m.assoc, expected)
    assert commits == [("init", 0, 0), ("init", 1, 1)]


def test_initial_association_no_aps():
    cfg = small_config(1, 2)  # quota fields only; dims come from gains
    state = build_preferences(np.zeros((2, 0)), cfg)
    m = ea_initial_association(state)
    assert m.assoc.shape == (2, 0)


def test_initial_association_matches_reference_stopping_scan(monkeypatch):
    # the rounds stop on their own no-progress rule; the reference also
    # stops once no acceptance is possible, which must change nothing
    # but how many rounds run
    commits = record_commits(monkeypatch)
    rng = np.random.default_rng(97)
    stopped_early = 0
    for scene in range(600):
        num_ues = int(rng.integers(1, 30))
        num_aps = int(rng.integers(1, 40))
        cfg = small_config(num_aps, num_ues, ap_quota=int(rng.integers(1, 4)),
                           ue_quota=int(rng.integers(1, 4)))
        if scene % 10 < 3:  # exact gain ties on both sides
            gains = rng.integers(1, 4, size=(num_ues, num_aps)).astype(float)
        else:
            gains = 10.0 ** rng.uniform(-9.0, -6.0, size=(num_ues, num_aps))
        state, ref_state = build_preferences(gains, cfg), reference_preferences(gains, cfg)
        commits.clear()
        m = ea_initial_association(state)
        counters, trace = GameCounters(), []
        ref, scan_stopped = reference_ea_initial_association(ref_state, counters, trace)
        np.testing.assert_array_equal(m.assoc, ref.assoc, err_msg=f"scene {scene}")
        assert commits == trace, f"scene {scene}"
        assert counters.association_ops == m.association_count(), f"scene {scene}"
        assert state == ref_state, f"scene {scene}"
        stopped_early += scan_stopped
    assert stopped_early > 0  # the reference's scan did cut some rounds short


def test_initial_association_single_ap_per_ue():
    rng = np.random.default_rng(23)
    for _ in range(50):
        num_ues = int(rng.integers(1, 7))
        num_aps = int(rng.integers(1, 7))
        cfg = small_config(num_aps, num_ues,
                          ap_quota=int(rng.integers(1, num_ues + 1)),
                          ue_quota=int(rng.integers(1, num_aps + 1)))
        ch = random_channels(rng, num_ues, num_aps, 1)
        state = build_preferences(ch.gains, cfg)
        m = ea_initial_association(state)
        assert (m.assoc.sum(axis=1) <= 1).all()
        # a UE is left unassociated only once its list is empty
        assert all(m.assoc[k].any() or not state.ue_prefs[k] for k in range(num_ues))
        check_matching_valid(m, cfg)
        # remaining quotas track cluster sizes exactly
        assert state.ue_quota == list(cfg.ue_quota - m.assoc.sum(axis=1))
        assert state.ap_quota == list(cfg.ap_quota - m.assoc.sum(axis=0))


def _favorable_fixture():
    # UE 0 weakly served by AP 0; AP 1 idle with a strong channel
    vectors = np.array([[[1e-4 + 0j], [5e-4 + 0j]]])
    ch = channels_from_vectors(vectors)
    cfg = small_config(2, 1, noise_var=1e-8, bandwidth=20e6,
                      satisfaction_threshold=1.0)
    state = build_preferences(ch.gains, cfg)
    m = Matching.empty(1, 2)
    associate(0, 0, state, m)
    return EvalContext(ch, cfg), cfg, state, m


def test_favorable_pair_accepts_clean_improvement():
    ctx, cfg, state, m = _favorable_fixture()
    demands = np.array([1e9])  # far beyond one AP's rate
    assert is_favorable_pair(1, 0, state, m, ctx, demands)
    # a known current evaluation gives the same verdict
    assert is_favorable_pair(1, 0, state, m, ctx, demands, ctx.evaluate_assoc(m.assoc, demands))


def test_favorable_pair_rejects_outside_window():
    # AP 1 has quota 1 and ranks UE 1 first, so (AP 1, UE 0) fails the
    # window condition regardless of any satisfaction gain
    gains = np.array([[1.0, 0.5],
                      [0.9, 0.8]])
    vectors = np.sqrt(gains)[:, :, None].astype(complex)
    ch = channels_from_vectors(vectors)
    cfg = small_config(2, 2, ap_quota=1, ue_quota=2, noise_var=1e-3)
    state = build_preferences(ch.gains, cfg)
    m = Matching.empty(2, 2)
    associate(0, 0, state, m)
    demands = np.array([1e12, 1e12])
    assert state.ap_prefs[1] == [1, 0]
    assert not is_favorable_pair(1, 0, state, m, EvalContext(ch, cfg), demands)


def test_favorable_pair_requires_strict_gain():
    ctx, cfg, state, m = _favorable_fixture()
    demands = np.array([1.0])  # already fully satisfied: kappa == 1
    ev = ctx.evaluate_assoc(m.assoc, demands)
    assert ev.kappa[0] == 1.0
    assert not is_favorable_pair(1, 0, state, m, ctx, demands, ev)


def _interference_tradeoff_instance():
    """Search deterministically for an instance where adding (AP 2, UE 0)
    raises kappa_0 but sinks kappa_1 by more, so the sum guard bites."""
    rng = np.random.default_rng(77)
    for _ in range(400):
        scale = 1e-4
        vectors = np.zeros((2, 3, 1), dtype=complex)
        vectors[0, 0, 0] = scale * rng.uniform(0.5, 1.5)      # UE0 - AP0 weak
        vectors[1, 1, 0] = scale * rng.uniform(2.0, 4.0)      # UE1 - AP1
        vectors[0, 2, 0] = scale * rng.uniform(2.0, 6.0)      # UE0 - AP2 strong
        vectors[1, 2, 0] = scale * rng.uniform(4.0, 12.0)     # AP2 blasts UE1
        vectors[1, 0, 0] = scale * 1e-3
        vectors[0, 1, 0] = scale * 1e-3
        ch = channels_from_vectors(vectors)
        cfg = small_config(3, 2, noise_var=1e-9, satisfaction_threshold=1.0)
        demands = np.array([1e10, 1e9])
        assoc = np.zeros((2, 3), dtype=bool)
        assoc[0, 0] = True
        assoc[1, 1] = True
        grown = assoc.copy()
        grown[0, 2] = True
        ctx = EvalContext(ch, cfg)
        before = ctx.evaluate_assoc(assoc, demands)
        after = ctx.evaluate_assoc(grown, demands)
        if (after.kappa[0] > before.kappa[0]
                and after.kappa.sum() < before.kappa.sum()
                and before.kappa[1] < 1.0):
            return ctx, cfg, demands, assoc
    raise AssertionError("search found no trade-off instance")


def test_favorable_pair_sum_guard_rejects():
    ctx, cfg, demands, assoc = _interference_tradeoff_instance()
    state = build_preferences(ctx.channels.gains, cfg)
    m = Matching.empty(2, 3)
    associate(0, 0, state, m)
    associate(1, 1, state, m)
    np.testing.assert_array_equal(m.assoc, assoc)
    # UE 0's own satisfaction would strictly rise, yet the pair is
    # rejected because the network sum would drop
    assert not is_favorable_pair(2, 0, state, m, ctx, demands)


def test_evolution_all_satisfied_adds_nothing():
    vectors = np.array([[[1e-3 + 0j], [1e-3 + 0j]]])
    ch = channels_from_vectors(vectors)
    cfg = small_config(2, 1, noise_var=1e-9, satisfaction_threshold=1.0)
    state = build_preferences(ch.gains, cfg)
    m = Matching.empty(1, 2)
    associate(0, 0, state, m)
    ctx = EvalContext(ch, cfg)
    demands = np.array([1.0])
    counters = GameCounters()
    cluster_evolution(state, m, ctx, demands, cfg, counters)
    assert ctx.evaluate_assoc(m.assoc, demands).kappa[0] >= cfg.satisfaction_threshold
    assert m.association_count() == 1
    assert counters.favorable_tests == 0


def test_evolution_adds_favorable_ap_then_settles(monkeypatch):
    ctx, cfg, state, m = _favorable_fixture()
    demands = np.array([1e9])
    counters = GameCounters()
    commits = record_commits(monkeypatch)
    cluster_evolution(state, m, ctx, demands, cfg, counters)
    assert commits == [("evolve", 0, 1)]
    assert m.assoc[0, 1]
    assert counters.favorable_tests >= 1
    assert counters.tests_per_round


def test_evolution_no_favorable_pair_leaves_unsatisfied():
    ctx, cfg, demands, assoc = _interference_tradeoff_instance()
    state = build_preferences(ctx.channels.gains, cfg)
    m = Matching.empty(2, 3)
    associate(0, 0, state, m)
    associate(1, 1, state, m)
    # make UE 1's side also unable to improve: demands already arranged
    # so that any addition for UE 0 hurts the sum; UE 1 gets the same
    # treatment by dropping its remaining candidates
    counters = GameCounters()
    before = ctx.evaluate_assoc(m.assoc, demands)
    cluster_evolution(state, m, ctx, demands, cfg, counters)
    after = ctx.evaluate_assoc(m.assoc, demands)
    # nobody may end up worse than where evolution started
    assert (after.kappa >= before.kappa - 1e-15).all()


def test_evolution_satisfaction_classified_before_scanning():
    # a UE already at the threshold is settled without any favorable test
    vectors = np.array([[[2e-3 + 0j], [1e-3 + 0j]]])
    ch = channels_from_vectors(vectors)
    cfg = small_config(2, 1, noise_var=1e-9, satisfaction_threshold=0.8)
    state = build_preferences(ch.gains, cfg)
    m = Matching.empty(1, 2)
    associate(0, 0, state, m)
    ctx = EvalContext(ch, cfg)
    counters = GameCounters()
    cluster_evolution(state, m, ctx, np.array([1.0]), cfg, counters)
    assert ctx.evaluate_assoc(m.assoc, np.array([1.0])).kappa[0] >= 0.8
    assert counters.favorable_tests == 0


def test_ea_m2m_respects_quotas_at_scale():
    from cfmatch import ScenarioConfig
    cfg = ScenarioConfig(seed=2)
    rng = np.random.default_rng(2)
    ch = random_channels(rng, 20, 50, 4)
    demands = random_demands(rng, cfg)
    m, counters = ea_m2m(EvalContext(ch, cfg), demands, cfg)
    check_matching_valid(m, cfg)
    assert (m.assoc.sum(axis=0) <= 12).all()
    assert (m.assoc.sum(axis=1) <= 8).all()
    assert m.association_count() <= min(50 * 12, 20 * 8)


def test_ea_m2m_randomized_structure():
    rng = np.random.default_rng(31)
    for _ in range(60):
        num_ues = int(rng.integers(1, 8))
        num_aps = int(rng.integers(1, 8))
        cfg = small_config(num_aps, num_ues,
                          ap_quota=int(rng.integers(1, num_ues + 1)),
                          ue_quota=int(rng.integers(1, num_aps + 1)),
                          noise_var=10.0 ** rng.uniform(-8, -3),
                          satisfaction_threshold=float(rng.choice([0.8, 0.9, 1.0])))
        ch = random_channels(rng, num_ues, num_aps, int(rng.integers(1, 3)))
        demands = rng.choice([5e6, 3e7, 1e8], size=num_ues)
        m, counters = ea_m2m(EvalContext(ch, cfg), demands, cfg)
        check_matching_valid(m, cfg)
        assert m.association_count() <= min(num_aps * cfg.ap_quota,
                                            num_ues * cfg.ue_quota)
        # per-round favorable tests bounded by quota * K
        assert all(t <= cfg.ue_quota * num_ues for t in counters.tests_per_round)


def test_ea_m2m_trace_replay_validates_commits(monkeypatch):
    commits = record_commits(monkeypatch)
    rng = np.random.default_rng(57)
    total_commits = 0
    for _ in range(25):
        num_ues = int(rng.integers(2, 7))
        num_aps = int(rng.integers(2, 7))
        cfg = small_config(num_aps, num_ues,
                          ap_quota=int(rng.integers(1, num_ues + 1)),
                          ue_quota=int(rng.integers(1, num_aps + 1)),
                          noise_var=1e-6)
        ch = random_channels(rng, num_ues, num_aps, 1)
        demands = rng.choice([5e6, 3e7, 1e8], size=num_ues)
        ctx = EvalContext(ch, cfg)
        commits.clear()
        m, counters = ea_m2m(ctx, demands, cfg)
        total_commits += replay_ea_trace(ctx, demands, cfg, commits, m.assoc)
    assert total_commits > 0  # the loop actually exercised evolution


def test_ea_m2m_accepts_prebuilt_context():
    # a context every strategy has already run on gives ea the matching
    # of a fresh one: strategies leave a shared context as they found it
    cfg = small_config(3, 2)
    ch = random_channels(np.random.default_rng(8), 2, 3, 2)
    demands = np.array([5e6, 5e6])
    shared = EvalContext(ch, cfg)
    for name in STRATEGIES:
        get_strategy(name)(shared, demands, cfg)
    a, _ = ea_m2m(EvalContext(ch, cfg), demands, cfg)
    b, _ = ea_m2m(shared, demands, cfg)
    np.testing.assert_array_equal(a.assoc, b.assoc)


def _evolution_start(cfg, ctx):
    """(state, matching, counters) after the initial phase; counters
    holds the initial phase's association count."""
    state = build_preferences(ctx.channels.gains, cfg)
    matching = ea_initial_association(state)
    return state, matching, GameCounters(association_ops=matching.association_count())


def _evolve_both(cfg, ctx, demands, commits):
    """cluster_evolution and reference_cluster_evolution, each after its
    own initial phase, as (assoc, evolve commits, counters).  commits is
    the list record_commits fills; the package's association_ops is set
    from its final matching as ea_m2m does, the reference counts its own."""
    state, matching, counters = _evolution_start(cfg, ctx)
    ref_state, ref_counters = reference_preferences(ctx.channels.gains, cfg), GameCounters()
    ref_matching, _ = reference_ea_initial_association(ref_state, ref_counters)
    commits.clear()
    cluster_evolution(state, matching, ctx, demands, cfg, counters)
    counters.association_ops = matching.association_count()
    trace = []
    reference_cluster_evolution(ref_state, ref_matching, ctx, demands, cfg, ref_counters, trace)
    return (matching.assoc, list(commits), counters), (ref_matching.assoc, trace, ref_counters)


@pytest.mark.parametrize("num_ues, num_aps, num_seeds", [
    (5, 8, 100),
    (10, 25, 30),
    (30, 60, 5),
    (70, 140, 2),
])
def test_cluster_evolution_matches_reference_loop(monkeypatch, num_ues, num_aps, num_seeds):
    # batched scores may only decide a test the way the exact evaluator
    # would, so every commit and count must be the same
    recorded = record_commits(monkeypatch)
    rng = np.random.default_rng(num_ues)
    commits = 0
    for seed in range(700, 700 + num_seeds):
        cfg, ctx, demands = seeded_scene(
            num_ues, num_aps, seed,
            satisfaction_threshold=(0.8, 0.9, 1.0)[seed % 3],
            ap_quota=int(rng.integers(1, num_ues + 1)),
            ue_quota=int(rng.integers(1, num_aps + 1)))
        (assoc, trace, counters), expected = _evolve_both(cfg, ctx, demands, recorded)
        np.testing.assert_array_equal(assoc, expected[0], err_msg=f"seed {seed}")
        assert (trace, counters) == expected[1:], f"seed {seed}"
        commits += len(trace)
    assert commits > 0


def test_cluster_evolution_exact_rechecks_match_reference_loop(monkeypatch):
    # a margin wider than any kappa gap sends every test and settlement
    # to the exact re-check, which must reproduce the plain loop
    calls = []
    original = EvalContext.evaluate_assoc

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(matching_module, "SCREEN_MARGIN", 1.0)
    recorded = record_commits(monkeypatch)
    for seed in range(720, 735):
        cfg, ctx, demands = seeded_scene(10, 25, seed,
                                         satisfaction_threshold=(0.8, 0.9, 1.0)[seed % 3])
        monkeypatch.setattr(EvalContext, "evaluate_assoc", counted)
        (assoc, trace, counters), expected = _evolve_both(cfg, ctx, demands, recorded)
        monkeypatch.setattr(EvalContext, "evaluate_assoc", original)
        np.testing.assert_array_equal(assoc, expected[0], err_msg=f"seed {seed}")
        assert (trace, counters) == expected[1:], f"seed {seed}"
    assert len(calls) > 0


@pytest.mark.parametrize("scene", [(5, 8), (10, 25), (30, 60), (70, 140), "dup-aps", "dup-pairs"],
                         ids=lambda scene: scene if isinstance(scene, str) else "%d-%d" % scene)
def test_growing_scores_match_exact_evaluation(scene):
    # grow the initial matching by random window adds until every list
    # is empty, checking the batched kappa of every candidate add and the
    # incrementally kept current kappa after every commit
    tie = isinstance(scene, str)
    scenes = ([tie_scene(scene)] if tie else
              [seeded_scene(*scene, seed) for seed in range(750, 751 if scene[0] >= 70 else 753)])
    rng = np.random.default_rng(scenes[0][0].num_aps)
    worst = 0.0
    adds = 0
    saturated = 0
    mixed = 0  # windows padding a load-0 AP (c = 1) to wider loads
    for cfg, ctx, demands in scenes:
        state, matching, _ = _evolution_start(cfg, ctx)
        scores = _GrowingScores(ctx, matching, demands)
        while True:
            exact = ctx.evaluate_assoc(matching.assoc, demands).kappa
            worst = max(worst, float(np.abs(scores.kappa - exact).max()))
            # the saturated flag promises exact kappa 1
            assert np.all(exact[scores.saturated] == 1.0)
            saturated += int(np.count_nonzero(scores.saturated))
            open_ues = [k for k in range(cfg.num_ues) if state.ue_prefs[k]]
            if not open_ues:
                break
            k = open_ues[rng.integers(len(open_ues))]
            window = state.ue_prefs[k][:state.ue_quota[k]]
            loads = set(matching.assoc[:, window].sum(axis=0).tolist())
            mixed += int(0 in loads and len(loads) > 2)
            for m, kappa in zip(window, scores.add_kappa(k, window)):
                trial = matching.assoc.copy()
                trial[k, m] = True
                exact = ctx.evaluate_assoc(trial, demands).kappa
                worst = max(worst, float(np.abs(kappa - exact).max()))
                adds += 1
            m = window[rng.integers(len(window))]
            associate(k, m, state, matching)
            scores.commit(m)
    assert adds > 0 and saturated > 0
    # the tie scenes' loads stay too small to mix three of them
    assert tie or mixed > 0
    # about 1000x headroom below the screen's margin
    assert worst <= 1e-12


def test_add_kappa_memory_follows_the_changed_columns():
    # one (K, K) amplitude copy per window AP would take len(window)
    # K^2 16 bytes; an add moves only its load's c columns, and scoring
    # from those needs a small fraction of that
    cfg, ctx, demands = seeded_scene(70, 140, 0)
    state, matching, _ = _evolution_start(cfg, ctx)
    scores = _GrowingScores(ctx, matching, demands)
    k = next(k for k in range(cfg.num_ues) if len(state.ue_prefs[k]) >= 8)
    window = state.ue_prefs[k][:8]
    assert matching.assoc[:, window].any()
    tracemalloc.start()
    try:
        scores.add_kappa(k, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(window) * cfg.num_ues ** 2 * 16 / 4


def test_ea_evaluates_exactly_only_near_ties(monkeypatch):
    cfg, ctx, demands = seeded_scene(30, 60, seed=31, satisfaction_threshold=1.0)
    expected = _evolve_both(cfg, ctx, demands, [])[1]
    calls = []
    original_eval = EvalContext.evaluate_assoc

    def counted(self, *args):
        calls.append(args)
        return original_eval(self, *args)

    monkeypatch.setattr(EvalContext, "evaluate_assoc", counted)
    out, counters = ea_m2m(ctx, demands, cfg)
    np.testing.assert_array_equal(out.assoc, expected[0])
    assert counters == expected[2]
    # evaluating every test and every matching would take one call per
    # round, per window test and per commit
    assert counters.favorable_tests == 39
    # UE 18 reaches kappa 1 through others' commits after its round's
    # settle check; its three window tests fail outright, since a UE at
    # exact kappa 1 cannot strictly improve, so nothing is left to
    # re-check exactly: an undecided test would call evaluate_assoc
    assert len(calls) == 0


def test_association_ops_is_the_association_count():
    # the game never removes an association, so ea_m2m reads its count
    # off the final matrix; the reference phases count one per associate,
    # and every other counter must agree with theirs too
    scenes = [seeded_scene(num_ues, num_aps, seed,
                           satisfaction_threshold=(0.8, 0.9, 1.0)[seed % 3],
                           ap_quota=(2, 4, num_ues)[seed % 3], ue_quota=(1, 3, 8)[seed % 3])
              for num_ues, num_aps in ((5, 8), (10, 25)) for seed in range(760, 766)]
    scenes += [tie_scene("dup-aps"), tie_scene("dup-pairs")]
    for cfg, ctx, demands in scenes:
        matching, counters = ea_m2m(ctx, demands, cfg)
        reference = GameCounters()
        state = reference_preferences(ctx.channels.gains, cfg)
        ref, _ = reference_ea_initial_association(state, reference)
        reference_cluster_evolution(state, ref, ctx, demands, cfg, reference)
        np.testing.assert_array_equal(ref.assoc, matching.assoc)
        assert counters.association_ops == matching.association_count()
        assert counters == reference
