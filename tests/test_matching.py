import copy

import numpy as np
import pytest

from cfmatch import (Matching, build_preferences, associate,
                     ea_initial_association, is_favorable_pair,
                     cluster_evolution, ea_m2m, evaluate_network,
                     as_eval_context, GameCounters, UEPartition, EvalContext)
from cfmatch import matching as matching_module
from cfmatch.matching import _GrowingScores

from bruteforce import reference_cluster_evolution
from helpers import (small_config, random_channels, channels_from_vectors,
                     random_demands, check_partition, check_matching_valid,
                     replay_ea_trace, seeded_scene)


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
    assert state.pointer == [0, 0]


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


def test_associate_counts_operations():
    gains = np.array([[2.0, 1.0], [1.5, 0.5]])
    cfg = small_config(2, 2, ap_quota=2, ue_quota=2)
    state = build_preferences(gains, cfg)
    m = Matching.empty(2, 2)
    counters = GameCounters()
    associate(0, 0, state, m, counters)
    associate(1, 1, state, m, counters)
    assert counters.association_ops == 2


def test_initial_association_single_pair():
    gains = np.array([[1.0]])
    cfg = small_config(1, 1)
    state = build_preferences(gains, cfg)
    m, part, state = ea_initial_association(state, cfg)
    assert m.assoc[0, 0]
    assert part.associated == {0}
    assert part.rejected == set()


def test_initial_association_clamped_pointer_round_two():
    # both UEs prefer AP 0; AP 0 (quota 1) prefers UE 1, AP 1 prefers
    # UE 0.  Round 1: UE 0 rejected at AP 0, UE 1 accepted there, AP 0
    # saturates and drops off UE 0's list.  Round 2: UE 0's pointer (1)
    # is past its one-AP list, so it re-aims at AP 1 and is accepted.
    gains = np.array([[0.9, 0.8],
                      [1.0, 0.7]])
    cfg = small_config(2, 2, ap_quota=1, ue_quota=1)
    state = build_preferences(gains, cfg)
    trace = []
    m, part, state = ea_initial_association(state, cfg, trace=trace)
    assert trace == [("init", 1, 0), ("init", 0, 1)]
    expected = np.array([[False, True], [True, False]])
    np.testing.assert_array_equal(m.assoc, expected)
    assert part.associated == {0, 1}


def test_initial_association_forced_branch():
    # UE 1's only remaining AP ranks it outside the quota window while
    # the window holder (UE 0, already associated, quota left) never
    # requests again: the rounds stall and UE 1 takes the AP by forced
    # association.
    gains = np.array([[10.0, 5.0],
                      [9.0, 1.0]])
    cfg = small_config(2, 2, ap_quota=1, ue_quota=2)
    state = build_preferences(gains, cfg)
    trace = []
    m, part, state = ea_initial_association(state, cfg, trace=trace)
    expected = np.array([[True, False], [False, True]])
    np.testing.assert_array_equal(m.assoc, expected)
    assert part.associated == {0, 1}
    assert trace == [("init", 0, 0), ("init", 1, 1)]


def test_initial_association_no_aps():
    cfg = small_config(1, 2)  # quota fields only; dims come from gains
    state = build_preferences(np.zeros((2, 0)), cfg)
    m, part, state = ea_initial_association(state, cfg)
    assert m.association_count() == 0
    assert part.unassociated == {0, 1}
    assert part.associated == set()


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
        m, part, state = ea_initial_association(state, cfg)
        assert all(len(c) <= 1 for c in m.ue_clusters)
        assert part.rejected == set()
        assert part.satisfied == set() and part.unsatisfied == set()
        check_partition(part, num_ues)
        check_matching_valid(m, cfg)
        # remaining quotas track cluster sizes exactly
        for k in range(num_ues):
            assert state.ue_quota[k] == cfg.ue_quota - len(m.ue_clusters[k])
        for a in range(num_aps):
            assert state.ap_quota[a] == cfg.ap_quota - len(m.ap_loads[a])


def _favorable_fixture():
    # UE 0 weakly served by AP 0; AP 1 idle with a strong channel
    vectors = np.array([[[1e-4 + 0j], [5e-4 + 0j]]])
    ch = channels_from_vectors(vectors)
    cfg = small_config(2, 1, noise_var=1e-8, bandwidth=20e6,
                      satisfaction_threshold=1.0)
    state = build_preferences(ch.gains, cfg)
    m = Matching.empty(1, 2)
    associate(0, 0, state, m)
    return ch, cfg, state, m


def test_favorable_pair_accepts_clean_improvement():
    ch, cfg, state, m = _favorable_fixture()
    demands = np.array([1e9])  # far beyond one AP's rate
    counters = GameCounters()
    assert is_favorable_pair(1, 0, state, m, ch, demands, cfg, counters)
    assert counters.favorable_tests == 1


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
    counters = GameCounters()
    demands = np.array([1e12, 1e12])
    assert state.ap_prefs[1] == [1, 0]
    assert not is_favorable_pair(1, 0, state, m, ch, demands, cfg, counters)
    assert counters.favorable_tests == 1


def test_favorable_pair_requires_strict_gain():
    ch, cfg, state, m = _favorable_fixture()
    demands = np.array([1.0])  # already fully satisfied: kappa == 1
    counters = GameCounters()
    ev = evaluate_network(m, ch, demands, cfg)
    assert ev.kappa[0] == 1.0
    assert not is_favorable_pair(1, 0, state, m, ch, demands, cfg, counters)


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
        before = as_eval_context(ch, cfg).evaluate_assoc(assoc, demands)
        after = as_eval_context(ch, cfg).evaluate_assoc(grown, demands)
        if (after.kappa[0] > before.kappa[0]
                and after.kappa.sum() < before.kappa.sum()
                and before.kappa[1] < 1.0):
            return ch, cfg, demands, assoc
    raise AssertionError("search found no trade-off instance")


def test_favorable_pair_sum_guard_rejects():
    ch, cfg, demands, assoc = _interference_tradeoff_instance()
    state = build_preferences(ch.gains, cfg)
    m = Matching.empty(2, 3)
    associate(0, 0, state, m)
    associate(1, 1, state, m)
    np.testing.assert_array_equal(m.assoc, assoc)
    counters = GameCounters()
    # UE 0's own satisfaction would strictly rise, yet the pair is
    # rejected because the network sum would drop
    assert not is_favorable_pair(2, 0, state, m, ch, demands, cfg, counters)


def test_evolution_all_satisfied_adds_nothing():
    vectors = np.array([[[1e-3 + 0j], [1e-3 + 0j]]])
    ch = channels_from_vectors(vectors)
    cfg = small_config(2, 1, noise_var=1e-9, satisfaction_threshold=1.0)
    state = build_preferences(ch.gains, cfg)
    m = Matching.empty(1, 2)
    associate(0, 0, state, m)
    part = UEPartition(associated={0})
    demands = np.array([1.0])
    counters = GameCounters()
    m, part = cluster_evolution(state, m, part, ch, demands, cfg, counters)
    assert part.satisfied == {0}
    assert m.association_count() == 1
    assert counters.favorable_tests == 0


def test_evolution_adds_favorable_ap_then_settles():
    ch, cfg, state, m = _favorable_fixture()
    part = UEPartition(associated={0})
    demands = np.array([1e9])
    counters = GameCounters()
    trace = []
    m, part = cluster_evolution(state, m, part, ch, demands, cfg, counters,
                                trace=trace)
    assert ("evolve", 0, 1) in trace
    assert m.assoc[0, 1]
    check_partition(part, 1)
    assert part.associated == set()
    assert counters.favorable_tests >= 1
    assert counters.tests_per_round


def test_evolution_no_favorable_pair_leaves_unsatisfied():
    ch, cfg, demands, assoc = _interference_tradeoff_instance()
    state = build_preferences(ch.gains, cfg)
    m = Matching.empty(2, 3)
    associate(0, 0, state, m)
    associate(1, 1, state, m)
    # make UE 1's side also unable to improve: demands already arranged
    # so that any addition for UE 0 hurts the sum; UE 1 gets the same
    # treatment by dropping its remaining candidates
    part = UEPartition(associated={0, 1})
    counters = GameCounters()
    before = evaluate_network(m, ch, demands, cfg)
    m, part = cluster_evolution(state, m, part, ch, demands, cfg, counters)
    after = evaluate_network(m, ch, demands, cfg)
    check_partition(part, 2)
    assert part.associated == set()
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
    part = UEPartition(associated={0})
    counters = GameCounters()
    m, part = cluster_evolution(state, m, part, ch, np.array([1.0]), cfg, counters)
    assert part.satisfied == {0}
    assert counters.favorable_tests == 0


def test_ea_m2m_respects_quotas_at_scale():
    from cfmatch import ScenarioConfig
    cfg = ScenarioConfig(seed=2)
    rng = np.random.default_rng(2)
    ch = random_channels(rng, 20, 50, 4)
    demands = random_demands(rng, cfg)
    m, part, counters = ea_m2m(ch, demands, cfg)
    check_matching_valid(m, cfg)
    check_partition(part, 20)
    assert all(len(l) <= 12 for l in m.ap_loads)
    assert all(len(c) <= 8 for c in m.ue_clusters)
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
        m, part, counters = ea_m2m(ch, demands, cfg)
        check_matching_valid(m, cfg)
        check_partition(part, num_ues)
        assert part.rejected == set() and part.associated == set()
        assert m.association_count() <= min(num_aps * cfg.ap_quota,
                                            num_ues * cfg.ue_quota)
        # per-round favorable tests bounded by quota * K
        assert all(t <= cfg.ue_quota * num_ues for t in counters.tests_per_round)
        # a UE settles as satisfied at its classification moment; later
        # commits by others may dip it again, so only structural facts
        # are checked on the final matching
        for k in part.unassociated:
            assert len(m.ue_clusters[k]) == 0
        for k in part.satisfied | part.unsatisfied:
            assert len(m.ue_clusters[k]) >= 1


def test_ea_m2m_trace_replay_validates_commits():
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
        trace = []
        m, part, counters = ea_m2m(ch, demands, cfg, trace=trace)
        total_commits += replay_ea_trace(ch, demands, cfg, trace, m.assoc)
    assert total_commits > 0  # the loop actually exercised evolution


def test_ea_m2m_accepts_prebuilt_context():
    cfg = small_config(3, 2)
    ch = random_channels(np.random.default_rng(8), 2, 3, 2)
    demands = np.array([5e6, 5e6])
    ctx = as_eval_context(ch, cfg)
    a, _, _ = ea_m2m(ch, demands, cfg)
    b, _, _ = ea_m2m(ctx, demands, cfg)
    np.testing.assert_array_equal(a.assoc, b.assoc)


def _evolution_start(cfg, ctx):
    """(state, matching, partition, counters) after the initial phase."""
    state = build_preferences(ctx.channels.gains, cfg)
    counters = GameCounters()
    matching, partition, state = ea_initial_association(state, cfg, counters)
    return state, matching, partition, counters


def _evolve_both(cfg, ctx, demands):
    """cluster_evolution and reference_cluster_evolution from one start,
    each as (assoc, trace, counters, partition sets)."""
    start = _evolution_start(cfg, ctx)
    runs = []
    for evolve in (cluster_evolution, reference_cluster_evolution):
        state, matching, partition, counters = copy.deepcopy(start)
        trace = []
        evolve(state, matching, partition, ctx, demands, cfg, counters, trace=trace)
        runs.append((matching.assoc, trace, counters, partition.sets()))
    return runs


@pytest.mark.parametrize("num_ues, num_aps, num_seeds", [
    (5, 8, 100),
    (10, 25, 30),
    (30, 60, 5),
    (70, 140, 2),
])
def test_cluster_evolution_matches_reference_loop(num_ues, num_aps, num_seeds):
    # batched scores may only decide a test the way the exact evaluator
    # would, so every commit, count and settlement must be the same
    rng = np.random.default_rng(num_ues)
    commits = 0
    for seed in range(700, 700 + num_seeds):
        cfg, ctx, demands = seeded_scene(
            num_ues, num_aps, seed,
            satisfaction_threshold=(0.8, 0.9, 1.0)[seed % 3],
            ap_quota=int(rng.integers(1, num_ues + 1)),
            ue_quota=int(rng.integers(1, num_aps + 1)))
        (assoc, trace, counters, sets), expected = _evolve_both(cfg, ctx, demands)
        np.testing.assert_array_equal(assoc, expected[0], err_msg=f"seed {seed}")
        assert (trace, counters, sets) == expected[1:], f"seed {seed}"
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
    for seed in range(720, 735):
        cfg, ctx, demands = seeded_scene(10, 25, seed,
                                         satisfaction_threshold=(0.8, 0.9, 1.0)[seed % 3])
        monkeypatch.setattr(EvalContext, "evaluate_assoc", counted)
        (assoc, trace, counters, sets), expected = _evolve_both(cfg, ctx, demands)
        monkeypatch.setattr(EvalContext, "evaluate_assoc", original)
        np.testing.assert_array_equal(assoc, expected[0], err_msg=f"seed {seed}")
        assert (trace, counters, sets) == expected[1:], f"seed {seed}"
    assert len(calls) > 0


@pytest.mark.parametrize("num_ues, num_aps", [(5, 8), (10, 25), (30, 60)])
def test_growing_scores_match_exact_evaluation(num_ues, num_aps):
    # grow the initial matching by random window adds until every list
    # is empty, checking the batched kappa of every candidate add and the
    # incrementally kept current kappa after every commit
    rng = np.random.default_rng(num_aps)
    worst = 0.0
    adds = 0
    saturated = 0
    for seed in range(750, 753):
        cfg, ctx, demands = seeded_scene(num_ues, num_aps, seed)
        state, matching, _, _ = _evolution_start(cfg, ctx)
        scores = _GrowingScores(ctx, matching, demands)
        while True:
            exact = ctx.evaluate_assoc(matching.assoc, demands).kappa
            worst = max(worst, float(np.abs(scores.kappa - exact).max()))
            # the saturated flag promises exact kappa 1
            assert np.all(exact[scores.saturated] == 1.0)
            saturated += int(np.count_nonzero(scores.saturated))
            open_ues = [k for k in range(num_ues) if state.ue_prefs[k]]
            if not open_ues:
                break
            k = open_ues[rng.integers(len(open_ues))]
            window = state.ue_prefs[k][:state.ue_quota[k]]
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
    # about 1000x headroom below the screen's margin
    assert worst <= 1e-12


def test_ea_evaluates_exactly_only_near_ties(monkeypatch):
    cfg, ctx, demands = seeded_scene(30, 60, seed=31, satisfaction_threshold=1.0)
    expected = _evolve_both(cfg, ctx, demands)[1]
    calls = []
    ties = []
    original_eval = EvalContext.evaluate_assoc
    original_clear = matching_module._clear_of_ties

    def counted(self, *args):
        calls.append(args)
        return original_eval(self, *args)

    def clear(trial, current, k, served):
        verdict = original_clear(trial, current, k, served)
        if not verdict:
            ties.append(k)
        return verdict

    monkeypatch.setattr(EvalContext, "evaluate_assoc", counted)
    monkeypatch.setattr(matching_module, "_clear_of_ties", clear)
    out, _, counters = ea_m2m(ctx, demands, cfg)
    np.testing.assert_array_equal(out.assoc, expected[0])
    assert counters == expected[2]
    # evaluating every test and every matching would take one call per
    # round, per window test and per commit
    assert counters.favorable_tests == 39
    # UE 18 reaches kappa 1 through others' commits after its round's
    # settle check; its three window tests fail outright, since a UE at
    # exact kappa 1 cannot strictly improve, so nothing is left to
    # re-check exactly
    assert ties == []
    assert len(calls) == 0
