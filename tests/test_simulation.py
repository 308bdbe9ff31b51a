import weakref
from dataclasses import replace

import numpy as np
import pytest

from cfmatch import simulation
from cfmatch import (ScenarioConfig, draw_demands, run_episode, run_sweep, summarize,
                     substream, generate_layout, step_mobility,
                     realize_channels, EvalContext, get_strategy,
                     MetricsRecord, GameCounters)

from helpers import records_by_strategy


def _tiny_config(**overrides):
    params = dict(num_aps=5, num_ues=4, antennas_per_ap=2, ap_quota=3,
                  ue_quota=2, num_steps=2, noise_var=1e-7, seed=3)
    params.update(overrides)
    return ScenarioConfig(**params)


def test_draw_demands_singleton():
    cfg = ScenarioConfig(demand_set=(5e6,))
    d = draw_demands(cfg, substream(1, "demands", 1))
    np.testing.assert_array_equal(d, np.full(20, 5e6))


def test_draw_demands_membership():
    cfg = ScenarioConfig()
    d = draw_demands(cfg, substream(2, "demands", 1))
    assert set(np.unique(d)) <= {5e6, 30e6, 100e6}
    assert d.shape == (20,)


def test_draw_demands_uniformity():
    cfg = ScenarioConfig(num_ues=100_000)
    d = draw_demands(cfg, substream(5, "demands", 1))
    n = d.size
    sigma = np.sqrt((1 / 3) * (2 / 3) / n)
    for value in cfg.demand_set:
        freq = np.mean(d == value)
        assert abs(freq - 1 / 3) < 3 * sigma


def test_run_episode_record_layout():
    cfg = _tiny_config(num_steps=1)
    records = run_episode(cfg, ["cs"])
    assert len(records) == 1
    rec = records[0]
    assert rec.strategy == "cs"
    assert rec.timestep == 1
    assert rec.association_count == 5 * 4
    assert rec.kappa.shape == (4,)
    assert rec.per_ue_rate.shape == (4,)
    assert rec.satisfied_count == int((rec.kappa >= cfg.satisfaction_threshold).sum())


def test_run_episode_strategy_order_irrelevant():
    cfg = _tiny_config()
    a = records_by_strategy(run_episode(cfg, ["ea", "bc", "md"]))
    b = records_by_strategy(run_episode(cfg, ["md", "ea", "bc"]))
    assert set(a) == set(b)
    for name in a:
        for ra, rb in zip(a[name], b[name]):
            assert ra.timestep == rb.timestep
            np.testing.assert_array_equal(ra.kappa, rb.kappa)
            np.testing.assert_array_equal(ra.per_ue_rate, rb.per_ue_rate)
            assert ra.association_count == rb.association_count
            assert ra.counters == rb.counters


def test_run_episode_deterministic():
    cfg = _tiny_config()
    a = run_episode(cfg, ["ea", "da"])
    b = run_episode(cfg, ["ea", "da"])
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.kappa, rb.kappa)
        assert ra.association_count == rb.association_count


def test_run_episode_da_count_constant():
    cfg = ScenarioConfig(num_steps=3, seed=1)
    records = run_episode(cfg, ["da"])
    assert [r.association_count for r in records] == [160, 160, 160]


def test_run_episode_frees_each_step_before_the_next(monkeypatch):
    # a step's realization and context must be gone before the next
    # step draws its own, so at most one step's columns are alive at a time
    drawn, built = [], []

    def draw(*args):
        assert all(ref() is None for ref in drawn + built)
        out = realize_channels(*args)
        drawn.append(weakref.ref(out))
        return out

    def build(*args):
        out = EvalContext(*args)
        built.append(weakref.ref(out))
        return out

    monkeypatch.setattr(simulation, "realize_channels", draw)
    monkeypatch.setattr(simulation, "EvalContext", build)
    run_episode(_tiny_config(num_steps=3), ["ea", "da"])
    assert len(drawn) == len(built) == 3


def test_run_sweep_equals_run_episode_per_threshold():
    cfg = _tiny_config(num_steps=3, demand_set=(5e6, 100e6))
    thresholds = [0.3, 0.8, 1.0]
    strategies = ["da", "ea", "bc", "md"]
    for k0, records in zip(thresholds, run_sweep(cfg, strategies, thresholds)):
        expected = run_episode(replace(cfg, satisfaction_threshold=k0), strategies)
        assert len(records) == len(expected)
        for rec, exp in zip(records, expected):
            assert (rec.timestep, rec.strategy) == (exp.timestep, exp.strategy)
            np.testing.assert_array_equal(rec.kappa, exp.kappa)
            np.testing.assert_array_equal(rec.per_ue_rate, exp.per_ue_rate)
            assert rec.satisfied_count == exp.satisfied_count
            assert rec.association_count == exp.association_count
            assert rec.counters == exp.counters
            assert rec.quota_violation == exp.quota_violation


def test_run_episode_rejects_unknown_strategy():
    cfg = _tiny_config()
    with pytest.raises(ValueError, match="unknown strategy"):
        run_episode(cfg, ["ea", "dq"])


def test_run_episode_quota_violation_flags():
    cfg = ScenarioConfig(num_steps=1, seed=2)
    records = records_by_strategy(run_episode(cfg, ["cs", "ea", "da"]))
    # canonical puts 20 UEs on every AP against a 12-UE quota
    assert records["cs"][0].quota_violation
    assert not records["ea"][0].quota_violation
    assert not records["da"][0].quota_violation


def test_run_episode_demand_refresh_episode():
    # with per-episode demands, the driver must reuse the t=1 draw; the
    # records are reproduced here by stepping the streams by hand
    cfg = _tiny_config(demand_refresh="episode", num_steps=3)
    records = run_episode(cfg, ["bc"])

    seed = cfg.seed
    layout = generate_layout(cfg, substream(seed, "layout"))
    wp_rng = substream(seed, "waypoints")
    demands = draw_demands(cfg, substream(seed, "demands", 1))
    fn = get_strategy("bc")
    for t, rec in zip(range(1, 4), records):
        if t > 1:
            layout = step_mobility(layout, cfg, wp_rng)
        ch = realize_channels(layout, cfg, substream(seed, "shadowing", t),
                              substream(seed, "fading", t))
        ctx = EvalContext(ch, cfg)
        matching, _ = fn(ctx, demands, cfg)
        ev = ctx.evaluate_assoc(matching.assoc, demands)
        np.testing.assert_array_equal(rec.kappa, ev.kappa)


def test_run_episode_demand_refresh_step_differs():
    # sanity: by default the t=2 records use a fresh demand draw
    cfg_step = _tiny_config(num_steps=2, demand_set=(5e6, 100e6))
    cfg_episode = ScenarioConfig(**{**cfg_step.__dict__, "demand_refresh": "episode"})
    a = run_episode(cfg_step, ["bc"])
    b = run_episode(cfg_episode, ["bc"])
    np.testing.assert_array_equal(a[0].kappa, b[0].kappa)  # t=1 identical
    assert not np.array_equal(a[1].kappa, b[1].kappa)


def _record(strategy, t, kappa, satisfied, assoc):
    kappa = np.asarray(kappa, dtype=float)
    return MetricsRecord(timestep=t, strategy=strategy, kappa=kappa,
                         per_ue_rate=np.zeros_like(kappa),
                         satisfied_count=satisfied, association_count=assoc,
                         counters=GameCounters(), quota_violation=False)


def test_summarize_single_record():
    s = summarize([_record("ea", 1, np.linspace(0, 1, 20), 10, 30)])
    agg = s["ea"]
    assert agg.pct_satisfied_mean == 50.0
    assert agg.pct_satisfied_std == 0.0
    assert agg.associations_mean == 30.0


def test_summarize_all_satisfied():
    s = summarize([_record("ea", 1, np.ones(8), 8, 16)])
    agg = s["ea"]
    assert agg.pct_satisfied_mean == 100.0
    assert agg.kappa_mean == 1.0


def test_summarize_two_timesteps():
    recs = [_record("ea", 1, np.full(20, 0.5), 10, 30),
            _record("ea", 2, np.full(20, 1.0), 20, 34)]
    agg = summarize(recs)["ea"]
    assert agg.pct_satisfied_mean == 75.0
    assert agg.pct_satisfied_std == pytest.approx(np.std([50.0, 100.0], ddof=1))
    assert agg.kappa_mean == pytest.approx(0.75)
    assert agg.associations_mean == 32.0
    assert agg.timesteps == 2


def test_summarize_counter_totals():
    r1 = _record("ea", 1, np.ones(4), 4, 6)
    r1.counters.favorable_tests = 5
    r2 = _record("ea", 2, np.ones(4), 4, 6)
    r2.counters.favorable_tests = 7
    r2.counters.swap_count = 2
    agg = summarize([r1, r2])["ea"]
    assert agg.favorable_tests_total == 12
    assert agg.swap_count_total == 2


def test_summarize_empty_is_error():
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_groups_by_strategy():
    recs = [_record("ea", 1, np.ones(4), 4, 6),
            _record("bc", 1, np.zeros(4), 0, 4)]
    s = summarize(recs)
    assert list(s) == ["ea", "bc"]  # first-appearance order
    assert s["bc"].pct_satisfied_mean == 0.0
