"""Acceptance gate: end-to-end checks at the full default scale plus
exhaustive randomized structural suites.  Each test prints one
machine-greppable PASS/FAIL line."""

import numpy as np
import pytest

from cfmatch import (ScenarioConfig, EvalContext, run_episode, summarize,
                     ea_m2m, da_m2m, cmd_run, RunSpec)
from cfmatch.baselines import swap_matching

from bruteforce import reference_evaluate
from helpers import (small_config, random_channels, random_demands,
                     record_commits, records_by_strategy, replay_ea_trace)

SEEDS = (101, 102, 103, 104, 105)
STRATS = ["ea", "bc", "md", "da"]
THRESHOLDS = (0.8, 0.9, 1.0)


def _report(num, label, ok, detail=""):
    import conftest
    tail = f" ({detail})" if detail else ""
    line = f"[acceptance {num:02d}] {label}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"{label}{tail}"


@pytest.fixture(scope="module")
def full_runs():
    """Full-scale episodes: 3 thresholds x 5 seeds x 4 strategies."""
    runs = {}
    for k0 in THRESHOLDS:
        for seed in SEEDS:
            cfg = ScenarioConfig(seed=seed, satisfaction_threshold=k0)
            runs[(k0, seed)] = run_episode(cfg, STRATS)
    return runs


def _mean_over_seeds(full_runs, k0, strategy, field):
    values = []
    for seed in SEEDS:
        summary = summarize(full_runs[(k0, seed)])[strategy]
        values.append(getattr(summary, field))
    return float(np.mean(values))


def test_01_da_association_count_exact(full_runs):
    counts = set()
    for seed in SEEDS:
        for rec in records_by_strategy(full_runs[(1.0, seed)])["da"]:
            counts.add(rec.association_count)
    ok = counts == {160}
    _report(1, "deferred-acceptance association count exact",
            ok, f"counts seen: {sorted(counts)}")


def test_02_association_reduction(full_runs):
    ea_mean = _mean_over_seeds(full_runs, 1.0, "ea", "associations_mean")
    ok = ea_mean <= 0.5 * 160
    _report(2, "association reduction vs quota-saturated baseline",
            ok, f"mean EA associations {ea_mean:.2f} vs 160")


def test_03_satisfaction_dominance(full_runs):
    details = []
    ok = True
    for k0 in THRESHOLDS:
        ea = _mean_over_seeds(full_runs, k0, "ea", "pct_satisfied_mean")
        rivals = {name: _mean_over_seeds(full_runs, k0, name, "pct_satisfied_mean")
                  for name in ("bc", "md", "da")}
        ok = ok and all(ea >= v for v in rivals.values())
        details.append(f"k0={k0:g}: ea {ea:.1f}% vs " +
                       " ".join(f"{n} {v:.1f}%" for n, v in rivals.items()))
    _report(3, "satisfaction dominance over baselines", ok, "; ".join(details))


def test_04_per_ue_satisfaction_level(full_runs):
    kappa_mean = _mean_over_seeds(full_runs, 1.0, "ea", "kappa_mean")
    ok = kappa_mean >= 0.90
    _report(4, "mean satisfaction level under early acceptance",
            ok, f"mean kappa {kappa_mean:.4f}")


def test_05_constraint_suite():
    rng = np.random.default_rng(505)
    checked = 0
    ok = True
    for _ in range(1000):
        num_ues = int(rng.integers(1, 9))
        num_aps = int(rng.integers(1, 9))
        cfg = small_config(num_aps, num_ues,
                          ap_quota=int(rng.integers(1, num_ues + 1)),
                          ue_quota=int(rng.integers(1, num_aps + 1)),
                          noise_var=10.0 ** rng.uniform(-8, -4))
        ctx = EvalContext(random_channels(rng, num_ues, num_aps,
                                          int(rng.integers(1, 3))), cfg)
        demands = rng.choice([5e6, 3e7, 1e8], size=num_ues)
        matchings = {}
        matchings["ea"], _ = ea_m2m(ctx, demands, cfg)
        da, counters = da_m2m(ctx, demands, cfg)
        matchings["da"] = da
        matchings["da-smp"] = swap_matching(da, ctx, demands, cfg, counters)
        for assoc in matchings.values():
            # the evaluator's power split, recovered from its beam weights
            weights = assoc * ctx.beam_weights(np.count_nonzero(assoc, axis=0))
            power = (weights / ctx.inv_denom) ** 2
            binary = (assoc.dtype == bool
                      and assoc.shape == (num_ues, num_aps))
            nonneg = (power >= 0).all()
            sums = power.sum(axis=0)
            loaded = assoc.any(axis=0)
            budget = (np.allclose(sums[loaded], cfg.max_power, rtol=1e-12)
                      and not sums[~loaded].any())
            quotas = ((assoc.sum(axis=0) <= cfg.ap_quota).all()
                      and (assoc.sum(axis=1) <= cfg.ue_quota).all())
            ok = ok and binary and nonneg and budget and quotas
            checked += 1
    _report(5, "constraint suite on randomized instances",
            ok, f"{checked} matchings over 1000 instances")


def test_06_favorable_pair_soundness(monkeypatch):
    trace = record_commits(monkeypatch)
    rng = np.random.default_rng(606)
    commits = 0
    instances = 0
    ok = True
    while instances < 200:
        num_ues = int(rng.integers(2, 8))
        num_aps = int(rng.integers(2, 8))
        cfg = small_config(num_aps, num_ues,
                          ap_quota=int(rng.integers(1, num_ues + 1)),
                          ue_quota=int(rng.integers(1, num_aps + 1)),
                          noise_var=10.0 ** rng.uniform(-8, -5),
                          satisfaction_threshold=float(rng.choice([0.8, 0.9, 1.0])))
        ctx = EvalContext(random_channels(rng, num_ues, num_aps, 1), cfg)
        demands = rng.choice([5e6, 3e7, 1e8], size=num_ues)
        trace.clear()
        assoc, _ = ea_m2m(ctx, demands, cfg)
        try:
            commits += replay_ea_trace(ctx, demands, cfg, trace, assoc)
        except AssertionError:
            ok = False
            break
        instances += 1
    ok = ok and commits > 0
    _report(6, "favorable-pair rule holds at every commit",
            ok, f"{commits} commits over {instances} instances")


def test_07_oracle_equivalence():
    rng = np.random.default_rng(707)
    worst = 0.0
    ok = True
    for _ in range(500):
        num_ues = int(rng.integers(1, 4))
        num_aps = int(rng.integers(1, 4))
        n_ant = int(rng.integers(1, 3))
        cfg = small_config(num_aps, num_ues, antennas_per_ap=n_ant,
                          noise_var=10.0 ** rng.uniform(-8, -2))
        ch = random_channels(rng, num_ues, num_aps, n_ant)
        assoc = rng.random((num_ues, num_aps)) < 0.5
        demands = rng.choice([5e6, 3e7, 1e8], size=num_ues)
        ev = EvalContext(ch, cfg).evaluate_assoc(assoc, demands)
        ref = reference_evaluate(ch.vectors, assoc, cfg.max_power,
                                 cfg.noise_var, cfg.bandwidth, demands)
        for got, want in ((ev.sinr, ref["sinr"]), (ev.rate, ref["rate"]),
                          (ev.kappa, ref["kappa"])):
            want = np.asarray(want)
            scale = np.maximum(np.abs(want), 1e-300)
            rel = float((np.abs(got - want) / scale).max()) if want.size else 0.0
            worst = max(worst, rel)
        ok = ok and worst <= 1e-10
    _report(7, "evaluator matches brute-force reference",
            ok, f"worst relative error {worst:.2e} over 500 instances")


def test_08_counter_bounds(full_runs):
    # per-round favorable tests bounded by ue_quota * K at full scale
    bound = 8 * 20
    ok = True
    worst_round = 0
    for k0 in THRESHOLDS:
        for seed in SEEDS:
            for rec in records_by_strategy(full_runs[(k0, seed)])["ea"]:
                if rec.counters.tests_per_round:
                    worst_round = max(worst_round, max(rec.counters.tests_per_round))
                ok = ok and all(t <= bound for t in rec.counters.tests_per_round)
    # swap refinement stays within its hard cap on random instances
    rng = np.random.default_rng(808)
    max_swaps = 0
    for _ in range(200):
        num_ues = int(rng.integers(2, 8))
        num_aps = int(rng.integers(2, 8))
        cfg = small_config(num_aps, num_ues,
                          ap_quota=int(rng.integers(1, num_ues + 1)),
                          ue_quota=int(rng.integers(1, num_aps + 1)),
                          noise_var=1e-6)
        ctx = EvalContext(random_channels(rng, num_ues, num_aps, 1), cfg)
        demands = rng.choice([5e6, 3e7, 1e8], size=num_ues)
        assoc, counters = da_m2m(ctx, demands, cfg)
        swap_matching(assoc, ctx, demands, cfg, counters)  # raises if cap exceeded
        cap = cfg.ue_quota * num_ues ** 2
        ok = ok and counters.swap_count <= cap
        max_swaps = max(max_swaps, counters.swap_count)
    _report(8, "complexity counters within stated bounds",
            ok, f"worst round {worst_round} <= {bound}; max swaps {max_swaps}")


def test_09_determinism(tmp_path):
    import json
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"num_steps": 2}))
    blobs = []
    for sub in ("x", "y"):
        out = tmp_path / sub
        spec = RunSpec(str(config_path), ["ea", "da"], [42], [1.0], str(out), "csv")
        assert cmd_run(spec) == 0
        blob = {}
        for name in sorted(out.iterdir()):
            blob[name.name] = name.read_bytes()
        blobs.append(blob)
    identical = blobs[0] == blobs[1]

    cfg = ScenarioConfig(num_steps=2, seed=42)
    fwd = records_by_strategy(run_episode(cfg, ["ea", "bc", "md", "da"]))
    rev = records_by_strategy(run_episode(cfg, ["da", "md", "bc", "ea"]))
    permutation_stable = True
    for name in fwd:
        for ra, rb in zip(fwd[name], rev[name]):
            permutation_stable = (permutation_stable
                                  and np.array_equal(ra.kappa, rb.kappa)
                                  and np.array_equal(ra.per_ue_rate, rb.per_ue_rate)
                                  and ra.association_count == rb.association_count
                                  and ra.counters == rb.counters)
    ok = identical and permutation_stable
    _report(9, "byte-identical reruns and strategy-order invariance",
            ok, f"files identical: {identical}, permutation stable: {permutation_stable}")


def test_10_structural_counts():
    cfg = ScenarioConfig(num_steps=1, seed=101)
    records = records_by_strategy(run_episode(cfg, ["cs", "bc", "md"]))
    cs = records["cs"][0].association_count
    bc = records["bc"][0].association_count
    md = records["md"][0].association_count
    ok = cs == 50 * 20 and bc == 20 and md == 20
    _report(10, "structural association counts for simple schemes",
            ok, f"cs {cs}, bc {bc}, md {md}")
