import numpy as np
import pytest

from cfmatch import (Matching, lmmse_beamformer, equal_power_allocation,
                     compute_beamformers, received_power, interference_power,
                     evaluate_network, EvalContext, as_eval_context)

from bruteforce import reference_evaluate
from helpers import small_config, random_channels, channels_from_vectors


def test_beamformer_unit_scalar():
    v = lmmse_beamformer(np.array([1.0 + 0j]), 0.0)
    np.testing.assert_allclose(v, [1.0 + 0j])


def test_beamformer_zero_channel():
    v = lmmse_beamformer(np.zeros(3, dtype=complex), 1.0)
    np.testing.assert_array_equal(v, np.zeros(3, dtype=complex))


def test_beamformer_closed_form():
    h = np.array([1.0, 1.0j])
    np.testing.assert_allclose(lmmse_beamformer(h, 1.0), h / 3.0)


def test_beamformer_no_normalization():
    # the regularized scaling is part of the beamformer: ||v|| < 1 for
    # any positive noise, approaching ||h||^-1 only as noise vanishes
    h = np.array([3.0 + 4.0j])
    v = lmmse_beamformer(h, 2.0)
    np.testing.assert_allclose(v, h / 27.0)


def test_equal_power_split():
    m = Matching.empty(4, 2)
    for k in range(4):
        m.add(k, 0)
    p = equal_power_allocation(m, 0.2)
    np.testing.assert_allclose(p[:, 0], 0.05)
    np.testing.assert_array_equal(p[:, 1], 0.0)
    assert p[:, 0].sum() == pytest.approx(0.2, rel=1e-12)


def test_equal_power_sums_are_budget_or_zero():
    rng = np.random.default_rng(0)
    for _ in range(50):
        num_ues, num_aps = rng.integers(1, 7, size=2)
        assoc = rng.random((num_ues, num_aps)) < 0.4
        m = Matching.from_assoc(assoc)
        p = equal_power_allocation(m, 0.2)
        assert (p >= 0).all()
        sums = p.sum(axis=0)
        loaded = assoc.any(axis=0)
        np.testing.assert_allclose(sums[loaded], 0.2, rtol=1e-12)
        np.testing.assert_array_equal(sums[~loaded], 0.0)


def _one_pair_instance(hval, noise_var, power):
    vectors = np.array([[[hval]]], dtype=complex)
    ch = channels_from_vectors(vectors)
    m = Matching.from_assoc(np.array([[True]]))
    powers = np.array([[power]])
    beams = compute_beamformers(ch, m, noise_var)
    return ch, m, powers, beams


def test_received_power_empty_cluster():
    ch = random_channels(np.random.default_rng(1), 2, 2, 1)
    m = Matching.empty(2, 2)
    m.add(1, 0)
    beams = compute_beamformers(ch, m, 1e-5)
    powers = equal_power_allocation(m, 0.2)
    assert received_power(0, m, ch, powers, beams) == 0.0


def test_received_power_single_ap_closed_form():
    ch, m, powers, beams = _one_pair_instance(2.0 + 0j, 1.0, 0.5)
    # |sqrt(P) h^H h / (|h|^2 + s)|^2 with |h|^2 = 4
    expected = 0.5 * (4.0 / 5.0) ** 2
    assert received_power(0, m, ch, powers, beams) == pytest.approx(expected)


def test_received_power_coherent_combining():
    # two APs with identical channels and powers: amplitudes add, so the
    # received power quadruples relative to one AP
    h = 1.5 - 0.5j
    vectors = np.array([[[h], [h]]], dtype=complex)
    ch = channels_from_vectors(vectors)
    noise = 0.3
    single = Matching.from_assoc(np.array([[True, False]]))
    both = Matching.from_assoc(np.array([[True, True]]))
    powers_single = np.array([[0.2, 0.0]])
    powers_both = np.array([[0.2, 0.2]])
    s1 = received_power(0, single, ch, powers_single,
                        compute_beamformers(ch, single, noise))
    s2 = received_power(0, both, ch, powers_both,
                        compute_beamformers(ch, both, noise))
    assert s2 == pytest.approx(4.0 * s1)


def test_interference_zero_without_other_ues():
    ch, m, powers, beams = _one_pair_instance(1.0 + 1j, 0.5, 0.2)
    assert interference_power(0, m, ch, powers, beams) == 0.0


def test_interference_closed_form_two_ues():
    # both UEs on the single AP; the beam toward UE 1 leaks through
    # UE 0's channel
    h0, h1 = 1.0 + 0j, 0.5 - 0.5j
    vectors = np.array([[[h0]], [[h1]]], dtype=complex)
    ch = channels_from_vectors(vectors)
    noise = 0.1
    m = Matching.from_assoc(np.array([[True], [True]]))
    powers = equal_power_allocation(m, 0.2)
    beams = compute_beamformers(ch, m, noise)
    leak = np.conj(h0) * h1 / (abs(h1) ** 2 + noise)
    expected = abs(np.sqrt(0.1) * leak) ** 2
    assert interference_power(0, m, ch, powers, beams) == pytest.approx(expected)


def test_evaluate_unserved_ue_scores_zero():
    cfg = small_config(2, 2, noise_var=1e-5)
    ch = random_channels(np.random.default_rng(3), 2, 2, 1)
    m = Matching.empty(2, 2)
    m.add(0, 0)
    ev = evaluate_network(m, ch, [1e6, 1e6], cfg)
    assert ev.sinr[1] == 0.0
    assert ev.rate[1] == 0.0
    assert ev.kappa[1] == 0.0


def test_evaluate_kappa_clamped_to_one():
    cfg = small_config(1, 1, noise_var=1e-9, bandwidth=20e6)
    vectors = np.full((1, 1, 1), 1e-3 + 0j)
    ch = channels_from_vectors(vectors)
    m = Matching.from_assoc(np.array([[True]]))
    ev = evaluate_network(m, ch, [1.0], cfg)  # 1 bit/s demand
    assert ev.kappa[0] == 1.0


def test_evaluate_matches_transparent_route():
    # the cached-product fast path and the per-UE loop forms must agree
    rng = np.random.default_rng(42)
    for _ in range(40):
        num_ues = int(rng.integers(1, 5))
        num_aps = int(rng.integers(1, 5))
        n_ant = int(rng.integers(1, 3))
        cfg = small_config(num_aps, num_ues, antennas_per_ap=n_ant,
                          noise_var=10.0 ** rng.uniform(-6, -1))
        ch = random_channels(rng, num_ues, num_aps, n_ant)
        assoc = rng.random((num_ues, num_aps)) < 0.5
        m = Matching.from_assoc(assoc)
        demands = rng.choice([5e6, 30e6, 100e6], size=num_ues)
        ev = evaluate_network(m, ch, demands, cfg)
        powers = equal_power_allocation(m, cfg.max_power)
        np.testing.assert_allclose(ev.power, powers, rtol=1e-12)
        beams = compute_beamformers(ch, m, cfg.noise_var)
        for k in range(num_ues):
            s = received_power(k, m, ch, powers, beams)
            i = interference_power(k, m, ch, powers, beams)
            sinr = s / (i + cfg.noise_var)
            assert ev.sinr[k] == pytest.approx(sinr, rel=1e-10, abs=1e-30)


def test_evaluate_matches_bruteforce_reference():
    rng = np.random.default_rng(7)
    for _ in range(30):
        num_ues = int(rng.integers(1, 4))
        num_aps = int(rng.integers(1, 4))
        n_ant = int(rng.integers(1, 3))
        cfg = small_config(num_aps, num_ues, antennas_per_ap=n_ant)
        ch = random_channels(rng, num_ues, num_aps, n_ant)
        assoc = rng.random((num_ues, num_aps)) < 0.5
        demands = rng.choice([5e6, 30e6, 100e6], size=num_ues)
        ev = evaluate_network(Matching.from_assoc(assoc), ch, demands, cfg)
        ref = reference_evaluate(ch.vectors, assoc, cfg.max_power,
                                 cfg.noise_var, cfg.bandwidth, demands)
        np.testing.assert_allclose(ev.sinr, ref["sinr"], rtol=1e-10, atol=1e-30)
        np.testing.assert_allclose(ev.rate, ref["rate"], rtol=1e-10, atol=1e-30)
        np.testing.assert_allclose(ev.kappa, ref["kappa"], rtol=1e-10)


@pytest.mark.parametrize("num_ues", [1, 15, 16, 17, 33, 40])
def test_context_blocked_build_equals_one_shot_einsum(num_ues):
    # the cache is filled a block of UE rows at a time; each entry is the
    # same antenna sum, so the result must match bit for bit
    rng = np.random.default_rng(num_ues)
    num_aps, n_ant = 9, 3
    ch = random_channels(rng, num_ues, num_aps, n_ant)
    ctx = EvalContext(ch, small_config(num_aps, num_ues, antennas_per_ap=n_ant))
    h = ch.vectors
    np.testing.assert_array_equal(ctx.cross, np.einsum("kmn,jmn->kjm", h.conj(), h))
    np.testing.assert_array_equal(ctx.norm2, np.real(np.einsum("kmn,kmn->km", h.conj(), h)))


def test_new_interferer_never_helps():
    # interference adds one |.|^2 term per interfering UE, so serving a
    # previously idle UE (with k's own cluster and powers held fixed)
    # can only raise k's interference; note the beams of ONE interferer
    # combine coherently, so growing an existing interferer's cluster
    # may cancel and is not monotone
    rng = np.random.default_rng(11)
    for _ in range(30):
        ch = random_channels(rng, 3, 4, 2)
        noise = 1e-4
        base = Matching.empty(3, 4)
        base.add(0, 0)
        base.add(1, 1)
        powers = np.zeros((3, 4))
        powers[0, 0] = 0.2
        powers[1, 1] = 0.2
        beams = compute_beamformers(ch, base, noise)
        i_before = interference_power(0, base, ch, powers, beams)
        grown = base.copy()
        grown.add(2, 2)  # UE 2 was unserved, AP 2 idle: no share changes
        powers2 = powers.copy()
        powers2[2, 2] = 0.2
        beams2 = compute_beamformers(ch, grown, noise)
        i_after = interference_power(0, grown, ch, powers2, beams2)
        assert i_after >= i_before
        s = received_power(0, base, ch, powers, beams)
        assert s == received_power(0, grown, ch, powers2, beams2)


def test_matching_views_stay_consistent():
    rng = np.random.default_rng(5)
    m = Matching.empty(4, 5)
    added = set()
    for _ in range(40):
        k = int(rng.integers(4))
        a = int(rng.integers(5))
        if (k, a) in added:
            m.remove(k, a)
            added.discard((k, a))
        else:
            m.add(k, a)
            added.add((k, a))
        m.check_consistent()
    assert m.association_count() == len(added)


def test_matching_add_remove_contract_errors():
    m = Matching.empty(2, 2)
    m.add(0, 1)
    with pytest.raises(ValueError):
        m.add(0, 1)
    with pytest.raises(ValueError):
        m.remove(1, 1)


def test_matching_check_consistent_catches_corruption():
    m = Matching.empty(2, 2)
    m.add(0, 0)
    m.ue_clusters[0].append(1)  # matrix not updated
    with pytest.raises(ValueError):
        m.check_consistent()


def test_quota_violation_flag():
    m = Matching.from_assoc(np.ones((3, 2), dtype=bool))
    assert m.quota_violation(ap_quota=2, ue_quota=2)
    assert not m.quota_violation(ap_quota=3, ue_quota=2)


def test_as_eval_context_passthrough():
    cfg = small_config(2, 2)
    ch = random_channels(np.random.default_rng(9), 2, 2, 1)
    ctx = EvalContext(ch, cfg)
    assert as_eval_context(ctx, cfg) is ctx
    assert as_eval_context(ch, cfg).channels is ch
