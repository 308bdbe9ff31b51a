import os
from pathlib import Path
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import cfmatch
from cfmatch import ChannelRealization, EvalContext, Matching, STRATEGIES, get_strategy

from bruteforce import reference_evaluate
from helpers import (small_config, random_channels, channels_from_vectors, seeded_scene,
                     beam_weights, all_columns, cross_einsum, assert_amplitudes,
                     assert_dense_close)
from make_golden import tie_scene


def _evaluate(vectors, assoc, noise_var, max_power=0.2, demands=None):
    """evaluate_assoc of assoc on explicit (K, M, N) channel vectors."""
    ch = channels_from_vectors(vectors)
    num_ues, num_aps, n_ant = ch.vectors.shape
    cfg = small_config(num_aps, num_ues, antennas_per_ap=n_ant,
                       noise_var=noise_var, max_power=max_power)
    if demands is None:
        demands = np.full(num_ues, 1e6)
    return EvalContext(ch, cfg).evaluate_assoc(np.asarray(assoc, dtype=bool), demands)


def test_beamformer_unit_scalar():
    # v = h / (|h|^2 + noise) = 1 / (1 + noise): amplitude sqrt(P) / (1 + noise)
    ev = _evaluate([[[1.0 + 0j]]], [[True]], noise_var=0.5)
    assert ev.sinr[0] == pytest.approx(0.2 / 1.5 ** 2 / 0.5, rel=1e-12)


def test_beamformer_zero_channel():
    ch = ChannelRealization(gains=np.zeros((1, 1)), distances=np.ones((1, 1)),
                            vectors=np.zeros((1, 1, 3), dtype=complex))
    ctx = EvalContext(ch, small_config(1, 1, antennas_per_ap=3, noise_var=1.0))
    ev = ctx.evaluate_assoc([[True]], [1e6])
    assert ev.sinr[0] == 0.0
    assert ev.rate[0] == 0.0
    assert ev.kappa[0] == 0.0


def test_beamformer_closed_form():
    # h = (1, j), noise 1: v = h / 3, so h^H v = 2 / 3
    ev = _evaluate([[[1.0, 1.0j]]], [[True]], noise_var=1.0)
    assert ev.sinr[0] == pytest.approx(0.2 * (2.0 / 3.0) ** 2 / 1.0, rel=1e-12)


def test_beamformer_no_normalization():
    # the regularized scaling is part of the beamformer: h^H v is
    # 25 / 27 with |h|^2 = 25 and noise 2, where a unit-norm matched
    # filter would give |h| = 5
    ev = _evaluate([[[3.0 + 4.0j]]], [[True]], noise_var=2.0)
    assert ev.sinr[0] == pytest.approx(0.2 * (25.0 / 27.0) ** 2 / 2.0, rel=1e-12)


def test_equal_power_split():
    assoc = np.zeros((4, 2), dtype=bool)
    assoc[:, 0] = True
    ctx = EvalContext(random_channels(np.random.default_rng(2), 4, 2, 1),
                      small_config(2, 4))
    p = assoc * ctx.power_share(assoc)
    np.testing.assert_allclose(p[:, 0], 0.05)
    np.testing.assert_array_equal(p[:, 1], 0.0)
    assert p[:, 0].sum() == pytest.approx(0.2, rel=1e-12)


def test_equal_power_sums_are_budget_or_zero():
    rng = np.random.default_rng(0)
    for _ in range(50):
        num_ues, num_aps = (int(n) for n in rng.integers(1, 7, size=2))
        assoc = rng.random((num_ues, num_aps)) < 0.4
        ctx = EvalContext(random_channels(rng, num_ues, num_aps, 1),
                          small_config(num_aps, num_ues))
        p = assoc * ctx.power_share(assoc)
        assert (p >= 0).all()
        sums = p.sum(axis=0)
        loaded = assoc.any(axis=0)
        np.testing.assert_allclose(sums[loaded], 0.2, rtol=1e-12)
        np.testing.assert_array_equal(sums[~loaded], 0.0)


def test_received_power_empty_cluster():
    vectors = random_channels(np.random.default_rng(1), 2, 2, 1).vectors
    ev = _evaluate(vectors, [[False, False], [True, False]], noise_var=1e-5)
    assert ev.sinr[0] == 0.0


def test_received_power_single_ap_closed_form():
    # |sqrt(P) h^H h / (|h|^2 + s)|^2 with |h|^2 = 4, s = 1, P = 0.5
    ev = _evaluate([[[2.0 + 0j]]], [[True]], noise_var=1.0, max_power=0.5)
    assert ev.sinr[0] == pytest.approx(0.5 * (4.0 / 5.0) ** 2 / 1.0, rel=1e-12)


def test_received_power_coherent_combining():
    # two APs with identical channels and powers: amplitudes add, so the
    # received power, and with no interference the SINR, quadruples
    h = 1.5 - 0.5j
    vectors = [[[h], [h]]]
    single = _evaluate(vectors, [[True, False]], noise_var=0.3)
    both = _evaluate(vectors, [[True, True]], noise_var=0.3)
    assert both.sinr[0] == pytest.approx(4.0 * single.sinr[0], rel=1e-12)


def test_interference_zero_without_other_ues():
    # UE 1 is unserved, so it sends no beam and UE 0 sees only noise
    vectors = [[[1.0 + 1j]], [[0.5 - 2j]]]
    ev = _evaluate(vectors, [[True], [False]], noise_var=0.5)
    alone = _evaluate(vectors[:1], [[True]], noise_var=0.5)
    assert ev.sinr[0] == alone.sinr[0]
    assert ev.sinr[0] == pytest.approx(0.2 * (2.0 / 2.5) ** 2 / 0.5, rel=1e-12)


def test_interference_closed_form_two_ues():
    # both UEs on the single AP; the beam toward UE 1 leaks through
    # UE 0's channel
    h0, h1 = 1.0 + 0j, 0.5 - 0.5j
    noise = 0.1
    ev = _evaluate([[[h0]], [[h1]]], [[True], [True]], noise_var=noise)
    signal = 0.1 * (abs(h0) ** 2 / (abs(h0) ** 2 + noise)) ** 2
    leak = np.conj(h0) * h1 / (abs(h1) ** 2 + noise)
    interference = abs(np.sqrt(0.1) * leak) ** 2
    assert ev.sinr[0] == pytest.approx(signal / (interference + noise), rel=1e-12)


def test_evaluate_unserved_ue_scores_zero():
    cfg = small_config(2, 2, noise_var=1e-5)
    ch = random_channels(np.random.default_rng(3), 2, 2, 1)
    ev = EvalContext(ch, cfg).evaluate_assoc([[True, False], [False, False]],
                                             [1e6, 1e6])
    assert ev.sinr[1] == 0.0
    assert ev.rate[1] == 0.0
    assert ev.kappa[1] == 0.0


def test_evaluate_kappa_clamped_to_one():
    ev = _evaluate(np.full((1, 1, 1), 1e-3 + 0j), [[True]], noise_var=1e-9,
                   demands=[1.0])  # 1 bit/s demand
    assert ev.kappa[0] == 1.0


def test_evaluate_matches_transparent_route():
    # the cached-product path and the per-element loops of the reference
    # agree over a range of noise levels, power matrix included
    rng = np.random.default_rng(42)
    for _ in range(40):
        num_ues = int(rng.integers(1, 5))
        num_aps = int(rng.integers(1, 5))
        n_ant = int(rng.integers(1, 3))
        cfg = small_config(num_aps, num_ues, antennas_per_ap=n_ant,
                          noise_var=10.0 ** rng.uniform(-6, -1))
        ch = random_channels(rng, num_ues, num_aps, n_ant)
        assoc = rng.random((num_ues, num_aps)) < 0.5
        demands = rng.choice([5e6, 30e6, 100e6], size=num_ues)
        ctx = EvalContext(ch, cfg)
        ev = ctx.evaluate_assoc(assoc, demands)
        ref = reference_evaluate(ch.vectors, assoc, cfg.max_power,
                                 cfg.noise_var, cfg.bandwidth, demands)
        np.testing.assert_allclose(assoc * ctx.power_share(assoc), ref["power"],
                                   rtol=1e-12)
        np.testing.assert_allclose(ev.sinr, ref["sinr"], rtol=1e-10, atol=1e-30)


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
        ev = EvalContext(ch, cfg).evaluate_assoc(assoc, demands)
        ref = reference_evaluate(ch.vectors, assoc, cfg.max_power,
                                 cfg.noise_var, cfg.bandwidth, demands)
        np.testing.assert_allclose(ev.sinr, ref["sinr"], rtol=1e-10, atol=1e-30)
        np.testing.assert_allclose(ev.rate, ref["rate"], rtol=1e-10, atol=1e-30)
        np.testing.assert_allclose(ev.kappa, ref["kappa"], rtol=1e-10)


@pytest.mark.parametrize("num_ues", [1, 15, 16, 17, 33, 40, 90])
def test_context_columns_equal_one_shot_einsum(num_ues):
    # each column is one zgemm's row (90 UEs: its own (K, N) @ (N, 1)
    # product): the one-shot einsum up to summation order; norm2 is the sum
    # of |h|^2
    rng = np.random.default_rng(num_ues)
    num_aps, n_ant = 9, 3
    ch = random_channels(rng, num_ues, num_aps, n_ant)
    ctx = EvalContext(ch, small_config(num_aps, num_ues, antennas_per_ap=n_ant))
    h = ch.vectors
    einsum = np.einsum("kmn,jmn->mjk", h.conj(), h)
    cols = all_columns(ctx)
    assert cols.shape == (num_aps, num_ues, num_ues)
    assert np.abs(cols - einsum).max() <= 1e-15 * np.abs(einsum).max()
    np.testing.assert_allclose(ctx.norm2, (np.abs(h) ** 2).sum(axis=2), rtol=1e-15)


@pytest.mark.parametrize("num_ues, num_aps, n_ant", [(20, 200, 2), (41, 40, 3), (60, 20, 16)])
def test_column_bits_do_not_depend_on_the_batch(num_ues, num_aps, n_ant):
    # in a scene of over 1 MB of columns, computed as read, a column has the
    # same bits computed alone, among any other missing columns (one AP at a
    # time, in any order, repeats included) and in the fill of every column
    assert 16 * num_ues ** 2 * num_aps > 2 ** 20
    rng = np.random.default_rng(num_ues + num_aps)
    ch = random_channels(rng, num_ues, num_aps, n_ant)
    cfg = small_config(num_aps, num_ues, antennas_per_ap=n_ant)
    full = all_columns(EvalContext(ch, cfg))
    ctx = EvalContext(ch, cfg)
    for _ in range(6):
        aps = rng.integers(num_aps, size=int(rng.integers(1, 60)))
        ues = rng.integers(num_ues, size=aps.size)
        np.testing.assert_array_equal(ctx.columns(aps, ues), full[aps, ues])
    np.testing.assert_array_equal(all_columns(ctx), full)
    for m, j in zip(rng.integers(num_aps, size=12), rng.integers(num_ues, size=12)):
        np.testing.assert_array_equal(EvalContext(ch, cfg).columns(m, j), full[m, j])


def test_duplicate_aps_and_ues_give_bit_equal_columns():
    # the tie scenes' exact ties survive only if a copied AP or UE gets the
    # very bits of its original, whichever is computed first
    ctx = tie_scene("dup-aps")[1]
    ues = np.arange(ctx.num_ues)
    for m in range(4):
        np.testing.assert_array_equal(ctx.columns(m + 4, ues), ctx.columns(m, ues))
    ctx = tie_scene("dup-pairs")[1]
    cols = all_columns(ctx)
    np.testing.assert_array_equal(cols[0::2], cols[1::2])
    np.testing.assert_array_equal(cols[:, 0], cols[:, 1])
    np.testing.assert_array_equal(cols[:, 2], cols[:, 3])
    # the same in a scene whose columns are computed as read: APs 100-199
    # copy APs 0-99 and UE 1 copies UE 0; copies go first for half the APs
    rng = np.random.default_rng(11)
    vectors = random_channels(rng, 20, 200, 2).vectors
    vectors[:, 100:] = vectors[:, :100]
    vectors[1] = vectors[0]
    ctx = EvalContext(channels_from_vectors(vectors), small_config(200, 20, antennas_per_ap=2))
    ues = np.arange(20)
    for m in range(100):
        first, second = (m + 100, m) if m % 2 else (m, m + 100)
        np.testing.assert_array_equal(ctx.columns(first, ues), ctx.columns(second, ues))
    cols = all_columns(ctx)
    np.testing.assert_array_equal(cols[:, 0], cols[:, 1])


@pytest.mark.parametrize("num_ues, num_aps", [(5, 8), (20, 50), (40, 50), (70, 140)])
def test_dense_branch_matches_the_clustered_contraction(num_ues, num_aps):
    # a matching with a cluster over M/2 is scored by one product over
    # every kept column per UE in a scene of at most 1 MB of columns, by
    # contracting the channels directly in a larger one; the column
    # contraction gives the same amplitudes up to summation order
    cfg, ctx, _ = seeded_scene(num_ues, num_aps, 7)
    rng = np.random.default_rng(num_aps)
    gains = ctx.channels.gains
    for assoc in (np.ones((num_ues, num_aps), dtype=bool),
                  gains >= gains.max(axis=1, keepdims=True) / 1e3,
                  rng.random((num_ues, num_aps)) < 0.3):
        assoc[0, : num_aps // 2 + 1] = True
        w = beam_weights(ctx, assoc)
        assert_dense_close(ctx.amplitudes(w), cross_einsum(ctx, w))


def test_step_memory_is_under_a_quarter_of_the_cross_cache():
    # no K^2 M cache (16 K^2 M bytes, 11 MB here) is built: one whole step
    # of ea, da, bc, md and cs, context, solves and scores included, peaks
    # under a quarter of it.  A first step loads numpy's lazy imports.
    cfg, ctx, demands = seeded_scene(70, 140, 0)

    def step():
        step_ctx = EvalContext(ctx.channels, cfg)
        for name in ("ea", "da", "bc", "md", "cs"):
            matching, _ = get_strategy(name)(step_ctx, demands, cfg)
            step_ctx.evaluate_assoc(matching.assoc, demands)

    step()
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * ctx.num_ues ** 2 * ctx.num_aps / 4


_CROSS_DIGEST = """
import hashlib
import numpy as np
from helpers import all_columns, beam_weights, seeded_scene
digest = hashlib.sha256()
for ctx in (seeded_scene(70, 140, 0)[1], seeded_scene(30, 60, 0)[1]):
    dense = ctx.amplitudes(beam_weights(ctx, np.ones((ctx.num_ues, ctx.num_aps), dtype=bool)))
    digest.update(all_columns(ctx).tobytes() + dense.tobytes() + ctx.norm2.tobytes())
print(digest.hexdigest())
"""


def test_context_cross_is_independent_of_blas_threads():
    # the CLI leaves BLAS threading to the environment, so the columns, the
    # wide-matching products (70x140 computes its columns as read, 30x60
    # all at once), and with them every matching, must not depend on the
    # thread count
    paths = [str(Path(cfmatch.__file__).parents[1]), str(Path(__file__).parent)]
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(paths))
        out = subprocess.run([sys.executable, "-c", _CROSS_DIGEST], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        digests.add(out.stdout.strip())
    assert len(digests) == 1 and len(digests.pop()) == 64


@pytest.mark.parametrize("num_ues, num_aps", [(5, 8), (20, 50), (30, 60), (70, 140)])
def test_amplitudes_equal_one_einsum_on_every_strategy(num_ues, num_aps):
    # every amplitude contraction a strategy makes, exact evaluations and
    # batched scores alike, has the bits of the one einsum over the columns,
    # or is within 1e-15 of them where a cluster is wider than M/2
    cfg, ctx, demands = seeded_scene(num_ues, num_aps, 5)
    contract = ctx.amplitudes
    widths = []

    def checked(w):
        amp = contract(w)
        assert_amplitudes(ctx, w, amp)
        widths.append(np.count_nonzero(w, axis=1).max(initial=0))
        return amp

    ctx.amplitudes = checked
    for name in STRATEGIES:
        # da-smp keeps da's cluster sizes; its 70x140 scan takes minutes
        if name == "da-smp" and num_ues == 70:
            continue
        widths.clear()
        matching, _ = get_strategy(name)(ctx, demands, cfg)
        checked(beam_weights(ctx, matching.assoc))
        if name == "gca" and num_ues == 30:
            # its clusters start wider than M/2 and shrink below it
            assert min(widths) <= num_aps // 2 < max(widths)


@pytest.mark.parametrize("num_ues, num_aps, widths", [
    (4, 8, [0, 0, 0, 0]),  # nothing served
    (4, 8, [8, 0, 1, 2]),  # one UE holds every AP: the wide branch
    (4, 8, [4, 4, 1, 0]),  # widest cluster exactly M/2: columns only
    (4, 8, [5, 3, 1, 0]),  # one AP over M/2
    (5, 9, [4, 4, 2, 1, 0]),  # just under M/2 with M odd
    (5, 9, [5, 1, 0, 3, 2]),  # just over
    (1, 12, [5]),  # K = 1, under and over M/2
    (1, 12, [7]),
    (1, 12, [12]),
    (40, 50, [26, 25] + [1] * 38),  # over 1 MB of columns: the dense contraction
    (40, 50, [25, 25] + [1] * 38),  # and the columns read as needed
])
def test_amplitudes_edge_widths(num_ues, num_aps, widths):
    rng = np.random.default_rng(num_ues * 100 + sum(widths))
    ctx = EvalContext(random_channels(rng, num_ues, num_aps, 3),
                      small_config(num_aps, num_ues, antennas_per_ap=3))
    assoc = np.zeros((num_ues, num_aps), dtype=bool)
    for k, width in enumerate(widths):
        assoc[k, rng.permutation(num_aps)[:width]] = True
    w = beam_weights(ctx, assoc)
    amp = ctx.amplitudes(w)
    assert amp.shape == (num_ues, num_ues)
    assert_amplitudes(ctx, w, amp)
    if not assoc.any():
        assert not amp.any()


def test_evaluate_assoc_rejects_a_wrongly_shaped_assoc():
    # a (1, M) row would broadcast over all K UEs with loads of 1
    rng = np.random.default_rng(2)
    ctx = EvalContext(random_channels(rng, 4, 6, 2), small_config(6, 4, antennas_per_ap=2))
    for shape in [(1, 6), (4, 1), (6, 4), (4, 6, 1), (6,)]:
        with pytest.raises(ValueError, match=r"assoc .*\(4, 6\)"):
            ctx.evaluate_assoc(np.ones(shape, dtype=bool), np.full(4, 1e6))
    ctx.evaluate_assoc(np.ones((4, 6), dtype=bool), np.full(4, 1e6))


def test_new_interferer_never_helps():
    # interference adds one |.|^2 term per interfering UE, so serving a
    # previously idle UE from a previously idle AP (every other power
    # share held fixed) can only lower the others' SINR; note the beams
    # of ONE interferer combine coherently, so growing an existing
    # interferer's cluster may cancel and is not monotone
    rng = np.random.default_rng(11)
    for _ in range(30):
        ctx = EvalContext(random_channels(rng, 3, 4, 2),
                          small_config(4, 3, antennas_per_ap=2, noise_var=1e-4))
        base = np.zeros((3, 4), dtype=bool)
        base[0, 0] = base[1, 1] = True
        grown = base.copy()
        grown[2, 2] = True  # UE 2 was unserved, AP 2 idle: no share changes
        demands = np.full(3, 1e6)
        before = ctx.evaluate_assoc(base, demands)
        after = ctx.evaluate_assoc(grown, demands)
        assert (after.sinr[:2] <= before.sinr[:2]).all()
        np.testing.assert_array_equal((grown * ctx.power_share(grown))[:2],
                                      (base * ctx.power_share(base))[:2])


def test_quota_violation_flag():
    m = Matching.from_assoc(np.ones((3, 2), dtype=bool))
    assert m.quota_violation(ap_quota=2, ue_quota=2)
    assert not m.quota_violation(ap_quota=3, ue_quota=2)


def test_quota_violation_ap_side_only():
    # AP 0 serves three UEs, each UE has one AP
    m = Matching.from_assoc([[True, False], [True, False], [True, False]])
    assert m.quota_violation(ap_quota=2, ue_quota=1)
    assert not m.quota_violation(ap_quota=3, ue_quota=1)


def test_quota_violation_ue_side_only():
    # UE 0 holds three APs, each AP serves one UE
    m = Matching.from_assoc([[True, True, True], [False, False, False]])
    assert m.quota_violation(ap_quota=1, ue_quota=2)
    assert not m.quota_violation(ap_quota=1, ue_quota=3)
    assert m.association_count() == 3
