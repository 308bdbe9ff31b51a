"""Reference clustering schemes and the strategy registry.

Every strategy takes (ctx, demands, config), where ctx is the
EvalContext of one channel realization, and returns (assoc,
GameCounters), assoc the boolean (K, M) association matrix; STRATEGIES
maps each registry name to such a function.
Schemes that ignore quotas (best-channel, min-distance, all-active,
gain-threshold) return zeroed counters.
"""

from __future__ import annotations

import numpy as np

from .channel import ScenarioConfig
from .evaluate import SCREEN_MARGIN, EvalContext
from .matching import GameCounters, ea_m2m


def best_channel(ctx: EvalContext, demands, config: ScenarioConfig) -> tuple[np.ndarray, GameCounters]:
    """Each UE takes the single AP with the largest gain (ties: lower index)."""
    gains = ctx.channels.gains
    assoc = np.zeros(gains.shape, dtype=bool)
    assoc[np.arange(gains.shape[0]), np.argmax(gains, axis=1)] = True
    return assoc, GameCounters()


def min_distance(ctx: EvalContext, demands, config: ScenarioConfig) -> tuple[np.ndarray, GameCounters]:
    """Each UE takes the single nearest AP (ties: lower index)."""
    dists = ctx.channels.distances
    assoc = np.zeros(dists.shape, dtype=bool)
    assoc[np.arange(dists.shape[0]), np.argmin(dists, axis=1)] = True
    return assoc, GameCounters()


def canonical(ctx: EvalContext, demands, config: ScenarioConfig) -> tuple[np.ndarray, GameCounters]:
    """Every AP serves every UE."""
    return np.ones((ctx.num_ues, ctx.num_aps), dtype=bool), GameCounters()


def gca(ctx: EvalContext, demands, config: ScenarioConfig) -> tuple[np.ndarray, GameCounters]:
    """Gain-threshold clusters pruned greedily for the worst-UE rate.

    Each UE starts with every AP whose gain is within
    power_diff_threshold dB of its best one.  Then, one AP at a time,
    deactivate the active AP whose removal raises the minimum spectral
    efficiency the most, while any strict improvement exists.  Ties go
    to the lowest AP index.

    A drop leaves every other AP's power share, so amplitudes are built
    once and each drop subtracts its AP's Gram matrix.  Each round bounds
    every drop by the rate it leaves one UE and scores the drops in bound
    order until no later one can win.  A round whose winner the screen
    proves is committed with no exact evaluation; the exact evaluator
    decides only near ties.  The amplitudes are kept conjugated: AP m's
    Gram matrix is Hermitian, its row j the conjugate of column (m, j).
    """
    gains = ctx.channels.gains
    # 10 ** (t / 10) overflows near 3082.5 dB; a wider window seeds every AP, as +inf does
    t = config.power_diff_threshold
    floor = gains.max(axis=1) / (10.0 ** (t / 10.0) if t <= 3082.5 else np.inf)
    assoc = gains >= floor[:, None]

    def min_se(a: np.ndarray) -> float:
        return float(np.log2(1.0 + ctx.evaluate_assoc(a, demands).sinr).min())

    weight = (assoc * (np.sqrt(ctx.power_share(assoc)) * ctx.inv_denom)).T.astype(complex)
    active = assoc.any(axis=0)
    amp = ctx.amplitudes(weight.T).conj()
    # the running minimum of the exact rule, None while it equals
    # min_se(assoc); estimate is the batched one, within 1e-12 of it;
    # k is the UE the next round bounds drops by, the currently worst
    current = None
    sinr = ctx.score_amplitudes(amp, 1.0)[0]
    estimate, k = float(np.log2(1.0 + sinr).min()), int(np.argmin(sinr))
    # drops are scored in blocks of at most about 512 KB, which stay in L2 cache
    block = np.empty((min(ctx.num_aps, 2 ** 19 // amp.nbytes + 1),) + amp.shape, complex)
    while True:
        gain, worst = _drop_gains(ctx, amp, weight, active, k, block, estimate)
        survivors = np.flatnonzero(_may_win(gain))
        if survivors.size == 0:
            break
        best_m = int(survivors[0])
        # a lone survivor clear of 0 is the exact rule's pick; while the new
        # minimum is at most twice the old, the exact rule's running sum
        # lands on it exactly (Sterbenz), so current is min_se(assoc) again
        if (survivors.size == 1 and gain[best_m] > SCREEN_MARGIN
                and estimate + gain[best_m] + SCREEN_MARGIN <= 2 * (estimate - SCREEN_MARGIN)):
            current = None
            estimate += float(gain[best_m])
        else:
            if current is None:
                current = min_se(assoc)
            best_gain, best_m = 0.0, None
            for m in survivors:
                exact = min_se(assoc & (np.arange(ctx.num_aps) != m)) - current
                if exact > best_gain:
                    best_gain = exact
                    best_m = int(m)
            if best_m is None:
                break
            current += best_gain
            estimate = current
        assoc[:, best_m] = active[best_m] = False
        # the amplitudes less the drop's Gram matrix, as scored
        amp -= ctx.columns(best_m, np.arange(ctx.num_ues)) * weight[best_m]
        weight[best_m] = 0.0
        k = int(worst[best_m])
    return assoc, GameCounters()


def _drop_gains(ctx, amp, weight, active, k, block, current):
    """(M,) minimum spectral efficiency after dropping each active AP alone,
    less current, and (M,) the UE each scored drop leaves worst.

    amp holds the conjugated amplitudes; a drop subtracts AP m's columns
    times weight[m].  The rate a drop leaves UE k bounds its new minimum
    from above, for any k.  Drops bounded SCREEN_MARGIN or more below
    current are not scored; the rest are scored in descending bound order
    (ties: lower AP index), 4 at a time and doubling up to len(block),
    until the next bound lies over 3 SCREEN_MARGIN below the best gain so
    far: that drop and every later one then lose to it in _may_win.
    Unscored drops read -inf."""
    row = np.abs(amp[k] - ctx.columns(np.arange(len(weight)), k) * weight) ** 2
    others = np.arange(len(amp)) != k
    bound = np.log2(1.0 + row[:, k] / (row.sum(axis=1, where=others) + ctx.noise_var))
    aps = np.flatnonzero(active & (bound > current - SCREEN_MARGIN))
    aps = aps[np.argsort(-bound[aps], kind="stable")]
    out, worst = np.full(len(weight), -np.inf), np.zeros(len(weight), int)
    done, size = 0, min(4, len(block))
    while done < aps.size and bound[aps[done]] - current >= out.max() - 3 * SCREEN_MARGIN:
        sel = aps[done:done + size]
        trial = ctx.columns(sel[:, None], np.arange(len(amp)), out=block[:sel.size])
        np.subtract(amp, np.multiply(trial, weight[sel, None], out=trial), out=trial)
        diag = trial.reshape(-1, amp.size)[:, ::len(amp) + 1]
        signal = np.abs(diag) ** 2
        diag[...] = 0.0
        interference = np.einsum("bki,bki->bk", trial.view(float), trial.view(float))
        sinr = signal / (interference + ctx.noise_var)
        out[sel] = np.log2(1.0 + sinr.min(axis=1)) - current
        worst[sel] = sinr.argmin(axis=1)
        done, size = done + sel.size, min(2 * size, len(block))
    return out, worst


def _may_win(gain):
    """Mask of the drops the exact rule might pick if each batched gain
    is within SCREEN_MARGIN of the exact one: a strict improvement
    that ties or beats every other drop."""
    return (gain > -SCREEN_MARGIN) & (gain >= gain.max(initial=-np.inf) - 2 * SCREEN_MARGIN)


def da_m2m(ctx: EvalContext, demands, config: ScenarioConfig) -> tuple[np.ndarray, GameCounters]:
    """Deferred acceptance: UEs propose in gain order, APs hold the best.

    Each round every UE proposes to its next-preferred APs until its
    quota of held offers is full; each AP keeps the best proposals by
    its own gain ranking up to its quota and rejects the rest.  Rounds
    repeat until no UE has anything left to propose; held offers become
    the matching.  Both sides rank by descending gain, ties broken by
    lower index (the order of build_preferences, as in ea), taken as one
    stable argsort per side.
    """
    num_ues, num_aps = ctx.num_ues, ctx.num_aps
    gains = ctx.channels.gains
    # place[k, m]: position of AP m in UE k's list; rank[k, m]: position
    # of UE k in AP m's list; lower is better on both sides
    place = _positions(np.argsort(-gains, axis=1, kind="stable"))
    rank = _positions(np.argsort(-gains.T, axis=1, kind="stable")).T
    held = np.zeros((num_ues, num_aps), dtype=bool)
    proposed = np.zeros(num_ues, dtype=int)
    counters = GameCounters()

    while True:
        want = np.minimum(config.ue_quota - held.sum(axis=1), num_aps - proposed)
        if not want.any():
            break
        counters.da_iterations += 1
        held |= (place >= proposed[:, None]) & (place < (proposed + want)[:, None])
        proposed += want
        if config.ap_quota < num_ues:
            ranked = np.where(held, rank, num_ues)
            worst_kept = np.partition(ranked, config.ap_quota - 1, axis=0)[config.ap_quota - 1]
            held &= ranked <= worst_kept
    return held, counters


def _positions(order: np.ndarray) -> np.ndarray:
    """Inverse of each row's permutation: out[i, order[i, p]] = p."""
    out = np.empty_like(order)
    np.put_along_axis(out, order, np.arange(order.shape[1])[None, :], axis=1)
    return out


class SwapCapExceeded(RuntimeError):
    """swap_matching committed more swaps than its cap allows."""


def swap_matching(assoc: np.ndarray, ctx: EvalContext, demands, config: ScenarioConfig,
                  counters: GameCounters) -> np.ndarray:
    """Refine a matching by trading AP pairs between UE pairs; assoc is
    left as it is and the refined matrix returned.

    A swap hands AP m (serving only k) to k' and AP m' (serving only k')
    to k; it is applied when the network satisfaction sum does not drop
    and at least one of the two UEs strictly improves while the other
    does not lose.  After each applied swap the scan restarts; the scan
    order is ascending (k, k', m, m').  Swaps preserve loads and cluster
    sizes, so quotas stay valid.  The committed-swap count is capped at
    ue_quota * K^2; exceeding it raises SwapCapExceeded.

    All trades of one UE pair are scored at once from the two amplitude
    columns each changes; only those that might pass the rule are
    re-scored by the exact evaluator, in scan order, which alone decides.
    """
    demands = np.asarray(demands, dtype=float)
    assoc = assoc.copy()
    num_ues = assoc.shape[0]
    cap = config.ue_quota * num_ues * num_ues
    # loads never change, so neither does any pair's beam weight
    weight = np.sqrt(ctx.power_share(assoc))[None, :] * ctx.inv_denom

    def find_swap(current):
        base = _scan_base(ctx, assoc, weight)
        for k in range(num_ues):
            for k2 in range(k + 1, num_ues):
                only_k, only_k2, kappa = _pair_trades(ctx, assoc, weight, base, demands, k, k2)
                for g, a in zip(*_accepts(kappa, current.kappa, k, k2, SCREEN_MARGIN).nonzero()):
                    trial = assoc.copy()
                    trial[k, only_k[g]] = trial[k2, only_k2[a]] = False
                    trial[k, only_k2[a]] = trial[k2, only_k[g]] = True
                    ev = ctx.evaluate_assoc(trial, demands)
                    if _accepts(ev.kappa, current.kappa, k, k2):
                        return trial, ev
        return None, None

    current = ctx.evaluate_assoc(assoc, demands)
    while True:
        trial, ev = find_swap(current)
        if trial is None:
            break
        assoc, current = trial, ev
        counters.swap_count += 1
        if counters.swap_count > cap:
            raise SwapCapExceeded(f"swap refinement exceeded {cap} swaps")
    return assoc


def _scan_base(ctx, assoc, weight):
    """A scan's amplitudes, the diagonal of |amp|^2, and |amp|^2 off it."""
    amp = ctx.amplitudes(assoc * weight)
    power = np.abs(amp) ** 2
    signal = np.diagonal(power).copy()
    np.fill_diagonal(power, 0.0)
    return amp, signal, power


def _pair_trades(ctx, assoc, weight, base, demands, k, k2):
    """Every AP trade of UEs k < k2: (only_k, only_k2, kappa).

    Trade (g, a) hands AP only_k[g], served by k alone, to k2 and AP
    only_k2[a], served by k2 alone, to k; kappa (G, A, K) is batched and
    its row-major order is scan order.  Only amplitude columns k and k2
    change, by the columns (m, k) and (m, k2) of the two APs, read in one
    ctx.columns call; the other columns' |amp|^2 is summed directly from
    the scan's base, so a pair costs O(T K) beyond that sum.
    """
    amp, signal, power = base
    only_k = (assoc[k] & ~assoc[k2]).nonzero()[0]
    only_k2 = (assoc[k2] & ~assoc[k]).nonzero()[0]
    shape = (only_k.size, only_k2.size, len(amp))
    if not (only_k.size and only_k2.size):
        return only_k, only_k2, np.empty(shape)
    pair, aps = np.array([k, k2]), np.concatenate([only_k, only_k2])[:, None]
    # moved[i, 0] is AP aps[i]'s term of amplitude column k, moved[i, 1] minus
    # its term of column k2; give is taken out before take is added, so an AP
    # that is most of its column cancels first
    moved = ctx.columns(aps, pair) * (weight[pair, aps] * np.array([1.0, -1.0]))[..., None]
    new = (amp.T[pair] - moved[:only_k.size, None]) + moved[only_k.size:]
    new_power = np.abs(new) ** 2
    trial_signal = np.repeat(signal[None], only_k.size * only_k2.size, axis=0).reshape(shape)
    trial_signal[..., k], trial_signal[..., k2] = new_power[..., 0, k], new_power[..., 1, k2]
    new_power[..., 0, k] = new_power[..., 1, k2] = 0.0
    others = np.ones(len(amp))
    others[pair] = 0.0
    interference = new_power[..., 0, :] + new_power[..., 1, :]
    interference += power @ others
    return only_k, only_k2, ctx.score_powers(trial_signal, interference, demands)[2]


def _accepts(kappa, current, k, k2, slack=0.0):
    """The swap rule on the kappa of one trade or of each row of a (T, K)
    batch: the kappa sum does not drop, and one of k, k2 strictly
    improves while the other does not lose.  slack relaxes every
    comparison by that much per kappa, keeping each trade the exact rule
    might take on kappa within slack of these; a UE at kappa 1 cannot
    strictly improve, since the clamp is exact."""
    low = current - slack
    sum_ok = kappa.sum(axis=-1) >= current.sum() - current.size * slack
    up_k = (current[k] < 1.0) & (kappa[..., k] > low[k])
    up_k2 = (current[k2] < 1.0) & (kappa[..., k2] > low[k2])
    return sum_ok & ((up_k & (kappa[..., k2] >= low[k2]))
                     | (up_k2 & (kappa[..., k] >= low[k])))


def _da_smp(ctx, demands, config):
    """da-smp: deferred acceptance refined by swap matching."""
    assoc, counters = da_m2m(ctx, demands, config)
    return swap_matching(assoc, ctx, demands, config, counters), counters


STRATEGIES = {
    "ea": ea_m2m,
    "da": da_m2m,
    "da-smp": _da_smp,
    "bc": best_channel,
    "md": min_distance,
    "cs": canonical,
    "gca": gca,
}

# Strategies that read config.satisfaction_threshold.  Every other one
# returns the same matching and counters whatever the threshold, so a
# sweep over thresholds solves it once per timestep.
THRESHOLD_STRATEGIES = frozenset({"ea"})


def get_strategy(name: str):
    """Look up a strategy by registry name."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown strategy: {name!r}; "
                         f"known: {', '.join(sorted(STRATEGIES))}") from None
