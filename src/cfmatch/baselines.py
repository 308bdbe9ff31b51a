"""Reference clustering schemes and the strategy registry.

All strategies share one signature: (channels, demands, config) ->
(Matching, GameCounters), where channels may be a ChannelRealization or
a prebuilt EvalContext.  Schemes that ignore quotas (best-channel,
min-distance, all-active, gain-threshold) report zeroed counters.
"""

from __future__ import annotations

import numpy as np

from .channel import ScenarioConfig
from .evaluate import SCREEN_MARGIN, Matching, as_eval_context
from .matching import GameCounters, ea_m2m


def best_channel(channels, demands, config: ScenarioConfig) -> Matching:
    """Each UE takes the single AP with the largest gain (ties: lower index)."""
    gains = as_eval_context(channels, config).channels.gains
    assoc = np.zeros(gains.shape, dtype=bool)
    assoc[np.arange(gains.shape[0]), np.argmax(gains, axis=1)] = True
    return Matching.from_assoc(assoc)


def min_distance(channels, demands, config: ScenarioConfig) -> Matching:
    """Each UE takes the single nearest AP (ties: lower index)."""
    dists = as_eval_context(channels, config).channels.distances
    assoc = np.zeros(dists.shape, dtype=bool)
    assoc[np.arange(dists.shape[0]), np.argmin(dists, axis=1)] = True
    return Matching.from_assoc(assoc)


def canonical(channels, demands, config: ScenarioConfig) -> Matching:
    """Every AP serves every UE."""
    ctx = as_eval_context(channels, config)
    return Matching.from_assoc(np.ones((ctx.num_ues, ctx.num_aps), dtype=bool))


def gca(channels, demands, config: ScenarioConfig) -> Matching:
    """Gain-threshold clusters pruned greedily for the worst-UE rate.

    Each UE starts with every AP whose gain is within
    power_diff_threshold dB of its best one.  Then, one AP at a time,
    deactivate the active AP whose removal raises the minimum spectral
    efficiency the most, while any strict improvement exists.  Ties go
    to the lowest AP index.

    Each round scores every drop at once from the cached amplitudes;
    only the drops that might win are re-scored by the exact evaluator,
    in ascending AP order, which alone decides.
    """
    ctx = as_eval_context(channels, config)
    gains = ctx.channels.gains
    floor = gains.max(axis=1) / 10.0 ** (config.power_diff_threshold / 10.0)
    assoc = gains >= floor[:, None]

    def min_se(a: np.ndarray) -> float:
        ev = ctx.evaluate_assoc(a, demands)
        return float(np.log2(1.0 + ev.sinr).min())

    current = min_se(assoc)
    while True:
        active = np.flatnonzero(assoc.any(axis=0))
        batched = _drop_min_se(ctx, assoc, demands, active) - current
        best_gain = 0.0
        best_m = None
        for m in active[_may_win(batched)]:
            trial = assoc.copy()
            trial[:, m] = False
            gain = min_se(trial) - current
            if gain > best_gain:
                best_gain = gain
                best_m = int(m)
        if best_m is None:
            break
        assoc[:, best_m] = False
        current += best_gain
    return Matching.from_assoc(assoc)


# APs per batch of _drop_min_se: bounds its temporaries to a few (K, K).
DROP_BLOCK = 8


def _drop_min_se(ctx, assoc, demands, aps):
    """Minimum spectral efficiency after dropping each AP of aps alone.

    Dropping AP m clears column m of assoc and leaves every other AP's
    power share, so only AP m's terms leave the amplitude sums.
    """
    weight = assoc * (np.sqrt(ctx.power_share(assoc))[None, :] * ctx.inv_denom)
    amp = np.einsum("kjm,jm->kj", ctx.cross, weight)
    out = np.empty(aps.size)
    for i in range(0, aps.size, DROP_BLOCK):
        block = aps[i:i + DROP_BLOCK]
        trial_amp = amp - np.einsum("kjb,jb->bkj", ctx.cross[:, :, block], weight[:, block])
        sinr = ctx.score_amplitudes(trial_amp, demands)[0]
        out[i:i + DROP_BLOCK] = np.log2(1.0 + sinr).min(axis=1)
    return out


def _may_win(gain):
    """Mask of the drops the exact rule might pick if each batched gain
    is within SCREEN_MARGIN of the exact one: a strict improvement
    that ties or beats every other drop."""
    return (gain > -SCREEN_MARGIN) & (gain >= gain.max(initial=-np.inf) - 2 * SCREEN_MARGIN)


def da_m2m(channels, demands, config: ScenarioConfig) -> tuple[Matching, GameCounters]:
    """Deferred acceptance: UEs propose in gain order, APs hold the best.

    Each round every UE proposes to its next-preferred APs until its
    quota of held offers is full; each AP keeps the best proposals by
    its own gain ranking up to its quota and rejects the rest.  Rounds
    repeat until no UE has anything left to propose; held offers become
    the matching.
    """
    ctx = as_eval_context(channels, config)
    gains = ctx.channels.gains
    num_ues, num_aps = gains.shape
    ue_prefs = [[int(m) for m in np.argsort(-gains[k], kind="stable")]
                for k in range(num_ues)]
    # rank[m][k]: position of UE k in AP m's ranking, lower is better
    rank = [{int(k): pos for pos, k in enumerate(np.argsort(-gains[:, m], kind="stable"))}
            for m in range(num_aps)]
    holding = [[] for _ in range(num_aps)]
    held = [0] * num_ues
    next_idx = [0] * num_ues
    counters = GameCounters()

    while True:
        proposals = [[] for _ in range(num_aps)]
        proposed_any = False
        for k in range(num_ues):
            want = config.ue_quota - held[k]
            while want > 0 and next_idx[k] < len(ue_prefs[k]):
                proposals[ue_prefs[k][next_idx[k]]].append(k)
                next_idx[k] += 1
                want -= 1
                proposed_any = True
        if not proposed_any:
            break
        counters.da_iterations += 1
        for m in range(num_aps):
            if not proposals[m]:
                continue
            pool = holding[m] + proposals[m]
            pool.sort(key=lambda k: rank[m][k])
            holding[m] = pool[:config.ap_quota]
        held = [0] * num_ues
        for m in range(num_aps):
            for k in holding[m]:
                held[k] += 1

    assoc = np.zeros((num_ues, num_aps), dtype=bool)
    for m in range(num_aps):
        assoc[holding[m], m] = True
    return Matching.from_assoc(assoc), counters


class SwapCapExceeded(RuntimeError):
    """swap_matching committed more swaps than its cap allows."""


def swap_matching(matching: Matching, channels, demands, config: ScenarioConfig,
                  counters: GameCounters) -> Matching:
    """Refine a matching by trading AP pairs between UE pairs.

    A swap hands AP m (serving only k) to k' and AP m' (serving only k')
    to k; it is applied when the network satisfaction sum does not drop
    and at least one of the two UEs strictly improves while the other
    does not lose.  After each applied swap the scan restarts; the scan
    order is ascending (k, k', m, m').  Swaps preserve loads and cluster
    sizes, so quotas stay valid.  The committed-swap count is capped at
    ue_quota * K^2; exceeding it raises SwapCapExceeded.

    All trades of one UE pair are scored at once from the cached
    amplitudes; only those that might pass the rule are re-scored by
    the exact evaluator, in scan order, which alone decides.
    """
    ctx = as_eval_context(channels, config)
    demands = np.asarray(demands, dtype=float)
    assoc = matching.assoc.copy()
    num_ues = assoc.shape[0]
    cap = config.ue_quota * num_ues * num_ues
    # loads never change, so neither does any pair's beam weight
    weight = np.sqrt(ctx.power_share(assoc))[None, :] * ctx.inv_denom

    def find_swap(current):
        amp = np.einsum("kjm,jm->kj", ctx.cross, assoc * weight)
        for k in range(num_ues):
            for k2 in range(k + 1, num_ues):
                gives, takes, kappa = _pair_trades(ctx, assoc, weight, amp, demands, k, k2)
                for t in np.flatnonzero(_may_accept(kappa, current.kappa, k, k2)):
                    trial = assoc.copy()
                    trial[k, gives[t]] = False
                    trial[k2, takes[t]] = False
                    trial[k, takes[t]] = True
                    trial[k2, gives[t]] = True
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
    return Matching.from_assoc(assoc)


def _pair_trades(ctx, assoc, weight, amp, demands, k, k2):
    """Every AP trade of UEs k < k2 in scan order, with batched kappa.

    Trade t hands AP gives[t] from k to k2 and AP takes[t] from k2 to k.
    Only amplitude columns k and k2 change, each by two cross terms.
    Returns (gives, takes, kappa) with kappa of shape (T, K).
    """
    only_k = np.flatnonzero(assoc[k] & ~assoc[k2])
    only_k2 = np.flatnonzero(assoc[k2] & ~assoc[k])
    gives = np.repeat(only_k, only_k2.size)
    takes = np.tile(only_k2, only_k.size)
    trial_amp = np.repeat(amp[None], gives.size, axis=0)
    trial_amp[:, :, k] += (ctx.cross[:, k, takes] * weight[k, takes]
                           - ctx.cross[:, k, gives] * weight[k, gives]).T
    trial_amp[:, :, k2] += (ctx.cross[:, k2, gives] * weight[k2, gives]
                            - ctx.cross[:, k2, takes] * weight[k2, takes]).T
    return gives, takes, ctx.score_amplitudes(trial_amp, demands)[2]


def _may_accept(kappa, current, k, k2):
    """Mask of the trades (rows of kappa) that _accepts might take if
    each batched kappa is within SCREEN_MARGIN of the exact one.  A UE
    at kappa 1 cannot strictly improve: the clamp is exact."""
    low = current - SCREEN_MARGIN
    sum_ok = kappa.sum(axis=1) >= current.sum() - current.size * SCREEN_MARGIN
    up_k = (current[k] < 1.0) & (kappa[:, k] > low[k])
    up_k2 = (current[k2] < 1.0) & (kappa[:, k2] > low[k2])
    return sum_ok & ((up_k & (kappa[:, k2] >= low[k2]))
                     | (up_k2 & (kappa[:, k] >= low[k])))


def _accepts(kappa, current, k, k2):
    """The swap rule: the kappa sum does not drop, and one of k, k2
    strictly improves while the other does not lose."""
    better_k = kappa[k] > current[k]
    better_k2 = kappa[k2] > current[k2]
    no_worse_k = kappa[k] >= current[k]
    no_worse_k2 = kappa[k2] >= current[k2]
    return (kappa.sum() >= current.sum()
            and ((better_k and no_worse_k2) or (better_k2 and no_worse_k)))


def _run_ea(channels, demands, config):
    matching, _, counters = ea_m2m(channels, demands, config)
    return matching, counters


def _run_da(channels, demands, config):
    return da_m2m(channels, demands, config)


def _run_da_smp(channels, demands, config):
    matching, counters = da_m2m(channels, demands, config)
    refined = swap_matching(matching, channels, demands, config, counters)
    return refined, counters


def _run_bc(channels, demands, config):
    return best_channel(channels, demands, config), GameCounters()


def _run_md(channels, demands, config):
    return min_distance(channels, demands, config), GameCounters()


def _run_cs(channels, demands, config):
    return canonical(channels, demands, config), GameCounters()


def _run_gca(channels, demands, config):
    return gca(channels, demands, config), GameCounters()


STRATEGIES = {
    "ea": _run_ea,
    "da": _run_da,
    "da-smp": _run_da_smp,
    "bc": _run_bc,
    "md": _run_md,
    "cs": _run_cs,
    "gca": _run_gca,
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
