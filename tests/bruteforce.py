"""Independent straight-line references for the package's fast paths.

reference_evaluate scores a matching with pure per-element loops, no
vectorization, deliberately sharing no code with the package so the two
routes can check each other.  reference_swap_matching, reference_gca
and reference_cluster_evolution are the swap scan, the gca drop loop
and the ea evolution phase in their plain form: one full exact
evaluation per candidate.  reference_da_m2m is deferred acceptance with
its held offers in per-AP lists and one proposal at a time.
reference_ea_initial_association is the ea initial phase with its
rounds also stopped by a scan for any acceptance still possible.  The
ea and da references build their preference lists with
reference_preferences and update them with reference_associate, so a
bug in the package's list code cannot pass through both sides of a
comparison.
"""

import numpy as np

from cfmatch.matching import GameCounters, PreferenceState


def reference_preferences(gains, config):
    """build_preferences by a plain sort: each side lists the other by
    descending gain, equal gains by lower index; full quotas."""
    num_ues, num_aps = np.shape(gains)
    ue_prefs = [sorted(range(num_aps), key=lambda m: (-gains[k, m], m))
                for k in range(num_ues)]
    ap_prefs = [sorted(range(num_ues), key=lambda k: (-gains[k, m], k))
                for m in range(num_aps)]
    return PreferenceState(ue_prefs=ue_prefs, ap_prefs=ap_prefs,
                           ue_quota=[config.ue_quota] * num_ues,
                           ap_quota=[config.ap_quota] * num_aps)


def reference_associate(k, m, state, assoc):
    """associate with its lists filtered afresh: assoc[k, m] is set, k and
    m leave each other's lists and each quota drops by one; a player left
    without quota leaves every list and has its own emptied."""
    assert state.ue_quota[k] > 0 and state.ap_quota[m] > 0 and not assoc[k, m]
    assoc[k, m] = True
    state.ue_quota[k] -= 1
    state.ap_quota[m] -= 1
    state.ue_prefs[k][:] = [m2 for m2 in state.ue_prefs[k] if m2 != m]
    state.ap_prefs[m][:] = [k2 for k2 in state.ap_prefs[m] if k2 != k]
    if state.ap_quota[m] == 0:
        state.ap_prefs[m][:] = []
        for prefs in state.ue_prefs:
            prefs[:] = [m2 for m2 in prefs if m2 != m]
    if state.ue_quota[k] == 0:
        state.ue_prefs[k][:] = []
        for prefs in state.ap_prefs:
            prefs[:] = [k2 for k2 in prefs if k2 != k]


def reference_evaluate(vectors, assoc, max_power, noise_var, bandwidth, demands):
    """Score an association pattern the slow, obvious way.

    vectors: (K, M, N) complex channel coefficients.
    assoc:   (K, M) truthy matrix.
    Returns dict with per-UE power matrix, sinr, rate and kappa lists.
    """
    num_ues, num_aps, num_ant = vectors.shape
    loads = [sum(1 for k in range(num_ues) if assoc[k][m]) for m in range(num_aps)]
    power = [[max_power / loads[m] if (assoc[k][m] and loads[m] > 0) else 0.0
              for m in range(num_aps)] for k in range(num_ues)]

    beams = {}
    for k in range(num_ues):
        for m in range(num_aps):
            if assoc[k][m]:
                h = vectors[k, m]
                denom = sum((h[n].conjugate() * h[n]).real
                            for n in range(num_ant)) + noise_var
                beams[(k, m)] = [h[n] / denom for n in range(num_ant)]

    sinr, rate, kappa = [], [], []
    for k in range(num_ues):
        amp = 0j
        for m in range(num_aps):
            if assoc[k][m]:
                dot = sum(vectors[k, m][n].conjugate() * beams[(k, m)][n]
                          for n in range(num_ant))
                amp += np.sqrt(power[k][m]) * dot
        signal = abs(amp) ** 2
        interference = 0.0
        for j in range(num_ues):
            if j == k:
                continue
            amp_j = 0j
            for m in range(num_aps):
                if assoc[j][m]:
                    dot = sum(vectors[k, m][n].conjugate() * beams[(j, m)][n]
                              for n in range(num_ant))
                    amp_j += np.sqrt(power[j][m]) * dot
            interference += abs(amp_j) ** 2
        s = signal / (interference + noise_var)
        r = bandwidth * np.log2(1.0 + s)
        sinr.append(s)
        rate.append(r)
        kappa.append(min(1.0, r / demands[k]))
    return {"power": power, "sinr": sinr, "rate": rate, "kappa": kappa}


def reference_swap_matching(assoc, ctx, demands, config, counters):
    """swap_matching with one full evaluate_assoc per trial trade.

    Same rule, scan order, restart and cap as the package's scan, with
    no screening, so any trade the screen wrongly drops shows up as a
    different result.
    """
    demands = np.asarray(demands, dtype=float)
    assoc = assoc.copy()
    num_ues = assoc.shape[0]
    cap = config.ue_quota * num_ues * num_ues

    def find_swap(current):
        for k in range(num_ues):
            for k2 in range(k + 1, num_ues):
                only_k = np.flatnonzero(assoc[k] & ~assoc[k2])
                only_k2 = np.flatnonzero(assoc[k2] & ~assoc[k])
                for m in only_k:
                    for m2 in only_k2:
                        trial = assoc.copy()
                        trial[k, m] = False
                        trial[k2, m2] = False
                        trial[k, m2] = True
                        trial[k2, m] = True
                        ev = ctx.evaluate_assoc(trial, demands)
                        better_k = ev.kappa[k] > current.kappa[k]
                        better_k2 = ev.kappa[k2] > current.kappa[k2]
                        no_worse_k = ev.kappa[k] >= current.kappa[k]
                        no_worse_k2 = ev.kappa[k2] >= current.kappa[k2]
                        if (ev.kappa.sum() >= current.kappa.sum()
                                and ((better_k and no_worse_k2)
                                     or (better_k2 and no_worse_k))):
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
            raise RuntimeError(f"swap refinement exceeded {cap} swaps")
    return assoc


def reference_gca(ctx, demands, config):
    """gca with one full evaluate_assoc per candidate drop.

    Same seeding, rule, tie-break and running minimum as the package's
    loop, with no screening; returns the final association matrix.
    """
    gains = ctx.channels.gains
    # a window over 3082.5 dB, where 10 ** (t / 10) nears overflow, acts as +inf
    t = config.power_diff_threshold
    floor = gains.max(axis=1) / (10.0 ** (t / 10.0) if t <= 3082.5 else np.inf)
    assoc = gains >= floor[:, None]

    def min_se(a):
        ev = ctx.evaluate_assoc(a, demands)
        return float(np.log2(1.0 + ev.sinr).min())

    current = min_se(assoc)
    while True:
        best_gain = 0.0
        best_m = None
        for m in np.flatnonzero(assoc.any(axis=0)):
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
    return assoc


def reference_cluster_evolution(state, assoc, ctx, demands, config, counters,
                                trace=None):
    """cluster_evolution with one full evaluate_assoc per favorable test.

    Same settling, scan order, window, favorable-pair rule and counters
    as the package's loop, with the current matching re-evaluated at
    every round start and after every commit and no batched scores, so
    any decision the batched scores take wrongly shows up as a
    different result.  Every commit adds one to
    counters.association_ops and, if trace is given, appends
    ("evolve", k, m) to it.
    """
    demands = np.asarray(demands, dtype=float)
    active = {k for k in range(assoc.shape[0]) if assoc[k].any()}

    while active:
        tests_at_start = counters.favorable_tests
        current = ctx.evaluate_assoc(assoc, demands)
        for k in sorted(active):
            if (current.kappa[k] >= config.satisfaction_threshold
                    or not state.ue_prefs[k]):
                active.discard(k)
        committed = False
        for k in sorted(active):
            window = min(state.ue_quota[k], len(state.ue_prefs[k]))
            for idx in range(window):
                m = state.ue_prefs[k][idx]
                counters.favorable_tests += 1
                if k not in state.ap_prefs[m][:state.ap_quota[m]]:
                    continue
                trial = assoc.copy()
                trial[k, m] = True
                kappa = ctx.evaluate_assoc(trial, demands).kappa
                served = assoc.any(axis=1)
                if (kappa[k] > current.kappa[k]
                        and float(kappa[served].sum())
                        >= float(current.kappa[served].sum())):
                    reference_associate(k, m, state, assoc)
                    counters.association_ops += 1
                    current = ctx.evaluate_assoc(assoc, demands)
                    committed = True
                    if trace is not None:
                        trace.append(("evolve", k, m))
                    break
        counters.tests_per_round.append(counters.favorable_tests - tests_at_start)
        if not committed:
            break


def reference_da_m2m(ctx, demands, config):
    """da_m2m with per-AP lists of held offers, one proposal at a time.

    Same rankings, rounds and counters as the package's array version:
    each AP re-sorts its held and new proposals by its own ranking and
    keeps the first ap_quota.
    """
    num_ues, num_aps = ctx.num_ues, ctx.num_aps
    prefs = reference_preferences(ctx.channels.gains, config)
    ue_prefs = prefs.ue_prefs
    # rank[m][k]: position of UE k in AP m's ranking, lower is better
    order = np.array(prefs.ap_prefs)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(num_ues), axis=1)
    rank = rank.tolist()
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
            pool.sort(key=rank[m].__getitem__)
            holding[m] = pool[:config.ap_quota]
        held = [0] * num_ues
        for m in range(num_aps):
            for k in holding[m]:
                held[k] += 1

    assoc = np.zeros((num_ues, num_aps), dtype=bool)
    for m in range(num_aps):
        assoc[holding[m], m] = True
    return assoc, counters


def reference_ea_initial_association(state, counters, trace=None):
    """ea_initial_association that stops its rounds as soon as no
    requesting UE sits in the remaining-quota window of any AP's list.

    Windows change only on an accept, so once the scan finds none no
    later round can accept; the package's loop runs on until no pointer
    moves to a fresh place, and must give the same matching, lists and
    quotas.  Every association adds one to counters.association_ops
    and, if trace is given, appends ("init", k, m) to it.  Returns the
    association matrix and whether the scan, not the no-progress rule, ended the
    rounds while some UE was still requesting.
    """
    num_ues, num_aps = len(state.ue_prefs), len(state.ap_prefs)
    assoc = np.zeros((num_ues, num_aps), dtype=bool)
    rejected = set(range(num_ues))
    pointer = [0] * num_ues

    def acceptance_possible():
        return any(k in rejected for m, prefs in enumerate(state.ap_prefs)
                   for k in prefs[:state.ap_quota[m]])

    def commit(k, m):
        reference_associate(k, m, state, assoc)
        counters.association_ops += 1
        if trace is not None:
            trace.append(("init", k, m))

    scan_stopped = False
    while rejected:
        if not acceptance_possible():
            scan_stopped = any(state.ue_prefs[k] for k in rejected)
            break
        accepted_any = False
        advanced_any = False
        for k in sorted(rejected):
            prefs = state.ue_prefs[k]
            if not prefs:
                continue
            fresh = pointer[k] < len(prefs)
            m = prefs[min(pointer[k], len(prefs) - 1)]
            if k in state.ap_prefs[m][:state.ap_quota[m]]:
                commit(k, m)
                rejected.discard(k)
                accepted_any = True
            else:
                pointer[k] += 1
                advanced_any = advanced_any or fresh
        if not accepted_any and not advanced_any:
            break

    for k in sorted(rejected):
        if state.ue_prefs[k]:
            commit(k, state.ue_prefs[k][0])
    return assoc, scan_stopped
