"""Early-acceptance many-to-many association game.

Both sides rank each other by average channel gain.  In the initial
phase each unassociated UE requests its currently best-ranked AP once
per round and the AP accepts on the spot iff the UE sits inside the top
slice of its own list that fits its remaining quota; UEs that exhaust
their lists are force-associated to the first AP still listed.  In the
evolution phase, UEs below the satisfaction threshold keep adding one
favorable AP per round until no favorable pair is left.  A pair is
favorable when the AP still ranks the UE inside its remaining-quota
window, the UE's own satisfaction strictly improves, and the summed
satisfaction of all served UEs does not drop.

The game's state is the association matrix and the preference lists
with their remaining quotas; a UE is associated iff its row of the
matrix is nonempty.  Every association updates both preference lists
and both quotas, and a player whose quota hits zero disappears from all
lists (including its own), so quotas can never be exceeded.

The evolution phase is delta-scored.  Adding AP m to UE k changes only
AP m's power share and so only the c = |load m| + 1 columns of the
current amplitudes; those are kept up to date commit by commit, and one
batched pass scores every AP in a UE's window at O(K·c) each instead of
a full O(K^2 M) evaluation.  The favorable-pair rule then gives the
whole window's verdicts at once, at two bounds that relax and tighten
every comparison by twice the batched values' error margin (about
1e-12 error, against a SCREEN_MARGIN of 1e-9).  A verdict both bounds
share stands; only where they disagree does is_favorable_pair re-check
the pair exactly on the trial and the current matching, so no
comparison is loosened and every outcome is that of one exact
evaluation per test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .channel import ScenarioConfig
from .evaluate import SCREEN_MARGIN, EvalContext


@dataclass
class PreferenceState:
    """Mutable preference lists and remaining quotas.

    ue_prefs[k]: AP indices still acceptable to UE k, best first.
    ap_prefs[m]: UE indices still acceptable to AP m, best first.
    ue_quota[k] / ap_quota[m]: remaining association budget.
    """

    ue_prefs: list[list[int]]
    ap_prefs: list[list[int]]
    ue_quota: list[int]
    ap_quota: list[int]


@dataclass
class GameCounters:
    """Operation counts for complexity tracking.

    favorable_tests: favorable-pair evaluations in the evolution phase.
    tests_per_round: favorable_tests split by evolution round.
    association_ops: associations made (one list/quota update each).
    swap_count:      committed swaps (swap refinement only).
    da_iterations:   proposal rounds (deferred acceptance only).
    """

    favorable_tests: int = 0
    association_ops: int = 0
    swap_count: int = 0
    da_iterations: int = 0
    tests_per_round: list[int] = field(default_factory=list)


def build_preferences(gains: np.ndarray, config: ScenarioConfig) -> PreferenceState:
    """Rank both sides by descending gain, ties broken by lower index."""
    num_ues, num_aps = gains.shape
    ue_prefs = [[int(m) for m in np.argsort(-gains[k], kind="stable")]
                for k in range(num_ues)]
    ap_prefs = [[int(k) for k in np.argsort(-gains[:, m], kind="stable")]
                for m in range(num_aps)]
    return PreferenceState(ue_prefs=ue_prefs, ap_prefs=ap_prefs,
                           ue_quota=[config.ue_quota] * num_ues,
                           ap_quota=[config.ap_quota] * num_aps)


def associate(k: int, m: int, state: PreferenceState, assoc: np.ndarray) -> None:
    """Associate UE k with AP m in assoc and update lists and quotas.

    Requires positive remaining quota on both sides and no existing
    association; violating that is a caller bug.  When a quota hits
    zero the saturated player is dropped from every list on the other
    side and its own list is cleared, keeping list membership mutual.
    """
    if state.ue_quota[k] <= 0 or state.ap_quota[m] <= 0:
        raise ValueError(f"associate({k}, {m}) with exhausted quota")
    if assoc[k, m]:
        raise ValueError(f"associate({k}, {m}) repeated")
    assoc[k, m] = True
    if m in state.ue_prefs[k]:
        state.ue_prefs[k].remove(m)
    if k in state.ap_prefs[m]:
        state.ap_prefs[m].remove(k)
    state.ue_quota[k] -= 1
    state.ap_quota[m] -= 1
    if state.ap_quota[m] == 0:
        for prefs in state.ue_prefs:
            if m in prefs:
                prefs.remove(m)
        state.ap_prefs[m].clear()
    if state.ue_quota[k] == 0:
        for prefs in state.ap_prefs:
            if k in prefs:
                prefs.remove(k)
        state.ue_prefs[k].clear()


def ea_initial_association(state: PreferenceState) -> np.ndarray:
    """Build every UE's first cluster by early acceptance.

    Rounds run until one neither accepts a request nor moves a request
    pointer onto a fresh place of its list.  In a round each requesting
    UE (ascending index) asks the AP at its request pointer, clamped to
    the end of its shrunken list; the AP accepts immediately iff the UE
    ranks inside its remaining-quota window, otherwise the pointer
    advances.  UEs still unassociated when the rounds stop are
    force-associated to the first AP left on their list; a UE with no
    AP left stays unassociated.
    """
    num_ues = len(state.ue_prefs)
    assoc = np.zeros((num_ues, len(state.ap_prefs)), dtype=bool)
    waiting = list(range(num_ues))
    pointer = [0] * num_ues

    while waiting:
        rejected = []
        advanced = False
        for k in waiting:
            prefs = state.ue_prefs[k]
            m = prefs[min(pointer[k], len(prefs) - 1)] if prefs else None
            if m is not None and k in state.ap_prefs[m][:state.ap_quota[m]]:
                associate(k, m, state, assoc)
            else:
                advanced = advanced or pointer[k] < len(prefs)
                pointer[k] += 1
                rejected.append(k)
        if len(rejected) == len(waiting) and not advanced:
            break
        waiting = rejected

    # Forced association: whoever is still waiting takes the best AP
    # left on their list, regardless of the AP's own ranking.
    for k in waiting:
        if state.ue_prefs[k]:
            associate(k, state.ue_prefs[k][0], state, assoc)
    return assoc


def is_favorable_pair(m: int, k: int, state: PreferenceState, assoc: np.ndarray,
                      ctx: EvalContext, demands, current=None) -> bool:
    """Test exactly whether adding AP m to UE k's cluster is favorable.

    Requires: k inside the remaining-quota window of m's list, k's own
    satisfaction strictly improves, and the summed satisfaction of all
    currently served UEs does not drop, on evaluate_assoc of the trial
    and of the current matching.  current is the latter if already
    known.
    """
    if k not in state.ap_prefs[m][:state.ap_quota[m]]:
        return False
    demands = np.asarray(demands, dtype=float)
    if current is None:
        current = ctx.evaluate_assoc(assoc, demands)
    trial = assoc.copy()
    trial[k, m] = True
    return bool(_favorable(ctx.evaluate_assoc(trial, demands).kappa, current.kappa,
                           k, assoc.any(axis=1)))


def _favorable(trial, current, k, served, slack=0.0):
    """The favorable-pair rule on the kappa of one trial or of each row of
    a (T, K) batch against the current matching's: k strictly improves
    and the served sum does not drop.  slack relaxes each comparison by
    that much per kappa difference; a negative slack tightens it."""
    return ((trial[..., k] > current[k] - slack)
            & (trial[..., served].sum(axis=-1)
               >= float(current[served].sum()) - current.size * slack))


class _GrowingScores:
    """Batched kappa of a matching that grows one association at a time.

    Holds evaluate_assoc's beam weights w[j, m] and amplitudes amp[k, j]
    (what UE j's beams deliver at UE k) for the current matching, with
    |amp|^2 split into signal (the diagonal), the off-diagonal power and
    its row sums, the interference.  An add to AP m moves only the c
    columns of its new load, so a candidate add costs O(K·c), and its
    kappa is within 1e-12 of evaluate_assoc's; a commit rewrites those
    columns and sums the rows afresh, so no rounding builds up.
    saturated marks the UEs whose exact kappa is surely 1.  exact() is
    evaluate_assoc of the current matching, computed at most once.
    """

    def __init__(self, ctx: EvalContext, assoc: np.ndarray, demands: np.ndarray):
        self.ctx, self.assoc, self.demands = ctx, assoc, demands
        self.w = assoc * (np.sqrt(ctx.power_share(assoc))[None, :] * ctx.inv_denom)
        self.amp = ctx.amplitudes(self.w)
        self.power, self.signal = np.empty(self.amp.shape), np.empty(ctx.num_ues)
        self._rescore(np.arange(ctx.num_ues))

    def _rescore(self, cols: np.ndarray) -> None:
        """Rewrite power's cols from amp, its diagonal into signal; rescore."""
        self.power[:, cols] = np.abs(self.amp[:, cols]) ** 2
        self.signal[cols] = self.power[cols, cols]
        self.power[cols, cols] = 0.0
        self.interference = self.power.sum(axis=1)
        _, rate, self.kappa = self.ctx.score_powers(self.signal, self.interference, self.demands)
        # rate this far above demand is above it exactly too: kappa is 1
        self.saturated = rate > self.demands * (1.0 + SCREEN_MARGIN)
        self._exact = None

    def exact(self):
        if self._exact is None:
            self._exact = self.ctx.evaluate_assoc(self.assoc, self.demands)
        return self._exact

    def add_kappa(self, k: int, aps: list[int]) -> np.ndarray:
        """(len(aps), K) kappa after adding each AP of aps alone to k."""
        ctx, aps = self.ctx, np.asarray(aps)[:, None]
        load = self.assoc[:, aps[:, 0]].T | (np.arange(ctx.num_ues) == k)
        size = np.count_nonzero(load, axis=1)[:, None]
        # each AP's load first, then UEs with weight change 0: padding moves nothing
        cols = np.argsort(~load, axis=1, kind="stable")[:, :size.max()]
        t, i = np.arange(len(aps))[:, None], np.arange(cols.shape[1])
        change = (i < size) * (np.sqrt(ctx.max_power / size) * ctx.inv_denom[cols, aps]
                               - self.w[cols, aps])
        # new[t, i, r] is |amp[r, cols[t, i]]|^2 once aps[t] serves k (padding: AP -1)
        new = np.abs(self.amp.T[cols] + ctx.columns(np.where(i < size, aps, -1), cols)
                     * change[..., None]) ** 2
        signal = np.repeat(self.signal[None], len(aps), axis=0)
        signal[t, cols] = new[t, i, cols]
        new[t, i, cols] = 0.0
        interference = self.interference + (new - self.power.T[cols]).sum(axis=1)
        return ctx.score_powers(signal, interference, self.demands)[2]

    def commit(self, m: int) -> None:
        """Follow an add to AP m already applied to assoc."""
        ctx, load = self.ctx, np.flatnonzero(self.assoc[:, m])
        w_m = np.sqrt(ctx.max_power / load.size) * ctx.inv_denom[load, m]
        self.amp[:, load] += ctx.columns(m, load).T * (w_m - self.w[load, m])
        self.w[load, m] = w_m
        self._rescore(load)


def cluster_evolution(state: PreferenceState, assoc: np.ndarray, ctx: EvalContext,
                      demands, config: ScenarioConfig, counters: GameCounters) -> None:
    """Grow unsettled UEs' clusters in assoc until no pair is favorable.

    Every UE with a nonempty cluster starts unsettled.  Each round first
    settles UEs that reached the threshold or ran out of candidates,
    then lets every remaining UE scan the first min(remaining quota,
    list length) APs on its list and commit the first favorable one.
    The loop stops after a full round without a commit.

    Every decision is taken on batched kappa kept up to date commit by
    commit.  A window's verdicts come from one _favorable pass over all
    its adds at both slack bounds; where the bounds disagree, and at a
    settle check within their error of the threshold, the exact
    evaluate_assoc values decide instead.  A UE that reached kappa 1
    during a round fails its window tests without either.  Every window
    test scanned counts, up to and including the committed one.
    """
    demands = np.asarray(demands, dtype=float)
    active = np.flatnonzero(assoc.any(axis=1)).tolist()
    scores = _GrowingScores(ctx, assoc, demands)
    threshold = config.satisfaction_threshold

    while active:
        unsettled = []
        for k in active:
            kappa = scores.kappa[k]
            # a saturated UE sits at exactly kappa 1, at or above any threshold
            if abs(kappa - threshold) <= SCREEN_MARGIN and not scores.saturated[k]:
                kappa = scores.exact().kappa[k]
            if kappa < threshold and state.ue_prefs[k]:
                unsettled.append(k)
        active = unsettled
        committed, tests = False, 0
        for k in active:
            window = state.ue_prefs[k][:state.ue_quota[k]]
            tested = len(window)
            # a saturated UE sits at exact kappa 1 and cannot strictly improve
            if window and not scores.saturated[k]:
                trial, served = scores.add_kappa(k, window), assoc.any(axis=1)
                # each batched difference is within 2 * SCREEN_MARGIN of the
                # exact one, so the exact rule agrees with any verdict both share
                loose = _favorable(trial, scores.kappa, k, served, 2 * SCREEN_MARGIN)
                sure = _favorable(trial, scores.kappa, k, served, -2 * SCREEN_MARGIN)
                for i in np.flatnonzero(loose).tolist():
                    m = window[i]
                    if (k in state.ap_prefs[m][:state.ap_quota[m]]
                            and (sure[i] or is_favorable_pair(m, k, state, assoc, ctx,
                                                              demands, scores.exact()))):
                        associate(k, m, state, assoc)
                        scores.commit(m)
                        committed = True
                        tested = i + 1
                        break
            tests += tested
        counters.favorable_tests += tests
        counters.tests_per_round.append(tests)
        if not committed:
            break


def ea_m2m(ctx: EvalContext, demands, config: ScenarioConfig) -> tuple[np.ndarray, GameCounters]:
    """Full game: preference build, initial association, cluster evolution.

    The game never removes an association, so association_ops is the
    final matching's association count.
    """
    state = build_preferences(ctx.channels.gains, config)
    assoc = ea_initial_association(state)
    counters = GameCounters()
    cluster_evolution(state, assoc, ctx, demands, config, counters)
    counters.association_ops = int(np.count_nonzero(assoc))
    return assoc, counters
