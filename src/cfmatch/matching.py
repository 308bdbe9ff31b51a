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

Every association updates both preference lists and both quotas, and a
player whose quota hits zero disappears from all lists (including its
own), so quotas can never be exceeded.

The evolution phase is delta-scored.  Adding AP m to UE k changes only
AP m's power share, so the amplitudes of the current matching are kept
up to date commit by commit, and one batched pass scores every AP in a
UE's window at O(K^2) each instead of a full O(K^2 M) evaluation.  A
decision those batched values take by more than their error (about
1e-12, against a SCREEN_MARGIN of 1e-9) stands; a near-tie is
re-checked by the exact evaluator on the trial and the current
matching, so no comparison is loosened and every outcome is that of
one exact evaluation per test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .channel import ScenarioConfig
from .evaluate import SCREEN_MARGIN, EvalContext, Matching, as_eval_context


@dataclass
class PreferenceState:
    """Mutable preference lists, remaining quotas and request pointers.

    ue_prefs[k]: AP indices still acceptable to UE k, best first.
    ap_prefs[m]: UE indices still acceptable to AP m, best first.
    ue_quota[k] / ap_quota[m]: remaining association budget.
    pointer[k]: how many requests UE k has already sent (initial phase).
    """

    ue_prefs: list[list[int]]
    ap_prefs: list[list[int]]
    ue_quota: list[int]
    ap_quota: list[int]
    pointer: list[int]


@dataclass
class UEPartition:
    """Disjoint UE sets tracked across the game.

    rejected:     still requesting in the initial phase.
    associated:   have a cluster but unsettled satisfaction.
    unassociated: ran out of options with an empty cluster.
    satisfied:    reached the satisfaction threshold.
    unsatisfied:  settled below the threshold.
    """

    rejected: set[int] = field(default_factory=set)
    associated: set[int] = field(default_factory=set)
    unassociated: set[int] = field(default_factory=set)
    satisfied: set[int] = field(default_factory=set)
    unsatisfied: set[int] = field(default_factory=set)

    def sets(self) -> tuple[set[int], ...]:
        return (self.rejected, self.associated, self.unassociated,
                self.satisfied, self.unsatisfied)


@dataclass
class GameCounters:
    """Operation counts for complexity tracking.

    favorable_tests: favorable-pair evaluations in the evolution phase.
    tests_per_round: favorable_tests split by evolution round.
    association_ops: list/quota updates applied (one per association).
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
                           ap_quota=[config.ap_quota] * num_aps,
                           pointer=[0] * num_ues)


def associate(k: int, m: int, state: PreferenceState, matching: Matching,
              counters: GameCounters | None = None) -> None:
    """Associate UE k with AP m and update lists and quotas.

    Requires positive remaining quota on both sides and no existing
    association; violating that is a caller bug.  When a quota hits
    zero the saturated player is dropped from every list on the other
    side and its own list is cleared, keeping list membership mutual.
    """
    if state.ue_quota[k] <= 0 or state.ap_quota[m] <= 0:
        raise ValueError(f"associate({k}, {m}) with exhausted quota")
    if matching.assoc[k, m]:
        raise ValueError(f"associate({k}, {m}) repeated")
    matching.add(k, m)
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
    if counters is not None:
        counters.association_ops += 1


def _acceptance_possible(state: PreferenceState, rejected: set[int]) -> bool:
    """True while some requesting UE sits in the remaining-quota window
    of some AP's list."""
    for m, prefs in enumerate(state.ap_prefs):
        q = state.ap_quota[m]
        if q > 0 and any(k in rejected for k in prefs[:q]):
            return True
    return False


def ea_initial_association(state: PreferenceState, config: ScenarioConfig,
                           counters: GameCounters | None = None,
                           trace: list | None = None
                           ) -> tuple[Matching, UEPartition, PreferenceState]:
    """Build every UE's first cluster by early acceptance.

    Rounds run while some requesting UE is still acceptable somewhere.
    In a round each requesting UE (ascending index) asks the AP at its
    request pointer, clamped to the end of its shrunken list; the AP
    accepts immediately iff the UE ranks inside its remaining-quota
    window, otherwise the pointer advances.  UEs still unassociated when
    the rounds stop are force-associated to the first AP left on their
    list, or declared unassociated if none is left.
    """
    num_ues = len(state.ue_prefs)
    num_aps = len(state.ap_prefs)
    matching = Matching.empty(num_ues, num_aps)
    partition = UEPartition(rejected=set(range(num_ues)))
    rejected = partition.rejected

    while rejected and _acceptance_possible(state, rejected):
        accepted_any = False
        advanced_any = False
        for k in sorted(rejected):
            prefs = state.ue_prefs[k]
            if not prefs:
                continue
            fresh = state.pointer[k] < len(prefs)
            m = prefs[min(state.pointer[k], len(prefs) - 1)]
            if k in state.ap_prefs[m][:state.ap_quota[m]]:
                associate(k, m, state, matching, counters)
                rejected.discard(k)
                partition.associated.add(k)
                accepted_any = True
                if trace is not None:
                    trace.append(("init", k, m))
            else:
                state.pointer[k] += 1
                advanced_any = advanced_any or fresh
        if not accepted_any and not advanced_any:
            break

    # Forced association: whoever is still waiting takes the best AP
    # left on their list, regardless of the AP's own ranking.
    for k in sorted(rejected):
        prefs = state.ue_prefs[k]
        if prefs:
            m = prefs[0]
            associate(k, m, state, matching, counters)
            partition.associated.add(k)
            if trace is not None:
                trace.append(("init", k, m))
        else:
            partition.unassociated.add(k)
    rejected.clear()
    return matching, partition, state


def is_favorable_pair(m: int, k: int, state: PreferenceState, matching: Matching,
                      channels, demands, config: ScenarioConfig,
                      counters: GameCounters,
                      current_eval=None, batched=None) -> bool:
    """Test whether adding AP m to UE k's cluster is worth committing.

    Requires: k inside the remaining-quota window of m's list, k's own
    satisfaction strictly improves, and the summed satisfaction of all
    currently served UEs does not drop.

    batched, if given, is (trial kappa, current kappa, saturated):
    kappa values each within SCREEN_MARGIN of the exact ones, and
    whether k's exact current kappa is surely 1.  A saturated k cannot
    strictly improve, since kappa is clamped at 1, so the test fails
    outright; otherwise the rule is applied to the batched values when
    they clear it by more than their error, and the exact evaluator
    decides the rest.  current_eval is the current matching's exact
    evaluation, or a function returning it, called only if needed.
    """
    counters.favorable_tests += 1
    if k not in state.ap_prefs[m][:state.ap_quota[m]]:
        return False
    served = matching.assoc.any(axis=1)
    if batched is not None:
        trial_kappa, current_kappa, saturated = batched
        if saturated:
            return False
        if _clear_of_ties(trial_kappa, current_kappa, k, served):
            return _favorable(trial_kappa, current_kappa, k, served)
    ctx = as_eval_context(channels, config)
    demands = np.asarray(demands, dtype=float)
    if current_eval is None:
        current_eval = ctx.evaluate_assoc(matching.assoc, demands)
    elif callable(current_eval):
        current_eval = current_eval()
    trial = matching.assoc.copy()
    trial[k, m] = True
    return _favorable(ctx.evaluate_assoc(trial, demands).kappa, current_eval.kappa,
                      k, served)


def _favorable(trial, current, k, served) -> bool:
    """The favorable-pair rule on the kappa of the trial and the current
    matching: k strictly improves and the served sum does not drop."""
    return bool(trial[k] > current[k]
                and float(trial[served].sum()) >= float(current[served].sum()))


def _clear_of_ties(trial, current, k, served) -> bool:
    """True when kappa values each within SCREEN_MARGIN of the exact
    ones must give _favorable the exact values' answer: each comparison
    it needs clears its threshold by more than the summed error."""
    gain = trial[k] - current[k]
    change = float(trial[served].sum()) - float(current[served].sum())
    band = 2 * SCREEN_MARGIN
    sum_band = trial.size * band
    return gain < -band or change < -sum_band or (gain > band and change > sum_band)


class _GrowingScores:
    """Batched kappa of a matching that grows one association at a time.

    Holds evaluate_assoc's beam weights w[j, m] and amplitudes amp[k, j]
    (what UE j's beams deliver at UE k) for the current matching.  An
    add of (k, m) changes only AP m's power share, so only the columns
    of amp for AP m's load, k included, move, each by one cross term.
    The current kappa and the kappa after any candidate add then cost
    O(K^2) each instead of evaluate_assoc's O(K^2 M), and agree with it
    within 1e-12.  saturated marks the UEs whose exact kappa is surely
    1.  exact() is evaluate_assoc of the current matching, computed at
    most once per matching.
    """

    def __init__(self, ctx: EvalContext, matching: Matching, demands: np.ndarray):
        self.ctx = ctx
        self.matching = matching
        self.demands = demands
        assoc = matching.assoc
        self.w = assoc * (np.sqrt(ctx.power_share(assoc))[None, :] * ctx.inv_denom)
        self.amp = np.einsum("kjm,jm->kj", ctx.cross, self.w)
        self._rescore()

    def _rescore(self) -> None:
        _, rate, self.kappa = self.ctx.score_amplitudes(self.amp, self.demands)
        # rate this far above demand is above it exactly too: kappa is 1
        self.saturated = rate > self.demands * (1.0 + SCREEN_MARGIN)
        self._exact = None

    def exact(self):
        if self._exact is None:
            self._exact = self.ctx.evaluate_assoc(self.matching.assoc, self.demands)
        return self._exact

    def add_kappa(self, k: int, aps: list[int]) -> np.ndarray:
        """(len(aps), K) kappa after adding each AP of aps alone to k."""
        trial_amp = np.repeat(self.amp[None], len(aps), axis=0)
        for amp, m in zip(trial_amp, aps):
            load = np.append(np.flatnonzero(self.matching.assoc[:, m]), k)
            amp[:, load] += self._delta(m, load)[1]
        return self.ctx.score_amplitudes(trial_amp, self.demands)[2]

    def commit(self, m: int) -> None:
        """Follow an add to AP m already applied to the matching."""
        load = np.flatnonzero(self.matching.assoc[:, m])
        w_m, delta = self._delta(m, load)
        self.amp[:, load] += delta
        self.w[load, m] = w_m
        self._rescore()

    def _delta(self, m: int, load: np.ndarray):
        """AP m's beam weights when it serves exactly load, and the
        change they make to the amplitude columns of load."""
        ctx = self.ctx
        w_m = np.sqrt(ctx.max_power / load.size) * ctx.inv_denom[load, m]
        return w_m, ctx.cross[:, load, m] * (w_m - self.w[load, m])


def cluster_evolution(state: PreferenceState, matching: Matching,
                      partition: UEPartition, channels, demands,
                      config: ScenarioConfig, counters: GameCounters,
                      trace: list | None = None) -> tuple[Matching, UEPartition]:
    """Grow clusters of unsettled UEs until no favorable pair remains.

    Each round first settles UEs that reached the threshold (satisfied)
    or ran out of candidates (unsatisfied), then lets every remaining UE
    scan the first min(remaining quota, list length) APs on its list and
    commit the first favorable one.  The loop stops after a full round
    without a commit; whoever is still unsettled ends up unsatisfied.

    Every decision is taken on batched kappa kept up to date commit by
    commit; one that falls within their error of its threshold is
    taken on exact evaluate_assoc values instead.  A UE that reached
    kappa 1 during a round fails its window tests without either.
    """
    ctx = as_eval_context(channels, config)
    demands = np.asarray(demands, dtype=float)
    active = partition.associated
    scores = _GrowingScores(ctx, matching, demands)
    threshold = config.satisfaction_threshold

    while active:
        tests_at_start = counters.favorable_tests
        for k in sorted(active):
            kappa = scores.kappa[k]
            # a saturated UE sits at exactly kappa 1, at or above any threshold
            if abs(kappa - threshold) <= SCREEN_MARGIN and not scores.saturated[k]:
                kappa = scores.exact().kappa[k]
            if kappa >= threshold:
                active.discard(k)
                partition.satisfied.add(k)
            elif not state.ue_prefs[k]:
                active.discard(k)
                partition.unsatisfied.add(k)
        committed = False
        for k in sorted(active):
            window = state.ue_prefs[k][:state.ue_quota[k]]
            if not window:
                continue
            for m, kappa in zip(window, scores.add_kappa(k, window)):
                if is_favorable_pair(m, k, state, matching, ctx, demands, config,
                                     counters, current_eval=scores.exact,
                                     batched=(kappa, scores.kappa,
                                              scores.saturated[k])):
                    associate(k, m, state, matching, counters)
                    scores.commit(m)
                    committed = True
                    if trace is not None:
                        trace.append(("evolve", k, m))
                    break
        counters.tests_per_round.append(counters.favorable_tests - tests_at_start)
        if not committed:
            break

    for k in sorted(active):
        partition.unsatisfied.add(k)
    active.clear()
    return matching, partition


def ea_m2m(channels, demands, config: ScenarioConfig,
           trace: list | None = None) -> tuple[Matching, UEPartition, GameCounters]:
    """Full game: preference build, initial association, cluster evolution."""
    ctx = as_eval_context(channels, config)
    state = build_preferences(ctx.channels.gains, config)
    counters = GameCounters()
    matching, partition, state = ea_initial_association(state, config, counters,
                                                        trace=trace)
    matching, partition = cluster_evolution(state, matching, partition, ctx,
                                            demands, config, counters, trace=trace)
    return matching, partition, counters
