"""Beamforming, power sharing and per-UE quality evaluation.

A Matching holds which AP serves which UE in three mutually consistent
views (a boolean matrix plus per-UE and per-AP lists).  Given a matching
and a channel realization, the network is scored UE by UE: regularized
matched-filter beams, equal sharing of each AP's power budget over its
load, coherent combining of serving APs, and the resulting SINR, rate
and satisfaction ratio against the UE's demand.

received_power / interference_power are the transparent per-UE forms.
EvalContext caches all pairwise channel inner products once per
realization so that the many candidate matchings probed by the
association algorithms can be scored with a few vectorized operations;
both routes compute the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import mmap

import numpy as np

from .channel import ChannelRealization, ScenarioConfig

# Batched scores (kappa of a trade or an add, min spectral efficiency of
# a drop) agree with evaluate_assoc within 1e-12, so a screen this much
# looser than an exact rule never decides a candidate the other way.
SCREEN_MARGIN = 1e-9

# UE rows of cross that one einsum writes straight into the cache: bounds
# the conjugated copy of the channels to this many rows instead of all K.
CROSS_BLOCK = 16


@dataclass
class Matching:
    """UE-AP association pattern.

    assoc:       (K, M) bool, assoc[k, m] is True iff AP m serves UE k.
    ue_clusters: per-UE list of serving AP indices.
    ap_loads:    per-AP list of served UE indices.
    The three views are kept consistent by add/remove.
    """

    assoc: np.ndarray
    ue_clusters: list[list[int]]
    ap_loads: list[list[int]]

    @classmethod
    def empty(cls, num_ues: int, num_aps: int) -> "Matching":
        return cls(assoc=np.zeros((num_ues, num_aps), dtype=bool),
                   ue_clusters=[[] for _ in range(num_ues)],
                   ap_loads=[[] for _ in range(num_aps)])

    @classmethod
    def from_assoc(cls, assoc: np.ndarray) -> "Matching":
        assoc = np.asarray(assoc, dtype=bool)
        ue_clusters = [[int(m) for m in np.flatnonzero(assoc[k])]
                       for k in range(assoc.shape[0])]
        ap_loads = [[int(k) for k in np.flatnonzero(assoc[:, m])]
                    for m in range(assoc.shape[1])]
        return cls(assoc=assoc, ue_clusters=ue_clusters, ap_loads=ap_loads)

    def copy(self) -> "Matching":
        return Matching(assoc=self.assoc.copy(),
                        ue_clusters=[list(c) for c in self.ue_clusters],
                        ap_loads=[list(l) for l in self.ap_loads])

    def add(self, k: int, m: int) -> None:
        if self.assoc[k, m]:
            raise ValueError(f"UE {k} and AP {m} are already associated")
        self.assoc[k, m] = True
        self.ue_clusters[k].append(m)
        self.ap_loads[m].append(k)

    def remove(self, k: int, m: int) -> None:
        if not self.assoc[k, m]:
            raise ValueError(f"UE {k} and AP {m} are not associated")
        self.assoc[k, m] = False
        self.ue_clusters[k].remove(m)
        self.ap_loads[m].remove(k)

    def association_count(self) -> int:
        return int(np.count_nonzero(self.assoc))

    def quota_violation(self, ap_quota: int, ue_quota: int) -> bool:
        """True if any AP load exceeds ap_quota or any cluster exceeds ue_quota."""
        return (any(len(l) > ap_quota for l in self.ap_loads)
                or any(len(c) > ue_quota for c in self.ue_clusters))

    def check_consistent(self) -> None:
        """Raise ValueError if the three views disagree."""
        for k, cluster in enumerate(self.ue_clusters):
            if len(set(cluster)) != len(cluster):
                raise ValueError(f"duplicate APs in cluster of UE {k}")
            if set(cluster) != set(int(m) for m in np.flatnonzero(self.assoc[k])):
                raise ValueError(f"cluster of UE {k} disagrees with matrix")
        for m, load in enumerate(self.ap_loads):
            if len(set(load)) != len(load):
                raise ValueError(f"duplicate UEs in load of AP {m}")
            if set(load) != set(int(k) for k in np.flatnonzero(self.assoc[:, m])):
                raise ValueError(f"load of AP {m} disagrees with matrix")


@dataclass
class NetworkEvaluation:
    """Per-UE scores for one matching on one realization.

    power: (K, M) float, transmit power AP m spends on UE k.
    sinr, rate, kappa: (K,) float; kappa is min(1, rate / demand) and is
    0 for UEs with an empty cluster.
    """

    power: np.ndarray
    sinr: np.ndarray
    rate: np.ndarray
    kappa: np.ndarray


def lmmse_beamformer(h: np.ndarray, noise_var: float) -> np.ndarray:
    """Regularized matched filter v = h / (||h||^2 + noise_var).

    No unit normalization: the scaling is part of the beamformer.
    """
    h = np.asarray(h, dtype=complex)
    return h / (float(np.real(np.vdot(h, h))) + noise_var)


def equal_power_allocation(matching: Matching, max_power: float) -> np.ndarray:
    """(K, M) power matrix: each AP splits its budget equally over its load.

    Unloaded APs transmit nothing; every loaded AP spends exactly
    max_power in total.
    """
    loads = np.array([len(l) for l in matching.ap_loads], dtype=float)
    share = np.zeros_like(loads)
    np.divide(max_power, loads, out=share, where=loads > 0)
    return matching.assoc * share[None, :]


def compute_beamformers(channels: ChannelRealization, matching: Matching,
                        noise_var: float) -> dict[tuple[int, int], np.ndarray]:
    """Beamformers for every active (UE, AP) pair of the matching."""
    beams = {}
    for k, cluster in enumerate(matching.ue_clusters):
        for m in cluster:
            beams[(k, m)] = lmmse_beamformer(channels.vectors[k, m], noise_var)
    return beams


def received_power(k: int, matching: Matching, channels: ChannelRealization,
                   powers: np.ndarray, beams: dict[tuple[int, int], np.ndarray]) -> float:
    """Coherent useful power at UE k: |sum over serving APs of
    sqrt(P) h^H v|^2."""
    amp = 0.0 + 0.0j
    for m in matching.ue_clusters[k]:
        amp += np.sqrt(powers[k, m]) * np.vdot(channels.vectors[k, m], beams[(k, m)])
    return float(np.abs(amp) ** 2)


def interference_power(k: int, matching: Matching, channels: ChannelRealization,
                       powers: np.ndarray,
                       beams: dict[tuple[int, int], np.ndarray]) -> float:
    """Interference at UE k: sum over other UEs j of the coherent power
    their serving beams leak through k's channel."""
    total = 0.0
    for j in range(len(matching.ue_clusters)):
        if j == k:
            continue
        amp = 0.0 + 0.0j
        for m in matching.ue_clusters[j]:
            amp += np.sqrt(powers[j, m]) * np.vdot(channels.vectors[k, m], beams[(j, m)])
        total += float(np.abs(amp) ** 2)
    return total


class EvalContext:
    """Pairwise channel products cached for one realization.

    cross[k, j, m] = h_{k,m}^H h_{j,m}; with the regularized matched
    filter every per-UE amplitude is a weighted row sum of cross, so a
    candidate association matrix is scored in a couple of dense ops.
    """

    def __init__(self, channels: ChannelRealization, config: ScenarioConfig):
        h = channels.vectors
        num_ues = h.shape[0]
        self.channels = channels
        shape = (num_ues, num_ues, h.shape[1])
        self.cross = np.frombuffer(_own_mapping(16 * math.prod(shape)),
                                   dtype=complex).reshape(shape)
        for i in range(0, num_ues, CROSS_BLOCK):
            np.einsum("kmn,jmn->kjm", h[i:i + CROSS_BLOCK].conj(), h,
                      out=self.cross[i:i + CROSS_BLOCK])
        ues = np.arange(num_ues)
        self.norm2 = self.cross[ues, ues].real.copy()
        self.inv_denom = 1.0 / (self.norm2 + config.noise_var)
        self.noise_var = config.noise_var
        self.max_power = config.max_power
        self.bandwidth = config.bandwidth
        self.num_ues, self.num_aps = self.norm2.shape

    def power_share(self, assoc: np.ndarray) -> np.ndarray:
        """(M,) power each AP spends per served UE; 0 for unloaded APs."""
        loads = assoc.sum(axis=0)
        share = np.zeros(self.num_aps)
        np.divide(self.max_power, loads, out=share, where=loads > 0)
        return share

    def evaluate_assoc(self, assoc: np.ndarray, demands: np.ndarray) -> NetworkEvaluation:
        """Score one boolean association matrix against per-UE demands."""
        demands = np.asarray(demands, dtype=float)
        assoc = np.asarray(assoc, dtype=bool)
        share = self.power_share(assoc)
        power = assoc * share[None, :]
        # w[j, m] = sqrt(P_{j,m}) / (||h_{j,m}||^2 + noise), zero where inactive
        w = assoc * (np.sqrt(share)[None, :] * self.inv_denom)
        amp = np.einsum("kjm,jm->kj", self.cross, w)
        sinr, rate, kappa = self.score_amplitudes(amp, demands)
        return NetworkEvaluation(power=power, sinr=sinr, rate=rate, kappa=kappa)

    def score_amplitudes(self, amp: np.ndarray, demands: np.ndarray):
        """(sinr, rate, kappa), each (..., K), from amplitudes (..., K, K).

        amp[..., k, j] is the amplitude UE j's beams deliver at UE k;
        leading axes are a batch of independent matchings.
        """
        abs2 = np.abs(amp, order="C") ** 2
        k = abs2.shape[-1]
        # C order makes this a view: the diagonal of each K x K block
        diag = abs2.reshape(abs2.shape[:-2] + (k * k,))[..., ::k + 1]
        signal = diag.copy()
        diag[...] = 0.0
        interference = abs2.sum(axis=-1)
        sinr = signal / (interference + self.noise_var)
        rate = self.bandwidth * np.log2(1.0 + sinr)
        kappa = np.minimum(1.0, rate / demands)
        return sinr, rate, kappa


def _own_mapping(nbytes: int) -> mmap.mmap:
    """Zeroed memory of its own, unmapped when the last array over it goes.

    The cross cache is by far a step's largest array.  Taken from
    malloc's heap, its slot is easily split by small allocations that
    outlive the step, and the next step then grows the heap by a whole
    cache (+9.7 MB peak RSS at K=70, M=140), so it gets its own mapping
    instead.
    """
    if hasattr(mmap, "MAP_POPULATE"):
        # Linux: map every page in one call rather than fault them singly
        return mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
                         | mmap.MAP_POPULATE)
    return mmap.mmap(-1, nbytes)


def as_eval_context(channels, config: ScenarioConfig) -> EvalContext:
    """Pass an EvalContext through, or build one from a realization."""
    if isinstance(channels, EvalContext):
        return channels
    return EvalContext(channels, config)


def evaluate_network(matching: Matching, channels, demands,
                     config: ScenarioConfig, ctx: EvalContext | None = None) -> NetworkEvaluation:
    """Score a matching; builds (or reuses) the cached-product context."""
    if ctx is None:
        ctx = as_eval_context(channels, config)
    return ctx.evaluate_assoc(matching.assoc, demands)
