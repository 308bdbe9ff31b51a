"""Beamforming, power sharing and per-UE quality evaluation.

A Matching is the boolean (K, M) matrix of which AP serves which UE.
Given a matching and a channel realization, the network is scored UE
by UE: regularized matched-filter beams, equal sharing of each AP's
power budget over its load, coherent combining of serving APs, and the
resulting SINR, rate and satisfaction ratio against the UE's demand.

EvalContext caches all pairwise channel inner products once per
realization, and its evaluate_assoc scores any matching with a few
vectorized operations; the association algorithms probe many candidate
matchings through it.
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
    """UE-AP association pattern: assoc[k, m] is True iff AP m serves UE k."""

    assoc: np.ndarray

    @classmethod
    def empty(cls, num_ues: int, num_aps: int) -> "Matching":
        return cls(assoc=np.zeros((num_ues, num_aps), dtype=bool))

    @classmethod
    def from_assoc(cls, assoc: np.ndarray) -> "Matching":
        return cls(assoc=np.asarray(assoc, dtype=bool))

    def association_count(self) -> int:
        return int(np.count_nonzero(self.assoc))

    def quota_violation(self, ap_quota: int, ue_quota: int) -> bool:
        """True if any AP load exceeds ap_quota or any cluster exceeds ue_quota."""
        return bool((self.assoc.sum(axis=0) > ap_quota).any()
                    or (self.assoc.sum(axis=1) > ue_quota).any())


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
