"""Beamforming, power sharing and per-UE quality evaluation.

A Matching is the boolean (K, M) matrix of which AP serves which UE.
Given a matching and a channel realization, the network is scored UE
by UE: regularized matched-filter beams, equal sharing of each AP's
power budget over its load, coherent combining of serving APs, and the
resulting SINR, rate and satisfaction ratio against the UE's demand.

EvalContext caches all pairwise channel inner products once per
realization, one Gram matrix per AP from batched BLAS matmuls; its
amplitudes reads only the APs a matching uses while clusters are
small, and its evaluate_assoc scores any matching with a few
vectorized operations.  The association algorithms probe many
candidate matchings through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, ScenarioConfig

# Batched scores (kappa of a trade or an add, min spectral efficiency of
# a drop) agree with evaluate_assoc within 1e-12, so a screen this much
# looser than an exact rule never decides a candidate the other way.  A
# candidate that clears the rule by more than this is decided by the
# screen alone (ea's favorable test, gca's drops); the exact evaluator
# decides only near ties.
SCREEN_MARGIN = 1e-9

# APs whose Gram matrices one batched matmul writes into the cache:
# bounds the conjugated channel block to a few APs instead of all M.
AP_BLOCK = 4


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

    sinr, rate, kappa: (K,) float; kappa is min(1, rate / demand) and is
    0 for UEs with an empty cluster.
    """

    sinr: np.ndarray
    rate: np.ndarray
    kappa: np.ndarray


class EvalContext:
    """Pairwise channel products cached for one realization.

    cross[m] is the Gram matrix H_m^H H_m of AP m's (N, K) channel
    block, cross[m, k, j] = h_{k,m}^H h_{j,m}; AP_BLOCK slabs at a time
    come from one batched matmul (zgemm) written straight into the
    (M, K, K) cache.  With the regularized matched filter every per-UE
    amplitude is a weighted sum of these slabs over the UE's serving
    APs (amplitudes), so a candidate association matrix is scored in a
    couple of dense ops.  norm2[k, m] is the real diagonal cross[m, k, k].
    """

    def __init__(self, channels: ChannelRealization, config: ScenarioConfig):
        h = channels.vectors
        num_ues = h.shape[0]
        self.channels = channels
        # uninitialized: the block loop below writes every AP's slab
        self.cross = np.empty((h.shape[1], num_ues, num_ues), dtype=complex)
        for i in range(0, h.shape[1], AP_BLOCK):
            block = h[:, i:i + AP_BLOCK].swapaxes(0, 1)  # (B, K, N)
            np.matmul(block.conj(), block.swapaxes(1, 2), out=self.cross[i:i + AP_BLOCK])
        ues = np.arange(num_ues)
        self.norm2 = self.cross[:, ues, ues].real.T.copy()
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
        if assoc.shape != self.norm2.shape:
            raise ValueError(f"assoc has shape {assoc.shape}, expected {self.norm2.shape}")
        # w[j, m] = sqrt(P_{j,m}) / (||h_{j,m}||^2 + noise), zero where inactive
        w = assoc * (np.sqrt(self.power_share(assoc))[None, :] * self.inv_denom)
        sinr, rate, kappa = self.score_amplitudes(self.amplitudes(w), demands)
        return NetworkEvaluation(sinr=sinr, rate=rate, kappa=kappa)

    def amplitudes(self, w: np.ndarray) -> np.ndarray:
        """amp[k, j] = sum_m cross[m, k, j] w[j, m], added term by term in
        ascending m, so zero weights change no bit: while no UE has over M/2
        weighted APs only their slabs are read (short clusters padded with
        weight-0 APs), else the whole cache; complex weights spare a cast."""
        active = w != 0
        width = np.count_nonzero(active, axis=1).max(initial=0)
        if 2 * width > self.num_aps:
            return np.einsum("mkj,mj->kj", self.cross, w.T.astype(complex))
        aps = np.argsort(~active, axis=1, kind="stable")[:, :width].T  # (width, K)
        ues = np.arange(self.num_ues)
        return np.einsum("rjk,rj->kj", self.cross[aps, :, ues], w[ues, aps].astype(complex))

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
        return self.score_powers(signal, abs2.sum(axis=-1), demands)

    def score_powers(self, signal: np.ndarray, interference: np.ndarray, demands: np.ndarray):
        """(sinr, rate, kappa) from received signal and interference powers."""
        sinr = signal / (interference + self.noise_var)
        rate = self.bandwidth * np.log2(1.0 + sinr)
        kappa = np.minimum(1.0, rate / demands)
        return sinr, rate, kappa

