"""Beamforming, power sharing and per-UE quality evaluation.

A Matching is the boolean (K, M) matrix of which AP serves which UE.
Given a matching and a channel realization, the network is scored UE
by UE: regularized matched-filter beams, equal sharing of each AP's
power budget over its load, coherent combining of serving APs, and the
resulting SINR, rate and satisfaction ratio against the UE's demand.

EvalContext computes the pairwise channel products of a realization,
all at once in a scene of at most 1 MB of them, else column by column
on first use, kept for the realization, so memory follows the clusters
rather than K^2 M; its evaluate_assoc scores any matching with a few
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
    """Pairwise channel products of one realization, computed as read.

    Column (m, j) is cross[m, k, j] = h_{k,m}^H h_{j,m} over k (columns).  A
    scene of at most 1 MB of columns computes them all at once, one zgemm
    per AP; a larger one computes each on first read by one (K, N) @ (N, 1)
    product, so its bits depend on h[:, m] and h[j, m] alone, and keeps it
    for the realization.  Each amplitude is a weighted sum of columns over
    the UE's serving APs (amplitudes), so memory follows the clusters, not
    K^2 M.  norm2[k, m] = ||h_{k,m}||^2."""

    def __init__(self, channels: ChannelRealization, config: ScenarioConfig):
        self.channels = channels
        self._h = np.ascontiguousarray(channels.vectors)
        self.norm2 = np.einsum("kmn,kmn->km", self._h.view(float), self._h.view(float))
        self.inv_denom = 1.0 / (self.norm2 + config.noise_var)
        self.noise_var = config.noise_var
        self.max_power = config.max_power
        self.bandwidth = config.bandwidth
        self.num_ues, self.num_aps = self.norm2.shape
        # _row[m, j]: _store row of column (m, j), -1 until computed; AP -1
        # reads row 0, a zero column.  A large scene starts with room for
        # full-quota clusters.
        self._row = np.full((self.num_aps + 1, self.num_ues), -1)
        self._row[-1] = 0
        every = self.num_aps * self.num_ues
        self._small = 16 * every * self.num_ues <= 2 ** 20
        room = every if self._small else self.num_ues * min(config.ue_quota, self.num_aps)
        self._store = np.zeros((room + 1, self.num_ues), dtype=complex)
        self._rows = 1
        if self._small:  # row 1 + m K + j is row j of H_m H_m^H, H_m = h[:, m]
            np.matmul(self._h.transpose(1, 0, 2), self._h.conj().transpose(1, 2, 0),
                      out=self._store[1:].reshape(self.num_aps, self.num_ues, -1))
            self._row[:-1] = np.arange(1, every + 1).reshape(self.num_aps, -1)
            self._rows += every

    def columns(self, aps, ues, out=None) -> np.ndarray:
        """cross[aps, :, ues], (..., K), for index arrays, into out if given;
        AP -1 reads a zero column.  Each missing column is computed once."""
        at = self._row[aps, ues]
        if self._rows <= self.num_aps * self.num_ues and not (at >= 0).all():
            self._fill(np.unique(np.ravel(np.multiply(aps, self.num_ues) + ues)[np.ravel(at) < 0]))
            at = self._row[aps, ues]
        return np.take(self._store, at, axis=0, out=out, mode="clip")

    def _fill(self, pairs):
        """Compute new columns m K + j, ascending, AP by AP: the AP's block
        broadcast over its new columns."""
        start, self._rows = self._rows, self._rows + pairs.size
        if self._rows > len(self._store):
            store = np.empty((max(self._rows, len(self._store) * 3 // 2), self.num_ues), complex)
            store[:start] = self._store[:start]
            self._store = store
        self._row.flat[pairs] = np.arange(start, self._rows)
        new_aps, new_ues = np.divmod(pairs, self.num_ues)
        # conj(column) = H_m @ conj(h_{j,m}), one (K, N) @ (N, 1) product each
        h_j, new = self._h[new_ues, new_aps, :, None].conj(), self._store[start:self._rows, :, None]
        cuts = [0, *(np.flatnonzero(np.diff(new_aps)) + 1).tolist(), pairs.size]
        for a, b in zip(cuts, cuts[1:]):
            np.matmul(self._h[:, new_aps[a]], h_j[a:b], out=new[a:b])
        np.conjugate(new, out=new)

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
        """amp[k, j] = sum_m cross[m, k, j] w[j, m]: UE j's columns added in
        ascending m (short clusters padded with the zero column) while no UE
        has over M/2 weighted APs; else one product per UE over every column
        in a scene of at most 1 MB of them, or conj(H @ conj(H * w)^T) over
        the flat (K, M N) channels, a UE block of about 256 KB at a time."""
        widest = np.count_nonzero(w, axis=1).max(initial=0)
        if 2 * widest > self.num_aps and self._small:  # [j, k, m] = cross[m, k, j]
            cross = self._store[1:].reshape(self.num_aps, self.num_ues, -1).transpose(1, 2, 0)
            return np.matmul(cross, w[:, :, None].astype(complex))[..., 0].T.copy()
        if 2 * widest > self.num_aps:
            h, amp = self._h.reshape(self.num_ues, -1), np.empty((self.num_ues,) * 2, complex)
            step = 2 ** 14 // h.shape[1] + 1
            for j in range(0, self.num_ues, step):
                x = self._h[j:j + step] * w[j:j + step, :, None]
                amp[:, j:j + step] = h @ np.conjugate(x, out=x).reshape(len(x), -1).T
            return np.conjugate(amp, out=amp)
        ues, aps = np.nonzero(w)
        table = np.full((widest, self.num_ues), -1)  # UE j's r-th AP
        table[np.arange(ues.size) - np.searchsorted(ues, ues), ues] = aps
        ues = np.arange(self.num_ues)
        return np.einsum("rjk,rj->kj", self.columns(table, ues), w[ues, table].astype(complex))

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

