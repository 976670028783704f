"""Monte Carlo evaluation of the use-and-then-forget SINR and spectral efficiency,
including the deterministic inter-carrier-interference power term."""

from __future__ import annotations

import numpy as np

from .network import NetworkRealization, SimulationLayout
from .phase_noise import KernelGrid


def lambda_ici(network: NetworkRealization, table: KernelGrid) -> np.ndarray:
    """Per-AP ICI power lambda_l = (1 - B_{0,0}^{(0)}) sum_i p_i beta_{i,l}, (L,).

    Independent of subcarrier and OFDM symbol; zero without phase noise.
    """
    return (1.0 - table.cpe(0)) * (network.p @ network.beta)


class SinrAccumulator:
    """Running sums of the four UatF SINR terms per (..., symbol, UE).

    The leading axes index the result rows, (estimator, scheme) in a trial,
    after the trial axis in a stack of trials.
    For UE k, ``gain`` sums v_k^H D_k h_k, ``received`` sum_i p_i
    |v_k^H D_k h_i|^2, ``ici`` sum_l |D_k v_k|_l^2 lambda_l and ``vnorm``
    ||D_k v_k||^2.  Sums (not means) merge associatively and
    deterministically; ``finalize_sinr`` divides by the trial count.
    """

    def __init__(self, shape):
        self.count = 0
        self.gain = np.zeros(shape, dtype=complex)
        self.received = np.zeros(shape)
        self.ici = np.zeros(shape)
        self.vnorm = np.zeros(shape)

    def add_symbol(self, index, v: np.ndarray, h_eff: np.ndarray,
                   lam: np.ndarray, network: NetworkRealization) -> None:
        """Accumulate one trial's terms of some rows for all UEs and symbols.

        ``index`` selects rows by their leading axes, such as ``(e, s)`` or
        ``(slice(None), e, s)``; v holds their combining vectors,
        (..., T, K, L) to match.  h_eff holds the effective channels,
        (..., T, K, L) broadcasting against v: (T, K, L) for one trial,
        (B, T, K, L) for a stack of B trials.  T is the rows' symbol count;
        a one-symbol v, an estimator's that assumes no phase noise, stands
        for every symbol and broadcasts against h_eff.  lam is the (L,) ICI
        power.
        """
        vm = np.conj(v) * network.D
        m = vm @ np.swapaxes(h_eff, -1, -2)  # m[..., t, k, i] = v_tk^H D_k h_i(t)
        self.gain[index] += np.diagonal(m, axis1=-2, axis2=-1)
        self.received[index] += np.abs(m) ** 2 @ network.p
        w = np.abs(vm) ** 2  # |D_k v_tk|^2 per AP
        self.ici[index] += w @ lam
        self.vnorm[index] += w.sum(axis=-1)

    def bump(self) -> None:
        """Mark one full trial as accumulated."""
        self.count += 1

    def merge(self, other: "SinrAccumulator", row=None) -> None:
        """Add the sums of ``other``; with ``row``, only its entry ``row`` of the
        leading axis, such as one trial of the stack ``harness.run_trial``
        accumulates, whose ``count`` is then that of each entry.  A symbol
        axis of length 1, an ideal world's, broadcasts into every symbol;
        a one-symbol estimator's rows under phase noise already hold every
        symbol, from ``add_symbol``."""
        pick = slice(None) if row is None else row
        self.count += other.count
        self.gain += other.gain[pick]
        self.received += other.received[pick]
        self.ici += other.ici[pick]
        self.vnorm += other.vnorm[pick]


def finalize_sinr(acc: SinrAccumulator, network: NetworkRealization) -> np.ndarray:
    """Effective UatF SINR of every row, symbol and UE: (..., tau_c, K).

    A record is NaN (invalid) where Monte Carlo noise drives the variance term
    to zero or below; zero-combiner records finalize to SINR 0.
    """
    n = acc.count
    num = network.p * np.abs(acc.gain / n) ** 2
    den = (acc.received + acc.ici + network.sigma2 * acc.vnorm) / n - num
    sinr = np.divide(num, den, out=np.full_like(num, np.nan), where=den > 0.0)
    sinr[num == 0.0] = 0.0
    return sinr


def se_from_sinr(sinr: np.ndarray) -> np.ndarray:
    """UE-averaged SE of the block and of every symbol from SINR records.

    ``sinr`` is (..., tau_c, K) and the SE (..., 1 + tau_c): entry 0 is the
    per-block SE and entry tau that of symbol tau.  Invalid (NaN) records are
    left out of every average; an entry with no valid record behind it is NaN.
    numpy sums the contiguous UE axis pairwise from 8 UEs on.
    """
    valid = ~np.isnan(sinr)
    rate = np.log2(1.0 + np.where(valid, sinr, 0.0))
    per_tau = _mean_of_valid(rate.sum(axis=-1), valid.sum(axis=-1))
    per_ue = _mean_of_valid(rate.sum(axis=-2), valid.sum(axis=-2))
    has_valid = valid.any(axis=-2)
    block = _mean_of_valid(np.where(has_valid, per_ue, 0.0).sum(axis=-1),
                           has_valid.sum(axis=-1))
    return np.concatenate([block[..., None], per_tau], axis=-1)


def _mean_of_valid(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    """total / count, NaN where count is 0 (without computing 0/0)."""
    return np.divide(total, count, out=np.full(total.shape, np.nan), where=count > 0)


def symbol_of_channel_use(c: int, layout: SimulationLayout) -> int:
    """1-based OFDM symbol carrying channel use c, counting frequency-first:
    tau(c) = ceil(c / N_c); the block row, c = 0, gets 0."""
    if not 0 <= c <= layout.block_subcarriers * layout.block_symbols:
        raise ValueError("channel use %d outside the coherence block" % c)
    return -(-c // layout.block_subcarriers)
