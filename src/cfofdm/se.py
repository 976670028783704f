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
    """Running sums of the four UatF SINR terms per (row, UE, symbol).

    A row is one (estimator, scheme) pair.  For UE k, ``gain`` sums
    v_k^H D_k h_k, ``received`` sum_i p_i |v_k^H D_k h_i|^2, ``ici``
    sum_l |D_k v_k|_l^2 lambda_l and ``vnorm`` ||D_k v_k||^2.  Sums (not means)
    merge associatively and deterministically; ``finalize_sinr`` divides by
    the trial count.
    """

    def __init__(self, n_rows: int, n_ues: int, n_symbols: int):
        self.count = 0
        self.gain = np.zeros((n_rows, n_ues, n_symbols), dtype=complex)
        self.received = np.zeros((n_rows, n_ues, n_symbols))
        self.ici = np.zeros((n_rows, n_ues, n_symbols))
        self.vnorm = np.zeros((n_rows, n_ues, n_symbols))

    def add_symbol(self, rows, v: np.ndarray, h_eff: np.ndarray,
                   lam: np.ndarray, network: NetworkRealization) -> None:
        """Accumulate one trial's terms of some rows for all UEs and symbols.

        v is (tau_c, K, L), the combining vectors of every symbol, for one row
        index ``rows``; or (n, tau_c, K, L) for a slice ``rows`` of n rows,
        such as the strided slice of one scheme across several estimators.
        h_eff is (K, L, tau_c), the effective channels; lam is the (L,) ICI
        power.
        """
        vm = np.conj(v) * network.D
        m = vm @ np.transpose(h_eff, (2, 1, 0))  # m[..., t, k, i] = v_tk^H D_k h_i(t)
        self.gain[rows] += np.swapaxes(np.diagonal(m, axis1=-2, axis2=-1), -1, -2)
        self.received[rows] += np.swapaxes(np.abs(m) ** 2 @ network.p, -1, -2)
        w = np.abs(vm) ** 2  # |D_k v_tk|^2 per AP
        self.ici[rows] += np.swapaxes(w @ lam, -1, -2)
        self.vnorm[rows] += np.swapaxes(w.sum(axis=-1), -1, -2)

    def bump(self) -> None:
        """Mark one full trial as accumulated."""
        self.count += 1

    def merge(self, other: "SinrAccumulator") -> None:
        self.count += other.count
        self.gain += other.gain
        self.received += other.received
        self.ici += other.ici
        self.vnorm += other.vnorm


def finalize_sinr(acc: SinrAccumulator, network: NetworkRealization) -> np.ndarray:
    """Effective UatF SINR of every row, UE and symbol: (rows, K, tau_c).

    A record is NaN (invalid) where Monte Carlo noise drives the variance term
    to zero or below; zero-combiner records finalize to SINR 0.
    """
    n = acc.count
    num = network.p[:, None] * np.abs(acc.gain / n) ** 2
    den = (acc.received + acc.ici + network.sigma2 * acc.vnorm) / n - num
    sinr = np.divide(num, den, out=np.full_like(num, np.nan), where=den > 0.0)
    sinr[num == 0.0] = 0.0
    return sinr


def se_from_sinr(sinr: np.ndarray) -> np.ndarray:
    """UE-averaged SE of the block and of every symbol from SINR records.

    ``sinr`` is (..., K, tau_c) and the SE (..., 1 + tau_c): entry 0 is the
    per-block SE and entry tau that of symbol tau.  Invalid (NaN) records are
    left out of every average; an entry with no valid record behind it is NaN.
    """
    valid = ~np.isnan(sinr)
    rate = np.log2(1.0 + np.where(valid, sinr, 0.0))
    per_tau = _mean_of_valid(rate.sum(axis=-2), valid.sum(axis=-2))
    per_ue = _mean_of_valid(rate.sum(axis=-1), valid.sum(axis=-1))
    has_valid = valid.any(axis=-1)
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
