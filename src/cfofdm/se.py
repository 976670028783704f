"""Monte Carlo evaluation of the use-and-then-forget SINR and spectral efficiency,
including the deterministic inter-carrier-interference power term."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .network import NetworkRealization, SimulationLayout
from .phase_noise import KernelGrid


def lambda_ici(network: NetworkRealization, table: KernelGrid) -> np.ndarray:
    """Per-(UE, AP) ICI power lambda_{i,l} = p_i beta_{i,l} (1 - B_{0,0}^{(0)}).

    Independent of subcarrier and OFDM symbol; zero without phase noise.
    """
    return network.p[:, None] * network.beta * (1.0 - table.cpe(0))


class SinrAccumulator:
    """Running sums of every expectation in the UatF SINR, per (scheme, UE, symbol).

    Sums (not means) are stored so that accumulators merge associatively and
    deterministically; ``finalize_sinr`` divides by the trial count.
    """

    def __init__(self, n_schemes: int, n_ues: int, n_symbols: int):
        self.count = 0
        self.gain = np.zeros((n_schemes, n_ues, n_symbols), dtype=complex)
        self.cross = np.zeros((n_schemes, n_ues, n_symbols, n_ues))
        self.ici = np.zeros((n_schemes, n_ues, n_symbols, n_ues))
        self.vnorm = np.zeros((n_schemes, n_ues, n_symbols))

    def add_symbol(self, scheme_idx: int, v: np.ndarray, h_eff: np.ndarray,
                   lam: np.ndarray, D: np.ndarray) -> None:
        """Accumulate one trial's terms for all UEs and symbols of one scheme.

        v is (tau_c, K, L), the combining vectors of every symbol; h_eff is
        (K, L, tau_c), the effective channels.
        """
        vm = np.conj(v) * D
        m = vm @ np.transpose(h_eff, (2, 1, 0))  # m[t, k, i] = v_tk^H D_k h_i(t)
        self.gain[scheme_idx] += np.diagonal(m, axis1=1, axis2=2).T
        self.cross[scheme_idx] += np.swapaxes(np.abs(m) ** 2, 0, 1)
        w = np.abs(vm) ** 2  # |D_k v_tk|^2 per AP
        self.ici[scheme_idx] += np.swapaxes(w @ lam.T, 0, 1)
        self.vnorm[scheme_idx] += w.sum(axis=2).T

    def bump(self) -> None:
        """Mark one full trial as accumulated."""
        self.count += 1

    def merge(self, other: "SinrAccumulator") -> None:
        self.count += other.count
        self.gain += other.gain
        self.cross += other.cross
        self.ici += other.ici
        self.vnorm += other.vnorm


def finalize_sinr(acc: SinrAccumulator, network: NetworkRealization,
                  scheme_idx: int) -> np.ndarray:
    """Effective UatF SINR of one scheme for every UE and symbol: (K, tau_c).

    A record is NaN (invalid) where Monte Carlo noise drives the variance term
    to zero or below; zero-combiner records finalize to SINR 0.
    """
    n = acc.count
    p = network.p
    num = p[:, None] * np.abs(acc.gain[scheme_idx] / n) ** 2
    den = (
        (p * acc.cross[scheme_idx] / n).sum(axis=-1)
        - num
        + (acc.ici[scheme_idx] / n).sum(axis=-1)
        + network.sigma2 * acc.vnorm[scheme_idx] / n
    )
    sinr = np.divide(num, den, out=np.full_like(num, np.nan), where=den > 0.0)
    sinr[num == 0.0] = 0.0
    return sinr


def se_from_sinr(sinr: np.ndarray) -> Tuple[np.ndarray, float]:
    """UE-averaged per-symbol SE curve and per-block SE from SINR records.

    ``sinr`` is (K, tau_c) and the curve (tau_c,).  Invalid (NaN) records are
    left out of every average; a curve point or block with no valid record
    behind it is NaN.
    """
    valid = ~np.isnan(sinr)
    rate = np.log2(1.0 + np.where(valid, sinr, 0.0))
    per_tau = _mean_of_valid(rate.sum(axis=0), valid.sum(axis=0))
    per_ue = _mean_of_valid(rate.sum(axis=1), valid.sum(axis=1))
    has_valid = valid.any(axis=1)
    block = float(np.mean(per_ue[has_valid])) if has_valid.any() else float("nan")
    return per_tau, block


def _mean_of_valid(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    """total / count, NaN where count is 0 (without computing 0/0)."""
    return np.divide(total, count, out=np.full(total.shape, np.nan), where=count > 0)


def symbol_of_channel_use(c: int, layout: SimulationLayout) -> int:
    """1-based OFDM symbol carrying channel use c, counting frequency-first:
    tau(c) = ceil(c / N_c)."""
    if not 1 <= c <= layout.block_subcarriers * layout.block_symbols:
        raise ValueError("channel use %d outside the coherence block" % c)
    return -(-c // layout.block_subcarriers)
