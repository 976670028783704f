"""Monte Carlo evaluation of the use-and-then-forget SINR and spectral efficiency,
including the deterministic inter-carrier-interference power term."""

from __future__ import annotations

from typing import Sequence

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

    def add_symbol(self, scheme_idx: int, tau: int, v: np.ndarray,
                   h_eff: np.ndarray, lam: np.ndarray, D: np.ndarray) -> None:
        """Accumulate one trial's terms for all UEs at 1-based symbol tau.

        v and h_eff are (K, L): combining vectors and effective channels.
        """
        t = tau - 1
        vm = np.conj(v) * D
        m = vm @ h_eff.T  # m[k, i] = v_k^H D_k h_i
        self.gain[scheme_idx, :, t] += np.diagonal(m)
        self.cross[scheme_idx, :, t, :] += np.abs(m) ** 2
        w = np.abs(vm) ** 2  # |D_k v_k|^2 per AP
        self.ici[scheme_idx, :, t, :] += w @ lam.T
        self.vnorm[scheme_idx, :, t] += w.sum(axis=1)

    def bump(self) -> None:
        """Mark one full trial as accumulated."""
        self.count += 1

    def merge(self, other: "SinrAccumulator") -> None:
        self.count += other.count
        self.gain += other.gain
        self.cross += other.cross
        self.ici += other.ici
        self.vnorm += other.vnorm


def accumulate_trial(acc: SinrAccumulator, scheme_idx: int,
                     combiners: Sequence[np.ndarray], h_eff: np.ndarray,
                     lam: np.ndarray, D: np.ndarray) -> None:
    """Add one trial's combiners for one scheme across all symbols.

    ``combiners[t]`` is the (K, L) combining matrix for symbol t+1 and
    ``h_eff`` the (K, L, tau_c) effective channels of the same trial.
    """
    for t, v in enumerate(combiners):
        acc.add_symbol(scheme_idx, t + 1, v, h_eff[:, :, t], lam, D)


def finalize_sinr(acc: SinrAccumulator, network: NetworkRealization,
                  scheme_idx: int, k: int, tau: int) -> float:
    """Effective UatF SINR for UE k at 1-based symbol tau.

    Returns NaN (an invalid record) if Monte Carlo noise drives the variance
    term negative; zero-combiner records finalize to SINR 0.
    """
    n = acc.count
    t = tau - 1
    g = acc.gain[scheme_idx, k, t] / n
    num = network.p[k] * np.abs(g) ** 2
    if num == 0.0:
        return 0.0
    den = (
        (network.p * acc.cross[scheme_idx, k, t] / n).sum()
        - num
        + (acc.ici[scheme_idx, k, t] / n).sum()
        + network.sigma2 * acc.vnorm[scheme_idx, k, t] / n
    )
    if den <= 0.0:
        return float("nan")
    return float(num / den)


def se_per_block(sinr_over_tau: np.ndarray) -> float:
    """Per-block spectral efficiency (1/tau_c) sum_tau log2(1 + SINR^(tau))."""
    return float(np.mean(np.log2(1.0 + np.asarray(sinr_over_tau))))


def symbol_of_channel_use(c: int, layout: SimulationLayout) -> int:
    """1-based OFDM symbol carrying channel use c, counting frequency-first:
    tau(c) = ceil(c / N_c)."""
    if not 1 <= c <= layout.block_subcarriers * layout.block_symbols:
        raise ValueError("channel use %d outside the coherence block" % c)
    return -(-c // layout.block_subcarriers)


def se_per_channel_use(sinr_over_tau: np.ndarray, layout: SimulationLayout) -> np.ndarray:
    """Per-channel-use SE log2(1 + SINR^(tau(c))) for c = 1..N_c*tau_c."""
    n_uses = layout.block_subcarriers * layout.block_symbols
    taus = np.array([symbol_of_channel_use(c, layout) for c in range(1, n_uses + 1)])
    return np.log2(1.0 + np.asarray(sinr_over_tau)[taus - 1])
