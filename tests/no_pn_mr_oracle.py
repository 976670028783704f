"""Closed-form UatF spectral efficiency of MR combining with ideal oscillators.

Cell-free uplink with single-antenna APs, MMSE channel estimates and the
use-and-then-forget bound (Björnson & Sanguinetti, "Making cell-free massive
MIMO competitive with MMSE processing and centralized implementation", IEEE
TWC 2020).  With v_k = D_k h_hat_k every expectation of the bound is a second
or fourth moment of jointly Gaussian channels and estimates:

  E{v_k^H h_k}       = sum_l D_kl gamma_kl
  E{||v_k||^2}       = sum_l D_kl gamma_kl
  E{|v_k^H h_i|^2}   = sum_l D_kl gamma_kl beta_il + |sum_l D_kl E{h_hat_kl^* h_il}|^2

where gamma_kl is the estimate variance and, for a UE i on UE k's pilot
sequence, E{h_hat_kl^* h_il} = gamma_kl (beta_il / beta_kl) sqrt(p_i / p_k);
it is zero for a UE on another sequence.  The term i = k cancels against the
numerator, which leaves

  SINR_k = p_k (sum_l D_kl gamma_kl)^2 / (sum_i p_i sum_l D_kl gamma_kl beta_il
           + sum_{i != k, t_i = t_k} p_i |sum_l D_kl E{h_hat_kl^* h_il}|^2
           + sigma^2 sum_l D_kl gamma_kl).
"""

import numpy as np


def mr_cross(network, gamma):
    """(K, K) E{v_k^H h_i} = sum_l D_kl E{h_hat_kl^* h_il} of MR, from the
    (K, L) estimate variances ``gamma`` and the network's beta, D, p and
    pilot sequences: the gain sum_l D_kl gamma_kl at i = k, the coherent
    co-pilot term for another UE i on UE k's pilot sequence, and zero for a
    UE on another sequence."""
    D, beta, p, t = network.D, network.beta, network.p, network.pilot_index
    cross = ((D * gamma) / beta) @ beta.T * np.sqrt(p[None, :] / p[:, None])  # [k, i]
    return np.where(t[:, None] == t[None, :], cross, 0.0)


def mr_se_no_pn(network, gamma):
    """Per-UE UatF SE (K,) of MR, from the (K, L) estimate variances ``gamma``
    (``build_context(...).eps`` of an ideal-oscillator world) and the
    network's beta, D, p, sigma^2 and pilot sequences."""
    D, beta, p = network.D, network.beta, network.p
    g = D * gamma                               # (K, L)
    gain = g.sum(axis=1)                        # E{v_k^H h_k} = E||v_k||^2
    interference = (g @ beta.T) @ p             # sum_i p_i sum_l D_kl gamma_kl beta_il
    others = ~np.eye(len(p), dtype=bool)        # i != k; mr_cross is 0 off k's sequence
    coherent = (np.where(others, np.abs(mr_cross(network, gamma)) ** 2, 0.0)
                * p[None, :]).sum(axis=1)
    sinr = p * gain ** 2 / (interference + coherent + network.sigma2 * gain)
    return np.log2(1.0 + sinr)
