"""Receive combiners built from channel estimates and cooperation clusters."""

from __future__ import annotations

import logging

import numpy as np

from .estimation import EstimateSet
from .network import NetworkRealization

log = logging.getLogger(__name__)

SCHEMES = ("mr", "lp_mmse", "p_mmse", "mmse")


def combine_mr(est: EstimateSet, network: NetworkRealization, k: int, tau: int) -> np.ndarray:
    """Matched-filter combiner v = D_k h_hat_k for 1-based symbol tau."""
    return network.D[k] * est.h_hat[k, :, tau - 1]


def lp_mmse_vectors(est: EstimateSet, network: NetworkRealization, tau: int) -> np.ndarray:
    """Local per-AP MMSE combining scalars for all UEs, assembled as (K, L).

    Each AP l weighs its own estimate of UE k by the inverse of the locally
    served signal-plus-interference power; entries off the serving cluster are
    zero so the SINR evaluator can treat every scheme as a length-L vector.
    """
    h = est.h_hat[:, :, tau - 1]  # (K, L)
    c = est.err_var[:, :, tau - 1]
    served = network.D.astype(float)
    den = (served * network.p[:, None] * (np.abs(h) ** 2 + c)).sum(axis=0) + network.sigma2
    return served * network.p[:, None] * h / den[None, :]


def combine_lp_mmse(est: EstimateSet, network: NetworkRealization,
                    k: int, l: int, tau: int) -> complex:
    """Local MMSE combining scalar for UE k at serving AP l (1-based tau)."""
    if not network.D[k, l]:
        raise ValueError("AP %d does not serve UE %d" % (l, k))
    return complex(lp_mmse_vectors(est, network, tau)[k, l])


def partial_cluster(network: NetworkRealization, k: int) -> np.ndarray:
    """UEs sharing at least one serving AP with UE k (includes k)."""
    return np.flatnonzero((network.D & network.D[k][None, :]).any(axis=1))


def combine_p_mmse(est: EstimateSet, network: NetworkRealization, k: int, tau: int) -> np.ndarray:
    """Partial MMSE combiner over the UEs whose clusters overlap UE k's."""
    return combiner_matrix("p_mmse", est, network, tau)[k]


def combine_mmse(est: EstimateSet, network: NetworkRealization, k: int, tau: int) -> np.ndarray:
    """Centralized MMSE combiner over all UEs, masked to UE k's cluster."""
    return combiner_matrix("mmse", est, network, tau)[k]


def _masked_mmse_group(est, network, ks, tau, members) -> np.ndarray:
    """Regularized MMSE solve over ``members``, restricted to the cluster support
    shared by the UEs ``ks``: one factorization, returns (len(ks), L)."""
    support = np.flatnonzero(network.D[ks[0]])
    h = est.h_hat[members][:, support, tau - 1]
    c = est.err_var[members][:, support, tau - 1]
    p = network.p[members]
    a = (h.T * p) @ h.conj()
    a[np.diag_indices_from(a)] += (p[:, None] * c).sum(axis=0) + network.sigma2
    rhs = est.h_hat[ks][:, support, tau - 1].T  # (|support|, len(ks))
    try:
        sol = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        log.warning("singular reduced combiner system for UEs %s; using pseudo-inverse",
                    list(ks))
        sol = np.linalg.pinv(a) @ rhs
    out = np.zeros((len(ks), network.D.shape[1]), dtype=complex)
    out[:, support] = (network.p[ks][:, None] * sol.T)
    return out


def combiner_matrix(scheme: str, est: EstimateSet, network: NetworkRealization,
                    tau: int) -> np.ndarray:
    """Length-L combining vectors for every UE at 1-based symbol tau: (K, L).

    UEs with identical cluster supports share one solve for the MMSE variants.
    """
    K = network.D.shape[0]
    if scheme == "mr":
        return network.D * est.h_hat[:, :, tau - 1]
    if scheme == "lp_mmse":
        return lp_mmse_vectors(est, network, tau)
    if scheme not in ("p_mmse", "mmse"):
        raise ValueError("unknown combining scheme: %r" % (scheme,))
    groups = {}
    for k in range(K):
        groups.setdefault(network.D[k].tobytes(), []).append(k)
    v = np.zeros((K, network.D.shape[1]), dtype=complex)
    for ks in groups.values():
        if scheme == "mmse":
            members = np.arange(K)
        else:
            members = partial_cluster(network, ks[0])
        v[ks] = _masked_mmse_group(est, network, np.asarray(ks), tau, members)
    return v
