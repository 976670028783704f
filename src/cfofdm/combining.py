"""Receive combiners built from channel estimates and cooperation clusters."""

from __future__ import annotations

import logging

import numpy as np

from .network import NetworkRealization

log = logging.getLogger(__name__)

SCHEMES = ("mr", "lp_mmse", "p_mmse", "mmse")


def _solve(a, rhs, ks):
    """a^-1 rhs for stacked systems (..., n, n): one stacked solve, redone
    system by system if one is singular, with a pseudo-inverse for each
    singular one."""
    try:
        return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        pass
    sol = np.empty(rhs.shape, dtype=a.dtype)
    for idx in np.ndindex(a.shape[:-2]):
        try:
            sol[idx] = np.linalg.solve(a[idx], rhs[idx])
        except np.linalg.LinAlgError:
            at = "symbol %d" % (idx[-1] + 1)
            if len(idx) > 1:
                at = "stacked estimate %s, %s" % (",".join(map(str, idx[:-1])), at)
            log.warning("singular reduced combiner system for UEs %s at %s; "
                        "using pseudo-inverse", ks.tolist(), at)
            sol[idx] = np.linalg.pinv(a[idx]) @ rhs[idx]
    return sol


def _masked_mmse_group(v, h_hat, err_var, network, group, members) -> None:
    """Regularized MMSE solves over ``members`` for every symbol, restricted to
    the cluster support S of ``group``, written into its UEs' rows of ``v``.

    ``v``, ``h_hat`` and ``err_var`` are (..., T, K, L).  With H the
    members' (|S|, |members|) estimates, P their powers and Z the diagonal load
    sum p * err_var + sigma2 over S, the combiners are the columns of
    (Z + H P H^H)^-1 H P for the group's UEs.  One stacked solve takes them in
    the smaller dimension: over the (..., T, |S|, |S|) systems
    Z + H P H^H, or, with fewer members than support APs, over the
    (..., T, |members|, |members|) systems P^-1 + H^H Z^-1 H of the
    push-through identity (Z + H P H^H)^-1 H P = Z^-1 H (P^-1 + H^H Z^-1 H)^-1.
    Either way H's rank-min(|S|, |members|) term fills the system.
    """
    ks, support = group.ues, group.support
    p = network.p[members]
    z = (p[:, None] * err_var[..., members[:, None], support]).sum(axis=-2) + network.sigma2
    if len(members) >= len(support):
        h = h_hat[..., members[:, None], support]  # (..., T, |members|, |S|)
        # each product is taken before the transpose: a product with a transposed
        # operand would go through numpy's buffers, a copy as large as h
        a = np.swapaxes(h * p[:, None], -1, -2) @ np.conjugate(h, out=h)
        del h  # the systems are the largest arrays of a stacked trial: hold no more
        diag = np.arange(len(support))
        a[..., diag, diag] += z
        rhs = np.swapaxes(h_hat[..., ks[:, None], support], -1, -2)  # (..., T, |S|, len(ks))
        sol = _solve(a, rhs, ks)
        del a
        v[..., ks[:, None], support] = np.swapaxes(sol * network.p[ks], -1, -2)
        return
    # a C-contiguous gather: a fancy index of stacked estimates puts the stack
    # axis innermost, and a product's last bits would then depend on the stack
    h = np.ascontiguousarray(h_hat[..., members[:, None], support])  # (..., T, |members|, |S|)
    hz = h / z[..., None, :]  # Z^-1 H, transposed
    a = np.conjugate(h, out=h) @ np.swapaxes(hz, -1, -2)
    diag = np.arange(len(members))
    a[..., diag, diag] += 1.0 / p
    # the group's columns of the identity: its UEs' places among the members
    rhs = np.broadcast_to(np.eye(len(members))[:, np.searchsorted(members, ks)],
                          a.shape[:-1] + (len(ks),))
    v[..., ks[:, None], support] = np.swapaxes(_solve(a, rhs, ks), -1, -2) @ hz


def combiner_matrix(scheme: str, h_hat: np.ndarray, err_var: np.ndarray,
                    network: NetworkRealization) -> np.ndarray:
    """Length-L combining vectors for every symbol and UE: (..., T, K, L),
    from the estimates and their error variances in that same layout, for
    the estimator's T symbols (1 or tau_c).

    Leading axes stack estimates of one network, such as a stack of trials'
    estimates; ``err_var`` broadcasts against them, so it may omit the trial
    axis.  Every stacked entry gives the combiners it would give alone, bit
    for bit.  Entries off a UE's serving cluster are zero.  For
    the MMSE variants, each of ``network.groups`` (UEs with one cluster
    support) shares one stacked solve over all symbols and leading entries.
    """
    D = network.D
    if scheme == "mr":
        return D * h_hat
    if scheme == "lp_mmse":
        # each AP weighs its own estimate by the inverse of the locally served
        # signal-plus-interference power
        served_p = D * network.p[:, None]
        den = (served_p * (np.abs(h_hat) ** 2 + err_var)).sum(axis=-2) + network.sigma2
        return served_p * h_hat / den[..., None, :]
    if scheme not in ("p_mmse", "mmse"):
        raise ValueError("unknown combining scheme: %r" % (scheme,))
    v = np.zeros(h_hat.shape, dtype=complex)
    for g in network.groups:
        members = np.arange(len(D)) if scheme == "mmse" else g.partial
        _masked_mmse_group(v, h_hat, err_var, network, g, members)
    return v
