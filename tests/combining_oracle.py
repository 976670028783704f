"""Per-symbol and per-estimate reference implementations of combining and SINR
accumulation.

``combiner_matrix_at`` builds the combiners of one 1-based symbol tau with one
|S| x |S| solve per cluster group, in extended precision, and ``add_symbol_at``
accumulates the UatF terms of one symbol; the package does both for every
symbol in one call.
``combiner_matrix_per_estimate`` makes one package call per stacked estimate,
where the package makes one call for the whole stack.
"""

import numpy as np

from cfofdm.combining import combiner_matrix

# The oracle must be closer to the truth than the float64 combiners it judges.
assert np.finfo(np.longdouble).eps < 1e-18, "the oracle needs an extended-precision long double"


def solve_extended(a, b):
    """a^-1 b by Gaussian elimination with partial pivoting in np.clongdouble."""
    a = np.array(a, dtype=np.clongdouble)
    b = np.array(b, dtype=np.clongdouble)
    n = len(a)
    for j in range(n):
        pivot = j + np.argmax(np.abs(a[j:, j]))
        a[[j, pivot]] = a[[pivot, j]]
        b[[j, pivot]] = b[[pivot, j]]
        f = a[j + 1:, j] / a[j, j]
        a[j + 1:, j:] -= f[:, None] * a[j, j:]
        b[j + 1:] -= f[:, None] * b[j]
    x = np.empty_like(b)
    for j in reversed(range(n)):
        x[j] = (b[j] - a[j, j + 1:] @ x[j + 1:]) / a[j, j]
    return x


def combiner_matrix_at(scheme, h_hat, err_var, network, tau):
    """Length-L combining vectors for every UE at 1-based symbol tau: (K, L),
    from the (K, L, tau_c) estimates and their error variances."""
    h = h_hat[:, :, tau - 1]
    c = err_var[:, :, tau - 1]
    D = network.D
    K = D.shape[0]
    if scheme == "mr":
        return D * h
    if scheme == "lp_mmse":
        served = D.astype(float)
        den = (served * network.p[:, None] * (np.abs(h) ** 2 + c)).sum(axis=0) + network.sigma2
        return served * network.p[:, None] * h / den[None, :]
    groups = {}
    for k in range(K):
        groups.setdefault(D[k].tobytes(), []).append(k)
    v = np.zeros((K, D.shape[1]), dtype=complex)
    for ks in groups.values():
        # P-MMSE: the UEs sharing at least one serving AP with the group
        members = (np.arange(K) if scheme == "mmse"
                   else np.flatnonzero((D & D[ks[0]][None, :]).any(axis=1)))
        support = np.flatnonzero(D[ks[0]])
        hm = h[members][:, support].astype(np.clongdouble)
        p = network.p[members].astype(np.longdouble)
        a = (hm.T * p) @ hm.conj()
        a[np.diag_indices_from(a)] += ((p[:, None] * c[members][:, support]).sum(axis=0)
                                       + network.sigma2)
        sol = solve_extended(a, h[ks][:, support].T)
        v[np.ix_(ks, support)] = network.p[ks][:, None] * sol.T
    return v


def add_symbol_at(acc, row, tau, v, h_eff, lam, network):
    """Accumulate one trial's terms of one row for all UEs at 1-based symbol tau.

    v and h_eff are (K, L): combining vectors and effective channels; lam is
    the (L,) ICI power.
    """
    t = tau - 1
    vm = np.conj(v) * network.D
    m = vm @ h_eff.T  # m[k, i] = v_k^H D_k h_i
    acc.gain[row, :, t] += np.diagonal(m)
    acc.received[row, :, t] += np.abs(m) ** 2 @ network.p
    w = np.abs(vm) ** 2
    acc.ici[row, :, t] += w @ lam
    acc.vnorm[row, :, t] += w.sum(axis=1)


def combiner_matrix_per_estimate(scheme, h_hat, err_var, network):
    """Combiners of stacked (n, tau_c, K, L) estimates, one ``combiner_matrix``
    call per estimate: (n, tau_c, K, L)."""
    return np.stack([combiner_matrix(scheme, h, c, network) for h, c in zip(h_hat, err_var)])
