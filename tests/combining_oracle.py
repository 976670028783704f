"""Per-symbol and per-estimate reference implementations of combining and SINR
accumulation.

``combiner_matrix_at`` builds the combiners of one 1-based symbol tau with one
|S| x |S| solve per cluster group, in extended precision refined against an
exact rational residual, and ``add_symbol_at`` accumulates the UatF terms of
one symbol; the package does both for every symbol in one call.
``combiner_matrix_per_estimate`` makes one package call per stacked estimate,
where the package makes one call for the whole stack.
"""

from fractions import Fraction

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


def _on_denominator(arrays):
    """Real float64 or long double arrays as exact rationals on one common
    denominator q: every entry is a Fraction with a power-of-two denominator,
    so q is the largest, and each entry becomes the integer numerator over q,
    held in an object array of Python ints.  Returns (q, int arrays)."""
    fracs = [[Fraction(*v.as_integer_ratio())
              for v in np.asarray(a, dtype=np.longdouble).ravel()] for a in arrays]
    q = max(f.denominator for entries in fracs for f in entries)
    ints = [np.array([f.numerator * (q // f.denominator) for f in entries],
                     dtype=object).reshape(np.shape(a))
            for a, entries in zip(arrays, fracs)]
    return q, ints


def exact_residual(h, c, p, sigma2, b, x):
    """b - A x for A = sum_m p_m (h_m h_m^H + diag(c_m)) + sigma2 I, from the
    float64 rows h_m of ``h`` and c_m of ``c`` (members, n), the weights
    ``p``, ``sigma2``, the float64 (n, cols) ``b`` and the long double
    (n, cols) ``x``.  It is computed exactly, as a rational on the inputs'
    common power-of-two denominator q (``_on_denominator``): every term is an
    integer over q^4, and the residual is rounded to complex128 once, at
    the end."""
    q, (hr, hi, cq, pq, s2, br, bi, xr, xi) = _on_denominator(
        [h.real, h.imag, c, p, sigma2, b.real, b.imag, x.real, x.imag])
    # s_m = p_m h_m^H x over q^3, then (A x)_i = sum_m h_mi s_m + diag_i x_i over q^4
    sr = pq[:, None] * (hr @ xr + hi @ xi)
    si = pq[:, None] * (hr @ xi - hi @ xr)
    diag = (pq[:, None] * cq).sum(axis=0) + s2 * q  # over q^2
    ar = hr.T @ sr - hi.T @ si + q * diag[:, None] * xr
    ai = hr.T @ si + hi.T @ sr + q * diag[:, None] * xi
    q3, q4 = q ** 3, q ** 4
    r = np.empty(x.shape, dtype=complex)
    for i, j in np.ndindex(r.shape):
        r[i, j] = complex(float(Fraction(q3 * br[i, j] - ar[i, j], q4)),
                          float(Fraction(q3 * bi[i, j] - ai[i, j], q4)))
    return r


def solve_refined(h, c, p, sigma2, b, steps=2):
    """The solution of the ``exact_residual`` system A x = b: a long double
    ``solve_extended``, refined ``steps`` times with the exact residual, so
    that its error stops growing with cond(A) while cond(A) eps(long double)
    stays well below one."""
    hl = h.astype(np.clongdouble)
    pl = p.astype(np.longdouble)
    a = (hl.T * pl) @ hl.conj()
    a[np.diag_indices_from(a)] += (pl[:, None] * c).sum(axis=0) + sigma2
    x = solve_extended(a, b)
    for _ in range(steps):
        x += solve_extended(a, exact_residual(h, c, p, sigma2, b, x))
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
        sol = solve_refined(h[members][:, support], c[members][:, support],
                            network.p[members], network.sigma2, h[ks][:, support].T)
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
