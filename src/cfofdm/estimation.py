"""Phase-noise-aware LMMSE channel estimation, its error statistics, and the
two single-carrier-style baseline estimators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .network import NetworkRealization, SimulationLayout
from .phase_noise import KernelGrid, KernelParams, correlation_b_fast

ESTIMATOR_KINDS = ("pna_ofdm", "pna_sc", "unaware")
ICI_MODES = ("as_printed", "independent_data")


def kernel_offsets(layout: SimulationLayout) -> np.ndarray:
    """Subcarrier offsets at which the estimator reads the drift kernel.

    0 for the CPE diagonal, plus n - j for every pilot-slot subcarrier n and
    every other pilot subcarrier j, as reached by the pilot-pair double sum of
    the ICI covariance.
    """
    subs, _ = layout.pilot_slot_positions
    cols = layout.pilot_subcarriers_absolute()
    return np.union1d((subs[:, None] - cols[None, :]).ravel(), [0])


def _data_sum_as_printed(n1, n2, dt, params: KernelParams, data_ind: np.ndarray) -> complex:
    """Full double sum of bare kernel values over data-subcarrier pairs.

    Reduces sum_{j1,j2 in D} B_{n1-j1,n2-j2}^{(dt)} to a lag-domain correlation
    computable in O(N log N): expanding B over its defining sample pairs
    (m1, m2) factorizes the j sums into DFTs of the data-set indicator.
    """
    n = params.n
    m = np.arange(n)
    u = n * np.fft.ifft(data_ind)  # U[m] = sum_{j in D} exp(+2j pi m j / N)
    f1 = np.exp(-2j * np.pi * m * n1 / n) * u
    f2 = np.exp(2j * np.pi * m * n2 / n) * np.conj(u)
    # linear convolution by zero-padded FFTs: conv[N-1+d] = sum_m f1[m+d] f2[m]
    conv = np.fft.ifft(np.fft.fft(f1, 2 * n) * np.fft.fft(f2[::-1], 2 * n))
    d = np.arange(-(n - 1), n)
    damp = np.exp(-params.sigma2_tot / 2.0 * np.abs(dt * params.stride + d))
    return complex((damp * conv[n - 1 + d]).sum() / n**2)


def _data_sum_independent(n1, n2, dt, params: KernelParams, data_ind: np.ndarray) -> complex:
    """Diagonal-only data sum sum_{j in D} B_{n1-j,n2-j}^{(dt)}.

    The common shift j turns the sum into a per-lag weight G(d) = sum_{j in D}
    exp(2j pi j d / N) on the kernel's geometric reduction.
    """
    n = params.n
    g = n * np.fft.ifft(data_ind)
    d = np.arange(-(n - 1), n)
    return correlation_b_fast(int(n1), int(n2), dt, params, weights=g[d % n])


@dataclass
class IciBase:
    """Geometry-independent pieces of the ICI covariance for one configuration.

    ``pilot_terms[t]`` is the pilot-pair double sum for pilot sequence t and
    ``data_term`` the shared data-subcarrier sum, both (tau_p, tau_p).
    """

    pilot_terms: np.ndarray  # (tau_p, tau_p, tau_p)
    data_term: np.ndarray    # (tau_p, tau_p)


def build_ici_base(
    layout: SimulationLayout,
    table: KernelGrid,
    book: np.ndarray,
    mode: str = "as_printed",
) -> IciBase:
    """Precompute the pilot-pair and data-pair sums entering the ICI covariance."""
    if mode not in ICI_MODES:
        raise ValueError("unknown ICI mode: %r" % (mode,))
    tau_p = layout.tau_p
    subs, syms = layout.pilot_slot_positions
    pilot_cols = layout.pilot_subcarriers_absolute()
    slot_of = {slot: i for i, slot in enumerate(layout.pilot_slots)}
    nc = layout.block_subcarriers

    # other pilot subcarriers seen from each slot, and the slots transmitting them
    others = [pilot_cols[pilot_cols != n] for n in subs]
    rows = [np.array([slot_of[(j % nc, t)] for j in js], dtype=int)
            for js, t in zip(others, syms)]
    pilot_terms = np.zeros((tau_p, tau_p, tau_p), dtype=complex)
    for i1 in range(tau_p):
        for i2 in range(tau_p):
            if others[i1].size == 0 or others[i2].size == 0:
                continue
            bsub = table.block(subs[i1] - others[i1], subs[i2] - others[i2],
                               int(syms[i1] - syms[i2]))
            # book rows pick the pilot samples transmitted on those subcarriers:
            # sum_ab w1[a, t] bsub[a, b] conj(w2[b, t]) for every pilot t
            w1, w2 = book[rows[i1]], book[rows[i2]]
            pilot_terms[:, i1, i2] = ((w1.T @ bsub) * np.conj(w2.T)).sum(axis=1)

    data_ind = np.ones(layout.n_subcarriers)
    data_ind[pilot_cols] = 0.0
    data_sum = _data_sum_as_printed if mode == "as_printed" else _data_sum_independent
    cache: Dict[Tuple[int, int, int], complex] = {}
    data_term = np.zeros((tau_p, tau_p), dtype=complex)
    for i1 in range(tau_p):
        for i2 in range(tau_p):
            key = (int(subs[i1]), int(subs[i2]), int(syms[i1] - syms[i2]))
            if key not in cache:
                cache[key] = data_sum(key[0], key[1], key[2], table.params, data_ind)
            data_term[i1, i2] = cache[key]
    return IciBase(pilot_terms=pilot_terms, data_term=data_term)


def build_z_ici(network: NetworkRealization, base: IciBase) -> np.ndarray:
    """Per-AP ICI covariance of the stacked pilot observation: (L, tau_p, tau_p).

    ``base`` fixes the ICI mode: ``as_printed`` evaluates the pilot-pair double
    sum with pilot-sample weights plus the unweighted double sum over all
    data-subcarrier pairs of the full symbol; ``independent_data`` keeps only
    equal-index data pairs, as implied by i.i.d. zero-mean data symbols.
    """
    pb = network.p[:, None] * network.beta  # (K, L)
    z = np.zeros((pb.shape[1],) + base.data_term.shape, dtype=complex)
    for t in np.unique(network.pilot_index):
        coeff = pb[network.pilot_index == t].sum(axis=0)  # (L,)
        z += coeff[:, None, None] * base.pilot_terms[int(t)][None, :, :]
    z += pb.sum(axis=0)[:, None, None] * base.data_term[None, :, :]
    return z


def cpe_kernel_value(kind: str, dtau, table: KernelGrid):
    """Symbol-lag CPE correlation assumed by each estimator kind, at one lag
    or at every entry of an integer lag array."""
    if kind == "pna_ofdm":
        return table.cpe(dtau)
    if kind == "pna_sc":
        # One drift sample per OFDM symbol, N sample periods apart.
        params = table.params
        return np.exp(-params.sigma2_tot * params.n * np.abs(dtau) / 2.0)
    if kind == "unaware":
        return np.ones(np.shape(dtau)) if np.ndim(dtau) else 1.0
    raise ValueError("unknown estimator kind: %r" % (kind,))


def build_psi(
    network: NetworkRealization,
    layout: SimulationLayout,
    table: KernelGrid,
    book: np.ndarray,
    z_ici: Optional[np.ndarray],
    kind: str = "pna_ofdm",
):
    """Pilot observation covariance Psi_l per AP: (L, tau_p, tau_p) Hermitian.

    Psi_l = sum_k p_k beta_{k,l} Phi_{t_k} + Z_l + sigma^2 I, where
    [Phi_t]_{i1,i2} = s_t[i1] s_t[i2]^* k(sym_{i1} - sym_{i2}) under the
    estimator kind's CPE kernel k.  Raises RuntimeError unless every Psi_l is
    positive definite.
    """
    tau_p = layout.tau_p
    _, syms = layout.pilot_slot_positions
    kmat = cpe_kernel_value(kind, syms[:, None] - syms[None, :], table)
    pb = network.p[:, None] * network.beta
    psi = np.zeros((layout.n_aps, tau_p, tau_p), dtype=complex)
    for t in np.unique(network.pilot_index):
        s = book[:, int(t)]
        phi = np.outer(s, np.conj(s)) * kmat
        coeff = pb[network.pilot_index == t].sum(axis=0)
        psi += coeff[:, None, None] * phi[None, :, :]
    if z_ici is not None:
        psi += z_ici
    psi += network.sigma2 * np.eye(tau_p)[None, :, :]
    psi = 0.5 * (psi + np.conj(np.swapaxes(psi, 1, 2)))
    try:
        np.linalg.cholesky(psi)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("pilot covariance factorization failed: %s" % exc) from exc
    return psi


@dataclass
class EstimatorContext:
    """Statistics-only estimator state, reusable across all Monte Carlo trials."""

    coef: np.ndarray     # (L, K, tau_c, tau_p); h_hat = coef . y_l
    eps: np.ndarray      # (K, L, tau_c) estimate variances
    err_var: np.ndarray  # (K, L, tau_c) error variances beta - eps


def build_context(
    network: NetworkRealization,
    layout: SimulationLayout,
    table: KernelGrid,
    book: np.ndarray,
    kind: str = "pna_ofdm",
    ici_base: Optional[IciBase] = None,
) -> EstimatorContext:
    """Assemble the per-geometry estimator state for one estimator kind.

    Only the phase-noise-aware OFDM estimator carries an ICI covariance, built
    from ``ici_base``; the single-carrier and unaware baselines assume none.
    """
    if kind not in ESTIMATOR_KINDS:
        raise ValueError("unknown estimator kind: %r" % (kind,))
    z = None
    if kind == "pna_ofdm":
        if ici_base is None:
            raise ValueError("the pna_ofdm estimator needs an ICI base")
        z = build_z_ici(network, ici_base)
    psi = build_psi(network, layout, table, book, z, kind=kind)

    _, syms = layout.pilot_slot_positions
    tau_c, tau_p = layout.block_symbols, layout.tau_p
    b_weights = cpe_kernel_value(kind, np.arange(1, tau_c + 1)[:, None] - syms[None, :],
                                 table)

    K, L = network.beta.shape
    s_all = book[:, network.pilot_index]  # (tau_p, K)
    # rhs columns: B^(tau)H s_{t_k} for every (k, tau) pair
    rhs = (np.conj(b_weights).T[:, None, :] * s_all[:, :, None]).reshape(tau_p, -1)
    sol = np.linalg.solve(psi, rhs)  # (L, tau_p, K * tau_c): Psi_l^{-1} rhs
    quad = np.real(np.sum(np.conj(rhs) * sol, axis=1)).reshape(L, K, tau_c)
    scale = np.sqrt(network.p)[None, :] * network.beta.T  # (L, K)
    coef = (np.conj(sol.reshape(L, tau_p, K, tau_c)).transpose(0, 2, 3, 1)
            * scale[:, :, None, None])
    eps = network.p[:, None, None] * network.beta[:, :, None] ** 2 * quad.transpose(1, 0, 2)
    return EstimatorContext(coef=coef, eps=eps, err_var=network.beta[:, :, None] - eps)


def estimate_all(ctx: EstimatorContext, y: np.ndarray) -> np.ndarray:
    """Estimates h_hat (K, L, tau_c) for every (UE, AP, symbol) from stacked
    pilot observations (L, tau_p); each is reused on every subcarrier of the
    coherence block."""
    return np.einsum("lktp,lp->klt", ctx.coef, y)
