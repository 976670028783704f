"""Phase-noise-aware LMMSE channel estimation, its error statistics, and the
two single-carrier-style baseline estimators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .network import NetworkRealization, SimulationLayout
from .phase_noise import (KernelGrid, KernelParams, build_correlation_table, lag_spectra,
                          offset_spectra)

ESTIMATOR_KINDS = ("pna_ofdm", "pna_sc", "unaware")
ICI_MODES = ("as_printed", "independent_data")


def build_ici_base(
    layout: SimulationLayout,
    table: KernelGrid,
    mode: str = "as_printed",
) -> Tuple[np.ndarray, np.ndarray]:
    """The pilot-pair sums (tau_p, tau_p, tau_p), one (tau_p, tau_p) matrix per
    pilot sequence, and the data-pair sum (tau_p, tau_p) of the ICI covariance.

    Each is a kernel pair sum over offset weights seen from a pilot slot at
    subcarrier n: the pilot term weights offset n - j by the pilot sample of
    sequence t sent on the other pilot subcarrier j; the data term weights
    every data subcarrier's offset by 1 (``as_printed``), or keeps only
    equal-index data pairs through a lag weight (``independent_data``).
    """
    if mode not in ICI_MODES:
        raise ValueError("unknown ICI mode: %r" % (mode,))
    params, n, tau_p = table.params, layout.n_subcarriers, layout.tau_p
    subs, syms = layout.pilot_slot_positions
    # y[t, i, d]: sample of pilot t on the subcarrier seen[i, d] = (n_i - d) % N of
    # slot i's symbol, zeroed at d = 0, the slot's own subcarrier
    seen = (subs[:, None] - np.arange(n)) % n
    slot_si = np.arange(tau_p) // len(layout.pilot_subcarriers)  # slots are symbol-major
    y = np.take(layout.pilot_grid.reshape(tau_p, -1), slot_si[:, None] * n + seen, axis=1)
    y[:, :, 0] = 0.0
    lags, lag_of = np.unique(syms[:, None] - syms[None, :], return_inverse=True)
    lag_of = lag_of.reshape(tau_p, tau_p)
    w = lag_spectra(params, lags)[lag_of]  # (tau_p, tau_p, 2N), per slot pair
    a = offset_spectra(y)
    pilot_terms = np.einsum("tif,ijf,tjf->tij", a, w, np.conj(a))

    data_ind = (layout.pilot_grid[0, 0] == 0).astype(float)
    if mode == "as_printed":
        y_data = data_ind[seen]
    else:
        # sum_{j in D} B_{n1-j,n2-j} = unit weights on n1 and n2 at the lag weight
        # G(d) = sum_{j in D} exp(2j pi j d / N)
        y_data = np.zeros((tau_p, n))
        y_data[np.arange(tau_p), subs % n] = 1.0
        w = lag_spectra(params, lags, n * np.fft.ifft(data_ind))[lag_of]
    a = offset_spectra(y_data)
    data_term = np.einsum("if,ijf,jf->ij", a, w, np.conj(a))
    return pilot_terms, data_term


def assumed_kernel(kind: str, table: KernelGrid) -> KernelGrid:
    """The CPE kernel an estimator kind assumes, on the lags of ``table``: the OFDM
    drift kernel itself (``pna_ofdm``), one drift sample per symbol N samples apart
    (``pna_sc``), or no phase noise, 1 at every lag (``unaware``).

    ``pna_sc`` keeps the stride N under ``cp_consistent_correlation``: the
    single-carrier baseline models one phase sample per symbol period of N
    samples and knows no cyclic prefix, so the flag moves only the OFDM
    kernel."""
    if kind == "pna_ofdm":
        return table
    if kind not in ("pna_sc", "unaware"):
        raise ValueError("unknown estimator kind: %r" % (kind,))
    sigma2 = table.params.sigma2_tot if kind == "pna_sc" else 0.0
    return build_correlation_table(KernelParams(1, sigma2, table.params.n), table.lags)


@dataclass
class EstimatorModel:
    """What one estimator kind assumes about the pilot observation.

    Fixed per configuration: a UE on pilot sequence t with power p and gain
    beta at AP l adds p beta (pilot_cov[t] + data_cov) to that AP's pilot
    covariance, and its channel at symbol tau correlates with the pilot slots
    through rhs[:, t * T + tau - 1] = B^(tau)H s_t under the kind's kernel,
    for the first T symbols of the block.
    """

    pilot_cov: np.ndarray  # (tau_p, tau_p, tau_p) per sequence t: weighted s_t s_t^H + pilot ICI
    data_cov: np.ndarray   # (tau_p, tau_p) data ICI, zero for the baselines
    rhs: np.ndarray        # (tau_p, tau_p * T) columns B^(tau)H s_t, (t, tau) pairs


def build_models(
    layout: SimulationLayout,
    table: KernelGrid,
    kinds: Sequence[str],
    ici_mode: str = "as_printed",
    symbols: Optional[int] = None,
) -> List[EstimatorModel]:
    """One estimator model per entry of ``kinds``, in that order, for the
    first ``symbols`` symbols of the block (every symbol by default).

    [pilot_cov[t]]_{i1,i2} = s_t[i1] s_t[i2]^* k(sym_{i1} - sym_{i2}) under the
    kind's CPE kernel k.  Only the phase-noise-aware OFDM estimator adds the
    ICI covariance of ``build_ici_base``; the single-carrier and unaware
    baselines assume none.
    """
    _, syms = layout.pilot_slot_positions
    tau_p, book = layout.tau_p, layout.pilot_book
    n_sym = layout.block_symbols if symbols is None else symbols
    outer = book.T[:, :, None] * np.conj(book.T)[:, None, :]  # s_t s_t^H per sequence t
    models = []
    for kind in kinds:
        kernel = assumed_kernel(kind, table)
        pilot_cov = outer * kernel.cpe(syms[:, None] - syms[None, :])
        data_cov = np.zeros((tau_p, tau_p), dtype=complex)
        if kind == "pna_ofdm":
            pilot_ici, data_cov = build_ici_base(layout, table, mode=ici_mode)
            pilot_cov = pilot_cov + pilot_ici
        b = kernel.cpe(np.arange(1, n_sym + 1)[:, None] - syms[None, :])  # (T, tau_p)
        rhs = (np.conj(b).T[:, None, :] * book[:, :, None]).reshape(tau_p, -1)
        models.append(EstimatorModel(pilot_cov, data_cov, rhs))
    return models


def build_psi(network: NetworkRealization, model: EstimatorModel) -> np.ndarray:
    """Pilot observation covariance Psi_l per AP: (L, tau_p, tau_p) Hermitian.

    Psi_l = sum_k p_k beta_{k,l} (pilot_cov[t_k] + data_cov) + sigma^2 I.
    Raises RuntimeError unless every Psi_l is positive definite.
    """
    pb = network.p[:, None] * network.beta  # (K, L)
    psi = np.zeros((pb.shape[1],) + model.data_cov.shape, dtype=complex)
    for t in np.unique(network.pilot_index):
        coeff = pb[network.pilot_index == t].sum(axis=0)  # (L,)
        psi += coeff[:, None, None] * model.pilot_cov[int(t)][None, :, :]
    psi += pb.sum(axis=0)[:, None, None] * model.data_cov[None, :, :]
    psi += network.sigma2 * np.eye(psi.shape[1])[None, :, :]
    psi = 0.5 * (psi + np.conj(np.swapaxes(psi, 1, 2)))
    try:
        np.linalg.cholesky(psi)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("pilot covariance factorization failed: %s" % exc) from exc
    return psi


@dataclass
class EstimatorContext:
    """Statistics-only estimator state, reusable across all Monte Carlo trials.

    The estimate of UE k at AP l and symbol tau is
    h_hat = scale[l, k] * rhs[:, k * T + tau - 1]^H Psi_l^{-1} y_l, for the
    model's T symbols.  Like the estimates, ``eps`` and ``err_var`` are
    (T, K, L): symbol first.
    """

    psi: np.ndarray      # (L, tau_p, tau_p) pilot observation covariances Psi_l
    rhs: np.ndarray      # (tau_p, K * T) columns B^(tau)H s_{t_k}, (k, tau) pairs
    scale: np.ndarray    # (L, K) sqrt(p_k) beta_kl
    eps: np.ndarray      # (T, K, L) estimate variances
    err_var: np.ndarray  # (T, K, L) error variances beta - eps


def build_context(network: NetworkRealization, model: EstimatorModel) -> EstimatorContext:
    """Assemble the per-geometry estimator state of one estimator model."""
    psi = build_psi(network, model)
    L, tau_p = psi.shape[:2]
    rhs = model.rhs.reshape(tau_p, tau_p, -1)  # (tau_p, t, T)
    used, seq_of = np.unique(network.pilot_index, return_inverse=True)  # solve sequences in use
    rhs_used = rhs[:, used].reshape(tau_p, -1)
    sol = np.linalg.solve(psi, rhs_used)  # (L, tau_p, |used| * T): Psi_l^{-1} rhs
    quad = np.real(np.sum(np.conj(rhs_used) * sol, axis=1)).reshape(L, used.size, -1)[:, seq_of]
    scale = np.sqrt(network.p)[None, :] * network.beta.T
    eps = network.p[:, None] * network.beta ** 2 * quad.transpose(2, 1, 0)
    return EstimatorContext(psi=psi, rhs=rhs[:, network.pilot_index].reshape(tau_p, -1),
                            scale=scale, eps=eps, err_var=network.beta - eps)


def estimate_all(ctx: EstimatorContext, y: np.ndarray) -> np.ndarray:
    """Estimates h_hat (..., T, K, L) for every (symbol, UE, AP) of the
    context's T symbols from stacked pilot observations (..., L, tau_p); each
    is reused on every subcarrier of the coherence block.  Leading axes stack
    the observations of several trials, each estimated bit for bit as alone.
    The result is a view of the (..., L, K, T) product."""
    L, K = ctx.scale.shape
    z = np.linalg.solve(ctx.psi, y[..., None])[..., 0]  # (..., L, tau_p): Psi_l^{-1} y_l
    h_hat = (z @ np.conj(ctx.rhs)).reshape(z.shape[:-1] + (K, -1)) * ctx.scale[:, :, None]
    return np.swapaxes(h_hat, -1, -3)
