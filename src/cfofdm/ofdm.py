"""Frequency-domain transmit grids, pilot observation synthesis with exact
inter-carrier interference, and the time-domain validation oracle."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .network import NetworkRealization, SimulationLayout
from .phase_noise import PhaseNoiseTrace, cpe_per_symbol


def build_pilot_book(tau_p: int) -> np.ndarray:
    """Mutually orthogonal pilot sequences as columns of a (tau_p, tau_p) matrix.

    Columns are exponential-basis (DFT) sequences with unit-modulus entries, so
    ||s_t||^2 = tau_p exactly and distinct columns are exactly orthogonal.
    """
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    m = np.arange(tau_p)
    return np.exp(-2j * np.pi * np.outer(m, m) / tau_p)


def draw_data_symbols(shape, rng: np.random.Generator, kind: str = "gaussian") -> np.ndarray:
    """Unit-power zero-mean data symbols: circularly-symmetric Gaussian or QPSK."""
    if kind == "gaussian":
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    if kind == "qpsk":
        quad = rng.integers(0, 4, size=shape)
        return np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * quad))
    raise ValueError("unknown data symbol kind: %r" % (kind,))


def build_transmit_grids(
    layout: SimulationLayout,
    book: np.ndarray,
    pilot_index: np.ndarray,
    rng: np.random.Generator,
    data_kind: str = "gaussian",
    shared_data: bool = False,
) -> np.ndarray:
    """Per-UE frequency grids for the pilot-bearing OFDM symbols.

    Returns (K, |T_p|, N): for every pilot symbol, each UE transmits its pilot
    sample on the pilot subcarriers of every coherence block and fresh
    unit-power data symbols elsewhere.  With ``shared_data`` one data draw is
    repeated across the pilot symbols; the self-checks use this world because
    there the estimator's assumed pilot covariance is exact.
    """
    K = len(pilot_index)
    n = layout.n_subcarriers
    n_psym = len(layout.pilot_symbols)
    if shared_data:
        grids = np.broadcast_to(
            draw_data_symbols((K, 1, n), rng, data_kind), (K, n_psym, n)
        ).copy()
    else:
        grids = draw_data_symbols((K, n_psym, n), rng, data_kind)
    pilot_cols = layout.pilot_subcarriers_absolute()
    slot_of = {slot: i for i, slot in enumerate(layout.pilot_slots)}
    for si, t_sym in enumerate(layout.pilot_symbols):
        for nu in layout.pilot_subcarriers:
            sample = book[slot_of[(nu, t_sym)], pilot_index]  # (K,)
            cols = pilot_cols[(pilot_cols % layout.block_subcarriers) == nu]
            grids[:, si, cols] = sample[:, None]
    return grids


def expand_blocks(h: np.ndarray, layout: SimulationLayout) -> np.ndarray:
    """Expand per-block channels (..., R) to per-subcarrier channels (..., N)."""
    full = np.repeat(h, layout.block_subcarriers, axis=-1)
    return full[..., : layout.n_subcarriers]


def synth_pilot_observations(
    h: np.ndarray,
    grids: np.ndarray,
    trace: PhaseNoiseTrace,
    network: NetworkRealization,
    layout: SimulationLayout,
    rng: np.random.Generator,
    eval_block: int = 1,
    gaussian_ici: bool = False,
    ici_power: Optional[np.ndarray] = None,
    cpe: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Received pilot observations y (L, tau_p) with exact phase-noise ICI.

    For every pilot slot (n, tau) and AP l the received sample is
    sum_k sqrt(p_k) * (J_{k,l} conv (h_{k,l} .* s_k))[n] + noise.  With
    ``gaussian_ici`` the ICI part (everything but the J_0 term) is replaced by
    a circularly-symmetric Gaussian of matched power ``ici_power`` (K, L) per
    pilot sample.  The noise is drawn last, after any Gaussian ICI.

    Parameters
    ----------
    h : (K, L, R) per-block channel draws for this trial.
    grids : (K, |T_p|, N) transmit grids for the pilot-bearing symbols.
    """
    K, L, _ = h.shape
    n = layout.n_subcarriers
    tau_p = layout.tau_p
    if gaussian_ici and ici_power is None:
        raise ValueError("ici_power required in gaussian_ici mode")
    sqrt_p = np.sqrt(network.p)
    h_full = expand_blocks(h, layout)  # (K, L, N)

    block_lo = (eval_block - 1) * layout.block_subcarriers
    slots = layout.pilot_slots
    slot_sub = np.array([block_lo + nu for nu, _ in slots])
    slot_sym = np.array([t for _, t in slots])  # 1-based

    y = np.empty((L, tau_p), dtype=complex)
    # fft(J_{k,l}) equals the time-domain phasor exp(j*theta) reversed mod N,
    # so the circular convolution never needs an explicit J vector.
    rev = (-np.arange(n)) % n
    g = np.empty((L, n), dtype=complex)
    fx = np.empty((L, n), dtype=complex)
    for si, t_sym in enumerate(layout.pilot_symbols):
        in_slot = np.flatnonzero(slot_sym == t_sym)
        subs = slot_sub[in_slot]
        ue_phase = trace.ue_phase[:, t_sym - 1, :]
        ap_phase = trace.ap_phase[:, t_sym - 1, :]
        # a phase constant over the symbol makes J a delta: no ICI at all
        flat = (ue_phase == ue_phase[:, :1]).all() and (ap_phase == ap_phase[:, :1]).all()
        if gaussian_ici or flat:
            if cpe is None:
                cpe = cpe_per_symbol(trace)  # (K, L, tau_c)
            terms = (sqrt_p[:, None, None] * grids[:, si, subs][:, None, :]
                     * cpe[:, :, t_sym - 1, None] * h_full[:, :, subs])
            if gaussian_ici:
                z = (
                    rng.standard_normal((K, L, len(in_slot)))
                    + 1j * rng.standard_normal((K, L, len(in_slot)))
                ) / np.sqrt(2.0)
                terms += z * np.sqrt(ici_power)[:, :, None]
            y[:, in_slot] = terms.sum(axis=0)
            continue
        # g[l, m] = sum_k sqrt(p_k) e_ue[k, m] fft(h_{k,l} .* s_k)[m], one k at a time
        w_ue = sqrt_p[:, None] * np.exp(1j * ue_phase[:, rev])  # (K, N)
        g.fill(0.0)
        for k in range(K):
            np.multiply(h_full[k], grids[k, si], out=fx)
            np.fft.fft(fx, axis=-1, out=fx)
            np.multiply(fx, w_ue[k], out=fx)
            np.add(g, fx, out=g)
        g *= np.exp(1j * ap_phase[:, rev])
        phases = np.exp(2j * np.pi * np.outer(subs, np.arange(n)) / n)
        y[:, in_slot] = g @ phases.T / n

    y += np.sqrt(network.sigma2 / 2.0) * (
        rng.standard_normal((L, tau_p)) + 1j * rng.standard_normal((L, tau_p))
    )
    return y


def time_domain_oracle(
    fir_taps: np.ndarray,
    grids: np.ndarray,
    trace: PhaseNoiseTrace,
    network: NetworkRealization,
    layout: SimulationLayout,
    symbol: int,
    noise_time: Optional[np.ndarray] = None,
):
    """Time-domain received symbol per AP and its frequency transform.

    Implements y_check = sum_k sqrt(p_k) diag(exp(j*theta)) (h_check circconv
    s_check) + noise, with s_check the unitary IDFT of the grid symbol.  The
    returned transform fft(y_check)/sqrt(N) equals the frequency-domain model
    sum_j s_j h_j J_{n-j} + noise_freq sample for sample.

    Parameters
    ----------
    fir_taps : (K, L, Q) time-domain channel taps.
    grids : (K, n_symbols, N) transmit grids; ``symbol`` is the 1-based OFDM
        symbol index selecting both the grid column and the trace symbol.
    noise_time : optional (L, N) time-domain noise; defaults to a fresh draw
        of CN(0, sigma2) per sample.
    """
    K, L, Q = fir_taps.shape
    n = layout.n_subcarriers
    s_idx = symbol - 1
    if noise_time is None:
        noise_time = np.zeros((L, n), dtype=complex)
    y_time = np.array(noise_time, dtype=complex)
    for l in range(L):
        for k in range(K):
            s_check = np.sqrt(n) * np.fft.ifft(grids[k, s_idx])
            conv = np.zeros(n, dtype=complex)
            for q in range(Q):
                conv += fir_taps[k, l, q] * np.roll(s_check, q)
            theta = trace.combined(k, l)[s_idx]
            y_time[l] += np.sqrt(network.p[k]) * np.exp(1j * theta) * conv
    return y_time, np.fft.fft(y_time, axis=-1) / np.sqrt(n)
