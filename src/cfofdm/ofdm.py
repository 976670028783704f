"""Frequency-domain transmit grids, pilot observation synthesis with exact
inter-carrier interference, and the time-domain validation oracle."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .network import NetworkRealization, SimulationLayout
from .phase_noise import PhaseNoiseTrace, phasor


def build_transmit_grids(
    layout: SimulationLayout,
    pilot_index: np.ndarray,
    rng: np.random.Generator,
    shared_data: bool = False,
) -> np.ndarray:
    """Per-UE frequency grids for the pilot-bearing OFDM symbols.

    Returns (K, |T_p|, N): for every pilot symbol, each UE transmits its
    sequence's samples of ``layout.pilot_grid`` on the pilot subcarriers and
    fresh unit-power circularly-symmetric Gaussian data symbols elsewhere.  With
    ``shared_data`` one data draw is repeated across the pilot symbols; the
    self-checks use this world because there the estimator's assumed pilot
    covariance is exact.
    """
    K = len(pilot_index)
    n = layout.n_subcarriers
    n_psym = len(layout.pilot_symbols)
    shape = (K, 1 if shared_data else n_psym, n)
    grids = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    if shared_data:
        grids = np.repeat(grids, n_psym, axis=1)
    cols = np.flatnonzero(layout.pilot_grid[0, 0])  # pilot samples have unit modulus
    grids[:, :, cols] = layout.pilot_grid[:, :, cols][pilot_index]
    return grids


def _constant_phase(phase: np.ndarray) -> bool:
    """Whether every node's phase is constant over each symbol, from (..., nodes,
    tau_c, N) phases.  A walk of ``gen_pn_trace`` is so over every symbol
    (sigma^2 = 0) or over none; the symbol ends are compared first, so a varying
    walk costs no full scan."""
    return bool((phase[..., -1] == phase[..., 0]).all() and (phase == phase[..., :1]).all())


def _symbol_phasors(phase: np.ndarray, constant: bool, out: np.ndarray) -> np.ndarray:
    """exp(j phase) of (..., nodes, N) phases, written into ``out``; where every
    row is ``constant``, one phasor per node, broadcast, which gives the same
    values."""
    if constant:
        out[...] = phasor(phase[..., :1])
    else:
        np.cos(phase, out=out.real)
        np.sin(phase, out=out.imag)
    return out


# Bytes of one (tile, N) complex array of the synthesis.  A tile height is a
# multiple of 4, so the BLAS blocks each tile's CPE product as it blocks the
# product over every AP, and the CPE comes out bitwise equal.
_TILE_BYTES = 1 << 19


def _tile_rows(n: int) -> int:
    """APs per tile of the synthesis at N = ``n`` subcarriers."""
    return max(4, _TILE_BYTES // (16 * n) // 4 * 4)


def synth_pilot_observations(
    h: np.ndarray,
    grids: np.ndarray,
    trace: PhaseNoiseTrace,
    network: NetworkRealization,
    layout: SimulationLayout,
    rng,
) -> Tuple[np.ndarray, np.ndarray]:
    """Received pilot observations with exact phase-noise ICI, and the common
    phase errors of every symbol of the block.

    For every pilot slot (n, tau) and AP l the received sample is
    sum_k sqrt(p_k) * (J_{k,l} conv (h_{k,l} .* s_k))[n] + noise, with the
    noise drawn from ``rng``.  The APs are taken a tile at a time, so the
    working set is a few (tile, N) arrays of about 0.5 MB each, never (L, N).

    A leading axis of B trials on ``h``, ``grids`` and the trace's phases
    synthesizes a stack of trials in one call, with ``rng`` one generator per
    trial, and returns y and cpe with that axis first.  A tile then takes its
    APs of every trial, so each trial's y and CPE are bit for bit those of
    its call alone; ``harness.stack_size`` keeps a stack's tile within the
    budget.

    The trace's phases are (nodes, tau_c, N) walks, or (nodes, 1, 1) constant
    phases, those of ideal oscillators: then symbol 1 stands for every symbol
    of the block, and its CPE is computed once.

    Parameters
    ----------
    h : (K, L, R) per-block channel draws for this trial.
    grids : (K, |T_p|, N) transmit grids for the pilot-bearing symbols.

    Returns
    -------
    y : (L, tau_p) stacked pilot observations per AP.
    cpe : (T, K, L) common phase errors J_{k,l,0}^{(tau)} of the trace's T
        symbols, symbol first like every per-symbol array of a trial; equal
        to ``phase_noise.cpe_per_symbol(trace)``.
    """
    if h.ndim == 4:
        return _synth_stack(h, grids, trace, network, layout, rng)
    one = PhaseNoiseTrace(trace.ap_phase[None], trace.ue_phase[None])
    y, cpe = _synth_stack(h[None], grids[None], one, network, layout, [rng])
    return y[0], cpe[0]


def _synth_stack(h, grids, trace, network, layout, rngs) -> Tuple[np.ndarray, np.ndarray]:
    """``synth_pilot_observations`` of a stack of trials: (B, ...) arrays and
    one generator per trial; returns y (B, L, tau_p) and cpe (B, T, K, L)."""
    B, K, L, _ = h.shape
    n = layout.n_subcarriers
    nc = layout.block_subcarriers
    r_whole = n // nc  # whole coherence blocks; a partial one may follow
    n_sym = trace.ue_phase.shape[-2]  # tau_c, or 1 for constant phases
    tau_p = layout.tau_p
    sqrt_p = np.sqrt(network.p)
    slot_sub, slot_sym = layout.pilot_slot_positions
    ue_const, ap_const = _constant_phase(trace.ue_phase), _constant_phase(trace.ap_phase)
    # a phase constant over each symbol makes J a delta: no ICI at all
    no_ici = ue_const and ap_const
    if trace.ap_phase.shape[-2] != n_sym or not (n_sym == layout.block_symbols or no_ici):
        raise ValueError("trace phases must be (..., nodes, tau_c, N) walks or "
                         "(..., nodes, 1, 1) constant phases")

    y = np.empty((B, L, tau_p), dtype=complex)
    cpe = np.empty((B, n_sym, K, L), dtype=complex)
    # fft(J_{k,l}) equals the time-domain phasor exp(j*theta) reversed mod N,
    # so the circular convolution never needs an explicit J vector.
    rev = (-np.arange(n)) % n
    rows = _tile_rows(n)
    e_ue = np.empty((B, K, n), dtype=complex)
    ap_buf, fx_buf, g_buf = (np.empty((B, min(rows, L), n), dtype=complex) for _ in range(3))
    pilot_si = {t: si for si, t in enumerate(layout.pilot_symbols)}
    for t_sym in range(1, n_sym + 1):
        _symbol_phasors(trace.ue_phase[:, :, t_sym - 1], ue_const, e_ue)
        si = pilot_si.get(t_sym)
        in_slot = np.flatnonzero(slot_sym == t_sym)  # empty off the pilot symbols
        ici = si is not None and not no_ici
        if ici:
            phases = np.exp(2j * np.pi * np.outer(slot_sub[in_slot], np.arange(n)) / n)
            w_ue = sqrt_p[:, None] * e_ue[..., rev]  # (B, K, N)
        for a in range(0, L, rows):
            b = min(a + rows, L)
            e_ap = _symbol_phasors(trace.ap_phase[:, a:b, t_sym - 1], ap_const,
                                   ap_buf[:, : b - a])
            cpe[:, t_sym - 1, :, a:b] = e_ue @ np.swapaxes(e_ap, -1, -2) / n
            if not ici:
                continue
            # g[l, m] = sum_k sqrt(p_k) e_ue[k, m] fft(h_{k,l} .* s_k)[m], one k at
            # a time; h_{k,l} is constant over each block, the last one maybe
            # partial.  A broadcast copy of h and a contiguous multiply beat one
            # broadcast multiply, whose inner loop runs over only N_c samples.
            fx, g = fx_buf[:, : b - a], g_buf[:, : b - a]
            fx_blocks = fx[..., : r_whole * nc].reshape(B, b - a, r_whole, nc)  # a view of fx
            for k in range(K):
                fx_blocks[...] = h[:, k, a:b, :r_whole, None]
                fx[..., r_whole * nc :] = h[:, k, a:b, r_whole:]
                np.multiply(fx, grids[:, k, si, None], out=fx)
                np.fft.fft(fx, axis=-1, out=fx)
                if k == 0:
                    np.multiply(fx, w_ue[:, k, None], out=g)
                else:
                    np.multiply(fx, w_ue[:, k, None], out=fx)
                    np.add(g, fx, out=g)
            # g *= e_ap[..., rev] through a contiguous copy in fx: numpy would
            # buffer a product with the strided reversed view, 128 KB per operand
            g *= np.take(e_ap, rev, axis=-1, out=fx, mode="wrap")
            y[:, a:b, in_slot] = g @ phases.T / n
    if no_ici:
        # y is each pilot rotated by its symbol's CPE, on the slots of block 1
        slot_si = [pilot_si[t] for t in slot_sym]
        slot_cpe = np.moveaxis(cpe[:, np.minimum(slot_sym, n_sym) - 1], 1, -1)  # (B, K, L, tau_p)
        terms = (sqrt_p[:, None, None] * grids[:, :, slot_si, slot_sub][:, :, None, :]
                 * slot_cpe * h[..., :1])
        y[...] = terms.sum(axis=1)

    for y_b, rng in zip(y, rngs):
        y_b += np.sqrt(network.sigma2 / 2.0) * (
            rng.standard_normal((L, tau_p)) + 1j * rng.standard_normal((L, tau_p))
        )
    return y, cpe


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
    noise_time : optional (L, N) time-domain noise; defaults to zeros, a
        noise-free observation.
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
