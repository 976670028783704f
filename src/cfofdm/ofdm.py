"""Frequency-domain transmit grids and pilot observation synthesis with exact
inter-carrier interference."""

from __future__ import annotations

from typing import Tuple

import itertools

import numpy as np

from .network import NetworkRealization, SimulationLayout
from .phase_noise import PhaseNoiseTrace, phasor


def build_transmit_grids(
    layout: SimulationLayout,
    pilot_index: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-UE frequency grids for the pilot-bearing OFDM symbols.

    Returns (K, |T_p|, N): for every pilot symbol, each UE transmits its
    sequence's samples of ``layout.pilot_grid`` on the pilot subcarriers and
    fresh unit-power circularly-symmetric Gaussian data symbols elsewhere.
    """
    shape = (len(pilot_index), len(layout.pilot_symbols), layout.n_subcarriers)
    grids = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    cols = np.flatnonzero(layout.pilot_grid[0, 0])  # pilot samples have unit modulus
    grids[:, :, cols] = layout.pilot_grid[:, :, cols][pilot_index]
    return grids


def _symbol_phasors(phase: np.ndarray, t: int, out: np.ndarray) -> np.ndarray:
    """exp(j phase) of symbol ``t`` (0-based) of (..., nodes, tau_c, N) walks,
    written into ``out`` (..., nodes, N); a (..., nodes, 1, 1) constant phase
    stands for every symbol: one phasor per node, broadcast."""
    if phase.shape[-2:] == (1, 1):
        out[...] = phasor(phase[..., 0, :])
    else:
        np.cos(phase[..., t, :], out=out.real)
        np.sin(phase[..., t, :], out=out.imag)
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
) -> Tuple[np.ndarray, np.ndarray]:
    """Noise-free pilot observations with exact phase-noise ICI, and the
    common phase errors of every symbol of the block, of a stack of B trials.
    It draws nothing: ``harness.observe`` adds each trial's receiver noise.

    For every pilot slot (nu, tau) and AP l the received sample is
    sum_k sqrt(p_k) * (J_{k,l} conv (h_{k,l} .* s_k))[nu].  With h_{k,l}
    constant over each coherence block b it is evaluated as
    sum_k sqrt(p_k) sum_b h_{k,l}[b] sum_{j in b} s_k[j] J_{k,l}[nu - j], where
    J_{k,l}[-j] = ifft(e_ue_k .* e_ap_l)[j] is the drift spectrum of the
    symbol's phasors: one inverse FFT per (UE, AP, pilot slot).  The APs are
    taken a tile at a time, of every trial, for the CPE, and a sub-tile and a
    chunk of UEs at a time for the ICI, so the working set is a (B, tile, N)
    array and one (B, sub-tile, chunk, N) array of drift spectra of about
    0.5 MB each, never (L, N), and each trial's y and CPE are bit for bit
    those of its stack of one.  ``harness.observe`` passes a trial stack a
    synthesis piece at a time, which keeps a piece's tile within the budget
    whatever the size of the stack.

    Each node kind's phases are (B, nodes, tau_c, N) walks, or (B, nodes, 1, 1)
    constant phases, those of ideal oscillators, which stand for every sample
    of every symbol.  Where both kinds are constant J is a delta: symbol 1
    stands for every symbol, its CPE is computed once, and each pilot slot's
    y is its pilot rotated by that CPE.

    Parameters
    ----------
    h : (B, K, L, R) per-block channel draws.
    grids : (B, K, |T_p|, N) transmit grids for the pilot-bearing symbols.

    Returns
    -------
    y : (B, L, tau_p) stacked noise-free pilot observations per AP.
    cpe : (B, T, K, L) common phase errors J_{k,l,0}^{(tau)}, symbol first like
        every per-symbol array of a trial, T = tau_c, or 1 where both kinds
        are constant; each trial's equal to ``phase_noise.cpe_per_symbol``.
    """
    B, K, L, _ = h.shape
    n = layout.n_subcarriers
    nc = layout.block_subcarriers
    r_whole = n // nc  # whole coherence blocks; a partial one may follow
    tau_p = layout.tau_p
    sqrt_p = np.sqrt(network.p)
    slot_sub, slot_sym = layout.pilot_slot_positions
    shapes = (trace.ap_phase.shape[-2:], trace.ue_phase.shape[-2:])
    if not all(s in ((layout.block_symbols, n), (1, 1)) for s in shapes):
        raise ValueError("trace phases must be (..., nodes, tau_c, N) walks or "
                         "(..., nodes, 1, 1) constant phases")
    # both kinds constant make J a delta: no ICI at all
    no_ici = shapes == ((1, 1), (1, 1))
    n_sym = 1 if no_ici else layout.block_symbols

    y = np.zeros((B, L, tau_p), dtype=complex)
    cpe = np.empty((B, n_sym, K, L), dtype=complex)
    rows = _tile_rows(n)
    # UEs per chunk and APs per sub-tile of the ICI: one AP's drift spectra of
    # a chunk fit the tile budget, and a sub-tile's of every trial do too.
    # The chunks do not depend on B: they set the order of the UE sum.
    kc = min(K, max(1, _TILE_BYTES // (16 * n)))
    sub = min(rows, L, max(1, _TILE_BYTES // (16 * B * kc * n)))
    e_ue = np.empty((B, K, n), dtype=complex)
    ap_buf = np.empty((B, min(rows, L), n), dtype=complex)
    drift = np.empty((B, sub, kc, n), dtype=complex)
    block_sums = np.empty((B, sub, kc, layout.n_blocks), dtype=complex)
    per_ue = np.empty((B, kc, sub, layout.n_blocks), dtype=complex)  # h's own layout
    ones = np.ones(nc, dtype=complex)
    pilot_si = {t: si for si, t in enumerate(layout.pilot_symbols)}
    # numpy runs a product with a broadcast operand through buffers of
    # np.getbufsize() elements allocated per call, 128 KB each at the default
    # 8192; 1024-element buffers stay in L1, and rows of N >= 1024 need none.
    # From numpy 2.0 the buffer size lives in the context variable that
    # errstate saves, so leaving the block restores the caller's size.
    with np.errstate():
        np.setbufsize(1024)
        for t_sym in range(1, n_sym + 1):
            _symbol_phasors(trace.ue_phase, t_sym - 1, e_ue)
            si = pilot_si.get(t_sym)
            in_slot = np.flatnonzero(slot_sym == t_sym)  # empty off the pilot symbols
            ici = si is not None and not no_ici
            if ici:
                s_w = sqrt_p[:, None] * grids[:, :, si]  # (B, K, N)
                # the slot at subcarrier nu reads J[nu - j] = D[j - nu]: the ramp
                # exp(-2j pi nu m / N) on the UE phasors shifts D by nu
                slots = [(i, e_ue if nu == 0 else
                          e_ue * np.exp(-2j * np.pi * nu * np.arange(n) / n))
                         for i, nu in zip(in_slot, slot_sub[in_slot])]
            for a in range(0, L, rows):
                b = min(a + rows, L)
                e_ap = _symbol_phasors(trace.ap_phase[:, a:b], t_sym - 1, ap_buf[:, : b - a])
                cpe[:, t_sym - 1, :, a:b] = e_ue @ np.swapaxes(e_ap, -1, -2) / n
                if not ici:
                    continue
                for c, k0 in itertools.product(range(a, b, sub), range(0, K, kc)):
                    d, k1 = min(c + sub, b), min(k0 + kc, K)
                    spec = drift[:, : d - c, : k1 - k0]
                    sums = block_sums[:, : d - c, : k1 - k0]
                    prod = per_ue[:, : k1 - k0, : d - c]
                    whole = spec[..., : r_whole * nc].reshape(B, d - c, k1 - k0, r_whole, nc)
                    for i, w_ue in slots:
                        # D_kl[j] = J_kl[-j], the block sums of s_k D_kl, then
                        # y_l = sum_k sum_b h_kl[b] sqrt(p_k) sum_{j in b} s_k[j] D_kl[j]
                        np.multiply(e_ap[:, c - a : d - a, None], w_ue[:, None, k0:k1], out=spec)
                        np.fft.ifft(spec, axis=-1, out=spec)
                        spec *= s_w[:, None, k0:k1]
                        np.matmul(whole, ones, out=sums[..., :r_whole])
                        if r_whole < layout.n_blocks:  # the partial block
                            np.matmul(spec[..., r_whole * nc :], ones[: n - r_whole * nc],
                                      out=sums[..., r_whole])
                        # summed over blocks, then UEs in order, the same way at every
                        # stack size and sub-tile (an einsum's order depends on both,
                        # and so does a sum over the UE axis: numpy sums it pairwise
                        # where a sub-tile of one AP leaves it innermost)
                        np.multiply(np.swapaxes(sums, 1, 2), h[:, k0:k1, c:d], out=prod)
                        ue = prod.sum(axis=-1)
                        np.add.accumulate(ue, axis=1, out=ue)
                        y[:, c:d, i] += ue[:, -1]
    if no_ici:
        # y is each pilot rotated by the one symbol's CPE, on the slots of block 1
        slot_si = [pilot_si[t] for t in slot_sym]
        terms = (sqrt_p[:, None, None] * grids[:, :, slot_si, slot_sub][:, :, None, :]
                 * cpe[:, 0, :, :, None] * h[..., :1])
        y[...] = terms.sum(axis=1)
    return y, cpe

