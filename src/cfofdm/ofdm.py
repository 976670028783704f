"""Frequency-domain transmit grids and pilot observation synthesis with exact
inter-carrier interference."""

from __future__ import annotations

import functools
import math
from typing import Tuple

import numpy as np

from .network import NetworkRealization, SimulationLayout
from .phase_noise import PhaseNoiseTrace, phasor


def place_pilots(grids: np.ndarray, layout: SimulationLayout,
                 pilot_index: np.ndarray) -> np.ndarray:
    """Write the pilot samples into (..., K, |T_p|, N) ``grids`` in place and
    return them: UE k sends ``pilot_book[i, pilot_index[k]]`` on every absolute
    column of slot i's subcarrier in slot i's symbol (``pilot_slot_positions``)."""
    book = layout.pilot_book.T.reshape(layout.tau_p, len(layout.pilot_symbols), -1)[pilot_index]
    for ni, nu in enumerate(layout.pilot_subcarriers):
        grids[..., nu::layout.block_subcarriers] = book[..., ni, None]
    return grids


def build_transmit_grids(
    layout: SimulationLayout,
    pilot_index: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-UE frequency grids for the pilot-bearing OFDM symbols.

    Returns (K, |T_p|, N): for every pilot symbol, each UE transmits its
    sequence's pilot samples (``place_pilots``) on the pilot subcarriers and
    fresh unit-power circularly-symmetric Gaussian data symbols elsewhere.
    """
    shape = (len(pilot_index), len(layout.pilot_symbols), layout.n_subcarriers)
    grids = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return place_pilots(grids, layout, pilot_index)


def _symbol_phasors(phase: np.ndarray, t: int, out: np.ndarray) -> np.ndarray:
    """exp(j phase) of symbol ``t`` (0-based) of (..., nodes, tau_c, N) walks,
    written into ``out`` (..., nodes, N) by ``phase_noise.phasor``, the function
    ``cpe_per_symbol`` calls, so that the synthesis' CPE is bitwise its CPE; a
    (..., nodes, 1, 1) constant phase stands for every symbol: one phasor per
    node, broadcast."""
    if phase.shape[-2:] == (1, 1):
        out[...] = phasor(phase[..., 0, :])
    else:
        phasor(phase[..., t, :], out=out)
    return out


# Bytes of one (tile, N) complex array of the synthesis.  A tile height is a
# multiple of 4, so the BLAS blocks each tile's CPE product as it blocks the
# product over every AP, and the CPE comes out bitwise equal.
_TILE_BYTES = 1 << 19


def _tile_rows(n: int) -> int:
    """APs per tile of the synthesis at N = ``n`` subcarriers."""
    return max(4, _TILE_BYTES // (16 * n) // 4 * 4)


# Per (UE, AP, pilot slot) the drift-spectrum form of the ICI costs an inverse
# FFT and three passes of N samples, about N log2 N, and the pilot-side-first
# form its share of an (APs, N) by (N, R) product, N R: the second is cheaper
# below R = c log2 N.  Its coefficients, formed once per UE chunk for every
# AP, make c grow with the AP count L.  At one BLAS thread the two forms'
# synthesis times meet at c = 0.9, 2.7 and 4.2 for L = 10, 20 and 30 at
# N = 120 (K = 5, 3 trials), and at c = 5.1 for L = 200 at N = 1200 (K = 10,
# 1 trial).  L stays out of the rule because the measured layouts bound c
# only loosely and none has few APs: the ci layout (R = 10 of N = 120,
# c > 1.45) gains from products and fig2 (R = 100 of N = 1200, c < 9.8)
# loses.  c = 1.6 is the least that also keeps the ci layout's partial-block
# variant (N_c = 11, R = 11, c > 1.59) on products, so few layouts take them
# below their crossover: by the measured crossovers, those of fewer than
# about 14 APs with R between 0.9 and 1.6 log2 N.
_PRODUCTS_PER_LOG2N = 1.6


def _ici_by_products(n: int, r: int) -> bool:
    """Whether the synthesis takes the pilot-side-first form of the ICI at
    N = ``n`` subcarriers in ``r`` coherence blocks, not the drift-spectrum
    form: an operation count, R < c log2 N, in which the UE and trial counts
    cancel and the AP count does not enter."""
    return r < _PRODUCTS_PER_LOG2N * math.log2(n)


@functools.lru_cache(maxsize=4)
def _block_dft(n: int, nc: int) -> Tuple[np.ndarray, np.ndarray]:
    """F (N_c, N) and P (R, N) of the pilot-side-first form at N = ``n``
    subcarriers in blocks of ``nc``: F[i, m] = exp(2 pi j i m / N) / N and
    P[r, m] = exp(2 pi j r N_c m / N), their exponents reduced mod N in
    integers; read-only, built once per layout."""
    m = np.arange(n)
    dft = np.exp(2j * np.pi * (np.arange(nc)[:, None] * m % n) / n) / n
    block_phase = np.exp(2j * np.pi * (np.arange(-(-n // nc))[:, None] * nc * m % n) / n)
    for a in (dft, block_phase):
        a.flags.writeable = False
    return dft, block_phase


def _add_block_sums(y: np.ndarray, sums: np.ndarray, h: np.ndarray, prod: np.ndarray) -> None:
    """y[b, l] += sum_k sum_r h[b, k, l, r] sums[b, l, k, r], for a (B, APs)
    slice y of one pilot slot, (B, APs, UEs, R) block sums and h's (B, UEs,
    APs, R) slice: summed over blocks, then over UEs in order, the same way
    at every stack size and tile (an einsum's order depends on both, and so
    does a sum over the UE axis: numpy sums it pairwise where a tile of one
    AP leaves it innermost).  ``prod`` is a (B, UEs, APs, R) buffer."""
    np.multiply(np.swapaxes(sums, 1, 2), h, out=prod)
    ue = prod.sum(axis=-1)
    np.add.accumulate(ue, axis=1, out=ue)
    y += ue[:, -1]


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
    symbol's phasors (``phase_noise.phasor``).  The inner sum takes one of
    two forms, chosen by the layout alone (``_ici_by_products``: R blocks of
    N subcarriers take the second where R < 1.6 log2 N, bounded by the ci
    layout's R = 10 of N = 120, which does, and fig2's R = 100 of N = 1200,
    which does not).  Both give y within round-off of each other.

    The drift-spectrum form takes one inverse FFT per (UE, AP, pilot slot).
    The APs are taken a tile at a time, of every trial, for the CPE.  For
    the ICI each tile goes a chunk of UEs, then a pilot slot, then a
    sub-tile at a time: each sub-tile's block sums go into its rows of one
    (B, tile, chunk, R) array, and the channel weighting, the sum over blocks
    and the in-order sum over UEs run once per tile, chunk and slot.  So the
    working set is a (B, tile, N) array and one (B, sub-tile, chunk, N) array
    of drift spectra of about 0.5 MB each, never (L, N).

    The pilot-side-first form runs no FFT.  It rests on the identity
    sum_{j in b} s[j] ifft(x)[j] = sum_m x[m] C_b[m], C_b = ifft(s .* 1_b),
    so with x = e_ue_k .* e_ap_l the inner sum is sum_m e_ap_l[m] C_kb[m],
    C_kb = e_ue_k .* ifft(s_k .* 1_b).  Per pilot symbol and chunk of UEs,
    C = (S @ F) .* P .* e_ue: S holds each block's N_c samples of sqrt(p_k)
    s_k, zero-padded in a partial last block, F[i, m] = e^{2 pi j i m/N} / N
    and P[b, m] = e^{2 pi j b N_c m/N} (``_block_dft``); a slot off
    subcarrier 0 puts its ramp on C.  Then the AP phasors times C^T give
    every (UE, block) sum of every AP, one (B, L, N) by (B, N, chunk R)
    product per pilot slot and UE chunk; the channel weighting sums them
    over blocks, then UEs in order.  It takes every AP in one tile, so its
    AP phasors are one (B, L, N) array, and a chunk's (B, chunk, R, N)
    coefficients fit the tile budget per trial.

    In both forms the UE chunks are fixed whatever the stack and every trial
    is taken alone by each product: each trial's y and CPE are bit for bit
    those of its stack of one.  ``harness.observe`` passes a trial stack a
    synthesis piece at a time, which keeps a piece within the budget
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
    R = layout.n_blocks
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
    products = not no_ici and _ici_by_products(n, R)

    y = np.zeros((B, L, tau_p), dtype=complex)
    cpe = np.empty((B, n_sym, K, L), dtype=complex)
    e_ue = np.empty((B, K, n), dtype=complex)
    # the pilot-side-first form takes every AP in one tile: its coefficients
    # are formed once per UE chunk and read by every AP's phasors
    rows = L if products else min(_tile_rows(n), L)
    ap_buf = np.empty((B, rows, n), dtype=complex)
    if products:
        # UEs per chunk: one trial's (chunk, R, N) coefficients fit the tile
        # budget, fixed whatever the stack so that the UE sum keeps its order
        kc = min(K, max(1, _TILE_BYTES // (16 * R * n)))
        ap_sums = np.empty((B, L, kc * R), dtype=complex)
        dft, block_phase = _block_dft(n, nc)
        s_pad = np.zeros((B, K, R * nc), dtype=complex)  # zeros past N: the partial block
        coef = np.empty((B, kc, R, n), dtype=complex)
        ramped = np.empty((B, kc * R, n), dtype=complex) if slot_sub.any() else None
    else:
        # UEs per chunk and APs per sub-tile of the ICI: one AP's drift spectra
        # of a chunk fit the tile budget, and a sub-tile's of every trial do
        # too.  The chunks do not depend on B: they set the order of the UE sum.
        kc = min(K, max(1, _TILE_BYTES // (16 * n)))
        sub = min(rows, max(1, _TILE_BYTES // (16 * B * kc * n)))
        drift = np.empty((B, sub, kc, n), dtype=complex)
        block_sums = np.empty((B, rows, kc, R), dtype=complex)
        ones = np.ones(nc, dtype=complex)
    per_ue = np.empty((B, kc, rows, R), dtype=complex)  # h's own layout
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
            # the slot at subcarrier nu reads J[nu - j] = D[j - nu]: the ramp
            # exp(-2j pi nu m / N) on the phasors shifts D by nu
            ramps = [(i, None if nu == 0 else np.exp(-2j * np.pi * nu * np.arange(n) / n))
                     for i, nu in zip(in_slot, slot_sub[in_slot])] if ici else []
            if ici and not products:
                s_w = sqrt_p[:, None] * grids[:, :, si]  # (B, K, N)
                slots = [(i, e_ue if ramp is None else e_ue * ramp) for i, ramp in ramps]
            for a in range(0, L, rows):
                b = min(a + rows, L)
                e_ap = _symbol_phasors(trace.ap_phase[:, a:b], t_sym - 1, ap_buf[:, : b - a])
                cpe[:, t_sym - 1, :, a:b] = e_ue @ np.swapaxes(e_ap, -1, -2) / n
                if not ici or products:
                    continue
                for k0 in range(0, K, kc):
                    k1 = min(k0 + kc, K)
                    sums = block_sums[:, : b - a, : k1 - k0]
                    prod = per_ue[:, : k1 - k0, : b - a]
                    for i, w_ue in slots:
                        for c in range(0, b - a, sub):
                            # D_kl[j] = J_kl[-j], then the block sums of s_k D_kl
                            # into the sub-tile's rows of the tile's sums
                            d = min(c + sub, b - a)
                            spec = drift[:, : d - c, : k1 - k0]
                            np.multiply(e_ap[:, c:d, None], w_ue[:, None, k0:k1], out=spec)
                            np.fft.ifft(spec, axis=-1, out=spec)
                            spec *= s_w[:, None, k0:k1]
                            whole = spec[..., : r_whole * nc].reshape(B, d - c, k1 - k0, r_whole, nc)
                            np.matmul(whole, ones, out=sums[:, c:d, :, :r_whole])
                            if r_whole < R:  # the partial block
                                np.matmul(spec[..., r_whole * nc :], ones[: n - r_whole * nc],
                                          out=sums[:, c:d, :, r_whole])
                        # y_l = sum_k sum_b h_kl[b] sqrt(p_k) sum_{j in b} s_k[j] D_kl[j],
                        # once per tile
                        _add_block_sums(y[:, a:b, i], sums, h[:, k0:k1, a:b], prod)
            if not (ici and products):
                continue
            # sum_{j in b} s_k[j] D_kl[j] = sum_m e_ap_l[m] C_kb[m], with
            # C_kb = e_ue_k .* ifft(s_k .* 1_b) = e_ue_k .* P_b .* (S_kb @ F),
            # S_kb the block's N_c samples: once per UE chunk, for every AP
            np.multiply(sqrt_p[:, None], grids[:, :, si], out=s_pad[..., :n])
            for k0 in range(0, K, kc):
                k1 = min(k0 + kc, K)
                c = coef[:, : k1 - k0]
                flat = c.reshape(B, (k1 - k0) * R, n)
                np.matmul(s_pad[:, k0:k1].reshape(B, (k1 - k0) * R, nc), dft, out=flat)
                c *= block_phase
                c *= e_ue[:, k0:k1, None]
                q = ap_sums[..., : (k1 - k0) * R]
                for i, ramp in ramps:
                    w = flat if ramp is None else np.multiply(
                        flat, ramp, out=ramped[:, : (k1 - k0) * R])
                    np.matmul(ap_buf, np.swapaxes(w, -1, -2), out=q)
                    _add_block_sums(y[..., i], q.reshape(B, L, k1 - k0, R), h[:, k0:k1],
                                    per_ue[:, : k1 - k0])
    if no_ici:
        # y is each pilot rotated by the one symbol's CPE, on the slots of block 1
        slot_si = [pilot_si[t] for t in slot_sym]
        terms = (sqrt_p[:, None, None] * grids[:, :, slot_si, slot_sub][:, :, None, :]
                 * cpe[:, 0, :, :, None] * h[..., :1])
        y[...] = terms.sum(axis=1)
    return y, cpe

