"""Decomposed pilot observation synthesis: the test oracle for the y-only path.

``decomposed_pilot_observations`` keeps, per (UE, AP, pilot slot), the
effective-channel (J_0) term and the ICI term separately, and the noise, with
y = sum_k (effective + ici) + noise, from ``received_terms``, the exact
decomposition of the received samples at any subcarriers of any symbol.  Its
noise is ``receiver_noise``, drawn
from the generator exactly as ``cfofdm.harness.observe`` draws a trial's
noise after its grids, so both give the same noise from equal generator
states.  ``synth_one`` runs the noise-free synthesis,
``cfofdm.ofdm.synth_pilot_observations``, on one trial, as a stack of one,
and adds that noise.  ``pilot_grid`` is the dense pilot pattern over the band
and ``phase_drift`` the drift spectrum of one symbol as printed, each built
literally, for tests that read them whole.
"""

from dataclasses import dataclass

import numpy as np

from cfofdm.ofdm import synth_pilot_observations
from cfofdm.phase_noise import PhaseNoiseTrace, cpe_per_symbol


def receiver_noise(network, shape, rng):
    """One trial's (L, tau_p) receiver noise, drawn as ``harness.observe`` draws it."""
    return np.sqrt(network.sigma2 / 2.0) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def synth_one(h, grids, trace, network, layout, rng=None):
    """``synth_pilot_observations`` of one trial, (K, L, R) channels, (K, |T_p|,
    N) grids and a trace without a stack axis, plus the receiver noise drawn
    from ``rng``, none without one: y (L, tau_p) and cpe (T, K, L) of its
    stack of one."""
    one = PhaseNoiseTrace(trace.ap_phase[None], trace.ue_phase[None])
    y, cpe = synth_pilot_observations(h[None], grids[None], one, network, layout)
    if rng is not None:
        y[0] += receiver_noise(network, y.shape[1:], rng)
    return y[0], cpe[0]


def pilot_grid(layout) -> np.ndarray:
    """The pilot pattern over the band, (tau_p, |T_p|, N): entry [t, si, j] is
    the sample sequence t sends on absolute subcarrier j in pilot symbol
    ``pilot_symbols[si]``, ``pilot_book[i, t]`` with i the slot of j's
    block-local subcarrier in that symbol; zero on the data subcarriers."""
    grid = np.zeros((layout.tau_p, len(layout.pilot_symbols), layout.n_subcarriers),
                    dtype=complex)
    for i, (nu, sym) in enumerate(zip(*layout.pilot_slot_positions)):
        cols = np.arange(nu, layout.n_subcarriers, layout.block_subcarriers)
        grid[:, layout.pilot_symbols.index(sym), cols] = layout.pilot_book[i][:, None]
    return grid


def phase_drift(theta_symbol: np.ndarray) -> np.ndarray:
    """Frequency-domain phase-drift vector of one OFDM symbol.

    J_i = (1/N) * sum_n exp(j*theta_n) * exp(-2j*pi*n*i/N).  The result is in
    natural DFT layout: entry ``J[i % N]`` is the coefficient for offset i, for
    any i in {-N/2, ..., N/2 - 1} (the definition is N-periodic in i).  J[0] is
    the common phase error.  The drift of a unit-modulus sequence satisfies
    sum_i |J_i|^2 = 1.
    """
    theta_symbol = np.asarray(theta_symbol)
    n = theta_symbol.shape[-1]
    if theta_symbol.ndim < 1 or n < 1:
        raise ValueError("theta_symbol must hold at least one sample")
    return np.fft.fft(np.exp(1j * theta_symbol), axis=-1) / n


def expand_blocks(h: np.ndarray, layout) -> np.ndarray:
    """Expand per-block channels (..., R) to per-subcarrier channels (..., N)."""
    full = np.repeat(h, layout.block_subcarriers, axis=-1)
    return full[..., : layout.n_subcarriers]


@dataclass
class PilotObservation:
    """Stacked pilot-position observations per AP, with the exact decomposition
    y = sum_k (effective-channel term + ICI term) + noise."""

    y: np.ndarray          # (L, tau_p)
    effective: np.ndarray  # (K, L, tau_p) sqrt(p_k) s J_0 h contributions
    ici: np.ndarray        # (K, L, tau_p) zeta contributions
    noise: np.ndarray      # (L, tau_p)


def received_terms(h, x, trace, network, layout, symbol, subs):
    """UE k's received samples at AP l on the subcarriers ``subs`` of OFDM
    symbol ``symbol`` (1-based within the block), exactly decomposed: the J_0
    (effective channel) term and the remaining ICI term, each (K, L,
    len(subs)) and scaled by sqrt(p_k).  ``x`` (K, N) is every UE's
    frequency-domain transmit sample on every subcarrier of that symbol and
    ``h`` (K, L, R) the per-block channels.

    The received sample on subcarrier n is (J_{k,l} conv (h_{k,l} .* x_k))[n],
    the circular convolution with the symbol's drift spectrum J_{k,l}.
    """
    n = layout.n_subcarriers
    sqrt_p = np.sqrt(network.p)
    h_full = expand_blocks(h, layout)  # (K, L, N)
    j0 = cpe_per_symbol(trace)[symbol - 1]  # (K, L)
    effective = (sqrt_p[:, None, None] * x[:, subs][:, None, :] * j0[:, :, None]
                 * h_full[:, :, subs])
    # fft(J_{k,l}) equals the time-domain phasor exp(j*theta) reversed mod N,
    # so the circular convolution never needs an explicit J vector.
    rev = (-np.arange(n)) % n
    e_ue = np.exp(1j * trace.ue_phase[:, symbol - 1, :][:, rev])  # (K, N)
    e_ap = np.exp(1j * trace.ap_phase[:, symbol - 1, :][:, rev])  # (L, N)
    phases = np.exp(2j * np.pi * np.outer(subs, np.arange(n)) / n)
    fx = np.fft.fft(x[:, None, :] * h_full, axis=-1)
    fx *= e_ue[:, None, :]
    conv_at = np.einsum("klm,lm,sm->kls", fx, e_ap, phases, optimize=True) / n
    return effective, sqrt_p[:, None, None] * conv_at - effective


def decomposed_pilot_observations(h, grids, trace, network, layout, rng) -> PilotObservation:
    """Received pilot observations with exact phase-noise ICI, decomposed.

    For every pilot slot (n, tau) of the first coherence block and AP l the
    received sample is sum_k sqrt(p_k) * (J_{k,l} conv (h_{k,l} .* s_k))[n] +
    noise, split into the J_0 (effective channel) part and the remaining ICI
    part (``received_terms`` of each pilot symbol).
    """
    K, L, _ = h.shape
    tau_p = layout.tau_p
    slot_sub, slot_sym = layout.pilot_slot_positions  # symbols 1-based

    effective = np.zeros((K, L, tau_p), dtype=complex)
    ici = np.zeros((K, L, tau_p), dtype=complex)
    for si, t_sym in enumerate(layout.pilot_symbols):
        in_slot = np.flatnonzero(slot_sym == t_sym)
        effective[:, :, in_slot], ici[:, :, in_slot] = received_terms(
            h, grids[:, si, :], trace, network, layout, t_sym, slot_sub[in_slot])

    noise = receiver_noise(network, (L, tau_p), rng)
    y = (effective + ici).sum(axis=0) + noise
    return PilotObservation(y=y, effective=effective, ici=ici, noise=noise)
