"""Decomposed pilot observation synthesis: the test oracle for the y-only path.

``decomposed_pilot_observations`` keeps, per (UE, AP, pilot slot), the
effective-channel (J_0) term and the ICI term separately, and the noise, with
y = sum_k (effective + ici) + noise.  It draws from the generator exactly as
``cfofdm.ofdm.synth_pilot_observations`` does, so both give the same noise
draws from equal generator states.  ``synth_one`` runs that synthesis on one
trial, as a stack of one.
"""

from dataclasses import dataclass

import numpy as np

from cfofdm.ofdm import synth_pilot_observations
from cfofdm.phase_noise import PhaseNoiseTrace, cpe_per_symbol


def synth_one(h, grids, trace, network, layout, rng):
    """``synth_pilot_observations`` of one trial, (K, L, R) channels, (K, |T_p|,
    N) grids, a trace without a stack axis and one generator: y (L, tau_p) and
    cpe (T, K, L) of its stack of one."""
    one = PhaseNoiseTrace(trace.ap_phase[None], trace.ue_phase[None])
    y, cpe = synth_pilot_observations(h[None], grids[None], one, network, layout, [rng])
    return y[0], cpe[0]


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


def decomposed_pilot_observations(h, grids, trace, network, layout, rng) -> PilotObservation:
    """Received pilot observations with exact phase-noise ICI, decomposed.

    For every pilot slot (n, tau) of the first coherence block and AP l the
    received sample is sum_k sqrt(p_k) * (J_{k,l} conv (h_{k,l} .* s_k))[n] +
    noise, split into the J_0 (effective channel) part and the remaining ICI
    part.
    """
    K, L, _ = h.shape
    n = layout.n_subcarriers
    tau_p = layout.tau_p
    sqrt_p = np.sqrt(network.p)
    h_full = expand_blocks(h, layout)  # (K, L, N)
    cpe = cpe_per_symbol(trace).transpose(1, 2, 0)  # (K, L, tau_c)

    slots = layout.pilot_slots
    slot_sub = np.array([nu for nu, _ in slots])
    slot_sym = np.array([t for _, t in slots])  # 1-based

    effective = np.zeros((K, L, tau_p), dtype=complex)
    ici = np.zeros((K, L, tau_p), dtype=complex)

    # fft(J_{k,l}) equals the time-domain phasor exp(j*theta) reversed mod N,
    # so the circular convolution never needs an explicit J vector.
    rev = (-np.arange(n)) % n
    for si, t_sym in enumerate(layout.pilot_symbols):
        in_slot = np.flatnonzero(slot_sym == t_sym)
        subs = slot_sub[in_slot]
        j0 = cpe[:, :, t_sym - 1]  # (K, L)
        s_at = grids[:, si, :][:, subs]  # (K, n_slots)
        h_at = h_full[:, :, subs]        # (K, L, n_slots)
        effective[:, :, in_slot] = (
            sqrt_p[:, None, None] * s_at[:, None, :] * j0[:, :, None] * h_at
        )
        e_ue = np.exp(1j * trace.ue_phase[:, t_sym - 1, :][:, rev])  # (K, N)
        e_ap = np.exp(1j * trace.ap_phase[:, t_sym - 1, :][:, rev])  # (L, N)
        phases = np.exp(2j * np.pi * np.outer(subs, np.arange(n)) / n)
        fx = np.fft.fft(grids[:, si, None, :] * h_full, axis=-1)
        fx *= e_ue[:, None, :]
        conv_at = np.einsum("klm,lm,sm->kls", fx, e_ap, phases, optimize=True) / n
        ici[:, :, in_slot] = sqrt_p[:, None, None] * conv_at - effective[:, :, in_slot]

    noise = np.sqrt(network.sigma2 / 2.0) * (
        rng.standard_normal((L, tau_p)) + 1j * rng.standard_normal((L, tau_p))
    )
    y = (effective + ici).sum(axis=0) + noise
    return PilotObservation(y=y, effective=effective, ici=ici, noise=noise)
