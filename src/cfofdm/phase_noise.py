"""Wiener oscillator phase noise: time-domain traces, their common phase errors,
and the evaluator of the second-order drift correlation kernel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .network import SimulationLayout


def pn_increment_variance(carrier_hz: float, gamma: float, sample_time: float) -> float:
    """Per-sample phase increment variance 4 * pi^2 * f_c^2 * gamma * T_s (rad^2)."""
    if carrier_hz < 0 or gamma < 0 or sample_time < 0:
        raise ValueError("phase-noise parameters must be non-negative")
    return 4.0 * np.pi**2 * carrier_hz**2 * gamma * sample_time


@dataclass(frozen=True)
class PnParams:
    """Oscillator quality parameters and the derived Wiener increment variances."""

    carrier_hz: float
    gamma_ap: float
    gamma_ue: float
    sample_time: float

    @property
    def sigma2_ap(self) -> float:
        return pn_increment_variance(self.carrier_hz, self.gamma_ap, self.sample_time)

    @property
    def sigma2_ue(self) -> float:
        return pn_increment_variance(self.carrier_hz, self.gamma_ue, self.sample_time)

    @property
    def sigma2_tot(self) -> float:
        """Combined per-sample increment variance of the received phase."""
        return self.sigma2_ap + self.sigma2_ue

    @property
    def ideal(self) -> bool:
        """Whether both node kinds have ideal oscillators, sigma^2 = 0: every
        walk is then its initial phase, and every symbol of a block the same."""
        return self.sigma2_ap == 0.0 and self.sigma2_ue == 0.0


@dataclass
class PhaseNoiseTrace:
    """Per-node Wiener phase walks over one coherence block.

    The received phase for the (UE k, AP l) pair is the sum of the two node
    walks, so traces of UEs observed at the same AP share the AP component by
    construction.  The phases of ideal oscillators, constant over the block,
    may also be held as (nodes, 1, 1) initial phases.
    """

    ap_phase: np.ndarray  # (L, tau_c, N) radians
    ue_phase: np.ndarray  # (K, tau_c, N) radians


# Increments drawn per call where they are discarded, 64 KB of float64.
_DRAW_CHUNK = 1 << 13


def wiener_walks(
    n_nodes: int,
    n_symbols: int,
    n_samples: int,
    sigma2: float,
    cp_len: int,
    rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Discrete Wiener phase walks with cyclic-prefix jumps at symbol boundaries.

    Per-sample increments are N(0, sigma2); the step from the last sample of a
    symbol to the first sample of the next has variance (cp_len + 1) * sigma2.
    The initial phase is uniform on [0, 2*pi) per node.  The increments are
    drawn, scaled and summed in place in one array, ``out`` if given (C-ordered
    (n_nodes, n_symbols, n_samples) float64); the walks and the generator's end
    state are bit for bit those of ``rng.normal(0, s)`` draws, which are 0 + s z.

    With ``sigma2`` = 0 every walk is its initial phase.  The increments are
    still drawn, ``_DRAW_CHUNK`` at a time into a scratch array, so the
    generator ends where it would; the initial phases go into ``out`` (which
    may then be (n_nodes, 1, 1)), and the walks are those phases broadcast to
    (n_nodes, n_symbols, n_samples), a read-only view.
    """
    if sigma2 == 0.0:
        total = n_nodes * n_symbols * n_samples
        scratch = np.empty(min(_DRAW_CHUNK, total))
        for start in range(0, total, _DRAW_CHUNK):
            rng.standard_normal(out=scratch[: total - start])
        phase = np.empty((n_nodes, 1, 1)) if out is None else out
        phase[...] = rng.uniform(0.0, 2.0 * np.pi, size=n_nodes)[:, None, None]
        return np.broadcast_to(phase, (n_nodes, n_symbols, n_samples))
    shape = (n_nodes, n_symbols * n_samples)
    inc = np.empty(shape) if out is None else out.reshape(shape)  # a view of out
    rng.standard_normal(out=inc)
    inc *= np.sqrt(sigma2)
    inc[:, 0] = rng.uniform(0.0, 2.0 * np.pi, size=n_nodes)
    if n_symbols > 1:
        inc[:, n_samples::n_samples] *= np.sqrt(cp_len + 1.0)
    np.cumsum(inc, axis=1, out=inc)
    return inc.reshape(n_nodes, n_symbols, n_samples)


def gen_pn_trace(params: PnParams, layout: SimulationLayout, rng: np.random.Generator,
                 out: Optional[PhaseNoiseTrace] = None) -> PhaseNoiseTrace:
    """Independent per-AP and per-UE phase walks spanning one coherence block,
    drawn into the arrays of ``out`` if given.  A node kind with an ideal
    oscillator gets its initial phases broadcast (``wiener_walks``)."""
    ap = wiener_walks(layout.n_aps, layout.block_symbols, layout.n_subcarriers,
                      params.sigma2_ap, layout.cp_len, rng, None if out is None else out.ap_phase)
    ue = wiener_walks(layout.n_ues, layout.block_symbols, layout.n_subcarriers,
                      params.sigma2_ue, layout.cp_len, rng, None if out is None else out.ue_phase)
    return PhaseNoiseTrace(ap_phase=ap, ue_phase=ue)


def phasor(theta: np.ndarray) -> np.ndarray:
    """exp(j*theta) for real theta, written as cos + j*sin into one complex array
    (bitwise equal to ``np.exp(1j * theta)`` and faster)."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def cpe_per_symbol(trace: PhaseNoiseTrace) -> np.ndarray:
    """Common phase errors J_{k,l,0}^{(tau)} of every symbol and pair:
    (tau_c, K, L) complex, symbol first like every per-symbol array of a trial."""
    n = trace.ue_phase.shape[-1]
    return np.stack([phasor(trace.ue_phase[:, t]) @ phasor(trace.ap_phase[:, t]).T / n
                     for t in range(trace.ue_phase.shape[1])])


@dataclass(frozen=True)
class KernelParams:
    """Evaluation parameters for the drift correlation kernel.

    ``stride`` is the assumed sample spacing between equal-index samples of
    consecutive OFDM symbols: N as the kernel is usually printed, or N + N_cp
    to match trace generation with cyclic-prefix jumps.
    """

    n: int
    sigma2_tot: float
    stride: int


# The kernel pair-sum evaluator.  A weighted double sum of the kernel over
# offset pairs factorizes over the defining sample pairs (n1, n2):
#
#   sum_{i1,i2} y1[i1] y2[i2]* B_{i1,i2}^{(dtau)}
#       = (1/N^2) sum_{n1,n2} w(n1 - n2) a1[n1] a2[n2]*,   a = fft(y),
#
# with the lag weight w(d) = exp(-sigma2/2 |dtau*stride + d|).  The sum over
# (n1, n2) is a lag-domain correlation of a1 with a2, which zero-padded
# length-2N DFTs turn into one product per frequency:
#
#   sum_f A1[f] W[f] A2[f]*,   A = offset_spectra(y),  W = the lag_spectra row of dtau.
#
# A sum over common offset shifts j, sum_j B_{i1-j,i2-j}, is the unit-weight
# pair sum at (i1, i2) with w(d) multiplied by G(d) = sum_j exp(2j pi j d / N):
# the ``lag_weight`` of lag_spectra.

def offset_spectra(y: np.ndarray) -> np.ndarray:
    """Spectra (..., 2N) of offset-weight vectors ``y`` (..., N), whose entry
    ``y[i % N]`` weights the kernel offset i: the zero-padded length-2N DFT of
    a = fft(y)."""
    n = y.shape[-1]
    return np.fft.fft(np.fft.fft(y, axis=-1), 2 * n, axis=-1)


def lag_spectra(params: KernelParams, lags, lag_weight=None) -> np.ndarray:
    """Spectra (len(lags), 2N) of the damped lag weight, one per symbol lag,
    including the 1/N^2 of the kernel.

    ``lag_weight``, if given, is an (N,) array whose entry ``d % N`` multiplies
    the damping at sample lag d.
    """
    n = params.n
    d = np.arange(-(n - 1), n)
    w = np.zeros((len(lags), 2 * n), dtype=complex)  # circular lag layout: w[d % 2N]
    w[:, d] = np.exp(-params.sigma2_tot / 2.0
                     * np.abs(np.asarray(lags)[:, None] * params.stride + d))
    if lag_weight is not None:
        w[:, d] *= lag_weight[d % n]
    return np.fft.ifft(w, axis=-1) / n**2


def pair_sums(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Gram of offset-weight rows (R, N) under each lag spectrum of ``w``
    (lags, 2N): (lags, R, R), entry [., x, y] the pair sum of rows x and y,
    sum_f A_x W A_y^* over their ``offset_spectra`` A.  With unit weight on
    one offset per row it is the kernel B_{i1,i2} at those offsets."""
    a = offset_spectra(rows)
    return (a * w[:, None, :]) @ np.conj(a).T


@dataclass
class KernelGrid:
    """CPE kernel values B_{0,0}^{(dtau)} at every symbol lag in ``lags``.

    Requests for any other lag raise LookupError.
    """

    params: KernelParams
    lags: np.ndarray    # sorted distinct symbol lags
    values: np.ndarray  # (lags,) real

    def cpe(self, dtau):
        """CPE kernel at one lag or at every entry of an integer lag array."""
        lags = np.asarray(dtau)
        pos = np.minimum(np.searchsorted(self.lags, lags), self.lags.size - 1)
        miss = self.lags[pos] != lags
        if miss.any():
            raise LookupError("kernel grid miss at dtau=%d: grid was built for a "
                              "different lag set" % lags[miss].flat[0])
        out = self.values[pos]
        return float(out) if out.ndim == 0 else out

    def __len__(self) -> int:
        return self.values.size


def build_correlation_table(params: KernelParams, lags: Iterable[int]) -> KernelGrid:
    """Evaluate the CPE kernel B_{0,0} at every lag of ``lags``: exactly 1
    without phase noise (sigma^2 = 0), where the evaluator's FFTs would leave
    round-off of either sign."""
    lags = np.array(sorted(set(lags)), dtype=int)
    if params.sigma2_tot == 0.0:
        return KernelGrid(params, lags, np.ones(lags.size))
    a0 = offset_spectra(np.eye(1, params.n)[0])
    values = (np.abs(a0) ** 2 * lag_spectra(params, lags)).sum(axis=1).real
    return KernelGrid(params, lags, values)
