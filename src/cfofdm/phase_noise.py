"""Wiener oscillator phase noise: time-domain traces, frequency-domain phase-drift
spectra, and the second-order drift correlation kernel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


@dataclass
class PhaseNoiseTrace:
    """Per-node Wiener phase walks over one coherence block.

    The received phase for the (UE k, AP l) pair is the sum of the two node
    walks, so traces of UEs observed at the same AP share the AP component by
    construction.
    """

    ap_phase: np.ndarray  # (L, tau_c, N) radians
    ue_phase: np.ndarray  # (K, tau_c, N) radians

    def combined(self, k: int, l: int) -> np.ndarray:
        """theta_{k,l}: (tau_c, N) phase of the k -> l uplink."""
        return self.ue_phase[k] + self.ap_phase[l]


def wiener_walks(
    n_nodes: int,
    n_symbols: int,
    n_samples: int,
    sigma2: float,
    cp_len: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Discrete Wiener phase walks with cyclic-prefix jumps at symbol boundaries.

    Per-sample increments are N(0, sigma2); the step from the last sample of a
    symbol to the first sample of the next has variance (cp_len + 1) * sigma2.
    The initial phase is uniform on [0, 2*pi) per node.
    """
    inc = rng.normal(0.0, np.sqrt(sigma2), size=(n_nodes, n_symbols * n_samples))
    inc[:, 0] = rng.uniform(0.0, 2.0 * np.pi, size=n_nodes)
    if n_symbols > 1:
        inc[:, n_samples::n_samples] *= np.sqrt(cp_len + 1.0)
    return np.cumsum(inc, axis=1).reshape(n_nodes, n_symbols, n_samples)


def gen_pn_trace(params: PnParams, layout: SimulationLayout,
                 rng: np.random.Generator) -> PhaseNoiseTrace:
    """Independent per-AP and per-UE phase walks spanning one coherence block."""
    ap = wiener_walks(layout.n_aps, layout.block_symbols, layout.n_subcarriers,
                      params.sigma2_ap, layout.cp_len, rng)
    ue = wiener_walks(layout.n_ues, layout.block_symbols, layout.n_subcarriers,
                      params.sigma2_ue, layout.cp_len, rng)
    return PhaseNoiseTrace(ap_phase=ap, ue_phase=ue)


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


def phasor(theta: np.ndarray) -> np.ndarray:
    """exp(j*theta) for real theta, written as cos + j*sin into one complex array
    (bitwise equal to ``np.exp(1j * theta)`` and faster)."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def cpe_per_symbol(trace: PhaseNoiseTrace) -> np.ndarray:
    """Common phase errors J_{k,l,0}^{(tau)} for all pairs: (K, L, tau_c) complex."""
    n_sym = trace.ue_phase.shape[1]
    n = trace.ue_phase.shape[-1]
    out = np.empty((trace.ue_phase.shape[0], trace.ap_phase.shape[0], n_sym),
                   dtype=complex)
    for t in range(n_sym):
        out[:, :, t] = phasor(trace.ue_phase[:, t, :]) @ phasor(trace.ap_phase[:, t, :]).T / n
    return out


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

    def __post_init__(self):
        # build_correlation_table relies on it: every sample lag of a nonzero
        # symbol lag then has that symbol lag's sign
        if self.stride < self.n - 1:
            raise ValueError("kernel stride %d is below N - 1 = %d"
                             % (self.stride, self.n - 1))

    @classmethod
    def from_layout(cls, layout: SimulationLayout, pn: PnParams,
                    cp_consistent: bool = False) -> "KernelParams":
        stride = layout.n_subcarriers + (layout.cp_len if cp_consistent else 0)
        return cls(n=layout.n_subcarriers, sigma2_tot=pn.sigma2_tot, stride=stride)


def correlation_b_oracle(i1: int, i2: int, dtau: int, params: KernelParams) -> complex:
    """Literal O(N^2) double sum for B_{i1,i2}^{(dtau)} = E{J_i1^(t1) J_i2^(t2)*}."""
    n = params.n
    n1 = np.arange(n)[:, None]
    n2 = np.arange(n)[None, :]
    damp = np.exp(-params.sigma2_tot / 2.0 * np.abs(dtau * params.stride + n1 - n2))
    phase = np.exp(-2j * np.pi * (n1 * i1 - n2 * i2) / n)
    return complex((damp * phase).sum() / n**2)


def _kernel_factors(n: int, offsets, deltas):
    """Factors of the kernel reduction over the lag axis d = n1 - n2 in -(N-1)..N-1.

    Returns the phase rows exp(-2j*pi*d*i1/N), one per row offset i1, and the
    inner rows, one per offset difference delta = (i1 - i2) mod N: the inner
    sum over n2 is geometric with ratio q = exp(-2j*pi*delta/N) over N - |d|
    terms starting at max(0, -d).  Every power of q is a phasor of an exponent
    reduced mod N.
    """
    d = np.arange(-(n - 1), n)
    count = n - np.abs(d)

    def root(m):  # exp(-2j*pi*m/N) for integer m
        return phasor(-2.0 * np.pi / n * (m % n))

    phase = root(d[None, :] * np.asarray(offsets)[:, None])
    deltas = np.asarray(deltas)
    inner = np.empty((deltas.size, d.size), dtype=complex)
    inner[deltas == 0] = count
    q = deltas[deltas != 0, None]
    inner[deltas != 0] = root(q * np.maximum(0, -d)) * (1.0 - root(q * count)) / (1.0 - root(q))
    return phase, inner


def _kernel_rows(params: KernelParams, dtau: int, phase: np.ndarray,
                 inner: np.ndarray, weights=None) -> np.ndarray:
    """Kernel at lag dtau for every (phase row offset, inner row difference) pair.

    ``weights``, if given, multiplies the damping factor along the lag axis.
    """
    d = np.arange(-(params.n - 1), params.n)
    damp = np.exp(-params.sigma2_tot / 2.0 * np.abs(dtau * params.stride + d))
    if weights is not None:
        damp = damp * weights
    return (phase * damp) @ inner.T / params.n**2


def correlation_b_fast(i1: int, i2: int, dtau: int, params: KernelParams,
                       weights=None) -> complex:
    """O(N) evaluation of the kernel, equal to the literal double sum; the
    scalar view of :class:`KernelGrid`."""
    factors = _kernel_factors(params.n, [i1], [(i1 - i2) % params.n])
    return complex(_kernel_rows(params, dtau, *factors, weights)[0, 0])


def _lookup(keys: np.ndarray, grid: np.ndarray, what: str) -> np.ndarray:
    """Positions of ``keys`` in the sorted ``grid``; LookupError for any miss."""
    pos = np.minimum(np.searchsorted(grid, keys), grid.size - 1)
    miss = grid[pos] != keys
    if miss.any():
        raise LookupError("kernel grid miss at %s=%d: grid was built for a different "
                          "index set" % (what, keys[miss][0]))
    return pos


@dataclass
class KernelGrid:
    """Kernel values B_{i1,i2}^{(dtau)} for every i1, i2 in ``offsets`` and dtau in ``lags``.

    ``values[a, r, b]`` is the kernel at lag ``lags[a]``, row offset
    ``offsets[r]`` and offset difference ``deltas[b]`` = (i1 - i2) mod N.
    Requests outside the grid raise LookupError.
    """

    params: KernelParams
    offsets: np.ndarray  # sorted distinct subcarrier offsets
    lags: np.ndarray     # sorted distinct symbol lags
    deltas: np.ndarray   # sorted distinct (i1 - i2) mod N over the offsets
    values: np.ndarray   # (lags, offsets, deltas) complex

    def block(self, o1s, o2s, dtau: int) -> np.ndarray:
        """Kernel block (len(o1s), len(o2s)) at lag dtau."""
        o1s = np.asarray(o1s, dtype=int)
        o2s = np.asarray(o2s, dtype=int)
        lag = _lookup(np.array([dtau]), self.lags, "dtau")[0]
        rows = _lookup(o1s, self.offsets, "i1")
        _lookup(o2s, self.offsets, "i2")
        cols = np.searchsorted(self.deltas, (o1s[:, None] - o2s[None, :]) % self.params.n)
        return self.values[lag, rows[:, None], cols]

    def get(self, i1: int, i2: int, dtau: int) -> complex:
        return complex(self.block([i1], [i2], dtau)[0, 0])

    def cpe(self, dtau):
        """Diagonal CPE entries B_{0,0}^{(dtau)} (real by construction), at one
        lag or at every entry of an integer lag array."""
        lags = np.asarray(dtau)
        pos = _lookup(lags.ravel(), self.lags, "dtau").reshape(lags.shape)
        row = _lookup(np.array([0]), self.offsets, "i1")[0]
        out = self.values[pos, row, np.searchsorted(self.deltas, 0)].real
        return float(out) if out.ndim == 0 else out

    def __len__(self) -> int:
        return self.values.size


def build_correlation_table(params: KernelParams, offsets: Iterable[int],
                            lags: Iterable[int]) -> KernelGrid:
    """Evaluate the kernel over every offset pair of ``offsets`` at every lag.

    The offset difference enters only through the inner factor, so a lag is
    one matrix product of the phase rows with the inner rows of the distinct
    differences.  Only lags -1, 0 and 1 need one: for |dtau| >= 1 every
    sample lag dtau*stride + d has the sign of dtau (stride >= N - 1), so the
    damping factorizes and B^(dtau) = exp(-sigma2/2 (|dtau| - 1) stride)
    B^(sign dtau).
    """
    offsets = np.unique(np.fromiter(offsets, dtype=int))
    lags = np.unique(np.fromiter(lags, dtype=int))
    deltas = np.unique((offsets[:, None] - offsets[None, :]) % params.n)
    factors = _kernel_factors(params.n, offsets, deltas)
    signs = np.sign(lags)
    base = {int(s): _kernel_rows(params, int(s), *factors) for s in np.unique(signs)}
    decay = np.exp(-params.sigma2_tot / 2.0 * np.maximum(np.abs(lags) - 1, 0) * params.stride)
    values = np.empty((lags.size, offsets.size, deltas.size), dtype=complex)
    for a, s in enumerate(signs):
        np.multiply(base[int(s)], decay[a], out=values[a])
    return KernelGrid(params, offsets, lags, deltas, values)
