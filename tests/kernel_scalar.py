"""Scalar views of the drift kernel B_{i1,i2}^{(dtau)}, for tests that read
single kernel entries: the pair-sum evaluator and the literal double sum."""

import numpy as np

from cfofdm.phase_noise import KernelParams, lag_spectra, offset_spectra


def correlation_b_fast(i1: int, i2: int, dtau: int, params: KernelParams) -> complex:
    """Kernel B_{i1,i2}^{(dtau)}: the pair-sum evaluator with unit weight on one
    offset per side."""
    y = np.zeros((2, params.n))
    y[0, i1 % params.n] = y[1, i2 % params.n] = 1.0
    a1, a2 = offset_spectra(y)
    return complex(np.sum(a1 * lag_spectra(params, [dtau])[0] * np.conj(a2)))


def correlation_b_literal(i1: int, i2: int, dtau: int, params: KernelParams) -> complex:
    """Literal O(N^2) double sum for B_{i1,i2}^{(dtau)} = E{J_i1^(t1) J_i2^(t2)*},
    one scalar entry at a time."""
    n = params.n
    n1 = np.arange(n)[:, None]
    n2 = np.arange(n)[None, :]
    damp = np.exp(-params.sigma2_tot / 2.0 * np.abs(dtau * params.stride + n1 - n2))
    phase = np.exp(-2j * np.pi * (n1 * i1 - n2 * i2) / n)
    return complex((damp * phase).sum() / n**2)
