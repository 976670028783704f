"""The scalar view of the drift-kernel pair-sum evaluator, for tests that read
single kernel entries."""

import numpy as np

from cfofdm.phase_noise import KernelParams, lag_spectra, offset_spectra


def correlation_b_fast(i1: int, i2: int, dtau: int, params: KernelParams) -> complex:
    """Kernel B_{i1,i2}^{(dtau)}: the pair-sum evaluator with unit weight on one
    offset per side."""
    y = np.zeros((2, params.n))
    y[0, i1 % params.n] = y[1, i2 % params.n] = 1.0
    a1, a2 = offset_spectra(y)
    return complex(np.sum(a1 * lag_spectra(params, [dtau])[0] * np.conj(a2)))
