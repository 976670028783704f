"""The ICI base as one pair sum per sequence and slot pair: the test oracle of
``cfofdm.estimation.build_ici_base``.

``ici_base_einsum`` is the former production evaluator, plus the
independent-data term's zeros between pilot symbols: it transforms the
offset weights of every (sequence, slot) pair, tau_p^2 offset spectra, and
sums every (sequence, slot, slot) triple over the 2N frequencies in one
three-operand einsum, tau_p^3 * 2N products.  It shares the kernel
pair-sum evaluator (``offset_spectra``, ``lag_spectra``) with the production
code but not the factoring through the pilot book.
"""

from typing import Tuple

import numpy as np

from cfofdm.network import SimulationLayout
from cfofdm.phase_noise import KernelGrid, lag_spectra, offset_spectra

from pilot_oracle import pilot_grid


def ici_base_einsum(
    layout: SimulationLayout,
    kernel: KernelGrid,
    independent_data: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """The pilot-pair sums (tau_p, tau_p, tau_p), one (tau_p, tau_p) matrix per
    pilot sequence, and the data-pair sum (tau_p, tau_p) of the ICI covariance
    under ``kernel``.

    Each is a kernel pair sum over offset weights seen from a pilot slot at
    subcarrier n: the pilot term weights offset n - j by the pilot sample of
    sequence t sent on the other pilot subcarrier j; the data term weights
    every data subcarrier's offset by 1, as printed, or keeps only
    equal-index data pairs through a lag weight, and of those only the pairs
    of slots on one pilot symbol (``independent_data``): data drawn afresh per
    subcarrier and symbol correlates with itself alone.
    """
    params, n, tau_p = kernel.params, layout.n_subcarriers, layout.tau_p
    subs, syms = layout.pilot_slot_positions
    # y[t, i, d]: sample of pilot t on the subcarrier seen[i, d] = (n_i - d) % N of
    # slot i's symbol, zeroed at d = 0, the slot's own subcarrier
    seen = (subs[:, None] - np.arange(n)) % n
    grid = pilot_grid(layout)
    slot_si = np.arange(tau_p) // len(layout.pilot_subcarriers)  # slots are symbol-major
    y = np.take(grid.reshape(tau_p, -1), slot_si[:, None] * n + seen, axis=1)
    y[:, :, 0] = 0.0
    lags, lag_of = np.unique(syms[:, None] - syms[None, :], return_inverse=True)
    lag_of = lag_of.reshape(tau_p, tau_p)
    w = lag_spectra(params, lags)[lag_of]  # (tau_p, tau_p, 2N), per slot pair
    a = offset_spectra(y)
    pilot_terms = np.einsum("tif,ijf,tjf->tij", a, w, np.conj(a))

    data_ind = (grid[0, 0] == 0).astype(float)
    if not independent_data:
        y_data = data_ind[seen]
    else:
        # sum_{j in D} B_{n1-j,n2-j} = unit weights on n1 and n2 at the lag weight
        # G(d) = sum_{j in D} exp(2j pi j d / N)
        y_data = np.zeros((tau_p, n))
        y_data[np.arange(tau_p), subs % n] = 1.0
        w = lag_spectra(params, lags, n * np.fft.ifft(data_ind))[lag_of]
    a = offset_spectra(y_data)
    data_term = np.einsum("if,ijf,jf->ij", a, w, np.conj(a))
    if independent_data:
        data_term[syms[:, None] != syms[None, :]] = 0.0
    return pilot_terms, data_term
