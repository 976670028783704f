"""The two former models of the PN-aware estimator, each with one part of the
``pna_ofdm_cp`` model put back as it was, and a way to add them to the
set-up of ``validate.lmmse_moments``, which must reject both in the world
``sim run`` draws."""

from dataclasses import replace

import numpy as np

from cfofdm import estimation, validate
from cfofdm.phase_noise import KernelParams, build_correlation_table

from kernel_scalar import correlation_b_fast
from pilot_oracle import pilot_grid


def data_across_symbols(cfg, setup):
    """The pna_ofdm_cp model with its data ICI correlated across pilot symbols:
    sum_{j in D} B_{n1-j,n2-j}^(s-u) for every pair of slots (n1, s), (n2, u)."""
    layout, params = setup.layout, setup.table.params
    (model,) = estimation.build_models(layout, setup.table, ("pna_ofdm_cp",))
    subs, syms = layout.pilot_slot_positions
    data = np.flatnonzero(pilot_grid(layout)[0, 0] == 0)
    data_cov = np.array([
        [sum(correlation_b_fast(n1 - j, n2 - j, s - u, params) for j in data)
         for n2, u in zip(subs, syms)] for n1, s in zip(subs, syms)])
    return replace(model, data_cov=data_cov)


def stride_n(cfg, setup):
    """The pna_ofdm_cp model on the kernel at stride N, at the set-up's lags, in
    place of the traces' N + N_cp."""
    n = setup.layout.n_subcarriers
    table = build_correlation_table(KernelParams(n, setup.table.params.sigma2_tot, n),
                                    setup.table.lags)
    (model,) = estimation.build_models(setup.layout, table, ("pna_ofdm_cp",))
    return model


def add_to_setup(monkeypatch, *former):
    """Make ``validate.build_setup`` append, after a set-up's own models, the
    model each of ``former`` builds from the configuration and the set-up."""
    real = validate.build_setup

    def build(cfg):
        setup = real(cfg)
        return replace(setup, models=setup.models + [f(cfg, setup) for f in former])

    monkeypatch.setattr(validate, "build_setup", build)
