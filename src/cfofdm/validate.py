"""Model self-checks: kernel identities, model equivalences, the no-phase-noise
reduction and the moments of the LMMSE estimate.

Each check is one function of its input size (and seed, or the configuration
of the world it runs in) returning a ``Check``. ``run_validation`` runs them at
desk size for ``sim validate``; the acceptance suite runs the same functions at
larger sizes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, NamedTuple, Tuple

import numpy as np

from . import estimation, ofdm
from .config import ExperimentConfig, ci_config
from .harness import build_geometry, build_setup, observe, trial_rngs, trial_stack_size
from .network import gen_fir_taps, generate_network
from .phase_noise import (
    KernelParams,
    correlation_b_fast,
    correlation_b_oracle,
    gen_pn_trace,
    phase_drift,
    wiener_walks,
)

_SIGMA2 = 7e-4  # total phase-increment variance of the kernel checks


class Check(NamedTuple):
    """Outcome of one self-check: its name, pass flag and detail line."""

    name: str
    ok: bool
    detail: str


def _std_errors(x: np.ndarray, target) -> np.ndarray:
    """|mean - target| in standard errors of the mean, over axis 0."""
    return np.abs(x.mean(axis=0) - target) / (x.std(axis=0, ddof=1) / np.sqrt(len(x)))


def kernel_oracle(n: int) -> Check:
    """Fast kernel against the literal double-sum oracle, |i| <= 8, |dtau| <= 3."""
    params = KernelParams(n=n, sigma2_tot=_SIGMA2, stride=n)
    worst = max(
        abs(correlation_b_fast(i1, i2, dt, params) - correlation_b_oracle(i1, i2, dt, params))
        for i1 in range(-8, 9) for i2 in range(-8, 9) for dt in range(-3, 4)
    )
    return Check("kernel_oracle_equivalence", worst <= 1e-10,
                 "max |fast - oracle| = %.3e at N=%d, |i|<=8, |dt|<=3 (tol 1e-10)"
                 % (worst, n))


def parseval(n: int, n_draws: int, seed: int) -> Check:
    """sum |J_i|^2 = 1 for the drift spectra of random Wiener phases."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        j = phase_drift(np.cumsum(rng.normal(0, 0.05, n)))
        worst = max(worst, abs(np.sum(np.abs(j) ** 2) - 1.0))
    return Check("parseval", worst <= 1e-12,
                 "max |sum|J|^2 - 1| = %.3e over %d draws at N=%d (tol 1e-12)"
                 % (worst, n_draws, n))


def trace_sum(n: int) -> Check:
    """sum_i B_ii = 1, and the ICI power sum_{i!=0} B_ii = 1 - B_00."""
    params = KernelParams(n=n, sigma2_tot=_SIGMA2, stride=n)
    idx = np.arange(-n // 2, n // 2)
    diag = np.array([correlation_b_fast(i, i, 0, params).real for i in idx])
    err_sum = abs(diag.sum() - 1.0)
    err_split = abs(diag[idx != 0].sum() - (1.0 - diag[idx == 0][0]))
    return Check("kernel_trace_sum", err_sum <= 1e-10 and err_split <= 1e-10,
                 "|sum B_ii - 1| = %.3e, |sum_{i!=0} B_ii - (1 - B00)| = %.3e at N=%d "
                 "(tol 1e-10)" % (err_sum, err_split, n))


def mc_kernel(n: int, n_traces: int, seed: int) -> Check:
    """E{J_0(tau) J_0(0)*} over generated traces against B_00(tau), tau = 0..3.

    Traces carry the cyclic-prefix jump, so the kernel uses stride N + N_cp.
    """
    cp = round(0.07 * n)
    rng = np.random.default_rng(seed)
    theta = (wiener_walks(n_traces, 4, n, _SIGMA2 / 2, cp, rng)
             + wiener_walks(n_traces, 4, n, _SIGMA2 / 2, cp, rng))
    j0 = np.exp(1j * theta).mean(axis=2)
    prod = j0 * np.conj(j0[:, :1])  # (n_traces, dtau)
    params = KernelParams(n=n, sigma2_tot=_SIGMA2, stride=n + cp)
    b = np.array([correlation_b_fast(0, 0, dt, params).real for dt in range(4)])
    # at dtau = 0 the product is |J_0|^2, real by construction
    worst = max(_std_errors(prod.real, b).max(), _std_errors(prod.imag[:, 1:], 0.0).max())
    return Check("mc_kernel_consistency", worst <= 3.0,
                 "max |mean - B| = %.2f standard errors over %d traces, dt 0..3, "
                 "N=%d (tol 3)" % (worst, n_traces, n))


def domain_equivalence(n: int, n_draws: int, seed: int) -> Check:
    """DFT of the time-domain model against the frequency-domain model, at
    both pilot symbols."""
    cfg = replace(
        ci_config(), n_subcarriers=n, block_subcarriers=max(2, n // 8),
        block_symbols=3, pilot_symbols=(1, 2), pilot_subcarriers=(0,),
        n_aps=2, n_ues=2, shadow_sigma_db=0.0,
    )
    layout = cfg.layout()
    pn = cfg.pn_params()
    worst = 0.0
    for draw in range(n_draws):
        rng = np.random.default_rng(seed + draw)
        network = generate_network(layout, rng, shadow_sigma_db=0.0)
        taps = gen_fir_taps(network.beta, rng, n_taps=5)
        grids = ofdm.build_transmit_grids(layout, network.pilot_index, rng)
        trace = gen_pn_trace(pn, layout, rng)
        noise_t = np.sqrt(network.sigma2 / 2) * (
            rng.standard_normal((layout.n_aps, n)) + 1j * rng.standard_normal((layout.n_aps, n))
        )
        h_freq = np.fft.fft(taps, n=n, axis=-1)  # (K, L, N)
        for symbol in layout.pilot_symbols:
            _, y_freq = ofdm.time_domain_oracle(taps, grids, trace, network, layout, symbol,
                                                noise_time=noise_t)
            y_ref = np.fft.fft(noise_t, axis=-1) / np.sqrt(n)
            for l in range(layout.n_aps):
                for k in range(layout.n_ues):
                    j = phase_drift(trace.combined(k, l)[symbol - 1])
                    x = grids[k, symbol - 1] * h_freq[k, l]
                    y_ref[l] += np.sqrt(network.p[k]) * np.fft.ifft(np.fft.fft(j) * np.fft.fft(x))
            worst = max(worst, np.linalg.norm(y_freq - y_ref) / np.linalg.norm(y_ref))
    return Check("domain_equivalence", worst <= 1e-9,
                 "max relative |DFT(time model) - freq model| = %.3e over %d draws and "
                 "symbols %s at N=%d (tol 1e-9)"
                 % (worst, n_draws, ", ".join(map(str, layout.pilot_symbols)), n))


def no_pn_reduction(cfg: ExperimentConfig) -> Check:
    """Without phase noise the three estimators coincide and meet the closed form.

    Runs on the network of ``cfg`` with ideal oscillators. The closed form is
    the pilot-contamination MMSE eps_kl = p_k beta_kl^2 tau_p /
    (tau_p sum_{i shares k's pilot} p_i beta_il + sigma^2), error variance
    beta_kl - eps_kl, at every UE, AP and symbol.
    """
    cfg = replace(cfg, gamma_ap=0.0, gamma_ue=0.0, estimators=estimation.ESTIMATOR_KINDS)
    setup = build_setup(cfg)
    layout = setup.layout
    network = build_geometry(cfg, setup, 0).network
    # every symbol of the block, not the one symbol the trials of an ideal world run
    contexts = [estimation.build_context(network, model) for model in
                estimation.build_models(layout, setup.table, cfg.estimators, cfg.ici_mode)]
    rng = trial_rngs(cfg.master_seed, 0, range(1))[0]
    y = (rng.standard_normal((layout.n_aps, layout.tau_p))
         + 1j * rng.standard_normal((layout.n_aps, layout.tau_p)))
    h_hats = [estimation.estimate_all(ctx, y) for ctx in contexts]
    spread = max(np.abs(h - h_hats[0]).max() for h in h_hats[1:])

    p, beta, tau_p = network.p, network.beta, layout.tau_p
    shares = network.pilot_index[:, None] == network.pilot_index[None, :]
    expect = p[:, None] * beta**2 * tau_p / (tau_p * shares @ (p[:, None] * beta) + network.sigma2)
    ctx = contexts[cfg.estimators.index("pna_ofdm")]
    abs_err = max(np.abs(ctx.eps - expect).max(), np.abs(ctx.err_var - (beta - expect)).max())
    rel_err = (np.abs(ctx.eps - expect) / expect).max()
    ok = spread <= 1e-10 and abs_err <= 1e-10 and rel_err <= 1e-10
    return Check("no_pn_reduction", ok,
                 "estimator spread %.3e (tol 1e-10); closed form at %d UEs x %d APs: "
                 "abs err %.3e, eps rel err %.3e (tol 1e-10)"
                 % (spread, layout.n_ues, layout.n_aps, abs_err, rel_err))


def lmmse_moments(cfg: ExperimentConfig) -> Check:
    """Moments of the PN-aware LMMSE estimate of UE 0 at AP 0 over cfg.n_trials trials.

    At every symbol of the block: the orthogonality principle
    E{(h_eff - h_hat) y*} = 0, the variance decomposition
    E|h_hat|^2 + E|h_eff - h_hat|^2 = B_00 beta, and E|h_hat|^2 = eps. It runs
    in the world where the estimator's assumed pilot covariance is exact: the
    kernel stride that trace generation uses, equal-index data terms only, and
    one data draw shared across the pilot symbols (the assumed ICI covariance
    correlates data interference across OFDM symbols).  The trials are drawn
    and synthesized in stacks by ``harness.observe``, on the streams of a run's
    geometry 0.
    """
    cfg = replace(cfg, ici_mode="independent_data", cp_consistent_correlation=True,
                  estimators=("pna_ofdm",))
    setup = build_setup(cfg)
    layout = setup.layout
    geom = build_geometry(cfg, setup, 0)
    network, ctx = geom.network, geom.contexts[0]  # pna_ofdm, the only estimator
    k, l = 0, 0
    h_eff = np.empty((cfg.n_trials, layout.block_symbols), dtype=complex)
    h_hat = np.empty_like(h_eff)
    y_l = np.empty((cfg.n_trials, layout.tau_p), dtype=complex)
    stack = trial_stack_size(layout, cfg.n_trials)
    for t0 in range(0, cfg.n_trials, stack):
        rows = slice(t0, min(t0 + stack, cfg.n_trials))
        y, h_eff_all = observe(setup, network,
                               trial_rngs(cfg.master_seed, 0, range(rows.start, rows.stop)),
                               shared_data=True)
        h_eff[rows] = h_eff_all[:, :, k, l]
        h_hat[rows] = estimation.estimate_all(ctx, y)[:, :, k, l]
        y_l[rows] = y[:, l]

    prods = (h_eff - h_hat)[:, :, None] * np.conj(y_l)[:, None, :]
    orth = max(_std_errors(prods.real, 0.0).max(), _std_errors(prods.imag, 0.0).max())
    power = np.abs(h_hat) ** 2
    total = power + np.abs(h_eff - h_hat) ** 2
    var_dev = _std_errors(total, setup.table.cpe(0) * network.beta[k, l]).max()
    eps_dev = _std_errors(power, ctx.eps[:, k, l]).max()
    ok = orth <= 3.0 and var_dev <= 3.0 and eps_dev <= 3.0
    return Check("lmmse_moments", ok,
                 "orthogonality %.2f, variance decomposition %.2f, E|h_hat|^2 vs eps %.2f "
                 "standard errors over %d trials and %d symbols (tol 3)"
                 % (orth, var_dev, eps_dev, cfg.n_trials, layout.block_symbols))


def run_validation(n: int = 64) -> Tuple[bool, List[str]]:
    """Run every self-check at desk size, transform size n; returns (ok, report lines)."""
    checks = [kernel_oracle(m) for m in sorted({min(n, 64), n})]
    checks += [parseval(n, 100, 11), trace_sum(n), mc_kernel(n, 10000, 5)]
    checks += [domain_equivalence(m, 20, 100) for m in sorted({16, min(n, 64)})]
    checks += [
        no_pn_reduction(replace(ci_config(), n_aps=4, n_ues=3, master_seed=3)),
        lmmse_moments(replace(ci_config(), n_aps=3, n_ues=2, n_trials=3000)),
    ]
    lines = ["%s %s: %s" % ("PASS" if c.ok else "FAIL", c.name, c.detail) for c in checks]
    return all(c.ok for c in checks), lines
