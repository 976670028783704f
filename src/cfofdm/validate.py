"""Self-contained validation suite: kernel identities, model equivalences, and
no-phase-noise reductions at reduced problem sizes."""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import numpy as np

from . import estimation, ofdm, se
from .config import ci_config
from .harness import build_kernel_table, derived_rng
from .network import gen_channel, gen_fir_taps, generate_network
from .phase_noise import (
    KernelParams,
    correlation_b_fast,
    correlation_b_oracle,
    gen_pn_trace,
    phase_drift,
    wiener_walks,
)


class Report:
    def __init__(self):
        self.lines: List[str] = []
        self.ok = True

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.ok &= bool(passed)
        self.lines.append("%s %s: %s" % ("PASS" if passed else "FAIL", name, detail))


def _check_kernel_oracle(rep: Report, n: int) -> None:
    params = KernelParams(n=n, sigma2_tot=7e-4 * 64 / n, stride=n)
    worst = 0.0
    for i1 in range(-4, 5, 2):
        for i2 in range(-4, 5, 2):
            for dt in (-2, 0, 1):
                err = abs(correlation_b_fast(i1, i2, dt, params)
                          - correlation_b_oracle(i1, i2, dt, params))
                worst = max(worst, err)
    rep.check("kernel_oracle_equivalence", worst <= 1e-10,
              "max |fast - oracle| = %.3e at N=%d (tol 1e-10)" % (worst, n))


def _check_parseval(rep: Report, n: int) -> None:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        theta = np.cumsum(rng.normal(0, 0.03, n))
        j = phase_drift(theta)
        worst = max(worst, abs(np.sum(np.abs(j) ** 2) - 1.0))
    rep.check("parseval", worst <= 1e-12,
              "max |sum|J|^2 - 1| = %.3e (tol 1e-12)" % worst)


def _check_trace_sum(rep: Report, n: int) -> None:
    params = KernelParams(n=n, sigma2_tot=7e-4, stride=n)
    diag = [correlation_b_fast(i, i, 0, params).real for i in range(-n // 2, n // 2)]
    err1 = abs(sum(diag) - 1.0)
    b00 = correlation_b_fast(0, 0, 0, params).real
    err2 = abs((1.0 - b00) - (sum(diag) - b00))
    rep.check("kernel_trace_sum", err1 <= 1e-10 and err2 <= 1e-10,
              "|sum B_ii - 1| = %.3e, |(1-B00) - sum_{i!=0}| = %.3e (tol 1e-10)"
              % (err1, err2))


def _check_mc_consistency(rep: Report, n: int) -> None:
    rng = np.random.default_rng(5)
    cp = round(0.07 * n)
    sig2 = 7e-4
    n_traces = 10000
    theta = (wiener_walks(n_traces, 3, n, sig2 / 2, cp, rng)
             + wiener_walks(n_traces, 3, n, sig2 / 2, cp, rng))
    j0 = np.exp(1j * theta).mean(axis=2)
    params = KernelParams(n=n, sigma2_tot=sig2, stride=n + cp)
    worst = 0.0
    for dt in (0, 1, 2):
        prod = j0[:, dt] * np.conj(j0[:, 0])
        b = correlation_b_fast(0, 0, dt, params).real
        dev = abs(prod.real.mean() - b) / (prod.real.std(ddof=1) / np.sqrt(n_traces))
        worst = max(worst, dev)
    rep.check("mc_kernel_consistency", worst <= 3.0,
              "max |mean - B| = %.2f standard errors over %d traces (tol 3)"
              % (worst, n_traces))


def _check_domain_equivalence(rep: Report, n: int) -> None:
    cfg = replace(
        ci_config(), n_subcarriers=n, block_subcarriers=max(2, n // 8),
        block_symbols=3, pilot_symbols=(1, 2), pilot_subcarriers=(0,),
        n_aps=2, n_ues=2, shadow_sigma_db=0.0,
    )
    layout = cfg.layout()
    pn = cfg.pn_params()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        network = generate_network(layout, rng, shadow_sigma_db=0.0)
        book = ofdm.build_pilot_book(layout.tau_p)
        taps = gen_fir_taps(network.beta, rng, n_taps=4)
        grids = ofdm.build_transmit_grids(layout, book, network.pilot_index, rng)
        trace = gen_pn_trace(pn, layout, rng)
        sym = 1
        noise_t = np.sqrt(network.sigma2 / 2) * (
            rng.standard_normal((layout.n_aps, n)) + 1j * rng.standard_normal((layout.n_aps, n))
        )
        _, y_freq = ofdm.time_domain_oracle(taps, grids, trace, network, layout, sym,
                                            noise_time=noise_t)
        # frequency-domain model on the same draws
        h_freq = np.fft.fft(taps, n=n, axis=-1)  # (K, L, N)
        noise_f = np.fft.fft(noise_t, axis=-1) / np.sqrt(n)
        y_ref = np.array(noise_f)
        for l in range(layout.n_aps):
            for k in range(layout.n_ues):
                j = phase_drift(trace.combined(k, l)[sym - 1])
                x = grids[k, sym - 1] * h_freq[k, l]
                y_ref[l] += np.sqrt(network.p[k]) * np.fft.ifft(np.fft.fft(j) * np.fft.fft(x))
        rel = np.linalg.norm(y_freq - y_ref) / np.linalg.norm(y_ref)
        worst = max(worst, rel)
    rep.check("domain_equivalence", worst <= 1e-9,
              "max relative |DFT(time model) - freq model| = %.3e at N=%d (tol 1e-9)"
              % (worst, n))


def _check_no_pn_reduction(rep: Report) -> None:
    cfg = replace(ci_config(), gamma_ap=0.0, gamma_ue=0.0, n_aps=4, n_ues=3)
    layout = cfg.layout()
    pn = cfg.pn_params()
    table = build_kernel_table(cfg)
    rng = np.random.default_rng(3)
    network = generate_network(layout, rng, shadow_sigma_db=0.0)
    book = ofdm.build_pilot_book(layout.tau_p)
    ctxs = {
        kind: estimation.build_context(network, layout, table, kind=kind,
                                       ici_mode=cfg.ici_mode, pn=pn, book=book)
        for kind in ("pna_ofdm", "pna_sc", "unaware")
    }
    y = rng.standard_normal(layout.tau_p) + 1j * rng.standard_normal(layout.tau_p)
    outs = [
        np.array([estimation.lmmse_estimate(ctxs[kind], y, 0, 0, tau)
                  for tau in range(1, layout.block_symbols + 1)])
        for kind in ctxs
    ]
    worst = max(np.abs(outs[0] - outs[1]).max(), np.abs(outs[0] - outs[2]).max())

    single = replace(cfg, n_ues=1)
    net1 = generate_network(single.layout(), np.random.default_rng(4), shadow_sigma_db=0.0)
    ctx1 = estimation.build_context(net1, single.layout(), build_kernel_table(single),
                                    kind="pna_ofdm", pn=single.pn_params())
    p, beta = net1.p[0], net1.beta[0, 0]
    eps_expected = p * beta**2 * single.layout().tau_p / (
        p * beta * single.layout().tau_p + net1.sigma2
    )
    eps_err = abs(estimation.estimation_stats(ctx1, 0, 0, 1)[0] - eps_expected)
    rep.check(
        "no_pn_reduction",
        worst <= 1e-10 and eps_err <= 1e-10 * eps_expected,
        "estimator spread %.3e (tol 1e-10); single-UE closed-form rel err %.3e"
        % (worst, eps_err / eps_expected),
    )


def _check_orthogonality(rep: Report) -> None:
    # runs in the world where the assumed pilot covariance is exact:
    # generation-consistent kernel stride, equal-index data terms, and one
    # data draw shared across the pilot symbols
    cfg = replace(ci_config(), n_aps=3, n_ues=2, n_trials=3000,
                  ici_mode="independent_data", cp_consistent_correlation=True)
    layout = cfg.layout()
    pn = cfg.pn_params()
    table = build_kernel_table(cfg)
    rng = np.random.default_rng(8)
    network = generate_network(layout, rng, shadow_sigma_db=0.0)
    book = ofdm.build_pilot_book(layout.tau_p)
    ctx = estimation.build_context(network, layout, table, kind="pna_ofdm",
                                   ici_mode=cfg.ici_mode, pn=pn, book=book)
    k, l, tau = 0, 0, 2
    prods = []
    for t in range(cfg.n_trials):
        trng = derived_rng(cfg.master_seed, 1, 0, t)
        channel = gen_channel(network.beta, layout, trng)
        trace = gen_pn_trace(pn, layout, trng)
        grids = ofdm.build_transmit_grids(layout, book, network.pilot_index, trng,
                                          shared_data=True)
        y = ofdm.synth_pilot_observations(channel.h, grids, trace, network, layout,
                                          trng, eval_block=cfg.eval_block)
        j0 = np.exp(1j * trace.combined(k, l)[tau - 1]).mean()
        h_eff = j0 * channel.h[k, l, cfg.eval_block - 1]
        h_hat = estimation.lmmse_estimate(ctx, y[l], k, l, tau)
        prods.append((h_eff - h_hat) * np.conj(y[l]))
    prods = np.array(prods)
    dev = max(
        float(np.max(np.abs(prods.real.mean(0))
                     / (prods.real.std(0, ddof=1) / np.sqrt(len(prods))))),
        float(np.max(np.abs(prods.imag.mean(0))
                     / (prods.imag.std(0, ddof=1) / np.sqrt(len(prods))))),
    )
    rep.check("orthogonality_principle", dev <= 3.0,
              "max |E{(h - h_hat) y*}| = %.2f standard errors over %d trials (tol 3)"
              % (dev, cfg.n_trials))


def _check_lambda_trace(rep: Report, n: int) -> None:
    params = KernelParams(n=n, sigma2_tot=7e-4, stride=n)
    b00 = correlation_b_fast(0, 0, 0, params).real
    off = sum(correlation_b_fast(i, i, 0, params).real
              for i in range(-n // 2, n // 2) if i != 0)
    err = abs((1.0 - b00) - off)
    rep.check("lambda_trace_sum", err <= 1e-10,
              "|(1 - B00) - sum_{i!=0} B_ii| = %.3e (tol 1e-10)" % err)


def run_validation(n: int = 64) -> Tuple[bool, List[str]]:
    """Run every validation check at transform size n; returns (ok, report lines)."""
    rep = Report()
    _check_kernel_oracle(rep, min(n, 64))
    _check_kernel_oracle(rep, n)
    _check_parseval(rep, n)
    _check_trace_sum(rep, n)
    _check_mc_consistency(rep, n)
    _check_domain_equivalence(rep, 16)
    _check_domain_equivalence(rep, min(n, 64))
    _check_no_pn_reduction(rep)
    _check_orthogonality(rep)
    _check_lambda_trace(rep, n)
    return rep.ok, rep.lines
