"""Acceptance suite.

Criteria 1-6 and 9 form the desk-scale gate and always run.  Criteria 7 and 8
run the full-scale figure presets and take hours; they run only when the
environment variable FULL_SCALE is set (optionally with FULL_SCALE_GEOMS,
FULL_SCALE_TRIALS, FULL_SCALE_THREADS to trade precision for time).

Each criterion prints one PASS/FAIL line (visible with pytest -s).
"""

import copy
import os
from dataclasses import replace

import numpy as np
import pytest

from cfofdm.config import ci_config, fig2_config
from cfofdm.estimation import build_context, estimate_all, estimation_stats
from cfofdm.harness import (
    build_kernel_table,
    derived_rng,
    records_to_csv,
    run_experiment,
    run_fig2,
    run_fig3,
)
from cfofdm.network import gen_channel, gen_fir_taps, generate_network
from cfofdm.ofdm import (
    build_pilot_book,
    build_transmit_grids,
    synth_pilot_observations,
    time_domain_oracle,
)
from cfofdm.phase_noise import (
    KernelParams,
    build_correlation_table,
    correlation_b_fast,
    correlation_b_oracle,
    gen_pn_trace,
    phase_drift,
    wiener_walks,
)
from cfofdm.se import SinrAccumulator, finalize_sinr, lambda_ici

import no_pn_reference
from pilot_oracle import decomposed_pilot_observations


def _report(num: int, name: str, passed: bool, detail: str) -> bool:
    print("ACCEPTANCE %d %s: %s (%s)" % (num, name, "PASS" if passed else "FAIL", detail))
    return passed


def test_criterion_1_kernel_oracle_equivalence():
    worst = 0.0
    for n in (16, 64, 256):
        params = KernelParams(n=n, sigma2_tot=7e-4, stride=n)
        for i1 in range(-8, 9):
            for i2 in range(-8, 9):
                for dt in range(-3, 4):
                    err = abs(correlation_b_fast(i1, i2, dt, params)
                              - correlation_b_oracle(i1, i2, dt, params))
                    worst = max(worst, err)
    assert _report(1, "kernel oracle equivalence", worst <= 1e-10,
                   "max |fast - oracle| = %.3e over N in {16,64,256}, |i|<=8, |dt|<=3"
                   % worst)


def test_criterion_2_parseval_and_trace_sum():
    rng = np.random.default_rng(21)
    worst_parseval = 0.0
    for _ in range(100):
        theta = np.cumsum(rng.normal(0, 0.05, 256))
        j = phase_drift(theta)
        worst_parseval = max(worst_parseval, abs(np.sum(np.abs(j) ** 2) - 1.0))
    params = KernelParams(n=256, sigma2_tot=7e-4, stride=256)
    diag = np.array([correlation_b_fast(i, i, 0, params).real
                     for i in range(-128, 128)])
    b00 = correlation_b_fast(0, 0, 0, params).real
    err_trace = abs(diag.sum() - 1.0)
    err_split = abs((1.0 - b00) - (diag.sum() - b00))
    ok = worst_parseval <= 1e-12 and err_trace <= 1e-10 and err_split <= 1e-10
    assert _report(2, "Parseval and trace-sum identities", ok,
                   "parseval %.2e (tol 1e-12), trace %.2e, ICI-power split %.2e (tol 1e-10)"
                   % (worst_parseval, err_trace, err_split))


def test_criterion_3_domain_equivalence():
    worst = 0.0
    for n in (16, 64):
        cfg = replace(
            ci_config(), n_subcarriers=n, block_subcarriers=max(2, n // 8),
            block_symbols=3, pilot_symbols=(1, 2), pilot_subcarriers=(0,),
            n_aps=2, n_ues=2, shadow_sigma_db=0.0,
        )
        layout = cfg.layout()
        pn = cfg.pn_params()
        for seed in range(100):
            rng = np.random.default_rng(3000 + seed)
            network = generate_network(layout, rng, shadow_sigma_db=0.0)
            book = build_pilot_book(layout.tau_p)
            taps = gen_fir_taps(network.beta, rng, n_taps=5)
            grids = build_transmit_grids(layout, book, network.pilot_index, rng)
            trace = gen_pn_trace(pn, layout, rng)
            noise_t = np.sqrt(network.sigma2 / 2) * (
                rng.standard_normal((layout.n_aps, n))
                + 1j * rng.standard_normal((layout.n_aps, n)))
            _, y_freq = time_domain_oracle(taps, grids, trace, network, layout, 1,
                                           noise_time=noise_t)
            h_freq = np.fft.fft(taps, n=n, axis=-1)
            y_ref = np.fft.fft(noise_t, axis=-1) / np.sqrt(n)
            for l in range(layout.n_aps):
                for k in range(layout.n_ues):
                    j = phase_drift(trace.combined(k, l)[0])
                    x = grids[k, 0] * h_freq[k, l]
                    y_ref[l] += np.sqrt(network.p[k]) * np.fft.ifft(
                        np.fft.fft(j) * np.fft.fft(x))
            worst = max(worst, np.linalg.norm(y_freq - y_ref) / np.linalg.norm(y_ref))
    assert _report(3, "time/frequency domain equivalence", worst <= 1e-9,
                   "max relative error %.3e over 100 draws at N=16 and N=64" % worst)


def test_criterion_4_mc_kernel_consistency():
    n, cp, sig2 = 64, 4, 7e-4
    n_traces = 20000
    rng = np.random.default_rng(44)
    theta = (wiener_walks(n_traces, 4, n, sig2 / 2, cp, rng)
             + wiener_walks(n_traces, 4, n, sig2 / 2, cp, rng))
    j0 = np.exp(1j * theta).mean(axis=2)
    params_gen = KernelParams(n=n, sigma2_tot=sig2, stride=n + cp)
    params_lit = KernelParams(n=n, sigma2_tot=sig2, stride=n)
    worst = 0.0
    for dt in (0, 1, 2, 3):
        prod = j0[:, dt] * np.conj(j0[:, 0])
        params = params_gen if dt != 0 else params_lit  # dt=0 is stride-free
        b = correlation_b_fast(0, 0, dt, params).real
        se_re = prod.real.std(ddof=1) / np.sqrt(n_traces)
        se_im = prod.imag.std(ddof=1) / np.sqrt(n_traces)
        worst = max(worst, abs(prod.real.mean() - b) / se_re,
                    abs(prod.imag.mean()) / se_im)
    assert _report(4, "Monte Carlo kernel consistency", worst <= 3.0,
                   "max deviation %.2f standard errors over %d traces" % (worst, n_traces))


def test_criterion_5_estimator_correctness():
    """Closed-form no-PN reduction, orthogonality, and variance decomposition.

    The statistical checks run in the world where the estimator's assumed
    second-order model is exact: kernel stride matching trace generation,
    equal-index data terms only, and one data draw shared across the pilot
    symbols (the assumed ICI covariance correlates data interference across
    OFDM symbols, so an exact LMMSE check must synthesize it that way).
    """
    # (i) no-PN reduction against the closed-form single-UE MMSE
    cfg0 = replace(ci_config(), gamma_ap=0.0, gamma_ue=0.0, n_ues=1, n_aps=3)
    layout0 = cfg0.layout()
    net0 = generate_network(layout0, derived_rng(7, 0, 0), shadow_sigma_db=0.0)
    ctx0 = build_context(net0, layout0, build_kernel_table(cfg0), kind="pna_ofdm",
                         pn=cfg0.pn_params())
    closed_err = 0.0
    for l in range(layout0.n_aps):
        p, beta = net0.p[0], net0.beta[0, l]
        expect = p * beta**2 * layout0.tau_p / (p * beta * layout0.tau_p + net0.sigma2)
        eps, c = estimation_stats(ctx0, 0, l, 1)
        closed_err = max(closed_err, abs(eps - expect), abs(c - (beta - expect)))

    # (ii) orthogonality principle and variance decomposition with phase noise,
    # at CI scale over 1e4 trials
    n_trials = 10000
    cfg = replace(ci_config(), n_trials=n_trials, ici_mode="independent_data",
                  cp_consistent_correlation=True, master_seed=55)
    layout = cfg.layout()
    pn = cfg.pn_params()
    table = build_kernel_table(cfg)
    network = generate_network(layout, derived_rng(cfg.master_seed, 0, 0),
                               shadow_sigma_db=0.0)
    book = build_pilot_book(layout.tau_p)
    ctx = build_context(network, layout, table, kind="pna_ofdm",
                        ici_mode=cfg.ici_mode, pn=pn, book=book)
    k, l, tau = 0, 0, 3
    h_eff_arr = np.empty(n_trials, dtype=complex)
    h_hat_arr = np.empty(n_trials, dtype=complex)
    y_arr = np.empty((n_trials, layout.tau_p), dtype=complex)
    for t in range(n_trials):
        rng = derived_rng(cfg.master_seed, 1, 0, t)
        channel = gen_channel(network.beta, layout, rng)
        trace = gen_pn_trace(pn, layout, rng)
        grids = build_transmit_grids(layout, book, network.pilot_index, rng,
                                     shared_data=True)
        y = synth_pilot_observations(channel.h, grids, trace, network, layout, rng)
        j0 = np.exp(1j * trace.combined(k, l)[tau - 1]).mean()
        h_eff_arr[t] = j0 * channel.h[k, l, 0]
        est = estimate_all(ctx, y)
        h_hat_arr[t] = est.h_hat[k, l, tau - 1]
        y_arr[t] = y[l]

    prods = (h_eff_arr - h_hat_arr)[:, None] * np.conj(y_arr)
    dev_re = np.abs(prods.real.mean(axis=0)) / (
        prods.real.std(axis=0, ddof=1) / np.sqrt(n_trials))
    dev_im = np.abs(prods.imag.mean(axis=0)) / (
        prods.imag.std(axis=0, ddof=1) / np.sqrt(n_trials))
    orth_dev = float(max(dev_re.max(), dev_im.max()))

    # variance decomposition: var(h_hat) + var(h_eff - h_hat) equals the
    # effective-channel power B00 * beta (reduces to beta when PN vanishes)
    b00 = table.cpe(0)
    total = np.abs(h_hat_arr) ** 2 + np.abs(h_eff_arr - h_hat_arr) ** 2
    expect_total = b00 * network.beta[k, l]
    var_dev = abs(total.mean() - expect_total) / (total.std(ddof=1) / np.sqrt(n_trials))

    ok = closed_err <= 1e-10 and orth_dev <= 3.0 and var_dev <= 3.0
    assert _report(
        5, "estimator correctness", ok,
        "closed-form err %.2e (tol 1e-10); orthogonality %.2f se; "
        "variance decomposition %.2f se over %d trials" % (closed_err, orth_dev,
                                                           var_dev, n_trials))


def test_criterion_6_no_pn_pipeline_equivalence():
    n_trials = 400
    schemes = ("mr", "lp_mmse", "p_mmse", "mmse")
    cfg = replace(ci_config(), gamma_ap=0.0, gamma_ue=0.0, n_trials=n_trials,
                  schemes=schemes, estimators=("pna_ofdm",), master_seed=66)
    layout = cfg.layout()
    pn = cfg.pn_params()
    table = build_kernel_table(cfg)
    network = generate_network(layout, derived_rng(cfg.master_seed, 0, 0),
                               shadow_sigma_db=0.0)
    book = build_pilot_book(layout.tau_p)
    ctx = build_context(network, layout, table, kind="pna_ofdm",
                        ici_mode=cfg.ici_mode, pn=pn, book=book)
    lam = lambda_ici(network, table)

    from cfofdm.combining import combiner_matrix

    n_batches = 8
    batch_accs = [SinrAccumulator(len(schemes), layout.n_ues, layout.block_symbols)
                  for _ in range(n_batches)]
    shared_draws = []
    for t in range(n_trials):
        rng = derived_rng(cfg.master_seed, 1, 0, t)
        channel = gen_channel(network.beta, layout, rng)
        trace = gen_pn_trace(pn, layout, rng)
        grids = build_transmit_grids(layout, book, network.pilot_index, rng)
        # the oracle draws as the pipeline does: on a copy of the generator it
        # returns the noise inside the pipeline's y
        noise = decomposed_pilot_observations(channel.h, grids, trace, network, layout,
                                              copy.deepcopy(rng)).noise
        y = synth_pilot_observations(channel.h, grids, trace, network, layout, rng)
        cpe0 = np.exp(1j * (trace.ue_phase[:, 0, :][:, None, :]
                            + trace.ap_phase[:, 0, :][None, :, :])).mean(axis=2)
        h_world = cpe0 * channel.h[:, :, 0]  # sigma=0: constant over symbols
        shared_draws.append((h_world, noise))
        est = estimate_all(ctx, y)
        acc = batch_accs[t % n_batches]
        for s_idx, scheme in enumerate(schemes):
            for tau in range(1, layout.block_symbols + 1):
                v = combiner_matrix(scheme, est, network, tau)
                acc.add_symbol(s_idx, tau, v, h_world, lam, network.D)
        acc.bump()

    total = SinrAccumulator(len(schemes), layout.n_ues, layout.block_symbols)
    for b in batch_accs:
        total.merge(b)

    ref = no_pn_reference.uatf_se(shared_draws, book, network.pilot_index,
                                  network.p, network.beta, network.sigma2,
                                  network.D, schemes)
    worst = 0.0
    for s_idx, scheme in enumerate(schemes):
        for k in range(layout.n_ues):
            pipe = np.log2(1 + finalize_sinr(total, network, s_idx)[k, 0])
            batch_vals = np.array([
                np.log2(1 + finalize_sinr(b, network, s_idx)[k, 0])
                for b in batch_accs
            ])
            se_mc = batch_vals.std(ddof=1) / np.sqrt(n_batches)
            dev = abs(pipe - ref[scheme][k]) / max(se_mc, 1e-300)
            worst = max(worst, dev)
    assert _report(6, "no-PN pipeline equivalence", worst <= 2.0,
                   "max |pipeline - reference| = %.3f Monte Carlo standard errors, "
                   "all four combiners on shared draws" % worst)


def test_criterion_9_deterministic_csv():
    cfg = replace(ci_config(), n_aps=8, n_ues=3, n_geometries=2, n_trials=6,
                  estimators=("pna_ofdm", "unaware"), schemes=("mr", "mmse"))
    a = records_to_csv(run_experiment(cfg))
    b = records_to_csv(run_experiment(cfg))
    assert _report(9, "deterministic byte-identical CSV", a == b,
                   "%d bytes each" % len(a.encode()))


# ---------------------------------------------------------------------------
# Full-scale figure suite (hours; enable with FULL_SCALE=1)
# ---------------------------------------------------------------------------

full_scale = pytest.mark.skipif(
    not os.environ.get("FULL_SCALE"),
    reason="full-scale figure runs take hours; set FULL_SCALE=1 to run",
)


def _full_scale_counts():
    return (int(os.environ.get("FULL_SCALE_GEOMS", "50")),
            int(os.environ.get("FULL_SCALE_TRIALS", "200")),
            int(os.environ.get("FULL_SCALE_THREADS", str(os.cpu_count() or 1))))


def _curves(records):
    out = {}
    for r in records:
        if r.channel_use > 0:
            out.setdefault((r.scheme, r.estimator), {})[r.channel_use] = r.se_per_ue
    return out


@full_scale
def test_criterion_7_fig2_targets():
    geoms, trials, threads = _full_scale_counts()
    cfg = replace(fig2_config(), n_geometries=geoms, n_trials=trials)
    records = run_fig2(cfg, threads=threads, progress=True)
    cur = _curves(records)
    checks = []

    # (a) estimator ordering for MMSE combining at every channel use <= 144
    order_ok = all(
        cur[("mmse", "pna_ofdm")][c] > cur[("mmse", "pna_sc")][c]
        > cur[("mmse", "unaware")][c]
        for c in range(1, 145)
    )
    checks.append(("ordering", order_ok, ""))

    # (b) pilot-region plateau values at channel use 60, within 15%
    for est, target in (("pna_ofdm", 4.66), ("pna_sc", 3.92), ("unaware", 1.27)):
        val = cur[("mmse", est)][60]
        checks.append(("plateau %s" % est, abs(val - target) <= 0.15 * target,
                       "%.3f vs %.2f" % (val, target)))

    # (c) the phase-noise-aware curves collapse after the pilots run out
    for key in (("mmse", "pna_ofdm"), ("mmse", "pna_sc"),
                ("mr", "pna_ofdm"), ("mr", "pna_sc")):
        ratio = cur[key][144] / cur[key][180]
        checks.append(("drop %s/%s" % key, ratio > 3.0, "ratio %.2f" % ratio))

    # (d) only the unaware curves rise toward the middle of the pilot region
    for scheme in ("mmse", "mr"):
        un = [cur[(scheme, "unaware")][c] for c in range(1, 133)]
        rise = max(un) / un[0]
        checks.append(("convex unaware %s" % scheme, rise > 1.3, "rise %.2f" % rise))
        for est in ("pna_ofdm", "pna_sc"):
            aw = [cur[(scheme, est)][c] for c in range(1, 133)]
            checks.append(("flat %s %s" % (scheme, est), max(aw) / aw[0] < 1.15,
                           "rise %.2f" % (max(aw) / aw[0])))

    # (e) no-phase-noise references within 10%
    for scheme, target in (("mmse", 8.996), ("mr", 1.892)):
        val = cur[(scheme, "no_pn")][60]
        checks.append(("no-PN %s" % scheme, abs(val - target) <= 0.10 * target,
                       "%.3f vs %.3f" % (val, target)))

    ok = all(c[1] for c in checks)
    detail = "; ".join("%s %s %s" % (n, "ok" if p else "BAD", d) for n, p, d in checks)
    assert _report(7, "fig2 preset targets", ok, detail)


@full_scale
def test_criterion_8_fig3_targets():
    geoms, trials, threads = _full_scale_counts()
    base = replace(fig2_config(), n_geometries=geoms, n_trials=trials, name="fig3")
    records = run_fig3(base, threads=threads, progress=True)
    vals = {}
    for r in records:
        if r.channel_use == 60:
            vals.setdefault((r.scheme, r.estimator), {})[r.n_ues] = r.se_per_ue
    checks = []

    v1 = vals[("mmse", "pna_ofdm")][1]
    v100 = vals[("mmse", "pna_ofdm")][100]
    checks.append(("K=1", abs(v1 - 5.41) <= 0.15 * 5.41, "%.3f vs 5.41" % v1))
    checks.append(("K=100", abs(v100 - 1.55) <= 0.20 * 1.55, "%.3f vs 1.55" % v100))

    for key, series in vals.items():
        ks = sorted(series)
        mono = all(series[a] > series[b] for a, b in zip(ks, ks[1:]))
        checks.append(("monotone %s/%s" % key, mono, ""))

    sc100 = vals[("mmse", "pna_sc")][100]
    checks.append(("convergence", abs(v100 - sc100) <= 0.10 * max(v100, sc100),
                   "%.3f vs %.3f" % (v100, sc100)))

    ok = all(c[1] for c in checks)
    detail = "; ".join("%s %s %s" % (n, "ok" if p else "BAD", d) for n, p, d in checks)
    assert _report(8, "fig3 preset targets", ok, detail)
