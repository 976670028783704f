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

from cfofdm import validate
from cfofdm.config import ci_config, fig2_config
from cfofdm.combining import combiner_matrix
from cfofdm.estimation import estimate_all
from cfofdm.harness import (
    build_geometry,
    build_setup,
    derived_rng,
    records_to_csv,
    run_experiment,
    run_fig2,
    run_fig3,
)
from cfofdm.network import gen_channel
from cfofdm.ofdm import build_transmit_grids, synth_pilot_observations
from cfofdm.phase_noise import gen_pn_trace
from cfofdm.se import SinrAccumulator, finalize_sinr

import no_pn_reference
from pilot_oracle import decomposed_pilot_observations


def _report(num: int, name: str, passed: bool, detail: str) -> bool:
    print("ACCEPTANCE %d %s: %s (%s)" % (num, name, "PASS" if passed else "FAIL", detail))
    return passed


def _joined(checks):
    """(all passed, details joined) of several validate.Check results."""
    return all(c.ok for c in checks), "; ".join(c.detail for c in checks)


def test_criterion_1_kernel_oracle_equivalence():
    checks = [validate.kernel_oracle(n) for n in (16, 64, 256)]
    assert _report(1, "kernel oracle equivalence", *_joined(checks))


def test_criterion_2_parseval_and_trace_sum():
    checks = [validate.parseval(256, 100, 21), validate.trace_sum(256)]
    assert _report(2, "Parseval and trace-sum identities", *_joined(checks))


def test_criterion_3_domain_equivalence():
    checks = [validate.domain_equivalence(n, 100, 3000) for n in (16, 64)]
    assert _report(3, "time/frequency domain equivalence", *_joined(checks))


def test_criterion_4_mc_kernel_consistency():
    checks = [validate.mc_kernel(64, 20000, 44)]
    assert _report(4, "Monte Carlo kernel consistency", *_joined(checks))


def test_criterion_5_estimator_correctness():
    """Closed-form no-PN reduction, orthogonality, and variance decomposition.

    The moment checks run at CI scale over 1e4 trials, in the world where the
    estimator's assumed second-order model is exact (see
    ``validate.lmmse_moments``).
    """
    checks = [
        validate.no_pn_reduction(replace(ci_config(), n_ues=1, n_aps=3, master_seed=7)),
        validate.lmmse_moments(replace(ci_config(), n_trials=10000, master_seed=55)),
    ]
    assert _report(5, "estimator correctness", *_joined(checks))


def test_criterion_6_no_pn_pipeline_equivalence():
    n_trials = 400
    schemes = ("mr", "lp_mmse", "p_mmse", "mmse")
    cfg = replace(ci_config(), gamma_ap=0.0, gamma_ue=0.0, n_trials=n_trials,
                  schemes=schemes, estimators=("pna_ofdm",), master_seed=66)
    setup = build_setup(cfg)
    layout, pn = setup.layout, setup.pn
    geom = build_geometry(cfg, setup, 0)
    network, ctx, lam = geom.network, geom.contexts[0], geom.lam  # rows are the schemes

    n_batches = 8
    shape = (len(schemes), layout.block_symbols, layout.n_ues)
    batch_accs = [SinrAccumulator(shape) for _ in range(n_batches)]
    shared_draws = []
    for t in range(n_trials):
        rng = derived_rng(cfg.master_seed, 1, 0, t)
        h = gen_channel(network.beta, layout, rng)
        trace = gen_pn_trace(pn, layout, rng)
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        # the oracle draws as the pipeline does: on a copy of the generator it
        # returns the noise inside the pipeline's y
        noise = decomposed_pilot_observations(h, grids, trace, network, layout,
                                              copy.deepcopy(rng)).noise
        y, _ = synth_pilot_observations(h, grids, trace, network, layout, rng)
        cpe0 = np.exp(1j * (trace.ue_phase[:, 0, :][:, None, :]
                            + trace.ap_phase[:, 0, :][None, :, :])).mean(axis=2)
        h_world = cpe0 * h[:, :, 0]  # sigma=0: constant over symbols
        shared_draws.append((h_world, noise))
        h_hat = estimate_all(ctx, y)
        acc = batch_accs[t % n_batches]
        h_symbols = np.repeat(h_world[None], layout.block_symbols, axis=0)
        for s_idx, scheme in enumerate(schemes):
            acc.add_symbol(s_idx, combiner_matrix(scheme, h_hat, ctx.err_var, network),
                           h_symbols, lam, network)
        acc.bump()

    total = SinrAccumulator(shape)
    for b in batch_accs:
        total.merge(b)

    ref = no_pn_reference.uatf_se(shared_draws, layout.pilot_book, network.pilot_index,
                                  network.p, network.beta, network.sigma2,
                                  network.D, schemes)
    pipe_all = np.log2(1 + finalize_sinr(total, network)[:, 0])  # (rows, K)
    batch_all = np.log2(1 + np.stack([finalize_sinr(b, network)[:, 0] for b in batch_accs]))
    worst = 0.0
    for s_idx, scheme in enumerate(schemes):
        for k in range(layout.n_ues):
            pipe = pipe_all[s_idx, k]
            se_mc = batch_all[:, s_idx, k].std(ddof=1) / np.sqrt(n_batches)
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
