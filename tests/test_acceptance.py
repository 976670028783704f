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
from typing import List

import numpy as np
import pytest

from cfofdm import validate
from cfofdm.config import ci_config, fig2_config
from cfofdm.combining import combiner_matrix
from cfofdm.estimation import estimate_all
from cfofdm.harness import (
    FIG3_UE_COUNTS,
    MAX_THREADS,
    ResultRecord,
    build_geometry,
    build_setup,
    derived_rng,
    records_to_csv,
    run_experiment,
    run_fig2,
    run_fig3,
)
from cfofdm.network import gen_channel
from cfofdm.ofdm import build_transmit_grids
from cfofdm.phase_noise import gen_pn_trace
from cfofdm.se import SinrAccumulator, finalize_sinr

import former_models
import no_pn_reference
from pilot_oracle import decomposed_pilot_observations, synth_one


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


def test_criterion_5_estimator_correctness(monkeypatch):
    """Closed-form no-PN reduction, orthogonality, and variance decomposition.

    The no-PN reduction checks the ideal world's contexts as
    ``harness.build_geometry`` builds them, one symbol standing for the
    block.  The moment checks run at CI scale over 1e4 trials of the world
    ``sim run`` draws, on geometry 0's streams (see
    ``validate.lmmse_moments``); each trial is drawn and synthesized by
    ``harness.observe`` and estimated on geometry 0's contexts, as a run's
    trials are.  ``pna_ofdm_cp``, whose data term and kernel stride are that
    world's, gates: 2.67, 1.34 and 1.30 standard errors.  The same pass
    scores the printed ``pna_ofdm`` and the two former models, each with one
    part of ``pna_ofdm_cp`` put back, and each must fail: the printed form
    (orthogonality 20.12 standard errors), data ICI correlated across pilot
    symbols (3.68), and the kernel stride N in place of the traces' N + N_cp
    (4.34).
    """
    no_pn = validate.no_pn_reduction(replace(ci_config(), n_ues=1, n_aps=3, master_seed=7))
    former_models.add_to_setup(monkeypatch, former_models.data_across_symbols,
                               former_models.stride_n)
    moments, printed, across_symbols, stride_n = validate.lmmse_moments(
        replace(ci_config(), n_trials=10000, master_seed=55,
                estimators=("pna_ofdm_cp", "pna_ofdm")))
    assert _report(5, "estimator correctness", *_joined([no_pn, moments]))
    assert not printed.ok, printed.detail
    assert not across_symbols.ok, across_symbols.detail
    assert not stride_n.ok, stride_n.detail


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
        y, _ = synth_one(h, grids, trace, network, layout, rng)
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
    """(geometries, trials, threads) of the full-scale runs; the thread count
    defaults to the host's CPUs, at most MAX_THREADS."""
    return (int(os.environ.get("FULL_SCALE_GEOMS", "50")),
            int(os.environ.get("FULL_SCALE_TRIALS", "200")),
            int(os.environ.get("FULL_SCALE_THREADS",
                               str(min(os.cpu_count() or 1, MAX_THREADS)))))


def test_full_scale_threads_default_within_max(monkeypatch):
    """On a host of more CPUs than MAX_THREADS the default thread count is
    MAX_THREADS, which ``run_experiment`` accepts; an explicit count passes
    through unchanged."""
    monkeypatch.delenv("FULL_SCALE_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 128)
    assert _full_scale_counts()[2] == MAX_THREADS
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _full_scale_counts()[2] == 1
    monkeypatch.setenv("FULL_SCALE_THREADS", "100")
    assert _full_scale_counts()[2] == 100


# The paper's figure targets, read by the checks and by their synthetic
# records.  Levels are SE targets at channel use 60 with their relative
# tolerances; the shape bounds are ratios of SE values.
FIG2_PLATEAU = {"pna_ofdm": 4.66, "pna_sc": 3.92, "unaware": 1.27}  # mmse
FIG2_PLATEAU_TOL = 0.15
FIG2_NO_PN = {"mmse": 8.996, "mr": 1.892}
FIG2_NO_PN_TOL = 0.10
FIG2_DROP = 3.0   # least SE ratio of channel use 144 to 180, aware curves
FIG2_RISE = 1.3   # least rise of the unaware curves over channel uses 1-132
FIG2_FLAT = 1.15  # largest rise of the aware curves there
FIG3_K1, FIG3_K1_TOL = 5.41, 0.15      # mmse pna_ofdm at K = 1
FIG3_K100, FIG3_K100_TOL = 1.55, 0.20  # mmse pna_ofdm at K = 100
FIG3_CONVERGENCE_TOL = 0.10  # mmse pna_ofdm against pna_sc at K = 100


def _check(name: str, ok: bool, detail: str = "") -> validate.Check:
    """A figure target's check, its detail line led by its name and verdict."""
    return validate.Check(name, ok, " ".join(filter(None, (name, "ok" if ok else "BAD",
                                                            detail))))


def _curves(records):
    out = {}
    for r in records:
        if r.channel_use > 0:
            out.setdefault((r.scheme, r.estimator), {})[r.channel_use] = r.se_per_ue
    return out


def fig2_checks(records) -> List[validate.Check]:
    """The fig2 preset's 16 targets, on its records."""
    cur = _curves(records)
    checks = []

    # (a) estimator ordering for MMSE combining at every channel use <= 144
    order_ok = all(
        cur[("mmse", "pna_ofdm")][c] > cur[("mmse", "pna_sc")][c]
        > cur[("mmse", "unaware")][c]
        for c in range(1, 145)
    )
    checks.append(_check("ordering", order_ok))

    # (b) pilot-region plateau values at channel use 60, within 15%
    for est, target in FIG2_PLATEAU.items():
        val = cur[("mmse", est)][60]
        checks.append(_check("plateau %s" % est,
                             abs(val - target) <= FIG2_PLATEAU_TOL * target,
                             "%.3f vs %.2f" % (val, target)))

    # (c) the phase-noise-aware curves collapse after the pilots run out
    for key in (("mmse", "pna_ofdm"), ("mmse", "pna_sc"),
                ("mr", "pna_ofdm"), ("mr", "pna_sc")):
        ratio = cur[key][144] / cur[key][180]
        checks.append(_check("drop %s/%s" % key, ratio > FIG2_DROP, "ratio %.2f" % ratio))

    # (d) only the unaware curves rise toward the middle of the pilot region
    for scheme in ("mmse", "mr"):
        un = [cur[(scheme, "unaware")][c] for c in range(1, 133)]
        rise = max(un) / un[0]
        checks.append(_check("convex unaware %s" % scheme, rise > FIG2_RISE,
                             "rise %.2f" % rise))
        for est in ("pna_ofdm", "pna_sc"):
            aw = [cur[(scheme, est)][c] for c in range(1, 133)]
            checks.append(_check("flat %s %s" % (scheme, est), max(aw) / aw[0] < FIG2_FLAT,
                                 "rise %.2f" % (max(aw) / aw[0])))

    # (e) no-phase-noise references within 10%
    for scheme, target in FIG2_NO_PN.items():
        val = cur[(scheme, "no_pn")][60]
        checks.append(_check("no-PN %s" % scheme, abs(val - target) <= FIG2_NO_PN_TOL * target,
                             "%.3f vs %.3f" % (val, target)))
    return checks


def fig3_checks(records) -> List[validate.Check]:
    """The fig3 preset's 11 targets, on its records at channel use 60."""
    vals = {}
    for r in records:
        if r.channel_use == 60:
            vals.setdefault((r.scheme, r.estimator), {})[r.n_ues] = r.se_per_ue
    checks = []

    v1 = vals[("mmse", "pna_ofdm")][1]
    v100 = vals[("mmse", "pna_ofdm")][100]
    checks.append(_check("K=1", abs(v1 - FIG3_K1) <= FIG3_K1_TOL * FIG3_K1,
                         "%.3f vs %.2f" % (v1, FIG3_K1)))
    checks.append(_check("K=100", abs(v100 - FIG3_K100) <= FIG3_K100_TOL * FIG3_K100,
                         "%.3f vs %.2f" % (v100, FIG3_K100)))

    for key, series in vals.items():
        ks = sorted(series)
        mono = all(series[a] > series[b] for a, b in zip(ks, ks[1:]))
        checks.append(_check("monotone %s/%s" % key, mono))

    sc100 = vals[("mmse", "pna_sc")][100]
    checks.append(_check("convergence",
                         abs(v100 - sc100) <= FIG3_CONVERGENCE_TOL * max(v100, sc100),
                         "%.3f vs %.3f" % (v100, sc100)))
    return checks


@full_scale
def test_criterion_7_fig2_targets():
    geoms, trials, threads = _full_scale_counts()
    cfg = replace(fig2_config(), n_geometries=geoms, n_trials=trials)
    records = run_fig2(cfg, threads=threads, progress=True)
    assert _report(7, "fig2 preset targets", *_joined(fig2_checks(records)))


@full_scale
def test_criterion_8_fig3_targets():
    geoms, trials, threads = _full_scale_counts()
    base = replace(fig2_config(), n_geometries=geoms, n_trials=trials, name="fig3")
    records = run_fig3(base, threads=threads, progress=True)
    assert _report(8, "fig3 preset targets", *_joined(fig3_checks(records)))


def _fig2_at_targets():
    """SE curves of every (scheme, estimator) of the fig2 preset over its
    channel uses (entry c, entry 0 unused) that meet its targets: at them
    where a target is a value, and clear of every bound."""
    c = np.arange(fig2_config().block_subcarriers * fig2_config().block_symbols + 1)
    pilots = c <= 144
    aware, sc, unaware = (FIG2_PLATEAU[e] for e in ("pna_ofdm", "pna_sc", "unaware"))
    return {
        ("mmse", "pna_ofdm"): np.where(pilots, aware, aware / 4),
        ("mmse", "pna_sc"): np.where(pilots, sc, sc / 4),
        ("mr", "pna_ofdm"): np.where(pilots, 1.6, 0.4),
        ("mr", "pna_sc"): np.where(pilots, 1.4, 0.35),
        ("mmse", "unaware"): np.where(c <= 30, 0.9, unaware),
        ("mr", "unaware"): np.where(c <= 30, 0.5, 0.8),
        ("mmse", "no_pn"): np.full(len(c), FIG2_NO_PN["mmse"]),
        ("mr", "no_pn"): np.full(len(c), FIG2_NO_PN["mr"]),
    }


# how far past its bound a synthetic value is moved, relative
_PAST = 0.01


def _cross_fig2(cur, name):
    """Move the value of fig2 check ``name`` just past its bound, and no
    other check's value past its own."""
    kind, _, key = name.partition(" ")
    if kind == "ordering":
        cur[("mmse", "pna_ofdm")][100] = cur[("mmse", "pna_sc")][100]
    elif kind == "plateau":
        cur[("mmse", key)] *= 1 + FIG2_PLATEAU_TOL + _PAST
    elif kind == "drop":
        curve = cur[tuple(key.split("/"))]
        curve[145:] = curve[144] / (FIG2_DROP - _PAST)
    elif kind == "convex":
        curve = cur[(key.split()[1], "unaware")]
        curve[:31] = curve[60] / (FIG2_RISE - _PAST)
    elif kind == "flat":
        curve = cur[tuple(key.split())]
        curve[100] = curve[1] * (FIG2_FLAT + _PAST)
    else:  # no-PN
        cur[(key, "no_pn")] *= 1 + FIG2_NO_PN_TOL + _PAST


def _fig2_records(cur):
    return [ResultRecord("fig2", s, e, 10, 200, c, 0, float(v[c]), 1, 0.0, 0)
            for (s, e), v in cur.items() for c in range(1, len(v))]


def _fig3_at_targets():
    """SE at channel use 60 of every (scheme, estimator) of the fig3 preset
    per UE count that meets its targets."""
    generic = (4.0, 3.0, 2.5, 2.0, 1.0)
    vals = {(s, e): dict(zip(FIG3_UE_COUNTS, generic))
            for s in ("mmse", "mr") for e in ("unaware", "pna_sc", "pna_ofdm", "no_pn")}
    vals[("mmse", "pna_ofdm")] = dict(zip(FIG3_UE_COUNTS, (FIG3_K1, 4.0, 3.0, 2.5, FIG3_K100)))
    vals[("mmse", "pna_sc")] = dict(zip(FIG3_UE_COUNTS, (5.0, 3.8, 2.9, 2.4, FIG3_K100)))
    return vals


def _cross_fig3(vals, name):
    """Move the value of fig3 check ``name`` just past its bound, and no
    other check's value past its own."""
    aware, sc = vals[("mmse", "pna_ofdm")], vals[("mmse", "pna_sc")]
    if name == "K=1":
        aware[1] = FIG3_K1 * (1 + FIG3_K1_TOL + _PAST)
    elif name == "K=100":  # both curves, which keeps them converged
        aware[100] = sc[100] = FIG3_K100 * (1 - FIG3_K100_TOL - _PAST)
    elif name == "convergence":  # the bound is relative to the larger value
        sc[100] = aware[100] / (1 - FIG3_CONVERGENCE_TOL - _PAST)
    else:  # monotone
        series = vals[tuple(name.split()[1].split("/"))]
        series[20] = series[10]


def _fig3_records(vals):
    return [ResultRecord("fig3_K%d" % K, s, e, K, 200, 60, 0, v, 1, 0.0, 0)
            for (s, e), series in vals.items() for K, v in series.items()]


@pytest.mark.parametrize("checks, at_targets, cross, records, count", [
    pytest.param(fig2_checks, _fig2_at_targets, _cross_fig2, _fig2_records, 16, id="fig2"),
    pytest.param(fig3_checks, _fig3_at_targets, _cross_fig3, _fig3_records, 11, id="fig3"),
])
def test_figure_checks_on_synthetic_records(checks, at_targets, cross, records, count):
    """Criteria 7 and 8's checks on synthetic records: every check passes at
    the targets, and moving one check's value just past its bound fails that
    check alone, for each of fig2's 16 checks and fig3's 11."""
    passed = checks(records(at_targets()))
    assert len(passed) == count and len({c.name for c in passed}) == count
    assert all(c.ok for c in passed), _joined(passed)[1]
    for name in (c.name for c in passed):
        values = at_targets()
        cross(values, name)
        assert [c.name for c in checks(records(values)) if not c.ok] == [name]
