"""Model self-checks: kernel identities, the time-domain model against the
pilot synthesis, the no-phase-noise reduction and the moments of the LMMSE
estimate in the world ``sim run`` draws.

Each check is one function of its input size (and seed, or the configuration
of the world it runs in) returning a ``Check``; each calls what a run calls.
``run_validation`` runs them at desk size for ``sim validate``; the acceptance
suite runs the same functions at larger sizes.  The literal references that
only these checks run live here too: the double-sum kernel, the drift
spectrum of one symbol and the time-domain received symbol.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from . import estimation, ofdm
from .config import ExperimentConfig, ci_config
from .harness import Setup, build_geometry, build_setup, draw_trials, trial_rngs, trial_stack_size
from .network import NetworkRealization, gen_channel, generate_network
from .phase_noise import (
    KernelParams,
    PhaseNoiseTrace,
    build_correlation_table,
    gen_pn_trace,
    lag_spectra,
    pair_sums,
    wiener_walks,
)

_SIGMA2 = 7e-4  # total phase-increment variance of the kernel checks


class Check(NamedTuple):
    """Outcome of one self-check: its name, pass flag and detail line."""

    name: str
    ok: bool
    detail: str


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


def correlation_b_oracle(offsets, lags, params: KernelParams) -> np.ndarray:
    """Literal O(N^2) double sums B_{i1,i2}^{(dtau)} = E{J_i1^(t1) J_i2^(t2)*},
    (lags, offsets, offsets): per lag E D E^H / N^2, D[n1, n2] = exp(-sigma2/2
    |dtau stride + n1 - n2|) its damping and E the DFT rows (offsets, N)."""
    n, m = params.n, np.arange(params.n)
    e = np.exp(-2j * np.pi * np.outer(offsets, m) / n)
    d = np.asarray(lags)[:, None, None] * params.stride + m[:, None] - m[None, :]
    return e @ np.exp(-params.sigma2_tot / 2.0 * np.abs(d)) @ np.conj(e).T / n**2


def time_domain_oracle(h_time: np.ndarray, x: np.ndarray, trace: PhaseNoiseTrace,
                       network: NetworkRealization, symbol: int):
    """Noise-free time-domain received symbol per AP and its unitary DFT.

    Implements y_check_l = sum_k sqrt(p_k) diag(exp(j*theta_kl)) (h_check_kl
    circconv s_check_k), with theta_kl the sum of UE k's and AP l's walks in
    OFDM symbol ``symbol`` (1-based) and s_check the unitary IDFT of the
    frequency symbol x.  Its transform fft(y_check)/sqrt(N) is the
    frequency-domain model sum_k sqrt(p_k) sum_j x_k[j] H_kl[j] J_kl[nu - j],
    with H = fft(h_check), sample for sample.

    Parameters
    ----------
    h_time : (K, L, N) time-domain channel responses, one tap per sample lag.
    x : (K, N) the symbol each UE transmits, on every subcarrier.
    """
    n = x.shape[-1]
    t = symbol - 1
    s_check = np.sqrt(n) * np.fft.ifft(x, axis=-1)
    m = np.arange(n)
    # (h circconv s)[m] = sum_q h[q] s[(m - q) mod N], tap by tap
    conv = np.einsum("klq,kqm->klm", h_time, s_check[:, (m[None, :] - m[:, None]) % n])
    theta = trace.ue_phase[:, None, t] + trace.ap_phase[None, :, t]  # (K, L, N)
    y_time = np.einsum("k,klm->lm", np.sqrt(network.p), np.exp(1j * theta) * conv)
    return y_time, np.fft.fft(y_time, axis=-1) / np.sqrt(n)


def _std_errors(x: np.ndarray, target) -> np.ndarray:
    """|mean - target| in standard errors of the mean, over axis 0."""
    return np.abs(x.mean(axis=0) - target) / (x.std(axis=0, ddof=1) / np.sqrt(len(x)))


def kernel_oracle(n: int) -> Check:
    """The Gram of ``pair_sums``, at unit weight on one offset per row,
    against the literal double-sum oracle, |i| <= 8, |dtau| <= 3."""
    params = KernelParams(n=n, sigma2_tot=_SIGMA2, stride=n)
    offsets, lags = np.arange(-8, 9), np.arange(-3, 4)
    b = pair_sums(np.eye(n)[offsets % n], lag_spectra(params, lags))
    worst = np.abs(b - correlation_b_oracle(offsets, lags, params)).max()
    return Check("kernel_oracle_equivalence", worst <= 1e-10,
                 "max |evaluator - oracle| = %.3e at N=%d, |i|<=8, |dt|<=3 (tol 1e-10)"
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
    """sum_i B_ii = 1 on the diagonal of the ``pair_sums`` Gram, and the ICI
    power sum_{i!=0} B_ii = 1 - B_00 with B_00 from the CPE table."""
    params = KernelParams(n=n, sigma2_tot=_SIGMA2, stride=n)
    idx = np.arange(-n // 2, n // 2)
    diag = np.diagonal(pair_sums(np.eye(n)[idx % n], lag_spectra(params, [0]))[0]).real
    b00 = build_correlation_table(params, [0]).cpe(0)
    err_sum = abs(diag.sum() - 1.0)
    err_split = abs(diag[idx != 0].sum() - (1.0 - b00))
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
    b = build_correlation_table(KernelParams(n=n, sigma2_tot=_SIGMA2, stride=n + cp),
                                range(4)).values
    # at dtau = 0 the product is |J_0|^2, real by construction
    worst = max(_std_errors(prod.real, b).max(), _std_errors(prod.imag[:, 1:], 0.0).max())
    return Check("mc_kernel_consistency", worst <= 3.0,
                 "max |mean - B| = %.2f standard errors over %d traces, dt 0..3, "
                 "N=%d (tol 3)" % (worst, n_traces, n))


def domain_equivalence(n: int, n_draws: int, seed: int) -> Check:
    """The unitary DFT of the literal time-domain model against the synthesis,
    ``ofdm.synth_pilot_observations``, at every pilot slot of both pilot
    symbols.

    Each link's time-domain response is the N-point inverse DFT of its
    block-constant frequency response, one ``gen_channel`` draw per coherence
    block.  Two pilot subcarriers per block put slots off the block's first
    subcarrier, where the synthesis ramps the UE phasors, and N_c =
    max(2, N // 8) leaves a partial last coherence block wherever it does not
    divide N, as at N = 5.
    """
    cfg = replace(
        ci_config(), n_subcarriers=n, block_subcarriers=max(2, n // 8),
        block_symbols=3, pilot_symbols=(1, 2), pilot_subcarriers=(0, 1),
        n_aps=2, n_ues=2, shadow_sigma_db=0.0,
    )
    layout = cfg.layout()
    pn = cfg.pn_params()
    slot_sub, slot_sym = layout.pilot_slot_positions
    worst = 0.0
    for draw in range(n_draws):
        rng = np.random.default_rng(seed + draw)
        network = generate_network(layout, rng, shadow_sigma_db=0.0)
        h = gen_channel(network.beta, layout, rng)
        grids = ofdm.build_transmit_grids(layout, network.pilot_index, rng)
        trace = gen_pn_trace(pn, layout, rng)
        y, _ = ofdm.synth_pilot_observations(
            h[None], grids[None], PhaseNoiseTrace(trace.ap_phase[None], trace.ue_phase[None]),
            network, layout)
        h_freq = np.repeat(h, layout.block_subcarriers, axis=-1)[..., :n]
        h_time = np.fft.ifft(h_freq, axis=-1)
        y_freq = {t: time_domain_oracle(h_time, grids[:, si], trace, network, t)[1]
                  for si, t in enumerate(layout.pilot_symbols)}
        y_ref = np.stack([y_freq[t][:, nu] for nu, t in zip(slot_sub, slot_sym)], axis=-1)
        worst = max(worst, np.linalg.norm(y[0] - y_ref) / np.linalg.norm(y_ref))
    return Check("domain_equivalence", worst <= 1e-9,
                 "max relative |DFT(time model) - synth_pilot_observations| = %.3e over %d "
                 "draws, %d pilot slots of symbols %s, at N=%d, N_c=%d (tol 1e-9)"
                 % (worst, n_draws, layout.tau_p, ", ".join(map(str, layout.pilot_symbols)),
                    n, layout.block_subcarriers))


def no_pn_reduction(cfg: ExperimentConfig) -> Check:
    """Without phase noise the three estimators coincide and meet the closed form.

    Runs on geometry 0 of ``cfg`` with ideal oscillators, on the contexts
    ``harness.build_geometry`` builds there: one symbol, which stands for
    every symbol of the block.  The closed form is the pilot-contamination
    MMSE eps_kl = p_k beta_kl^2 tau_p /
    (tau_p sum_{i shares k's pilot} p_i beta_il + sigma^2), error variance
    beta_kl - eps_kl, at every UE and AP.
    """
    cfg = replace(cfg, gamma_ap=0.0, gamma_ue=0.0, estimators=estimation.ESTIMATOR_KINDS)
    setup = build_setup(cfg)
    layout = setup.layout
    geom = build_geometry(cfg, setup, 0)
    network, contexts = geom.network, geom.contexts
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


def observe_ap(setup: Setup, network: NetworkRealization,
               rngs: Sequence[np.random.Generator], l: int) -> Tuple[np.ndarray, np.ndarray]:
    """``harness.observe`` of a stack of trials read at AP l alone: the pilot
    observations (B, tau_p) and effective channels (B, T, K) of AP l.  Each
    trial draws all that ``observe`` draws (``harness.draw_trials``), and only
    AP l's channels and phases are synthesized."""
    h, trace, grids, noise = draw_trials(setup, network, rngs)
    ap_l = PhaseNoiseTrace(trace.ap_phase[:, l:l + 1], trace.ue_phase)
    y, cpe = ofdm.synth_pilot_observations(h[:, :, l:l + 1], grids, ap_l, network, setup.layout)
    return y[:, 0] + noise[:, l], cpe[..., 0] * h[:, None, :, l, 0]


def lmmse_moments(cfg: ExperimentConfig) -> Check:
    """Moments of the PN-aware LMMSE estimate of UE 0 at AP 0 over cfg.n_trials trials.

    At every symbol of the block: the orthogonality principle
    E{(h_eff - h_hat) y*} = 0, the variance decomposition
    E|h_hat|^2 + E|h_eff - h_hat|^2 = B_00 beta, and E|h_hat|^2 = eps.  It
    runs in the world ``sim run`` draws, on a run's geometry 0 and trial
    streams, with the ``independent_data`` model, whose data term and kernel
    stride are that world's.  The trials go in stacks, each drawn as
    ``harness.observe`` draws it and synthesized and estimated at AP 0 alone
    (``observe_ap``).

    At the ci layout the verdict is the largest of 50 |z| values
    (orthogonality alone is 40: 5 symbols x 4 pilot slots x re/im), so even
    where the model is exact about 13 % of seeds exceed 3 by chance,
    1 - 0.9973^50 for independent z.
    At criterion 5's size (ci, 10,000 trials) it failed at 4 of seeds 55-69;
    whether chance alone explains that is not established.  The bound is
    kept at 3 standard errors.
    """
    cfg = replace(cfg, ici_mode="independent_data", estimators=("pna_ofdm",))
    setup = build_setup(cfg)
    layout = setup.layout
    geom = build_geometry(cfg, setup, 0)
    network, ctx = geom.network, geom.contexts[0]  # pna_ofdm, the only estimator
    k, l = 0, 0
    ctx_l = replace(ctx, whiten=ctx.whiten[l:l + 1], scale=ctx.scale[l:l + 1])  # what it reads
    h_eff = np.empty((cfg.n_trials, layout.block_symbols), dtype=complex)
    h_hat = np.empty_like(h_eff)
    y_l = np.empty((cfg.n_trials, layout.tau_p), dtype=complex)
    stack = trial_stack_size(layout, cfg.n_trials)
    for t0 in range(0, cfg.n_trials, stack):
        rows = slice(t0, min(t0 + stack, cfg.n_trials))
        y_l[rows], h = observe_ap(
            setup, network, trial_rngs(cfg.master_seed, 0, range(rows.start, rows.stop)), l)
        h_eff[rows] = h[:, :, k]
        h_hat[rows] = estimation.estimate_all(ctx_l, y_l[rows, None])[:, :, k, 0]

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
