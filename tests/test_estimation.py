"""LMMSE estimator, ICI covariance construction, and baseline estimators."""

import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cfofdm import estimation
from cfofdm.config import ci_config, fig2_config
from cfofdm.estimation import (
    ESTIMATOR_KINDS,
    assumed_kernel,
    build_context,
    build_ici_base,
    build_models,
    build_psi,
    estimate_all,
)
from cfofdm.harness import build_geometry, build_setup
from cfofdm.network import NetworkRealization, SimulationLayout, gen_channel
from cfofdm.ofdm import build_transmit_grids
from cfofdm.phase_noise import (
    KernelParams,
    PnParams,
    build_correlation_table,
    gen_pn_trace,
)

from ici_base_oracle import ici_base_einsum
from kernel_scalar import correlation_b_literal
from pilot_oracle import synth_one
from test_ofdm import make_network


def toy_layout(**kw):
    base = dict(
        n_subcarriers=16, cp_len=2, subcarrier_spacing=15e3,
        block_subcarriers=8, block_symbols=3, pilot_subcarriers=(0,),
        pilot_symbols=(1, 2), n_aps=2, n_ues=2, area_side=100.0,
    )
    base.update(kw)
    return SimulationLayout(**base)


def make_table(layout, sigma2_tot, stride=None):
    params = KernelParams(n=layout.n_subcarriers, sigma2_tot=sigma2_tot,
                          stride=stride or layout.n_subcarriers)
    lags = range(-(layout.block_symbols - 1), layout.block_symbols)
    return build_correlation_table(params, lags)


def world_table(layout, sigma2_tot):
    """The kernel of the simulated world, at the traces' stride N + N_cp."""
    return make_table(layout, sigma2_tot, layout.n_subcarriers + layout.cp_len)


# The two PN-aware OFDM kinds, each with the data term of its ICI covariance,
# which names its test cases: as the paper prints it, or data drawn
# independently per subcarrier and symbol
DATA_TERM_OF = {"pna_ofdm": "as_printed", "pna_ofdm_cp": "independent_data"}
OFDM_KINDS = [pytest.param(kind, id=term) for kind, term in DATA_TERM_OF.items()]


def make_model(layout, table, kind="pna_ofdm"):
    """Estimator model of one kind with the pilot book of ``layout``."""
    (model,) = build_models(layout, table, [kind])
    return model


def make_context(network, layout, table, kind="pna_ofdm"):
    return build_context(network, make_model(layout, table, kind))


def ue_rhs(model, pilot_index):
    """The model's right-hand-side columns of each UE's sequence: (tau_p, K * tau_c)."""
    tau_p = model.rhs.shape[0]
    return model.rhs.reshape(tau_p, tau_p, -1)[:, pilot_index].reshape(tau_p, -1)


def coef_oracle(network, model):
    """The (L, K, tau_c, tau_p) estimator coefficients, h_hat[k, l, tau] =
    coef[l, k, tau] . y_l, with the estimate variances eps (K, L, tau_c), from
    one solve per UE and symbol (UEs that share a sequence are solved twice)."""
    psi, _ = build_psi(network, model)
    K, L = network.beta.shape
    tau_p = model.rhs.shape[0]
    tau_c = model.rhs.shape[1] // tau_p
    rhs = ue_rhs(model, network.pilot_index)
    sol = np.linalg.solve(psi, rhs)
    quad = np.real(np.sum(np.conj(rhs) * sol, axis=1)).reshape(L, K, tau_c)
    scale = np.sqrt(network.p)[None, :] * network.beta.T
    coef = (np.conj(sol.reshape(L, tau_p, K, tau_c)).transpose(0, 2, 3, 1)
            * scale[:, :, None, None])
    eps = network.p[:, None, None] * network.beta[:, :, None] ** 2 * quad.transpose(1, 0, 2)
    return coef, eps


# Bounds of the whitened context against the LU solve of ``coef_oracle``, in
# units of cond(Psi_l) * eps_machine at AP l: eps against itself, and err_var =
# beta - eps against beta, since the difference cancels where eps ~ beta.  The
# largest ratios measured over 20 ci and 4 fig2 geometries (every estimator) and
# 1200 toy contexts are 2.75 and 1.47.
EPS_COND_ULPS = 4.0
ERR_COND_ULPS = 2.0


def assert_close_to_lu(ctx, network, model, eps):
    """The context's eps and err_var (T, K, L) against the oracle's eps (K, L,
    tau_c), within the bounds above."""
    psi, _ = build_psi(network, model)
    ulp = np.linalg.cond(psi) * np.finfo(float).eps  # (L,)
    eps = eps.transpose(2, 0, 1)
    assert np.all(np.abs(ctx.eps - eps) <= EPS_COND_ULPS * ulp * eps)
    assert np.all(np.abs(ctx.err_var - (network.beta - eps)) <= ERR_COND_ULPS * ulp * network.beta)


def ici_base_per_entry(layout, params, book, independent_data):
    """Pilot-pair and data-pair ICI sums with one oracle kernel call per entry."""
    oracle = functools.lru_cache(maxsize=None)(
        lambda i1, i2, dt: correlation_b_literal(i1, i2, dt, params))
    tau_p, nc = layout.tau_p, layout.block_subcarriers
    subs, syms = layout.pilot_slot_positions
    pilot_cols = np.flatnonzero(np.isin(np.arange(layout.n_subcarriers) % nc,
                                        layout.pilot_subcarriers))
    data_cols = np.setdiff1d(np.arange(layout.n_subcarriers), pilot_cols)
    slot_of = {slot: i for i, slot in enumerate(zip(*layout.pilot_slot_positions))}
    pilot_terms = np.zeros((tau_p, tau_p, tau_p), dtype=complex)
    data_term = np.zeros((tau_p, tau_p), dtype=complex)
    for i1 in range(tau_p):
        j1s = pilot_cols[pilot_cols != subs[i1]]
        rows1 = np.array([slot_of[(j % nc, syms[i1])] for j in j1s])
        for i2 in range(tau_p):
            j2s = pilot_cols[pilot_cols != subs[i2]]
            dt = int(syms[i1] - syms[i2])
            if j1s.size and j2s.size:
                rows2 = np.array([slot_of[(j % nc, syms[i2])] for j in j2s])
                bsub = np.array([[oracle(int(subs[i1] - j1), int(subs[i2] - j2), dt)
                                  for j2 in j2s] for j1 in j1s])
                w1, w2 = book[rows1, :], book[rows2, :]
                pilot_terms[:, i1, i2] = np.einsum("at,ab,bt->t", w1, bsub, np.conj(w2))
            if not independent_data:
                data_term[i1, i2] = sum(oracle(int(subs[i1] - j1), int(subs[i2] - j2), dt)
                                        for j1 in data_cols for j2 in data_cols)
            elif dt == 0:
                # fresh data per subcarrier and symbol: E{x(j1, t1) x(j2, t2)^*} is 1
                # for j1 = j2 on one symbol, t1 = t2, and 0 otherwise
                data_term[i1, i2] = sum(oracle(int(subs[i1] - j), int(subs[i2] - j), dt)
                                        for j in data_cols)
    return pilot_terms, data_term


# Largest deviation of ``build_ici_base`` from the einsum oracle, relative to
# each term's largest entry: both sum the same 2N-frequency products, in another
# order, and 1e-12 (4.5e3 machine epsilons) bounds that for 2N = 2400 terms.
# Measured on the ci and fig2 presets for both OFDM kinds, each at its stride:
# at most 1.9e-14 on the pilot terms and 3.1e-15 on the data term.
ICI_ROUNDOFF = 1e-12


def bruteforce_z_entry(layout, kernel, book, t, i1, i2, independent_data):
    """Literal double-loop over the ICI covariance entry for pilot sequence t."""
    n = layout.n_subcarriers
    slots = list(zip(*layout.pilot_slot_positions))
    n1, t1 = slots[i1]
    n2, t2 = slots[i2]
    pilot_cols = {j for j in range(n) if j % layout.block_subcarriers in layout.pilot_subcarriers}
    slot_of = {s: i for i, s in enumerate(slots)}
    params = kernel.params

    def b(a, c):
        return correlation_b_literal(a, c, t1 - t2, params)

    total = 0.0 + 0.0j
    # pilot-pair part with pilot-sample weights
    for j1 in sorted(pilot_cols):
        if j1 == n1:
            continue
        s1 = book[slot_of[(j1 % layout.block_subcarriers, t1)], t]
        for j2 in sorted(pilot_cols):
            if j2 == n2:
                continue
            s2 = book[slot_of[(j2 % layout.block_subcarriers, t2)], t]
            total += s1 * np.conj(s2) * b(n1 - j1, n2 - j2)
    # data-pair part, weighted by the data correlation E{x(j1, t1) x(j2, t2)^*}: 1 for
    # every pair (as printed), or for the same sample alone, j1 = j2 and t1 = t2, of
    # data drawn afresh per subcarrier and symbol (independent_data)
    data = [j for j in range(n) if j not in pilot_cols]
    for j1 in data:
        if j1 == n1:
            continue
        for j2 in data:
            if j2 == n2:
                continue
            if independent_data and (j1 != j2 or t1 != t2):
                continue
            total += b(n1 - j1, n2 - j2)
    return total


class TestZIci:
    @pytest.mark.parametrize("kind", OFDM_KINDS)
    def test_matches_bruteforce_toy(self, kind):
        """Psi of each PN-aware OFDM model: CPE-weighted pilots, brute-force
        ICI, noise, under the kind's own kernel and data term."""
        layout = toy_layout()
        table = world_table(layout, 5e-3)
        kernel = assumed_kernel(kind, table)
        book = layout.pilot_book
        beta = np.array([[0.5, 0.3], [0.2, 0.8]])
        network = make_network(layout, beta, [0, 1], p=0.4, sigma2=1e-4)
        psi, _ = build_psi(network, make_model(layout, table, kind))
        _, syms = layout.pilot_slot_positions
        for l in range(2):
            for i1 in range(layout.tau_p):
                for i2 in range(layout.tau_p):
                    expect = network.sigma2 * (i1 == i2) + sum(
                        network.p[k] * beta[k, l]
                        * (book[i1, t] * np.conj(book[i2, t]) * kernel.cpe(syms[i1] - syms[i2])
                           + bruteforce_z_entry(layout, kernel, book, t, i1, i2,
                                                kind == "pna_ofdm_cp"))
                        for k, t in enumerate(network.pilot_index)
                    )
                    assert psi[l, i1, i2] == pytest.approx(expect, rel=1e-10, abs=1e-16)

    @pytest.mark.parametrize("kind, shape", [
        pytest.param(kind, dict(n_subcarriers=48, pilot_subcarriers=(0, 5),
                                pilot_symbols=(1, 2, 3)), id=term)
        for kind, term in DATA_TERM_OF.items()] + [
        # 44 = 3 * 12 + 8: the last block is partial and lacks pilot subcarrier 9
        pytest.param(kind, dict(n_subcarriers=44, pilot_subcarriers=(0, 9),
                                pilot_symbols=(1, 2, 3)), id="partial_last_block-" + term)
        for kind, term in DATA_TERM_OF.items()] + [
        # P = 3 pilot subcarriers per symbol against |T_p| = 2 pilot symbols
        pytest.param(kind, dict(n_subcarriers=48, pilot_subcarriers=(0, 4, 7),
                                pilot_symbols=(1, 3)), id="more_subcarriers_than_symbols-" + term)
        for kind, term in DATA_TERM_OF.items()])
    def test_ici_base_matches_per_entry_loop(self, kind, shape):
        layout = toy_layout(block_subcarriers=12, block_symbols=4, **shape)
        kernel = assumed_kernel(kind, world_table(layout, 5e-3))
        independent = kind == "pna_ofdm_cp"
        pilot_terms, data_term = build_ici_base(layout, kernel, independent)
        pilot_ref, data_ref = ici_base_per_entry(layout, kernel.params, layout.pilot_book,
                                                 independent)
        assert pilot_terms == pytest.approx(pilot_ref, rel=1e-10)
        assert data_term == pytest.approx(data_ref, rel=1e-10)

    @pytest.mark.parametrize("kind", OFDM_KINDS)
    @pytest.mark.parametrize("cfg", [ci_config(), fig2_config()], ids=["ci", "fig2"])
    def test_ici_base_matches_einsum_oracle(self, cfg, kind):
        """At preset size the ICI base equals the einsum oracle, one pair sum per
        sequence and slot pair, up to round-off: every entry of each term within
        ICI_ROUNDOFF of the term's largest entry.  Each kind's kernel has its
        own stride, N + N_cp for ``pna_ofdm_cp``."""
        layout = cfg.layout()
        kernel = assumed_kernel(kind, build_setup(cfg).table)
        independent = kind == "pna_ofdm_cp"
        for got, ref in zip(build_ici_base(layout, kernel, independent),
                            ici_base_einsum(layout, kernel, independent)):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= ICI_ROUNDOFF * np.abs(ref).max()

    def test_pair_sums_fault_fails_both_checks(self, monkeypatch, capsys):
        """One Gram serves the ICI base and the kernel self-checks: a
        ``pair_sums`` whose lag spectrum is off by one frequency bin makes
        ``sim validate`` exit 2, failing the kernel checks and, through the
        ICI base of the estimator it checks, the LMMSE moments; and it fails
        the einsum-oracle comparison above, which does not call it."""
        from cfofdm import validate
        from cfofdm.cli import main
        from cfofdm.phase_noise import offset_spectra

        def off_by_one_bin(rows, w):
            a = offset_spectra(rows)
            return (a * np.roll(w, 1, axis=-1)[:, None, :]) @ np.conj(a).T

        monkeypatch.setattr(estimation, "pair_sums", off_by_one_bin)
        monkeypatch.setattr(validate, "pair_sums", off_by_one_bin)
        assert main(["validate", "--n", "5"]) == 2
        failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("PASS ")]
        assert failed == ["FAIL kernel_oracle_equivalence", "FAIL kernel_trace_sum",
                          "FAIL lmmse_moments"]
        for kind in DATA_TERM_OF:
            with pytest.raises(AssertionError):
                self.test_ici_base_matches_einsum_oracle(ci_config(), kind)

    def test_zero_phase_noise_gives_zero(self):
        """Without phase noise the PN-aware OFDM models' ICI vanishes: their Psi
        is the unaware model's."""
        layout = toy_layout()
        table = make_table(layout, 0.0)
        network = make_network(layout, np.ones((2, 2)), [0, 1])
        unaware, _ = build_psi(network, make_model(layout, table, "unaware"))
        for kind in DATA_TERM_OF:
            psi, _ = build_psi(network, make_model(layout, table, kind))
            assert np.abs(psi - unaware).max() < 1e-12

    def test_independent_data_diagonal_bounded_by_trace_rule(self):
        layout = toy_layout()
        table = world_table(layout, 5e-3)
        data_cov = make_model(layout, table, "pna_ofdm_cp").data_cov
        b00 = table.cpe(0)
        for i in range(layout.tau_p):
            assert data_cov[i, i].real <= (1 - b00) + 1e-12
            assert data_cov[i, i].imag == pytest.approx(0.0, abs=1e-12)

    def test_hermitian(self):
        layout = toy_layout()
        table = world_table(layout, 5e-3)
        for kind in DATA_TERM_OF:
            model = make_model(layout, table, kind)
            for m in (*model.pilot_cov, model.data_cov):
                assert np.abs(m - np.conj(m.T)).max() < 1e-12


class TestModels:
    def test_ici_base_only_for_pna_ofdm(self, monkeypatch):
        """The baselines assume no ICI, and the ICI base is built only for the
        two PN-aware OFDM kinds, each under its own kernel and data term:
        pna_ofdm at stride N with the printed term, pna_ofdm_cp at the
        world's N + N_cp with independent data.  Under phase noise the unaware
        model covers one symbol, its kernel having none, and the others every
        symbol."""
        layout = toy_layout()
        table = world_table(layout, 5e-3)
        calls = []
        real = estimation.build_ici_base

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(estimation, "build_ici_base", counting)
        baselines = build_models(layout, table, ["unaware", "pna_sc"])
        assert calls == []
        assert all(not m.data_cov.any() for m in baselines)
        ofdm = build_models(layout, table, ["pna_ofdm", "pna_ofdm_cp"])
        n = layout.n_subcarriers
        assert [(kernel.params.stride, independent) for _, kernel, independent in calls] == [
            (n, False), (n + layout.cp_len, True)]
        assert calls[1][1] is table and all(m.data_cov.any() for m in ofdm)
        tau_p = layout.tau_p
        assert [m.rhs.shape for m in (*baselines, *ofdm)] == [
            (tau_p, tau_p), (tau_p, tau_p * 3), (tau_p, tau_p * 3), (tau_p, tau_p * 3)]

    def test_ideal_world_builds_no_ici_base(self, monkeypatch):
        """At sigma^2 = 0 the ICI base, exactly zero there, is not built: an
        ideal ``build_setup`` calls no ``build_ici_base``, and its two PN-aware
        OFDM models are the unaware one."""
        def refuse(*args, **kwargs):
            raise AssertionError("ICI base built in an ideal world")

        monkeypatch.setattr(estimation, "build_ici_base", refuse)
        cfg = replace(ci_config(), gamma_ap=0.0, gamma_ue=0.0, estimators=ESTIMATOR_KINDS)
        *ofdm, _, unaware = build_setup(cfg).models
        for pna in ofdm:
            assert not pna.data_cov.any()
            assert np.array_equal(pna.pilot_cov, unaware.pilot_cov)
            assert np.array_equal(pna.rhs, unaware.rhs)

    @pytest.mark.parametrize("gammas, ideal", [
        pytest.param({}, False, id="pn"),
        pytest.param({"gamma_ue": 0.0}, False, id="ap_only_pn"),
        pytest.param({"gamma_ap": 0.0}, False, id="ue_only_pn"),
        pytest.param({"gamma_ap": 0.0, "gamma_ue": 0.0}, True, id="ideal")])
    def test_symbol_count_from_phase_noise(self, gammas, ideal):
        """Each model, and its context in a geometry, covers the symbols its
        own kernel tells apart: T = tau_c for pna_ofdm and pna_sc where either
        node kind has phase noise, and T = 1 for unaware, whose kernel is 1
        at every lag, and for every kind in an ideal world; the one symbol
        stands for every symbol of the block."""
        cfg = replace(ci_config(), estimators=ESTIMATOR_KINDS, **gammas)
        setup = build_setup(cfg)
        assert setup.pn.ideal == ideal
        counts = [1 if ideal or kind == "unaware" else cfg.block_symbols
                  for kind in cfg.estimators]
        tau_p, K, L = cfg.layout().tau_p, cfg.n_ues, cfg.n_aps
        assert [m.rhs.shape for m in setup.models] == [(tau_p, tau_p * T) for T in counts]
        for T, ctx in zip(counts, build_geometry(cfg, setup, 0).contexts):
            assert ctx.rhs.shape == (tau_p, K * T)
            assert ctx.eps.shape == ctx.err_var.shape == (T, K, L)

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_rhs_from_book_and_kernel(self, kind):
        """Column t * T + tau - 1 of rhs is B^(tau)H s_t: the kind's kernel at
        the lags from each pilot slot's symbol to tau, times the sequence s_t,
        for the kind's T symbols: tau_c, or 1 for unaware, whose kernel is 1
        at every lag, so that its one column stands for every symbol."""
        layout = toy_layout(n_subcarriers=24, block_subcarriers=12, block_symbols=5,
                            pilot_subcarriers=(0, 6), pilot_symbols=(1, 3))
        table = world_table(layout, 4e-3)
        kernel = assumed_kernel(kind, table)
        book, tau_c = layout.pilot_book, layout.block_symbols
        _, syms = layout.pilot_slot_positions
        model = make_model(layout, table, kind)
        T = 1 if kind == "unaware" else tau_c
        assert model.rhs.shape == (layout.tau_p, layout.tau_p * T)
        for t in range(layout.tau_p):
            for tau in range(1, tau_c + 1):
                expect = np.conj(kernel.cpe(tau - syms)) * book[:, t]
                assert np.array_equal(model.rhs[:, t * T + min(tau, T) - 1], expect)

    @pytest.mark.parametrize("cfg", [ci_config(), fig2_config()], ids=["ci", "fig2"])
    def test_assumed_kernels_closed_form(self, cfg):
        """pna_sc is the single-carrier Wiener damping exp(-sigma2 N |dtau| / 2),
        though the world's kernel has the stride N + N_cp; unaware is exactly 1;
        pna_ofdm_cp is the world's kernel itself."""
        table = build_setup(cfg).table
        sigma2, n = cfg.pn_params().sigma2_tot, cfg.n_subcarriers
        expect = np.exp(-sigma2 * n * np.abs(table.lags) / 2.0)
        sc = assumed_kernel("pna_sc", table)
        assert np.array_equal(sc.lags, table.lags)
        assert np.abs(sc.cpe(table.lags) / expect - 1.0).max() <= 4e-15
        assert np.all(assumed_kernel("unaware", table).cpe(table.lags) == 1.0)
        assert assumed_kernel("pna_ofdm_cp", table) is table

    def test_kernel_stride_per_kind(self):
        """pna_ofdm_cp assumes the set-up's table, the kernel at the traces'
        stride N + N_cp; pna_ofdm the same drift kernel at the printed stride
        N, on the same lags, which damps every nonzero lag less.  pna_sc keeps
        one drift sample per symbol N samples apart, so its kernel and model
        are those a stride-N table gives."""
        cfg = ci_config()
        setup = build_setup(cfg)
        n, table = cfg.n_subcarriers, setup.table
        printed, cp = (assumed_kernel(kind, table) for kind in ("pna_ofdm", "pna_ofdm_cp"))
        assert cp is table and table.params.stride == n + cfg.cp_len_effective
        assert printed.params == KernelParams(n, table.params.sigma2_tot, n)
        assert np.array_equal(printed.lags, table.lags)
        lags = table.lags[table.lags != 0]
        assert np.all(cp.cpe(lags) < printed.cpe(lags))
        assert np.array_equal(assumed_kernel("pna_sc", table).values,
                              assumed_kernel("pna_sc", printed).values)
        (sc_world,), (sc_printed,) = (build_models(setup.layout, t, ["pna_sc"])
                                      for t in (table, printed))
        assert np.array_equal(sc_world.pilot_cov, sc_printed.pilot_cov)
        assert np.array_equal(sc_world.rhs, sc_printed.rhs)

    def test_unknown_kind_rejected(self):
        layout = toy_layout()
        with pytest.raises(ValueError, match="unknown estimator kind"):
            make_model(layout, make_table(layout, 5e-3), "magic")


class TestPsi:
    def test_no_pn_structure(self):
        layout = toy_layout()
        table = make_table(layout, 0.0)
        book = layout.pilot_book
        beta = np.array([[0.5, 0.3], [0.2, 0.8]])
        network = make_network(layout, beta, [0, 1], p=0.4, sigma2=1e-3)
        psi, _ = build_psi(network, make_model(layout, table))
        for l in range(2):
            expect = sum(
                0.4 * beta[k, l] * np.outer(book[:, k], np.conj(book[:, k]))
                for k in range(2)
            ) + 1e-3 * np.eye(layout.tau_p)
            assert np.abs(psi[l] - expect).max() < 1e-14

    def test_single_ue_rank_one_identity(self):
        layout = toy_layout(n_ues=1)
        table = make_table(layout, 0.0)
        book = layout.pilot_book
        beta = np.array([[0.6, 0.1]])
        network = make_network(layout, beta, [0], p=0.2, sigma2=1e-3)
        psi, _ = build_psi(network, make_model(layout, table))
        s = book[:, 0]
        for l in range(2):
            val = np.real(s.conj() @ np.linalg.solve(psi[l], s))
            expect = layout.tau_p / (0.2 * beta[0, l] * layout.tau_p + 1e-3)
            assert val == pytest.approx(expect, rel=1e-12)

    def test_not_positive_definite_raises(self):
        """A Psi_l without a Cholesky factor, here from a negative noise power,
        stops the context build with RuntimeError."""
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        network = make_network(layout, np.array([[0.5, 0.3], [0.2, 0.8]]), [0, 1], sigma2=-1.0)
        model = make_model(layout, table)
        for build in (build_psi, build_context):
            with pytest.raises(RuntimeError, match="factorization failed"):
                build(network, model)

    def test_hermitian_random_configs(self, rng):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        for _ in range(5):
            beta = rng.uniform(0.05, 1.0, (2, 2))
            network = make_network(layout, beta, [0, 1], p=0.3, sigma2=1e-4)
            psi, _ = build_psi(network, make_model(layout, table))
            assert np.abs(psi - np.conj(np.swapaxes(psi, 1, 2))).max() <= 1e-12


class TestLmmseEstimate:
    def test_zero_observation(self):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        network = make_network(layout, np.ones((2, 2)), [0, 1])
        ctx = make_context(network, layout, table)
        assert estimate_all(ctx, np.zeros((2, layout.tau_p), dtype=complex))[0, 0, 0] == 0

    def test_linearity(self, rng):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        network = make_network(layout, np.ones((2, 2)), [0, 1])
        ctx = make_context(network, layout, table)
        y = np.zeros((2, layout.tau_p), dtype=complex)
        y[1] = rng.standard_normal(layout.tau_p) + 1j * rng.standard_normal(layout.tau_p)
        a = estimate_all(ctx, 2.5j * y)[1, 1, 1]
        b = estimate_all(ctx, y)[1, 1, 1]
        assert a == pytest.approx(2.5j * b, rel=1e-12)

    def test_stacked_observations_estimated_as_alone(self, rng):
        """A leading axis of observations, as a stack of trials, gives each
        entry's estimates bit for bit."""
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        network = make_network(layout, rng.uniform(0.05, 1.0, (2, 2)), [0, 1])
        ctx = make_context(network, layout, table)
        y = rng.standard_normal((3, 2, layout.tau_p)) + 1j * rng.standard_normal(
            (3, 2, layout.tau_p))
        h_hat = estimate_all(ctx, y)
        assert h_hat.shape == (3,) + ctx.eps.shape
        for b in range(3):
            assert np.array_equal(h_hat[b], estimate_all(ctx, y[b]))

    def test_no_pn_single_ue_closed_form(self, rng):
        layout = toy_layout(n_ues=1)
        table = make_table(layout, 0.0)
        book = layout.pilot_book
        beta = np.array([[0.7, 0.2]])
        network = make_network(layout, beta, [0], p=0.3, sigma2=2e-3)
        ctx = make_context(network, layout, table)
        y = rng.standard_normal(layout.tau_p) + 1j * rng.standard_normal(layout.tau_p)
        h_hat = estimate_all(ctx, np.tile(y, (2, 1)))
        for l in range(2):
            expect = (np.sqrt(0.3) * beta[0, l]
                      / (0.3 * beta[0, l] * layout.tau_p + 2e-3)) * (book[:, 0].conj() @ y)
            assert h_hat[0, 0, l] == pytest.approx(expect, rel=1e-10)
            # textbook MMSE estimate variance
            expect_eps = 0.3 * beta[0, l] ** 2 * layout.tau_p / (
                0.3 * beta[0, l] * layout.tau_p + 2e-3)
            assert ctx.eps[0, 0, l] == pytest.approx(expect_eps, rel=1e-10)
            assert ctx.err_var[0, 0, l] == pytest.approx(beta[0, l] - expect_eps, rel=1e-10)

    def test_zero_beta_zero_stats(self):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        beta = np.array([[0.5, 0.0], [0.3, 0.4]])
        network = make_network(layout, beta, [0, 1])
        ctx = make_context(network, layout, table)
        assert ctx.eps[1, 0, 1] == 0.0 and ctx.err_var[1, 0, 1] == 0.0

    def test_eps_within_bounds(self):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        network = make_network(layout, np.array([[0.5, 0.3], [0.2, 0.8]]), [0, 1])
        for kind in ESTIMATOR_KINDS:
            ctx = make_context(network, layout, table, kind=kind)
            assert (ctx.eps >= 0).all()
            assert (ctx.err_var >= -1e-10).all()


class TestContext:
    @pytest.mark.parametrize("cfg", [replace(ci_config(), estimators=ESTIMATOR_KINDS),
                                     fig2_config()], ids=["ci", "fig2"])
    def test_matches_coef_oracle(self, cfg):
        setup = build_setup(cfg)
        geom = build_geometry(cfg, setup, 0)
        network = geom.network
        rng = np.random.default_rng(5)
        shape = (cfg.n_aps, setup.layout.tau_p)
        w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        for model, ctx in zip(setup.models, geom.contexts):
            coef, eps = coef_oracle(network, model)  # eps (K, L, tau_c)
            assert ctx.rhs.tobytes() == ue_rhs(model, network.pilot_index).tobytes()
            assert_close_to_lu(ctx, network, model, eps)
            # y_l ~ CN(0, Psi_l); elementwise the whitened products and the solve
            # differ by up to cond(Psi_l) * eps_machine, about 1e-10 for fig2's
            # unaware Psi_l
            y = (build_psi(network, model)[1] @ w[:, :, None])[:, :, 0]
            expect = np.einsum("lktp,lp->tkl", coef, y)
            assert np.linalg.norm(estimate_all(ctx, y) - expect) <= 1e-12 * np.linalg.norm(expect)

    @pytest.mark.parametrize("pilot_index", [[3, 0, 3], [0, 1, 2, 3, 1, 0, 2]],
                             ids=["unused_sequences", "more_ues_than_sequences"])
    def test_bitwise_equal_to_per_ue_solve(self, rng, pilot_index):
        """Whitening only the sequences in use gives the per-UE solve's state:
        W_l Psi_l W_l^H = I within 3 cond(Psi_l) eps_machine, eps and err_var
        within the LU bounds, and eps within 4 ulps of the same whitened product
        over every UE's own columns.  The largest deviations measured over 1200
        toy contexts are 1.83 and 2.98: BLAS rounds the edge columns of a
        product apart from the others, so the two column sets are not bitwise
        equal."""
        K = len(pilot_index)
        layout = toy_layout(n_subcarriers=24, block_subcarriers=12, block_symbols=5,
                            pilot_symbols=(1, 2, 3, 4), n_aps=3, n_ues=K)
        network = make_network(layout, rng.uniform(0.05, 1.0, (K, 3)), pilot_index, sigma2=1e-2)
        table = make_table(layout, 3e-3)
        for kind in ESTIMATOR_KINDS:
            model = make_model(layout, table, kind)
            ctx = build_context(network, model)
            _, eps = coef_oracle(network, model)  # (K, L, tau_c)
            psi, _ = build_psi(network, model)
            w = ctx.whiten
            ulp = np.linalg.cond(psi) * np.finfo(float).eps
            identity = w @ psi @ np.conj(w).swapaxes(1, 2) - np.eye(layout.tau_p)
            assert np.all(np.abs(identity).max(axis=(1, 2)) <= 3 * ulp)
            assert ctx.rhs.tobytes() == ue_rhs(model, network.pilot_index).tobytes()
            assert_close_to_lu(ctx, network, model, eps)
            white = (w.reshape(-1, layout.tau_p) @ ctx.rhs).reshape(3, layout.tau_p, -1)
            white = white.view(float) ** 2
            quad = white.sum(axis=1)
            quad = (quad[:, 0::2] + quad[:, 1::2]).reshape(3, K, -1)
            per_ue = network.p[:, None] * network.beta ** 2 * quad.transpose(2, 1, 0)
            assert np.all(np.abs(ctx.eps - per_ue) <= 4 * np.finfo(float).eps * per_ue)
            assert np.array_equal(ctx.scale, np.sqrt(network.p)[None, :] * network.beta.T)

    def test_fig2_hundred_ues_peak_below_one_solve_of_every_ue(self):
        """At fig2 size with K=100 UEs on tau_p=12 sequences, one context build peaks
        below a single (L, tau_p, K * tau_c) complex array: Psi_l is solved only
        for the sequences in use."""
        cfg = replace(fig2_config(), n_ues=100)
        setup = build_setup(cfg)
        network = build_geometry(cfg, setup, 0).network
        tau_p, tau_c = setup.layout.tau_p, setup.layout.block_symbols
        per_ue = cfg.n_aps * tau_p * cfg.n_ues * tau_c * np.dtype(complex).itemsize
        for model in setup.models:
            tracemalloc.start()
            try:
                build_context(network, model)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < per_ue

    def test_smaller_than_one_coefficient_tensor(self, rng):
        L, K, tau_c, tau_p = 200, 100, 15, 12
        layout = toy_layout(n_subcarriers=24, block_subcarriers=12, block_symbols=tau_c,
                            pilot_symbols=tuple(range(1, tau_p + 1)), n_aps=L, n_ues=K)
        network = make_network(layout, rng.uniform(0.05, 1.0, (K, L)), np.arange(K) % tau_p)
        table = make_table(layout, 3e-4)
        for kind in ESTIMATOR_KINDS:
            ctx = make_context(network, layout, table, kind=kind)
            held = sum(a.nbytes for a in vars(ctx).values())
            assert held < L * K * tau_c * tau_p * np.dtype(complex).itemsize


class TestBaselines:
    def test_no_pn_all_estimators_coincide(self, rng):
        layout = toy_layout()
        table = make_table(layout, 0.0)
        network = make_network(layout, np.array([[0.5, 0.3], [0.2, 0.8]]), [0, 1])
        y = rng.standard_normal((2, layout.tau_p)) + 1j * rng.standard_normal((2, layout.tau_p))
        outs = []
        for kind in ESTIMATOR_KINDS:
            ctx = make_context(network, layout, table, kind=kind)
            outs.append(estimate_all(ctx, y))
        assert all(np.abs(outs[0] - out).max() < 1e-10 for out in outs[1:])

    def test_unaware_constant_across_symbols(self, rng):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        network = make_network(layout, np.ones((2, 2)), [0, 1])
        ctx = make_context(network, layout, table, kind="unaware")
        y = rng.standard_normal((2, layout.tau_p)) + 1j * rng.standard_normal((2, layout.tau_p))
        est = estimate_all(ctx, y)
        assert np.abs(est - est[:1]).max() < 1e-14

    def test_sc_kernel_properties(self):
        layout = toy_layout()
        pn = PnParams(2e9, 4e-17, 4e-17, layout.sample_time)
        n = layout.n_subcarriers
        small = build_correlation_table(KernelParams(n, pn.sigma2_tot, n), [0])
        assert assumed_kernel("pna_sc", small).cpe(0) == 1.0
        # full-scale check of the gap between the two kernels
        big = SimulationLayout(
            n_subcarriers=1200, cp_len=84, subcarrier_spacing=15e3,
            block_subcarriers=12, block_symbols=15, pilot_subcarriers=(0,),
            pilot_symbols=tuple(range(1, 13)), n_aps=1, n_ues=1, area_side=100.0,
        )
        pn_big = PnParams(2e9, 4e-17, 4e-17, big.sample_time)
        params = KernelParams(1200, pn_big.sigma2_tot, 1200)
        table = build_correlation_table(params, range(-14, 15))
        # at zero lag the single-carrier kernel misses the in-symbol averaging
        # loss entirely (gap 1 - B00 ~ 0.127); at nonzero lags the OFDM kernel
        # slightly exceeds it (Jensen), so the two models genuinely differ
        sc_kernel = assumed_kernel("pna_sc", table)
        assert sc_kernel.cpe(0) - table.cpe(0) > 0.1
        for dt in range(1, 15):
            sc = sc_kernel.cpe(dt)
            ofdm_k = table.cpe(dt)
            assert sc <= ofdm_k
            assert abs(sc - ofdm_k) < 0.011

    def test_pn_aware_beats_unaware_mse(self):
        layout = toy_layout()
        pn = PnParams(2e9, 1e-15, 1e-15, layout.sample_time)
        table = world_table(layout, pn.sigma2_tot)
        beta = np.array([[0.5, 0.3], [0.2, 0.8]])
        network = make_network(layout, beta, [0, 1], p=0.4, sigma2=1e-4)
        ctx_pna = make_context(network, layout, table, kind="pna_ofdm_cp")
        ctx_un = make_context(network, layout, table, kind="unaware")
        assert ctx_un.eps.shape[0] == 1
        rng = np.random.default_rng(42)
        err_pna, err_un = [], []
        for _ in range(2000):
            h = gen_channel(beta, layout, rng)
            trace = gen_pn_trace(pn, layout, rng)
            grids = build_transmit_grids(layout, network.pilot_index, rng)
            y, _ = synth_one(h, grids, trace, network, layout, rng)
            tau = 2
            j0 = np.exp(1j * (trace.ue_phase[:, tau - 1][:, None, :]
                              + trace.ap_phase[:, tau - 1][None, :, :])).mean(axis=2)
            h_eff = j0 * h[:, :, 0]
            e_pna = estimate_all(ctx_pna, y)[tau - 1]
            e_un = estimate_all(ctx_un, y)[0]  # unaware's one symbol stands for every one
            err_pna.append(np.abs(h_eff - e_pna) ** 2)
            err_un.append(np.abs(h_eff - e_un) ** 2)
        assert np.mean(err_un) >= np.mean(err_pna)

