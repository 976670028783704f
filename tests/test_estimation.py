"""LMMSE estimator, ICI covariance construction, and baseline estimators."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_solve

from cfofdm.estimation import (
    build_context,
    build_ici_base,
    build_psi,
    build_z_ici,
    estimate_all,
    estimation_stats,
    kernel_offsets,
    lmmse_estimate,
)
from cfofdm.network import NetworkRealization, SimulationLayout, gen_channel
from cfofdm.ofdm import build_pilot_book, build_transmit_grids, synth_pilot_observations
from cfofdm.phase_noise import (
    KernelParams,
    PnParams,
    build_correlation_table,
    correlation_b_fast,
    correlation_b_oracle,
    gen_pn_trace,
)

from test_ofdm import make_network


def toy_layout(**kw):
    base = dict(
        n_subcarriers=16, cp_len=2, subcarrier_spacing=15e3,
        block_subcarriers=8, block_symbols=3, pilot_subcarriers=(0,),
        pilot_symbols=(1, 2), n_aps=2, n_ues=2, area_side=100.0,
    )
    base.update(kw)
    return SimulationLayout(**base)


def make_table(layout, sigma2_tot, stride=None, eval_block=1):
    params = KernelParams(n=layout.n_subcarriers, sigma2_tot=sigma2_tot,
                          stride=stride or layout.n_subcarriers)
    lags = range(-(layout.block_symbols - 1), layout.block_symbols)
    return build_correlation_table(params, kernel_offsets(layout, eval_block), lags)


def ici_base_per_entry(layout, params, book, mode, eval_block=1):
    """Pilot-pair and data-pair ICI sums with one scalar kernel call per entry."""
    from cfofdm.estimation import _data_sum_as_printed, _data_sum_independent

    tau_p, nc = layout.tau_p, layout.block_subcarriers
    lo = (eval_block - 1) * nc
    subs = np.array([lo + nu for nu, _ in layout.pilot_slots])
    syms = np.array([t for _, t in layout.pilot_slots])
    pilot_cols = layout.pilot_subcarriers_absolute()
    slot_of = {slot: i for i, slot in enumerate(layout.pilot_slots)}
    pilot_terms = np.zeros((tau_p, tau_p, tau_p), dtype=complex)
    for i1 in range(tau_p):
        j1s = pilot_cols[pilot_cols != subs[i1]]
        rows1 = np.array([slot_of[(j % nc, syms[i1])] for j in j1s])
        for i2 in range(tau_p):
            j2s = pilot_cols[pilot_cols != subs[i2]]
            if j1s.size == 0 or j2s.size == 0:
                continue
            rows2 = np.array([slot_of[(j % nc, syms[i2])] for j in j2s])
            dt = int(syms[i1] - syms[i2])
            bsub = np.array(
                [[correlation_b_fast(int(subs[i1] - j1), int(subs[i2] - j2), dt, params)
                  for j2 in j2s] for j1 in j1s])
            w1, w2 = book[rows1, :], book[rows2, :]
            pilot_terms[:, i1, i2] = np.einsum("at,ab,bt->t", w1, bsub, np.conj(w2))
    data_ind = np.ones(layout.n_subcarriers)
    data_ind[pilot_cols] = 0.0
    data_sum = _data_sum_as_printed if mode == "as_printed" else _data_sum_independent
    data_term = np.array([[data_sum(int(subs[i1]), int(subs[i2]), int(syms[i1] - syms[i2]),
                                    params, data_ind) for i2 in range(tau_p)]
                          for i1 in range(tau_p)])
    return pilot_terms, data_term


def bruteforce_z_entry(layout, table, book, t, i1, i2, mode, eval_block=1):
    """Literal double-loop over the ICI covariance entry for pilot sequence t."""
    n = layout.n_subcarriers
    lo = (eval_block - 1) * layout.block_subcarriers
    slots = layout.pilot_slots
    n1, t1 = lo + slots[i1][0], slots[i1][1]
    n2, t2 = lo + slots[i2][0], slots[i2][1]
    pilot_cols = set(layout.pilot_subcarriers_absolute().tolist())
    slot_of = {s: i for i, s in enumerate(slots)}
    params = table.params

    def b(a, c):
        return correlation_b_oracle(a, c, t1 - t2, params)

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
    # data-pair part
    data = [j for j in range(n) if j not in pilot_cols]
    for j1 in data:
        if j1 == n1:
            continue
        for j2 in data:
            if j2 == n2:
                continue
            if mode == "independent_data" and j1 != j2:
                continue
            total += b(n1 - j1, n2 - j2)
    return total


class TestZIci:
    @pytest.mark.parametrize("mode", ["as_printed", "independent_data"])
    def test_matches_bruteforce_toy(self, mode):
        layout = toy_layout()
        table = make_table(layout, 5e-3)
        book = build_pilot_book(layout.tau_p)
        beta = np.array([[0.5, 0.3], [0.2, 0.8]])
        network = make_network(layout, beta, [0, 1], p=0.4, sigma2=1e-4)
        z = build_z_ici(network, layout, table, mode=mode, book=book)
        for l in range(2):
            for i1 in range(layout.tau_p):
                for i2 in range(layout.tau_p):
                    expect = sum(
                        network.p[k] * beta[k, l]
                        * bruteforce_z_entry(layout, table, book,
                                             int(network.pilot_index[k]), i1, i2, mode)
                        for k in range(2)
                    )
                    assert z[l, i1, i2] == pytest.approx(expect, rel=1e-10, abs=1e-16)

    def test_eval_block_offset_matches_bruteforce(self):
        layout = toy_layout()
        table = make_table(layout, 5e-3, eval_block=2)
        book = build_pilot_book(layout.tau_p)
        beta = np.array([[0.5, 0.3]])
        network = make_network(layout, beta, [0], p=0.4)
        z = build_z_ici(network, layout, table, mode="independent_data", book=book,
                        eval_block=2)
        for i1 in range(layout.tau_p):
            for i2 in range(layout.tau_p):
                expect = 0.4 * beta[0, 0] * bruteforce_z_entry(
                    layout, table, book, 0, i1, i2, "independent_data", eval_block=2)
                assert z[0, i1, i2] == pytest.approx(expect, rel=1e-10, abs=1e-16)

    @pytest.mark.parametrize("mode", ["as_printed", "independent_data"])
    @pytest.mark.parametrize("eval_block", [1, 2])
    def test_ici_base_matches_per_entry_loop(self, mode, eval_block):
        layout = toy_layout(n_subcarriers=48, block_subcarriers=12, block_symbols=4,
                            pilot_subcarriers=(0, 5), pilot_symbols=(1, 2, 3))
        table = make_table(layout, 5e-3, eval_block=eval_block)
        book = build_pilot_book(layout.tau_p)
        base = build_ici_base(layout, table, book, mode=mode, eval_block=eval_block)
        pilot_terms, data_term = ici_base_per_entry(layout, table.params, book, mode,
                                                    eval_block)
        assert base.pilot_terms == pytest.approx(pilot_terms, rel=1e-10)
        assert base.data_term == pytest.approx(data_term, rel=1e-10)

    def test_zero_phase_noise_gives_zero(self):
        layout = toy_layout()
        table = make_table(layout, 0.0)
        book = build_pilot_book(layout.tau_p)
        network = make_network(layout, np.ones((2, 2)), [0, 1])
        for mode in ("as_printed", "independent_data"):
            z = build_z_ici(network, layout, table, mode=mode, book=book)
            assert np.abs(z).max() < 1e-12

    def test_independent_data_diagonal_bounded_by_trace_rule(self):
        layout = toy_layout()
        table = make_table(layout, 5e-3)
        book = build_pilot_book(layout.tau_p)
        beta = np.array([[1.0, 1.0]])
        network = make_network(layout, beta, [0], p=1.0)
        base = build_ici_base(layout, table, book, mode="independent_data")
        b00 = table.cpe(0)
        for i in range(layout.tau_p):
            assert base.data_term[i, i].real <= (1 - b00) + 1e-12
            assert base.data_term[i, i].imag == pytest.approx(0.0, abs=1e-12)

    def test_hermitian(self):
        layout = toy_layout()
        table = make_table(layout, 5e-3)
        book = build_pilot_book(layout.tau_p)
        network = make_network(layout, np.array([[0.5, 0.3], [0.2, 0.8]]), [0, 1])
        for mode in ("as_printed", "independent_data"):
            z = build_z_ici(network, layout, table, mode=mode, book=book)
            assert np.abs(z - np.conj(np.swapaxes(z, 1, 2))).max() < 1e-12


class TestPsi:
    def test_no_pn_structure(self):
        layout = toy_layout()
        table = make_table(layout, 0.0)
        book = build_pilot_book(layout.tau_p)
        beta = np.array([[0.5, 0.3], [0.2, 0.8]])
        network = make_network(layout, beta, [0, 1], p=0.4, sigma2=1e-3)
        psi, _ = build_psi(network, layout, table, None, kind="pna_ofdm", book=book)
        for l in range(2):
            expect = sum(
                0.4 * beta[k, l] * np.outer(book[:, k], np.conj(book[:, k]))
                for k in range(2)
            ) + 1e-3 * np.eye(layout.tau_p)
            assert np.abs(psi[l] - expect).max() < 1e-14

    def test_single_ue_rank_one_identity(self):
        layout = toy_layout(n_ues=1)
        table = make_table(layout, 0.0)
        book = build_pilot_book(layout.tau_p)
        beta = np.array([[0.6, 0.1]])
        network = make_network(layout, beta, [0], p=0.2, sigma2=1e-3)
        psi, factors = build_psi(network, layout, table, None, book=book)
        s = book[:, 0]
        for l in range(2):
            val = np.real(s.conj() @ cho_solve(factors[l], s))
            expect = layout.tau_p / (0.2 * beta[0, l] * layout.tau_p + 1e-3)
            assert val == pytest.approx(expect, rel=1e-12)

    def test_hermitian_random_configs(self, rng):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        book = build_pilot_book(layout.tau_p)
        for _ in range(5):
            beta = rng.uniform(0.05, 1.0, (2, 2))
            network = make_network(layout, beta, [0, 1], p=0.3, sigma2=1e-4)
            z = build_z_ici(network, layout, table, book=book)
            psi, _ = build_psi(network, layout, table, z, book=book)
            assert np.abs(psi - np.conj(np.swapaxes(psi, 1, 2))).max() <= 1e-12


class TestLmmseEstimate:
    def test_zero_observation(self):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        network = make_network(layout, np.ones((2, 2)), [0, 1])
        pn = PnParams(2e9, 4e-16, 4e-16, layout.sample_time)
        ctx = build_context(network, layout, table, pn=pn)
        assert lmmse_estimate(ctx, np.zeros(layout.tau_p, dtype=complex), 0, 0, 1) == 0

    def test_linearity(self, rng):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        network = make_network(layout, np.ones((2, 2)), [0, 1])
        pn = PnParams(2e9, 4e-16, 4e-16, layout.sample_time)
        ctx = build_context(network, layout, table, pn=pn)
        y = rng.standard_normal(layout.tau_p) + 1j * rng.standard_normal(layout.tau_p)
        a = lmmse_estimate(ctx, 2.5j * y, 1, 1, 2)
        b = lmmse_estimate(ctx, y, 1, 1, 2)
        assert a == pytest.approx(2.5j * b, rel=1e-12)

    def test_no_pn_single_ue_closed_form(self, rng):
        layout = toy_layout(n_ues=1)
        table = make_table(layout, 0.0)
        book = build_pilot_book(layout.tau_p)
        beta = np.array([[0.7, 0.2]])
        network = make_network(layout, beta, [0], p=0.3, sigma2=2e-3)
        ctx = build_context(network, layout, table, book=book)
        y = rng.standard_normal(layout.tau_p) + 1j * rng.standard_normal(layout.tau_p)
        for l in range(2):
            expect = (np.sqrt(0.3) * beta[0, l]
                      / (0.3 * beta[0, l] * layout.tau_p + 2e-3)) * (book[:, 0].conj() @ y)
            got = lmmse_estimate(ctx, y, 0, l, 1)
            assert got == pytest.approx(expect, rel=1e-10)
            # textbook MMSE estimate variance
            eps, c = estimation_stats(ctx, 0, l, 1)
            expect_eps = 0.3 * beta[0, l] ** 2 * layout.tau_p / (
                0.3 * beta[0, l] * layout.tau_p + 2e-3)
            assert eps == pytest.approx(expect_eps, rel=1e-10)
            assert c == pytest.approx(beta[0, l] - expect_eps, rel=1e-10)

    def test_zero_beta_zero_stats(self):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        beta = np.array([[0.5, 0.0], [0.3, 0.4]])
        network = make_network(layout, beta, [0, 1])
        pn = PnParams(2e9, 4e-16, 4e-16, layout.sample_time)
        ctx = build_context(network, layout, table, pn=pn)
        eps, c = estimation_stats(ctx, 0, 1, 2)
        assert eps == 0.0 and c == 0.0

    def test_eps_within_bounds(self):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        network = make_network(layout, np.array([[0.5, 0.3], [0.2, 0.8]]), [0, 1])
        pn = PnParams(2e9, 4e-16, 4e-16, layout.sample_time)
        for kind in ("pna_ofdm", "pna_sc", "unaware"):
            ctx = build_context(network, layout, table, kind=kind, pn=pn,
                                ici_mode="independent_data")
            assert (ctx.eps >= 0).all()
            assert (ctx.err_var >= -1e-10).all()


class TestBaselines:
    def test_no_pn_all_estimators_coincide(self, rng):
        layout = toy_layout()
        table = make_table(layout, 0.0)
        network = make_network(layout, np.array([[0.5, 0.3], [0.2, 0.8]]), [0, 1])
        pn = PnParams(0.0, 0.0, 0.0, layout.sample_time)
        y = rng.standard_normal((2, layout.tau_p)) + 1j * rng.standard_normal((2, layout.tau_p))
        outs = []
        for kind in ("pna_ofdm", "pna_sc", "unaware"):
            ctx = build_context(network, layout, table, kind=kind, pn=pn)
            outs.append(estimate_all(ctx, y).h_hat)
        assert np.abs(outs[0] - outs[1]).max() < 1e-10
        assert np.abs(outs[0] - outs[2]).max() < 1e-10

    def test_unaware_constant_across_symbols(self, rng):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        network = make_network(layout, np.ones((2, 2)), [0, 1])
        pn = PnParams(2e9, 4e-16, 4e-16, layout.sample_time)
        ctx = build_context(network, layout, table, kind="unaware", pn=pn)
        y = rng.standard_normal((2, layout.tau_p)) + 1j * rng.standard_normal((2, layout.tau_p))
        est = estimate_all(ctx, y).h_hat
        assert np.abs(est - est[:, :, :1]).max() < 1e-14

    def test_sc_kernel_properties(self):
        layout = toy_layout()
        pn = PnParams(2e9, 4e-17, 4e-17, layout.sample_time)
        from cfofdm.estimation import cpe_kernel_value

        assert cpe_kernel_value("pna_sc", 0, None, pn, layout) == 1.0
        # full-scale check of the gap between the two kernels
        big = SimulationLayout(
            n_subcarriers=1200, cp_len=84, subcarrier_spacing=15e3,
            block_subcarriers=12, block_symbols=15, pilot_subcarriers=(0,),
            pilot_symbols=tuple(range(1, 13)), n_aps=1, n_ues=1, area_side=100.0,
        )
        pn_big = PnParams(2e9, 4e-17, 4e-17, big.sample_time)
        params = KernelParams(1200, pn_big.sigma2_tot, 1200)
        table = build_correlation_table(params, [0], range(-14, 15))
        # at zero lag the single-carrier kernel misses the in-symbol averaging
        # loss entirely (gap 1 - B00 ~ 0.127); at nonzero lags the OFDM kernel
        # slightly exceeds it (Jensen), so the two models genuinely differ
        assert cpe_kernel_value("pna_sc", 0, None, pn_big, big) - table.cpe(0) > 0.1
        for dt in range(1, 15):
            sc = cpe_kernel_value("pna_sc", dt, None, pn_big, big)
            ofdm_k = table.cpe(dt)
            assert sc <= ofdm_k
            assert abs(sc - ofdm_k) < 0.011

    def test_pn_aware_beats_unaware_mse(self):
        layout = toy_layout()
        pn = PnParams(2e9, 1e-15, 1e-15, layout.sample_time)
        table = make_table(layout, pn.sigma2_tot)
        beta = np.array([[0.5, 0.3], [0.2, 0.8]])
        network = make_network(layout, beta, [0, 1], p=0.4, sigma2=1e-4)
        book = build_pilot_book(layout.tau_p)
        ctx_pna = build_context(network, layout, table, kind="pna_ofdm", pn=pn,
                                ici_mode="independent_data", book=book)
        ctx_un = build_context(network, layout, table, kind="unaware", pn=pn, book=book)
        rng = np.random.default_rng(42)
        err_pna, err_un = [], []
        for _ in range(2000):
            channel = gen_channel(beta, layout, rng)
            trace = gen_pn_trace(pn, layout, rng)
            grids = build_transmit_grids(layout, book, network.pilot_index, rng)
            y = synth_pilot_observations(channel.h, grids, trace, network, layout, rng)
            tau = 2
            j0 = np.exp(1j * (trace.ue_phase[:, tau - 1][:, None, :]
                              + trace.ap_phase[:, tau - 1][None, :, :])).mean(axis=2)
            h_eff = j0 * channel.h[:, :, 0]
            e_pna = estimate_all(ctx_pna, y).h_hat[:, :, tau - 1]
            e_un = estimate_all(ctx_un, y).h_hat[:, :, tau - 1]
            err_pna.append(np.abs(h_eff - e_pna) ** 2)
            err_un.append(np.abs(h_eff - e_un) ** 2)
        assert np.mean(err_un) >= np.mean(err_pna)


class TestStatisticalConsistency:
    def _run_trials(self, n_trials, seed=7):
        # exact-model world: generation-consistent stride, equal-index data
        # terms, one data draw shared across pilot symbols
        layout = toy_layout(n_aps=3, n_ues=2, block_symbols=3)
        pn = PnParams(2e9, 2e-15, 2e-15, layout.sample_time)
        table = make_table(layout, pn.sigma2_tot,
                           stride=layout.n_subcarriers + layout.cp_len)
        beta = np.array([[0.9, 0.4, 0.2], [0.3, 0.7, 0.5]])
        network = make_network(layout, beta, [0, 1], p=0.5, sigma2=1e-4)
        book = build_pilot_book(layout.tau_p)
        ctx = build_context(network, layout, table, kind="pna_ofdm", pn=pn,
                            ici_mode="independent_data", book=book)
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(n_trials):
            channel = gen_channel(beta, layout, rng)
            trace = gen_pn_trace(pn, layout, rng)
            grids = build_transmit_grids(layout, book, network.pilot_index, rng,
                                         shared_data=True)
            y = synth_pilot_observations(channel.h, grids, trace, network, layout, rng)
            est = estimate_all(ctx, y)
            tau = 3
            j0 = np.exp(1j * (trace.ue_phase[:, tau - 1][:, None, :]
                              + trace.ap_phase[:, tau - 1][None, :, :])).mean(axis=2)
            h_eff = j0 * channel.h[:, :, 0]
            rows.append((h_eff, est.h_hat[:, :, tau - 1], y))
        return layout, network, ctx, table, rows, tau

    def test_orthogonality_and_variances(self):
        layout, network, ctx, table, rows, tau = self._run_trials(10000)
        k, l = 0, 0
        h_eff = np.array([r[0][k, l] for r in rows])
        h_hat = np.array([r[1][k, l] for r in rows])
        y = np.array([r[2][l] for r in rows])
        n = len(rows)

        # orthogonality principle: E{(h - h_hat) y^H} = 0 entrywise
        prods = (h_eff - h_hat)[:, None] * np.conj(y)
        dev = np.abs(prods.mean(axis=0)) / (prods.std(axis=0, ddof=1) / np.sqrt(n))
        assert dev.max() <= 3.0

        # empirical estimate variance matches the model value
        eps_model = ctx.eps[k, l, tau - 1]
        var_hat = np.mean(np.abs(h_hat) ** 2)
        se = np.abs(h_hat).std(ddof=1) ** 2 / np.sqrt(n) * 2  # loose delta bound
        assert abs(var_hat - eps_model) <= 3 * np.std(np.abs(h_hat) ** 2) / np.sqrt(n)

        # variance decomposition against the effective-channel power:
        # var(h_hat) + var(h_eff - h_hat) = B00 * beta
        b00 = table.cpe(0)
        total = np.abs(h_hat) ** 2 + np.abs(h_eff - h_hat) ** 2
        expect = b00 * network.beta[k, l]
        se_tot = total.std(ddof=1) / np.sqrt(n)
        assert abs(total.mean() - expect) <= 3 * se_tot
