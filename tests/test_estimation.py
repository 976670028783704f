"""LMMSE estimator, ICI covariance construction, and baseline estimators."""

from dataclasses import replace

import numpy as np
import pytest

from cfofdm.estimation import (
    build_context,
    build_ici_base,
    build_psi,
    build_z_ici,
    estimate_all,
    kernel_offsets,
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


def make_table(layout, sigma2_tot, stride=None):
    params = KernelParams(n=layout.n_subcarriers, sigma2_tot=sigma2_tot,
                          stride=stride or layout.n_subcarriers)
    lags = range(-(layout.block_symbols - 1), layout.block_symbols)
    return build_correlation_table(params, kernel_offsets(layout), lags)


def make_context(network, layout, table, kind="pna_ofdm", ici_mode="as_printed"):
    """Estimator context with the pilot book and ICI base of ``layout``."""
    book = build_pilot_book(layout.tau_p)
    base = build_ici_base(layout, table, book, mode=ici_mode)
    return build_context(network, layout, table, book, kind=kind, ici_base=base)


def ici_base_per_entry(layout, params, book, mode):
    """Pilot-pair and data-pair ICI sums with one scalar kernel call per entry."""
    from cfofdm.estimation import _data_sum_as_printed, _data_sum_independent

    tau_p, nc = layout.tau_p, layout.block_subcarriers
    subs = np.array([nu for nu, _ in layout.pilot_slots])
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


def bruteforce_z_entry(layout, table, book, t, i1, i2, mode):
    """Literal double-loop over the ICI covariance entry for pilot sequence t."""
    n = layout.n_subcarriers
    slots = layout.pilot_slots
    n1, t1 = slots[i1]
    n2, t2 = slots[i2]
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
        z = build_z_ici(network, build_ici_base(layout, table, book, mode=mode))
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

    @pytest.mark.parametrize("mode", ["as_printed", "independent_data"])
    def test_ici_base_matches_per_entry_loop(self, mode):
        layout = toy_layout(n_subcarriers=48, block_subcarriers=12, block_symbols=4,
                            pilot_subcarriers=(0, 5), pilot_symbols=(1, 2, 3))
        table = make_table(layout, 5e-3)
        book = build_pilot_book(layout.tau_p)
        base = build_ici_base(layout, table, book, mode=mode)
        pilot_terms, data_term = ici_base_per_entry(layout, table.params, book, mode)
        assert base.pilot_terms == pytest.approx(pilot_terms, rel=1e-10)
        assert base.data_term == pytest.approx(data_term, rel=1e-10)

    def test_zero_phase_noise_gives_zero(self):
        layout = toy_layout()
        table = make_table(layout, 0.0)
        book = build_pilot_book(layout.tau_p)
        network = make_network(layout, np.ones((2, 2)), [0, 1])
        for mode in ("as_printed", "independent_data"):
            z = build_z_ici(network, build_ici_base(layout, table, book, mode=mode))
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
            z = build_z_ici(network, build_ici_base(layout, table, book, mode=mode))
            assert np.abs(z - np.conj(np.swapaxes(z, 1, 2))).max() < 1e-12


class TestPsi:
    def test_no_pn_structure(self):
        layout = toy_layout()
        table = make_table(layout, 0.0)
        book = build_pilot_book(layout.tau_p)
        beta = np.array([[0.5, 0.3], [0.2, 0.8]])
        network = make_network(layout, beta, [0, 1], p=0.4, sigma2=1e-3)
        psi = build_psi(network, layout, table, book, None, kind="pna_ofdm")
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
        psi = build_psi(network, layout, table, book, None)
        s = book[:, 0]
        for l in range(2):
            val = np.real(s.conj() @ np.linalg.solve(psi[l], s))
            expect = layout.tau_p / (0.2 * beta[0, l] * layout.tau_p + 1e-3)
            assert val == pytest.approx(expect, rel=1e-12)

    def test_hermitian_random_configs(self, rng):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        book = build_pilot_book(layout.tau_p)
        for _ in range(5):
            beta = rng.uniform(0.05, 1.0, (2, 2))
            network = make_network(layout, beta, [0, 1], p=0.3, sigma2=1e-4)
            z = build_z_ici(network, build_ici_base(layout, table, book))
            psi = build_psi(network, layout, table, book, z)
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

    def test_no_pn_single_ue_closed_form(self, rng):
        layout = toy_layout(n_ues=1)
        table = make_table(layout, 0.0)
        book = build_pilot_book(layout.tau_p)
        beta = np.array([[0.7, 0.2]])
        network = make_network(layout, beta, [0], p=0.3, sigma2=2e-3)
        ctx = make_context(network, layout, table)
        y = rng.standard_normal(layout.tau_p) + 1j * rng.standard_normal(layout.tau_p)
        h_hat = estimate_all(ctx, np.tile(y, (2, 1)))
        for l in range(2):
            expect = (np.sqrt(0.3) * beta[0, l]
                      / (0.3 * beta[0, l] * layout.tau_p + 2e-3)) * (book[:, 0].conj() @ y)
            assert h_hat[0, l, 0] == pytest.approx(expect, rel=1e-10)
            # textbook MMSE estimate variance
            expect_eps = 0.3 * beta[0, l] ** 2 * layout.tau_p / (
                0.3 * beta[0, l] * layout.tau_p + 2e-3)
            assert ctx.eps[0, l, 0] == pytest.approx(expect_eps, rel=1e-10)
            assert ctx.err_var[0, l, 0] == pytest.approx(beta[0, l] - expect_eps, rel=1e-10)

    def test_zero_beta_zero_stats(self):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        beta = np.array([[0.5, 0.0], [0.3, 0.4]])
        network = make_network(layout, beta, [0, 1])
        ctx = make_context(network, layout, table)
        assert ctx.eps[0, 1, 1] == 0.0 and ctx.err_var[0, 1, 1] == 0.0

    def test_eps_within_bounds(self):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        network = make_network(layout, np.array([[0.5, 0.3], [0.2, 0.8]]), [0, 1])
        for kind in ("pna_ofdm", "pna_sc", "unaware"):
            ctx = make_context(network, layout, table, kind=kind,
                               ici_mode="independent_data")
            assert (ctx.eps >= 0).all()
            assert (ctx.err_var >= -1e-10).all()

    def test_pna_ofdm_needs_ici_base(self):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        network = make_network(layout, np.ones((2, 2)), [0, 1])
        with pytest.raises(ValueError, match="ICI base"):
            build_context(network, layout, table, build_pilot_book(layout.tau_p))


class TestBaselines:
    def test_no_pn_all_estimators_coincide(self, rng):
        layout = toy_layout()
        table = make_table(layout, 0.0)
        network = make_network(layout, np.array([[0.5, 0.3], [0.2, 0.8]]), [0, 1])
        y = rng.standard_normal((2, layout.tau_p)) + 1j * rng.standard_normal((2, layout.tau_p))
        outs = []
        for kind in ("pna_ofdm", "pna_sc", "unaware"):
            ctx = make_context(network, layout, table, kind=kind)
            outs.append(estimate_all(ctx, y))
        assert np.abs(outs[0] - outs[1]).max() < 1e-10
        assert np.abs(outs[0] - outs[2]).max() < 1e-10

    def test_unaware_constant_across_symbols(self, rng):
        layout = toy_layout()
        table = make_table(layout, 3e-3)
        network = make_network(layout, np.ones((2, 2)), [0, 1])
        ctx = make_context(network, layout, table, kind="unaware")
        y = rng.standard_normal((2, layout.tau_p)) + 1j * rng.standard_normal((2, layout.tau_p))
        est = estimate_all(ctx, y)
        assert np.abs(est - est[:, :, :1]).max() < 1e-14

    def test_sc_kernel_properties(self):
        layout = toy_layout()
        pn = PnParams(2e9, 4e-17, 4e-17, layout.sample_time)
        from cfofdm.estimation import cpe_kernel_value

        n = layout.n_subcarriers
        small = build_correlation_table(KernelParams(n, pn.sigma2_tot, n), [0], [0])
        assert cpe_kernel_value("pna_sc", 0, small) == 1.0
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
        assert cpe_kernel_value("pna_sc", 0, table) - table.cpe(0) > 0.1
        for dt in range(1, 15):
            sc = cpe_kernel_value("pna_sc", dt, table)
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
        ctx_pna = make_context(network, layout, table, kind="pna_ofdm",
                               ici_mode="independent_data")
        ctx_un = make_context(network, layout, table, kind="unaware")
        rng = np.random.default_rng(42)
        err_pna, err_un = [], []
        for _ in range(2000):
            h = gen_channel(beta, layout, rng)
            trace = gen_pn_trace(pn, layout, rng)
            grids = build_transmit_grids(layout, book, network.pilot_index, rng)
            y, _ = synth_pilot_observations(h, grids, trace, network, layout, rng)
            tau = 2
            j0 = np.exp(1j * (trace.ue_phase[:, tau - 1][:, None, :]
                              + trace.ap_phase[:, tau - 1][None, :, :])).mean(axis=2)
            h_eff = j0 * h[:, :, 0]
            e_pna = estimate_all(ctx_pna, y)[:, :, tau - 1]
            e_un = estimate_all(ctx_un, y)[:, :, tau - 1]
            err_pna.append(np.abs(h_eff - e_pna) ** 2)
            err_un.append(np.abs(h_eff - e_un) ** 2)
        assert np.mean(err_un) >= np.mean(err_pna)

