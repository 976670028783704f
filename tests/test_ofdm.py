"""Pilot book, transmit grids, pilot observation synthesis, time-domain oracle."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from cfofdm import ofdm
from cfofdm.config import ci_config, fig2_config
from cfofdm.harness import build_geometry, build_setup
from cfofdm.network import NetworkRealization, SimulationLayout, gen_channel
from cfofdm.ofdm import build_transmit_grids, synth_pilot_observations
from cfofdm.phase_noise import KernelParams, PhaseNoiseTrace, PnParams, cpe_per_symbol, gen_pn_trace
from cfofdm.se import lambda_ici
from cfofdm.validate import phase_drift, time_domain_oracle

from kernel_scalar import correlation_b_fast
from pilot_oracle import decomposed_pilot_observations, expand_blocks, received_terms, synth_one


def make_network(layout, beta, pilot_index, p=0.1, sigma2=1e-13):
    K, L = beta.shape
    return NetworkRealization(
        ap_positions=np.zeros((L, 2)), ue_positions=np.zeros((K, 2)),
        beta=beta, D=np.ones((K, L), dtype=np.int8),
        pilot_index=np.asarray(pilot_index), p=np.full(K, p), sigma2=sigma2,
    )


def constant_trace(layout, value=0.0):
    shape_ap = (layout.n_aps, layout.block_symbols, layout.n_subcarriers)
    shape_ue = (layout.n_ues, layout.block_symbols, layout.n_subcarriers)
    return PhaseNoiseTrace(ap_phase=np.full(shape_ap, value / 2),
                           ue_phase=np.full(shape_ue, value / 2))


def pn_params(case, layout):
    """Oscillators of a synthesis test case: none for ``no_pn``, only the APs'
    or only the UEs' for ``ap_only_pn`` and ``ue_only_pn``, both otherwise."""
    gamma_ap = 0.0 if case in ("no_pn", "ue_only_pn") else 4e-16
    gamma_ue = 0.0 if case in ("no_pn", "ap_only_pn") else 4e-16
    return PnParams(2e9, gamma_ap, gamma_ue, layout.sample_time)


def book_layout(tau_p):
    """A layout with tau_p pilot symbols on one pilot subcarrier."""
    return SimulationLayout(
        n_subcarriers=24, cp_len=2, subcarrier_spacing=15e3, block_subcarriers=12,
        block_symbols=tau_p, pilot_subcarriers=(0,), pilot_symbols=tuple(range(1, tau_p + 1)),
        n_aps=1, n_ues=1, area_side=100.0,
    )


class TestPilotBook:
    def test_single_pilot(self):
        assert np.array_equal(book_layout(1).pilot_book, np.array([[1.0 + 0j]]))

    def test_orthogonality(self):
        s = book_layout(12).pilot_book
        gram = s.conj().T @ s
        assert np.abs(gram - 12 * np.eye(12)).max() < 1e-12

    def test_unit_modulus(self):
        s = book_layout(12).pilot_book
        assert np.abs(np.abs(s) - 1.0).max() < 1e-12


class TestTransmitGrids:
    def test_pilot_entries_reproduce_book(self, small_layout):
        book = small_layout.pilot_book
        t = np.array([0, 1])
        grids = build_transmit_grids(small_layout, t, np.random.default_rng(0))
        # pilot slots: subcarrier 0 of symbols 1 and 2, repeated per block (N_c=8)
        for k in range(2):
            for i, (nu, sym) in enumerate(small_layout.pilot_slots):
                for blk in range(small_layout.n_blocks):
                    col = blk * small_layout.block_subcarriers + nu
                    si = small_layout.pilot_symbols.index(sym)
                    assert grids[k, si, col] == pytest.approx(book[i, t[k]])

    def test_data_statistics(self, small_layout):
        rng = np.random.default_rng(1)
        samples = []
        for _ in range(200):
            g = build_transmit_grids(small_layout, np.array([0, 1]), rng)
            samples.append(g[:, :, 1:].ravel())  # data columns only
        data = np.concatenate(samples)
        assert abs(data.mean()) < 4 / np.sqrt(data.size)
        assert np.mean(np.abs(data) ** 2) == pytest.approx(1.0, rel=0.02)


class TestSynthObservations:
    def test_no_pn_no_noise_single_ue(self, small_layout):
        layout = replace(small_layout, n_ues=1)
        beta = np.array([[0.5, 0.2]])
        network = make_network(layout, beta, [0], p=0.09, sigma2=0.0)
        rng = np.random.default_rng(2)
        h = (rng.standard_normal((1, 2, layout.n_blocks))
             + 1j * rng.standard_normal((1, 2, layout.n_blocks)))
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        trace = constant_trace(layout, value=0.0)
        y, _ = synth_one(h, grids, trace, network, layout, rng)
        # J collapses to a delta: y = sqrt(p) s h exactly, zero ICI
        obs = decomposed_pilot_observations(h, grids, trace, network, layout, rng)
        assert np.abs(obs.ici).max() < 1e-12
        h_full = expand_blocks(h, layout)
        for i, (nu, sym) in enumerate(layout.pilot_slots):
            si = layout.pilot_symbols.index(sym)
            for l in range(2):
                expect = np.sqrt(0.09) * grids[0, si, nu] * h_full[0, l, nu]
                assert y[l, i] == pytest.approx(expect, rel=1e-12)

    def test_decomposition_sums_exactly(self, small_layout):
        layout = small_layout
        beta = np.full((2, 2), 0.3)
        network = make_network(layout, beta, [0, 1], sigma2=1e-3)
        rng = np.random.default_rng(3)
        h = (rng.standard_normal((2, 2, layout.n_blocks))
             + 1j * rng.standard_normal((2, 2, layout.n_blocks)))
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        pn = PnParams(2e9, 4e-17, 4e-17, layout.sample_time)
        trace = gen_pn_trace(pn, layout, rng)
        obs = decomposed_pilot_observations(h, grids, trace, network, layout, rng)
        resum = (obs.effective + obs.ici).sum(axis=0) + obs.noise
        assert np.abs(resum - obs.y).max() < 1e-12

    def test_ici_matches_bruteforce_eq8(self, small_layout):
        """Exact ICI at a pilot position equals the literal convolution sum."""
        layout = replace(small_layout, n_ues=1)
        beta = np.array([[0.5, 0.4]])
        network = make_network(layout, beta, [0], p=0.25, sigma2=0.0)
        rng = np.random.default_rng(4)
        h = (rng.standard_normal((1, 2, layout.n_blocks))
             + 1j * rng.standard_normal((1, 2, layout.n_blocks)))
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        pn = PnParams(2e9, 4e-16, 4e-16, layout.sample_time)
        trace = gen_pn_trace(pn, layout, rng)
        obs = decomposed_pilot_observations(h, grids, trace, network, layout, rng)
        h_full = expand_blocks(h, layout)
        n = layout.n_subcarriers
        for i, (nu, sym) in enumerate(layout.pilot_slots):
            si = layout.pilot_symbols.index(sym)
            for l in range(2):
                j_vec = phase_drift(trace.ue_phase[0, sym - 1] + trace.ap_phase[l, sym - 1])
                zeta = 0.0 + 0.0j
                for j in range(n):
                    if j == nu:
                        continue
                    zeta += grids[0, si, j] * j_vec[(nu - j) % n] * h_full[0, l, j]
                zeta *= np.sqrt(0.25)
                assert obs.ici[0, l, i] == pytest.approx(zeta, rel=1e-10)

    def test_cross_pilot_offsets_only(self, small_layout):
        """With zeroed data symbols, ICI only couples pilot subcarriers."""
        layout = replace(small_layout, n_ues=1)
        beta = np.array([[1.0, 1.0]])
        network = make_network(layout, beta, [0], p=1.0, sigma2=0.0)
        rng = np.random.default_rng(5)
        h = np.ones((1, 2, layout.n_blocks), dtype=complex)
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        mask = np.isin(np.arange(layout.n_subcarriers) % layout.block_subcarriers,
                       layout.pilot_subcarriers)
        pilot_cols = np.flatnonzero(mask)
        grids[:, :, ~mask] = 0.0
        pn = PnParams(2e9, 4e-16, 4e-16, layout.sample_time)
        trace = gen_pn_trace(pn, layout, rng)
        obs = decomposed_pilot_observations(h, grids, trace, network, layout, rng)
        n = layout.n_subcarriers
        for i, (nu, sym) in enumerate(layout.pilot_slots):
            si = layout.pilot_symbols.index(sym)
            j_vec = phase_drift(trace.ue_phase[0, sym - 1] + trace.ap_phase[0, sym - 1])
            expect = sum(
                grids[0, si, j] * j_vec[(nu - j) % n] * 1.0
                for j in pilot_cols if j != nu
            )
            assert obs.ici[0, 0, i] == pytest.approx(expect, rel=1e-10)

    def test_ici_variance_matches_lambda(self, ci_layout):
        """Empirical E|zeta|^2 matches p beta (1 - B00) for a one-pilot-column layout."""
        layout = ci_layout
        K, L = 1, 1
        layout = SimulationLayout(
            n_subcarriers=layout.n_subcarriers, cp_len=layout.cp_len,
            subcarrier_spacing=15e3, block_subcarriers=12, block_symbols=2,
            pilot_subcarriers=(0,), pilot_symbols=(1, 2), n_aps=L, n_ues=K,
            area_side=100.0,
        )
        beta = np.array([[0.8]])
        network = make_network(layout, beta, [0], p=0.2, sigma2=0.0)
        pn = PnParams(2e9, 4e-17, 4e-17, layout.sample_time)
        rng = np.random.default_rng(6)
        draws = []
        for _ in range(4000):
            h = ((rng.standard_normal((1, 1, layout.n_blocks))
                  + 1j * rng.standard_normal((1, 1, layout.n_blocks)))
                 * np.sqrt(beta[0, 0] / 2))
            grids = build_transmit_grids(layout, network.pilot_index, rng)
            trace = gen_pn_trace(pn, layout, rng)
            obs = decomposed_pilot_observations(h, grids, trace, network, layout, rng)
            draws.append(obs.ici[0, 0, :])
        draws = np.asarray(draws).ravel()
        # zero mean
        se_c = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean()) <= 3 * se_c
        # power matches the closed-form ICI power
        power = np.abs(draws) ** 2
        params = KernelParams(layout.n_subcarriers, pn.sigma2_tot, layout.n_subcarriers)
        expect = 0.2 * 0.8 * (1 - correlation_b_fast(0, 0, 0, params).real)
        se = power.std(ddof=1) / np.sqrt(power.size)
        assert abs(power.mean() - expect) <= 3 * se

    def test_data_subcarrier_ici_matches_lambda_per_ap(self):
        """At a data subcarrier of coherence block 0, the per-AP ICI zeta_l =
        sum_k sqrt(p_k) (rx_kl[n] - J_kl(0) h_kl[n] x_k[n]) has E|zeta_l|^2 =
        lambda_l of ``lambda_ici`` within 3 SE at every AP of a ci
        geometry with phase noise.  Subcarrier 6 of symbol 5, the block's
        data symbol, with CN(0, 1) data on every subcarrier; 2000 trials.
        The trial count, the seed and the every-AP criterion are fixed: a
        failure is a finding about the model, not a reason to re-seed."""
        cfg = ci_config()
        setup = build_setup(cfg)
        network = build_geometry(cfg, setup, 0).network
        layout = setup.layout
        K, L, n = layout.n_ues, layout.n_aps, layout.n_subcarriers
        symbol, sub, n_trials = 5, 6, 2000
        assert symbol not in layout.pilot_symbols and sub < layout.block_subcarriers
        rng = np.random.default_rng(31)
        power = np.empty((n_trials, L))
        for i in range(n_trials):
            h = gen_channel(network.beta, layout, rng)
            trace = gen_pn_trace(setup.pn, layout, rng)
            x = (rng.standard_normal((K, n)) + 1j * rng.standard_normal((K, n))) / np.sqrt(2.0)
            _, ici = received_terms(h, x, trace, network, layout, symbol, np.array([sub]))
            power[i] = np.abs(ici[:, :, 0].sum(axis=0)) ** 2
        lam = lambda_ici(network, setup.table)
        se_l = power.std(axis=0, ddof=1) / np.sqrt(n_trials)
        assert np.all(np.abs(power.mean(axis=0) - lam) <= 3 * se_l)

    @pytest.mark.parametrize("case", ["pn", "no_pn", "ap_only_pn", "ue_only_pn", "shared_data",
                                      "two_pilot_columns", "partial_block",
                                      "partial_block_no_pn"])
    def test_matches_decomposed_oracle(self, ci_layout, case):
        """The synthesis gives the decomposed oracle's y, returns the CPE of
        every symbol bitwise as cpe_per_symbol does, and leaves the generator in
        the same state; also where only one node kind has phase noise."""
        layout = ci_layout
        if case == "two_pilot_columns":
            layout = replace(layout, pilot_subcarriers=(0, 5))
        if case.startswith("partial_block"):
            # N = 120 is 10 whole blocks of 11 subcarriers and a partial one of 10
            layout = replace(layout, block_subcarriers=11)
            assert layout.n_subcarriers % layout.block_subcarriers != 0
            case = case[len("partial_block_"):] or "pn"
        K, L = layout.n_ues, layout.n_aps
        rng = np.random.default_rng(12)
        beta = rng.uniform(0.1, 1.0, (K, L))
        network = make_network(layout, beta, np.arange(K) % layout.tau_p, p=0.2,
                               sigma2=1e-3)
        h = rng.standard_normal((K, L, layout.n_blocks)) + 1j * rng.standard_normal(
            (K, L, layout.n_blocks))
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        if case == "shared_data":
            # the data of pilot symbol 1 repeated over the pilot symbols: data
            # correlated across symbols, which no run draws
            grids = np.where(layout.pilot_grid[0, 0] != 0, grids, grids[:, :1])
        trace = gen_pn_trace(pn_params(case, layout), layout, rng)
        oracle_rng = copy.deepcopy(rng)
        y, cpe = synth_one(h, grids, trace, network, layout, rng)
        ref = decomposed_pilot_observations(h, grids, trace, network, layout, oracle_rng)
        assert y.shape == (L, layout.tau_p)
        assert np.abs(y - ref.y).max() <= 1e-12 * np.abs(ref.y).max()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert np.array_equal(cpe, cpe_per_symbol(trace))

    @pytest.mark.parametrize("case", ["pn", "ideal", "partial_block", "forty_aps"])
    def test_one_ap_gives_its_row(self, case):
        """Synthesizing one AP, h and the AP phases sliced to [l:l+1], gives
        row l of the full synthesis of a stack of three trials, and column l
        of its CPE: the path ``validate.lmmse_moments`` takes.  With phase
        noise y is bitwise equal, also with 40 APs, where the pilot-side-first
        form puts APs 32-39 in the rows of a second, zero-padded product.  The
        CPE is a mean of N unit phasors whose summation order the BLAS picks
        by the tile's shape, and a one-AP tile takes another kernel, so it is
        bounded by N machine epsilons, the worst case of a reordered sum of N
        terms: at most 1.4e-15 apart with phase noise, and 4.8e-15 in the
        ideal world, where y is each pilot times that CPE (2.7e-14 at
        N = 120)."""
        cfg = ci_config()
        if case == "ideal":
            cfg = replace(cfg, gamma_ap=0.0, gamma_ue=0.0)
        if case == "partial_block":
            cfg = replace(cfg, block_subcarriers=11)
        if case == "forty_aps":
            cfg = replace(cfg, n_aps=40)
        setup = build_setup(cfg)
        layout, network = setup.layout, build_geometry(cfg, setup, 0).network
        if case == "forty_aps":
            assert ofdm._ici_by_products(layout.n_subcarriers, layout.n_blocks)
            assert layout.n_aps > ofdm._AP_BLOCK
        rng = np.random.default_rng(5)
        B = 3
        h = np.stack([gen_channel(network.beta, layout, rng) for _ in range(B)])
        walks = [gen_pn_trace(setup.pn, layout, rng) for _ in range(B)]
        trace = PhaseNoiseTrace(np.stack([w.ap_phase for w in walks]),
                                np.stack([w.ue_phase for w in walks]))
        if case == "ideal":  # initial phases alone, as ``harness.observe`` holds them
            trace = PhaseNoiseTrace(trace.ap_phase[..., :1, :1], trace.ue_phase[..., :1, :1])
        grids = np.stack([build_transmit_grids(layout, network.pilot_index, rng)
                          for _ in range(B)])
        y, cpe = synth_pilot_observations(h, grids, trace, network, layout)
        tol = layout.n_subcarriers * np.finfo(float).eps
        for l in range(layout.n_aps):
            one = PhaseNoiseTrace(trace.ap_phase[:, l:l + 1], trace.ue_phase)
            y_l, cpe_l = synth_pilot_observations(h[:, :, l:l + 1], grids, one, network, layout)
            assert np.abs(cpe_l[..., 0] - cpe[..., l]).max() <= tol
            if case == "ideal":
                assert np.abs(y_l[:, 0] - y[:, l]).max() <= tol * np.abs(y[:, l]).max()
            else:
                assert np.array_equal(y_l[:, 0], y[:, l])

    @pytest.mark.parametrize("case", ["pn", "no_pn", "ap_only_pn", "ue_only_pn",
                                      "partial_block", "two_pilot_columns"])
    def test_ap_tiles_invariant(self, ci_layout, monkeypatch, case):
        """Ragged AP tiles (8 + 8 + 8 + 6 of the 30 APs) give the one-tile y
        within 1e-15 relative, the CPE of cpe_per_symbol bitwise, and leave the
        generator in the same state."""
        layout = ci_layout
        if case == "two_pilot_columns":
            layout = replace(layout, pilot_subcarriers=(0, 5))
        if case == "partial_block":
            layout = replace(layout, block_subcarriers=11)
        K, L, n = layout.n_ues, layout.n_aps, layout.n_subcarriers
        rng = np.random.default_rng(13)
        network = make_network(layout, rng.uniform(0.1, 1.0, (K, L)),
                               np.arange(K) % layout.tau_p, p=0.2, sigma2=1e-3)
        h = rng.standard_normal((K, L, layout.n_blocks)) + 1j * rng.standard_normal(
            (K, L, layout.n_blocks))
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        trace = gen_pn_trace(pn_params(case, layout), layout, rng)
        one_rng = copy.deepcopy(rng)
        assert ofdm._tile_rows(n) >= L
        y_one, _ = synth_one(h, grids, trace, network, layout, one_rng)
        monkeypatch.setattr(ofdm, "_TILE_BYTES", 8 * n * 16)
        assert ofdm._tile_rows(n) == 8
        y, cpe = synth_one(h, grids, trace, network, layout, rng)
        assert np.abs(y - y_one).max() <= 1e-15 * np.abs(y_one).max()
        assert np.array_equal(cpe, cpe_per_symbol(trace))
        assert rng.bit_generator.state == one_rng.bit_generator.state

    @pytest.mark.parametrize("case", ["pn", "no_pn", "ue_only_pn", "partial_block"])
    def test_stack_matches_trials_alone(self, ci_layout, monkeypatch, case):
        """Three trials stacked on a leading axis give each trial's noise-free
        y and CPE bit for bit as its call alone, over ragged AP tiles
        (8 + 8 + 8 + 6 of the 30 APs)."""
        layout = ci_layout
        if case == "partial_block":
            layout = replace(layout, block_subcarriers=11)
        K, L, n = layout.n_ues, layout.n_aps, layout.n_subcarriers
        rng = np.random.default_rng(14)
        network = make_network(layout, rng.uniform(0.1, 1.0, (K, L)),
                               np.arange(K) % layout.tau_p, p=0.2, sigma2=1e-3)
        pn = pn_params(case, layout)
        trials = []
        for seed in range(3):
            t_rng = np.random.default_rng(seed)
            h = t_rng.standard_normal((K, L, layout.n_blocks)) + 1j * t_rng.standard_normal(
                (K, L, layout.n_blocks))
            grids = build_transmit_grids(layout, network.pilot_index, t_rng)
            trials.append((h, grids, gen_pn_trace(pn, layout, t_rng)))
        monkeypatch.setattr(ofdm, "_TILE_BYTES", 8 * n * 16)
        alone = [synth_one(h, grids, trace, network, layout) for h, grids, trace in trials]
        stacked_trace = PhaseNoiseTrace(np.stack([t[2].ap_phase for t in trials]),
                                        np.stack([t[2].ue_phase for t in trials]))
        y, cpe = synth_pilot_observations(np.stack([t[0] for t in trials]),
                                          np.stack([t[1] for t in trials]), stacked_trace,
                                          network, layout)
        assert y.shape == (3, L, layout.tau_p)
        assert cpe.shape == (3, layout.block_symbols, K, L)
        for b, (y_b, cpe_b) in enumerate(alone):
            assert np.array_equal(y[b], y_b)
            assert np.array_equal(cpe[b], cpe_b)

    @pytest.mark.parametrize("case", ["pn", "two_pilot_columns", "partial_block"])
    def test_ue_chunks_match_oracle_and_stack(self, ci_layout, monkeypatch, case):
        """A tile budget of two APs' samples makes chunks of UEs in both forms
        of the ICI: y plus the oracle's noise stays within 1e-12 of the
        decomposed oracle, the CPE is that of cpe_per_symbol bitwise, and
        three stacked trials give each trial's noise-free y bit for bit as
        alone.  The pilot-side-first form, the one this layout takes, runs
        no inverse FFT, and its chunks are of one UE.  The drift-spectrum
        form, forced, makes tiles of four APs, each weighted once from
        sub-tiles of one AP, and chunks of two UEs (2 + 2 + 1 of 5).  With
        two pilot subcarriers two slots of a pilot symbol reuse the chunk's
        coefficients or the tile's block sums; with N_c = 11 the last block
        is partial."""
        layout = ci_layout
        if case == "two_pilot_columns":
            layout = replace(layout, pilot_subcarriers=(0, 5))
        if case == "partial_block":
            layout = replace(layout, block_subcarriers=11)
        K, L, n = layout.n_ues, layout.n_aps, layout.n_subcarriers
        assert ofdm._ici_by_products(n, layout.n_blocks)
        rng = np.random.default_rng(17)
        network = make_network(layout, rng.uniform(0.1, 1.0, (K, L)),
                               np.arange(K) % layout.tau_p, p=0.2, sigma2=1e-3)
        pn = pn_params("pn", layout)
        trials = []
        for seed in range(3):
            t_rng = np.random.default_rng(seed)
            h = t_rng.standard_normal((K, L, layout.n_blocks)) + 1j * t_rng.standard_normal(
                (K, L, layout.n_blocks))
            grids = build_transmit_grids(layout, network.pilot_index, t_rng)
            trials.append((h, grids, gen_pn_trace(pn, layout, t_rng), t_rng))
        stacked_trace = PhaseNoiseTrace(np.stack([t[2].ap_phase for t in trials]),
                                        np.stack([t[2].ue_phase for t in trials]))
        monkeypatch.setattr(ofdm, "_TILE_BYTES", 2 * n * 16)
        assert ofdm._tile_rows(n) == 4
        for products in (True, False):
            monkeypatch.setattr(ofdm, "_ici_by_products", lambda n, r, p=products: p)
            alone = []
            for h, grids, trace, t_rng in trials:
                y, cpe = synth_one(h, grids, trace, network, layout)
                ref = decomposed_pilot_observations(h, grids, trace, network, layout,
                                                    copy.deepcopy(t_rng))
                assert np.abs(y + ref.noise - ref.y).max() <= 1e-12 * np.abs(ref.y).max()
                assert np.array_equal(cpe, cpe_per_symbol(trace))
                alone.append(y)
            # the (B, sub-tile, chunk, N) shape of every inverse FFT of the stack
            shapes, ifft = [], np.fft.ifft

            def spy(a, *args, **kwargs):
                shapes.append(a.shape)
                return ifft(a, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(np.fft, "ifft", spy)
                y, _ = synth_pilot_observations(np.stack([t[0] for t in trials]),
                                                np.stack([t[1] for t in trials]), stacked_trace,
                                                network, layout)
            if products:
                assert shapes == []
            else:
                assert {s[:2] for s in shapes} == {(3, 1)}  # 4 sub-tiles per tile of 4 APs
                chunks = [s[2] for s in shapes]
                assert chunks.count(2) == 2 * chunks.count(1) > 0
            for y_b, y_alone in zip(y, alone):
                assert np.array_equal(y_b, y_alone)

    def test_product_form_partial_ue_chunk(self, ci_layout, monkeypatch):
        """A tile budget of two UEs' coefficients makes the pilot-side-first
        form take the 5 UEs in chunks of 2 + 2 + 1, with two pilot
        subcarriers, whose second slot puts its ramp on the coefficients: y
        plus the oracle's noise stays within 1e-12 of the decomposed oracle,
        and three stacked trials give each trial's y bit for bit as alone."""
        layout = replace(ci_layout, pilot_subcarriers=(0, 5))
        K, L, n, R = layout.n_ues, layout.n_aps, layout.n_subcarriers, layout.n_blocks
        rng = np.random.default_rng(19)
        network = make_network(layout, rng.uniform(0.1, 1.0, (K, L)),
                               np.arange(K) % layout.tau_p, p=0.2, sigma2=1e-3)
        pn = pn_params("pn", layout)
        monkeypatch.setattr(ofdm, "_TILE_BYTES", 2 * 16 * R * n)
        trials, alone = [], []
        for seed in range(3):
            t_rng = np.random.default_rng(seed)
            h = t_rng.standard_normal((K, L, R)) + 1j * t_rng.standard_normal((K, L, R))
            grids = build_transmit_grids(layout, network.pilot_index, t_rng)
            trace = gen_pn_trace(pn, layout, t_rng)
            y, _ = synth_one(h, grids, trace, network, layout)
            ref = decomposed_pilot_observations(h, grids, trace, network, layout, t_rng)
            assert np.abs(y + ref.noise - ref.y).max() <= 1e-12 * np.abs(ref.y).max()
            trials.append((h, grids, trace))
            alone.append(y)
        stacked_trace = PhaseNoiseTrace(np.stack([t[2].ap_phase for t in trials]),
                                        np.stack([t[2].ue_phase for t in trials]))
        y, _ = synth_pilot_observations(np.stack([t[0] for t in trials]),
                                        np.stack([t[1] for t in trials]), stacked_trace,
                                        network, layout)
        for y_b, y_alone in zip(y, alone):
            assert np.array_equal(y_b, y_alone)

    @pytest.mark.parametrize("case", ["pn", "ap_only_pn", "ue_only_pn", "partial_block"])
    def test_drift_spectrum_form_matches_oracle(self, ci_layout, monkeypatch, case):
        """The drift-spectrum form, forced at the ci layout, which takes the
        other form: y within 1e-12 of the decomposed oracle and within 1e-12
        of the pilot-side-first form, the CPE of cpe_per_symbol bitwise, and
        one AP synthesized alone gives its row bit for bit."""
        layout = ci_layout
        if case == "partial_block":
            layout = replace(layout, block_subcarriers=11)
            case = "pn"
        K, L = layout.n_ues, layout.n_aps
        rng = np.random.default_rng(18)
        network = make_network(layout, rng.uniform(0.1, 1.0, (K, L)),
                               np.arange(K) % layout.tau_p, p=0.2, sigma2=1e-3)
        h = rng.standard_normal((K, L, layout.n_blocks)) + 1j * rng.standard_normal(
            (K, L, layout.n_blocks))
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        trace = gen_pn_trace(pn_params(case, layout), layout, rng)
        ref = decomposed_pilot_observations(h, grids, trace, network, layout, rng)
        y_products, _ = synth_one(h, grids, trace, network, layout)
        monkeypatch.setattr(ofdm, "_ici_by_products", lambda n, r: False)
        y, cpe = synth_one(h, grids, trace, network, layout)
        scale = np.abs(ref.y).max()
        assert np.abs(y + ref.noise - ref.y).max() <= 1e-12 * scale
        assert np.abs(y - y_products).max() <= 1e-12 * scale
        assert np.array_equal(cpe, cpe_per_symbol(trace))
        for l in (0, L - 1):
            one = PhaseNoiseTrace(trace.ap_phase[l:l + 1], trace.ue_phase)
            y_l, _ = synth_one(h[:, l:l + 1], grids, one, network, layout)
            assert np.array_equal(y_l[0], y[l])

    def test_ici_form_follows_layout(self):
        """The layout alone picks the form of the ICI: the pilot-side-first
        form at the ci layout (R = 10 blocks of N = 120) and with its partial
        block (N_c = 11, R = 11), the drift-spectrum form at N_c = 2 (R = 60)
        and at fig2 (R = 100 blocks of N = 1200)."""
        ci = ci_config()
        for cfg, products in ((ci, True), (replace(ci, block_subcarriers=11), True),
                              (replace(ci, block_subcarriers=2), False),
                              (fig2_config(), False)):
            layout = cfg.layout()
            assert ofdm._ici_by_products(layout.n_subcarriers, layout.n_blocks) is products

    def test_constant_phases_stand_for_every_symbol(self, ci_layout):
        """Ideal oscillators' (nodes, 1, 1) initial phases stand for the walks
        ``gen_pn_trace`` broadcasts over the block.  Where only one node kind
        is ideal, its constant phases give bit for bit the y and CPE of its
        walks.  Where both are, the CPE is that of symbol 1 alone, bit for
        bit, and y is within 1e-12 relative: the constant phases take no ICI
        evaluation, the broadcast walks the exact one.  A one-symbol trace
        that varies within its symbol is rejected."""
        layout = ci_layout
        K, L = layout.n_ues, layout.n_aps
        rng = np.random.default_rng(15)
        network = make_network(layout, rng.uniform(0.1, 1.0, (K, L)),
                               np.arange(K) % layout.tau_p, p=0.2, sigma2=1e-3)
        h = rng.standard_normal((K, L, layout.n_blocks)) + 1j * rng.standard_normal(
            (K, L, layout.n_blocks))
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        for case in ("ue_only_pn", "ap_only_pn", "no_pn"):
            walks = gen_pn_trace(pn_params(case, layout), layout, rng)
            ap, ue = walks.ap_phase, walks.ue_phase
            one = PhaseNoiseTrace(ap if case == "ap_only_pn" else ap[:, :1, :1],
                                  ue if case == "ue_only_pn" else ue[:, :1, :1])
            full_rng = copy.deepcopy(rng)
            y, cpe = synth_one(h, grids, one, network, layout, rng)
            y_full, cpe_full = synth_one(h, grids, walks, network, layout, full_rng)
            assert rng.bit_generator.state == full_rng.bit_generator.state
            assert np.array_equal(np.broadcast_to(cpe, cpe_full.shape), cpe_full)
            if case == "no_pn":
                assert cpe.shape == (1, K, L)
                assert np.abs(y - y_full).max() <= 1e-12 * np.abs(y_full).max()
            else:
                assert cpe.shape == (layout.block_symbols, K, L)
                assert np.array_equal(y, y_full)
        varying = PhaseNoiseTrace(rng.uniform(size=(L, 1, layout.n_subcarriers)),
                                  rng.uniform(size=(K, 1, layout.n_subcarriers)))
        with pytest.raises(ValueError, match="constant phases"):
            synth_one(h, grids, varying, network, layout, rng)

    def test_one_subcarrier_walks_keep_every_symbol(self, ci_layout):
        """At N = 1 a walk, (nodes, tau_c, 1), has one sample per symbol, yet
        it is no constant phase: the CPE keeps every symbol, that of
        cpe_per_symbol, and y is the decomposed oracle's."""
        layout = replace(ci_layout, n_subcarriers=1, block_subcarriers=1)
        K, L = layout.n_ues, layout.n_aps
        rng = np.random.default_rng(16)
        network = make_network(layout, rng.uniform(0.1, 1.0, (K, L)),
                               np.arange(K) % layout.tau_p, p=0.2, sigma2=1e-3)
        h = rng.standard_normal((K, L, 1)) + 1j * rng.standard_normal((K, L, 1))
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        trace = gen_pn_trace(pn_params("pn", layout), layout, rng)
        assert trace.ue_phase.shape == (K, layout.block_symbols, 1)
        oracle_rng = copy.deepcopy(rng)
        y, cpe = synth_one(h, grids, trace, network, layout, rng)
        ref = decomposed_pilot_observations(h, grids, trace, network, layout, oracle_rng)
        assert cpe.shape == (layout.block_symbols, K, L)
        assert np.array_equal(cpe, cpe_per_symbol(trace))
        assert not np.array_equal(cpe[0], cpe[1])
        assert np.abs(y - ref.y).max() <= 1e-12 * np.abs(ref.y).max()

    def test_caller_buffer_size_kept(self, ci_layout):
        """The synthesis sets numpy's operand buffer size for its own ufuncs
        only: the caller's size is the same after the call."""
        layout = ci_layout
        K, L = layout.n_ues, layout.n_aps
        rng = np.random.default_rng(17)
        network = make_network(layout, rng.uniform(0.1, 1.0, (K, L)),
                               np.arange(K) % layout.tau_p, p=0.2, sigma2=1e-3)
        h = rng.standard_normal((K, L, layout.n_blocks)) + 1j * rng.standard_normal(
            (K, L, layout.n_blocks))
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        trace = gen_pn_trace(pn_params("pn", layout), layout, rng)
        with np.errstate():
            np.setbufsize(16384)
            synth_one(h, grids, trace, network, layout, rng)
            assert np.getbufsize() == 16384


class TestTimeDomainOracle:
    def test_identity_channel_no_pn(self, small_layout):
        layout = small_layout
        beta = np.ones((2, 2))
        network = make_network(layout, beta, [0, 1], p=1.0, sigma2=0.0)
        rng = np.random.default_rng(7)
        taps = np.zeros((2, 2, layout.n_subcarriers), dtype=complex)
        taps[:, :, 0] = 1.0  # identity channel
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        trace = constant_trace(layout, 0.0)
        y_time, _ = time_domain_oracle(taps, grids[:, 0], trace, network, symbol=1)
        n = layout.n_subcarriers
        expect = sum(np.sqrt(n) * np.fft.ifft(grids[k, 0]) for k in range(2))
        assert np.abs(y_time - expect[None, :]).max() < 1e-12

    def test_single_active_subcarrier_isolates_drift(self, small_layout):
        """One active subcarrier n0: frequency sample at n0+i is sqrt(p) s J_i h."""
        layout = replace(small_layout, n_ues=1, n_aps=1)
        beta = np.ones((1, 1))
        network = make_network(layout, beta, [0], p=0.81, sigma2=0.0)
        rng = np.random.default_rng(9)
        n = layout.n_subcarriers
        taps = np.zeros((1, 1, n), dtype=complex)
        taps[..., :3] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        n0 = 5
        grids = np.zeros((1, len(layout.pilot_symbols), n), dtype=complex)
        grids[0, 0, n0] = 0.3 - 0.8j
        pn = PnParams(2e9, 4e-16, 4e-16, layout.sample_time)
        trace = gen_pn_trace(pn, layout, rng)
        _, y_freq = time_domain_oracle(taps, grids[:, 0], trace, network, 1)
        h_freq = np.fft.fft(taps[0, 0])
        j_vec = phase_drift(trace.ue_phase[0, 0] + trace.ap_phase[0, 0])
        for i in (-3, -1, 0, 1, 4):
            expect = np.sqrt(0.81) * grids[0, 0, n0] * j_vec[i % n] * h_freq[n0]
            assert y_freq[0, (n0 + i) % n] == pytest.approx(expect, rel=1e-10)

    def test_pilot_orthogonality_without_pn(self, small_layout):
        """Noiseless single-UE observations correlate to zero with other pilots."""
        layout = replace(small_layout, n_ues=1, n_aps=1)
        beta = np.ones((1, 1))
        network = make_network(layout, beta, [0], p=1.0, sigma2=0.0)
        rng = np.random.default_rng(10)
        h = np.ones((1, 1, layout.n_blocks), dtype=complex)
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        mask = np.isin(np.arange(layout.n_subcarriers) % layout.block_subcarriers,
                       layout.pilot_subcarriers)
        grids[:, :, ~mask] = 0.0  # isolate the pilots
        trace = constant_trace(layout, 0.0)
        y, _ = synth_one(h, grids, trace, network, layout, rng)
        other = layout.pilot_book[:, 1]
        assert abs(other.conj() @ y[0]) < 1e-10
