"""Pilot book, transmit grids, pilot observation synthesis, time-domain oracle."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from cfofdm.network import NetworkRealization, SimulationLayout, gen_fir_taps
from cfofdm.ofdm import (
    build_pilot_book,
    build_transmit_grids,
    draw_data_symbols,
    expand_blocks,
    synth_pilot_observations,
    time_domain_oracle,
)
from cfofdm.phase_noise import KernelParams, PhaseNoiseTrace, PnParams, correlation_b_fast, gen_pn_trace, phase_drift

from pilot_oracle import decomposed_pilot_observations


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


class TestPilotBook:
    def test_single_pilot(self):
        assert np.array_equal(build_pilot_book(1), np.array([[1.0 + 0j]]))

    def test_orthogonality(self):
        s = build_pilot_book(12)
        gram = s.conj().T @ s
        assert np.abs(gram - 12 * np.eye(12)).max() < 1e-12

    def test_unit_modulus(self):
        s = build_pilot_book(12)
        assert np.abs(np.abs(s) - 1.0).max() < 1e-12


class TestTransmitGrids:
    def test_pilot_entries_reproduce_book(self, small_layout):
        book = build_pilot_book(small_layout.tau_p)
        t = np.array([0, 1])
        grids = build_transmit_grids(small_layout, book, t, np.random.default_rng(0))
        # pilot slots: subcarrier 0 of symbols 1 and 2, repeated per block (N_c=8)
        for k in range(2):
            for i, (nu, sym) in enumerate(small_layout.pilot_slots):
                for blk in range(small_layout.n_blocks):
                    col = blk * small_layout.block_subcarriers + nu
                    si = small_layout.pilot_symbols.index(sym)
                    assert grids[k, si, col] == pytest.approx(book[i, t[k]])

    def test_data_statistics(self, small_layout):
        book = build_pilot_book(small_layout.tau_p)
        rng = np.random.default_rng(1)
        samples = []
        for _ in range(200):
            g = build_transmit_grids(small_layout, book, np.array([0, 1]), rng)
            samples.append(g[:, :, 1:].ravel())  # data columns only
        data = np.concatenate(samples)
        assert abs(data.mean()) < 4 / np.sqrt(data.size)
        assert np.mean(np.abs(data) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_qpsk_symbols(self, rng):
        s = draw_data_symbols((1000,), rng, kind="qpsk")
        assert np.abs(np.abs(s) - 1.0).max() < 1e-12
        assert len(np.unique(np.round(np.angle(s), 6))) == 4


class TestSynthObservations:
    def test_no_pn_no_noise_single_ue(self, small_layout):
        layout = replace(small_layout, n_ues=1)
        beta = np.array([[0.5, 0.2]])
        network = make_network(layout, beta, [0], p=0.09, sigma2=0.0)
        rng = np.random.default_rng(2)
        h = (rng.standard_normal((1, 2, layout.n_blocks))
             + 1j * rng.standard_normal((1, 2, layout.n_blocks)))
        book = build_pilot_book(layout.tau_p)
        grids = build_transmit_grids(layout, book, network.pilot_index, rng)
        trace = constant_trace(layout, value=0.0)
        y = synth_pilot_observations(h, grids, trace, network, layout, rng)
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
        book = build_pilot_book(layout.tau_p)
        grids = build_transmit_grids(layout, book, network.pilot_index, rng)
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
        book = build_pilot_book(layout.tau_p)
        grids = build_transmit_grids(layout, book, network.pilot_index, rng)
        pn = PnParams(2e9, 4e-16, 4e-16, layout.sample_time)
        trace = gen_pn_trace(pn, layout, rng)
        obs = decomposed_pilot_observations(h, grids, trace, network, layout, rng)
        h_full = expand_blocks(h, layout)
        n = layout.n_subcarriers
        for i, (nu, sym) in enumerate(layout.pilot_slots):
            si = layout.pilot_symbols.index(sym)
            for l in range(2):
                j_vec = phase_drift(trace.combined(0, l)[sym - 1])
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
        book = build_pilot_book(layout.tau_p)
        grids = build_transmit_grids(layout, book, network.pilot_index, rng)
        pilot_cols = layout.pilot_subcarriers_absolute()
        mask = np.zeros(layout.n_subcarriers, dtype=bool)
        mask[pilot_cols] = True
        grids[:, :, ~mask] = 0.0
        pn = PnParams(2e9, 4e-16, 4e-16, layout.sample_time)
        trace = gen_pn_trace(pn, layout, rng)
        obs = decomposed_pilot_observations(h, grids, trace, network, layout, rng)
        n = layout.n_subcarriers
        for i, (nu, sym) in enumerate(layout.pilot_slots):
            si = layout.pilot_symbols.index(sym)
            j_vec = phase_drift(trace.combined(0, 0)[sym - 1])
            expect = sum(
                grids[0, si, j] * j_vec[(nu - j) % n] * 1.0
                for j in pilot_cols if j != nu
            )
            assert obs.ici[0, 0, i] == pytest.approx(expect, rel=1e-10)

    def test_gaussian_ici_matches_power(self, small_layout):
        """The speed option replaces exact ICI by Gaussian draws of matched power."""
        layout = replace(small_layout, n_ues=1)
        beta = np.array([[0.5, 0.4]])
        network = make_network(layout, beta, [0], p=0.2, sigma2=0.0)
        rng = np.random.default_rng(11)
        book = build_pilot_book(layout.tau_p)
        power = 0.2 * beta * 0.13  # stand-in for p*beta*(1 - B00)
        vals = []
        for _ in range(3000):
            h = np.ones((1, 2, layout.n_blocks), dtype=complex)
            grids = build_transmit_grids(layout, book, network.pilot_index, rng)
            trace = constant_trace(layout, 0.0)
            obs = decomposed_pilot_observations(h, grids, trace, network, layout, rng,
                                                gaussian_ici=True, ici_power=power)
            vals.append(np.abs(obs.ici[0]) ** 2)
        vals = np.asarray(vals)
        mean = vals.mean(axis=0)
        se = vals.std(axis=0, ddof=1) / np.sqrt(len(vals))
        assert np.all(np.abs(mean - power[0][:, None]) <= 3 * se)
        with pytest.raises(ValueError):
            synth_pilot_observations(np.ones((1, 2, layout.n_blocks), dtype=complex),
                                     build_transmit_grids(layout, book,
                                                          network.pilot_index, rng),
                                     constant_trace(layout, 0.0), network, layout,
                                     rng, gaussian_ici=True)

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
        book = build_pilot_book(layout.tau_p)
        rng = np.random.default_rng(6)
        draws = []
        for _ in range(4000):
            h = ((rng.standard_normal((1, 1, layout.n_blocks))
                  + 1j * rng.standard_normal((1, 1, layout.n_blocks)))
                 * np.sqrt(beta[0, 0] / 2))
            grids = build_transmit_grids(layout, book, network.pilot_index, rng)
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

    @pytest.mark.parametrize("case", ["pn", "no_pn", "gaussian_ici", "eval_block_2",
                                      "shared_data", "two_pilot_columns"])
    def test_matches_decomposed_oracle(self, ci_layout, case):
        """The y-only synthesis gives the decomposed oracle's y and leaves the
        generator in the same state."""
        layout = ci_layout
        if case == "two_pilot_columns":
            layout = replace(layout, pilot_subcarriers=(0, 5))
        K, L = layout.n_ues, layout.n_aps
        rng = np.random.default_rng(12)
        beta = rng.uniform(0.1, 1.0, (K, L))
        network = make_network(layout, beta, np.arange(K) % layout.tau_p, p=0.2,
                               sigma2=1e-3)
        h = rng.standard_normal((K, L, layout.n_blocks)) + 1j * rng.standard_normal(
            (K, L, layout.n_blocks))
        book = build_pilot_book(layout.tau_p)
        grids = build_transmit_grids(layout, book, network.pilot_index, rng,
                                     shared_data=case == "shared_data")
        gamma = 0.0 if case == "no_pn" else 4e-16
        trace = gen_pn_trace(PnParams(2e9, gamma, gamma, layout.sample_time), layout, rng)
        kw = {"eval_block": 2 if case == "eval_block_2" else 1}
        if case == "gaussian_ici":
            kw.update(gaussian_ici=True, ici_power=0.01 * beta)
        oracle_rng = copy.deepcopy(rng)
        y = synth_pilot_observations(h, grids, trace, network, layout, rng, **kw)
        ref = decomposed_pilot_observations(h, grids, trace, network, layout, oracle_rng,
                                            **kw)
        assert y.shape == (L, layout.tau_p)
        assert np.abs(y - ref.y).max() <= 1e-12 * np.abs(ref.y).max()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestTimeDomainOracle:
    def test_identity_channel_no_pn(self, small_layout):
        layout = small_layout
        beta = np.ones((2, 2))
        network = make_network(layout, beta, [0, 1], p=1.0, sigma2=0.0)
        rng = np.random.default_rng(7)
        taps = np.zeros((2, 2, 3), dtype=complex)
        taps[:, :, 0] = 1.0  # identity channel
        book = build_pilot_book(layout.tau_p)
        grids = build_transmit_grids(layout, book, network.pilot_index, rng)
        trace = constant_trace(layout, 0.0)
        y_time, _ = time_domain_oracle(taps, grids, trace, network, layout, symbol=1)
        n = layout.n_subcarriers
        expect = sum(np.sqrt(n) * np.fft.ifft(grids[k, 0]) for k in range(2))
        assert np.abs(y_time - expect[None, :]).max() < 1e-12

    def test_matches_frequency_model(self, small_layout):
        """DFT of the time-domain model equals the convolutional frequency model."""
        layout = small_layout
        rng = np.random.default_rng(8)
        beta = rng.uniform(0.2, 1.0, (2, 2))
        network = make_network(layout, beta, [0, 1], p=0.5, sigma2=1e-2)
        taps = gen_fir_taps(beta, rng, n_taps=4)
        book = build_pilot_book(layout.tau_p)
        grids = build_transmit_grids(layout, book, network.pilot_index, rng)
        pn = PnParams(2e9, 4e-16, 4e-16, layout.sample_time)
        trace = gen_pn_trace(pn, layout, rng)
        n = layout.n_subcarriers
        noise_t = np.sqrt(network.sigma2 / 2) * (
            rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
        _, y_freq = time_domain_oracle(taps, grids, trace, network, layout, 2,
                                       noise_time=noise_t)
        h_freq = np.fft.fft(taps, n=n, axis=-1)
        y_ref = np.fft.fft(noise_t, axis=-1) / np.sqrt(n)
        for l in range(2):
            for k in range(2):
                j_vec = phase_drift(trace.combined(k, l)[1])
                x = grids[k, 1] * h_freq[k, l]
                y_ref[l] += np.sqrt(0.5) * np.fft.ifft(np.fft.fft(j_vec) * np.fft.fft(x))
        rel = np.linalg.norm(y_freq - y_ref) / np.linalg.norm(y_ref)
        assert rel < 1e-9

    def test_single_active_subcarrier_isolates_drift(self, small_layout):
        """One active subcarrier n0: frequency sample at n0+i is sqrt(p) s J_i h."""
        layout = replace(small_layout, n_ues=1, n_aps=1)
        beta = np.ones((1, 1))
        network = make_network(layout, beta, [0], p=0.81, sigma2=0.0)
        rng = np.random.default_rng(9)
        taps = gen_fir_taps(beta, rng, n_taps=3)
        n = layout.n_subcarriers
        n0 = 5
        grids = np.zeros((1, len(layout.pilot_symbols), n), dtype=complex)
        grids[0, 0, n0] = 0.3 - 0.8j
        pn = PnParams(2e9, 4e-16, 4e-16, layout.sample_time)
        trace = gen_pn_trace(pn, layout, rng)
        _, y_freq = time_domain_oracle(taps, grids, trace, network, layout, 1)
        h_freq = np.fft.fft(taps[0, 0], n=n)
        j_vec = phase_drift(trace.combined(0, 0)[0])
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
        book = build_pilot_book(layout.tau_p)
        grids = build_transmit_grids(layout, book, network.pilot_index, rng)
        pilot_cols = layout.pilot_subcarriers_absolute()
        mask = np.zeros(layout.n_subcarriers, dtype=bool)
        mask[pilot_cols] = True
        grids[:, :, ~mask] = 0.0  # isolate the pilots
        trace = constant_trace(layout, 0.0)
        y = synth_pilot_observations(h, grids, trace, network, layout, rng)
        other = book[:, 1]
        assert abs(other.conj() @ y[0]) < 1e-10
