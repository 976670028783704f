"""UatF SINR accumulation, ICI power term, and spectral-efficiency assembly."""

from dataclasses import replace

import numpy as np
import pytest

from cfofdm.network import NetworkRealization, SimulationLayout
from cfofdm.phase_noise import KernelParams, build_correlation_table, correlation_b_fast
from cfofdm.se import (
    SinrAccumulator,
    accumulate_trial,
    finalize_sinr,
    lambda_ici,
    se_per_block,
    se_per_channel_use,
    symbol_of_channel_use,
)

from test_ofdm import make_network


def cpe_table(n=64, sigma2=7e-4, stride=None):
    params = KernelParams(n=n, sigma2_tot=sigma2, stride=stride or n)
    return build_correlation_table(params, range(-n // 2, n // 2), range(-5, 6))


class TestLambdaIci:
    def test_zero_without_phase_noise(self, small_layout):
        table = cpe_table(sigma2=0.0)
        network = make_network(small_layout, np.ones((2, 2)), [0, 1])
        assert np.all(lambda_ici(network, table) == 0)

    def test_trace_rule_cross_check(self, small_layout):
        n = 64
        table = cpe_table(n=n, sigma2=7e-4)
        network = make_network(small_layout, np.full((2, 2), 0.5), [0, 1], p=0.2)
        lam = lambda_ici(network, table)
        off_diag = sum(table.get(i, i, 0).real for i in range(-n // 2, n // 2) if i != 0)
        assert lam[0, 0] == pytest.approx(0.2 * 0.5 * off_diag, abs=1e-12)

    def test_linear_in_power(self, small_layout):
        table = cpe_table()
        net1 = make_network(small_layout, np.ones((2, 2)), [0, 1], p=0.1)
        net2 = make_network(small_layout, np.ones((2, 2)), [0, 1], p=0.2)
        assert np.allclose(2 * lambda_ici(net1, table), lambda_ici(net2, table))


class TestAccumulator:
    def test_single_trial_hand_value(self):
        # one trial, MR, K=1, L=2, no PN/noise: all terms analytic
        network = make_network(
            SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 2, 1, 100.0),
            np.ones((1, 2)), [0], p=1.0, sigma2=0.0)
        acc = SinrAccumulator(1, 1, 1)
        h = np.array([[1 + 1j, 2 - 1j]])
        v = h.copy()  # MR with D = I
        lam = np.zeros((1, 2))
        acc.add_symbol(0, 1, v, h, lam, network.D)
        acc.bump()
        norm2 = np.sum(np.abs(h) ** 2)
        assert acc.gain[0, 0, 0] == pytest.approx(norm2)
        assert acc.cross[0, 0, 0, 0] == pytest.approx(norm2**2)
        assert acc.vnorm[0, 0, 0] == pytest.approx(norm2)

    def test_zero_channel_contributes_zero(self):
        network = make_network(
            SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 2, 2, 100.0),
            np.ones((2, 2)), [0, 1])
        acc = SinrAccumulator(1, 2, 1)
        v = np.ones((2, 2), dtype=complex)
        acc.add_symbol(0, 1, v, np.zeros((2, 2), dtype=complex),
                       np.zeros((2, 2)), network.D)
        assert np.all(acc.gain == 0) and np.all(acc.cross == 0)

    def test_identical_trials_average_to_single(self, rng):
        network = make_network(
            SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 3, 2, 100.0),
            np.ones((2, 3)), [0, 1], sigma2=1e-3)
        h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        lam = np.abs(rng.standard_normal((2, 3)))
        one = SinrAccumulator(1, 2, 1)
        one.add_symbol(0, 1, v, h, lam, network.D)
        one.bump()
        many = SinrAccumulator(1, 2, 1)
        for _ in range(7):
            many.add_symbol(0, 1, v, h, lam, network.D)
            many.bump()
        s1 = finalize_sinr(one, network, 0, 0, 1)
        s7 = finalize_sinr(many, network, 0, 0, 1)
        assert s1 == pytest.approx(s7, rel=1e-12)

    def test_accumulate_trial_covers_all_symbols(self, rng):
        layout = SimulationLayout(16, 2, 15e3, 8, 3, (0,), (1,), 3, 2, 100.0)
        network = make_network(layout, np.ones((2, 3)), [0, 1])
        acc = SinrAccumulator(1, 2, 3)
        h_eff = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        combiners = [h_eff[:, :, t] for t in range(3)]
        accumulate_trial(acc, 0, combiners, h_eff, np.zeros((2, 3)), network.D)
        acc.bump()
        for t in range(3):
            ref = SinrAccumulator(1, 2, 1)
            ref.add_symbol(0, 1, combiners[t], h_eff[:, :, t], np.zeros((2, 3)),
                           network.D)
            assert np.allclose(acc.gain[0, :, t], ref.gain[0, :, 0])
            assert np.allclose(acc.cross[0, :, t], ref.cross[0, :, 0])

    def test_merge_matches_sequential(self, rng):
        network = make_network(
            SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 3, 2, 100.0),
            np.ones((2, 3)), [0, 1])
        def trial():
            h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            return v, h
        seq = SinrAccumulator(1, 2, 1)
        parts = [SinrAccumulator(1, 2, 1) for _ in range(3)]
        trials = [trial() for _ in range(9)]
        for i, (v, h) in enumerate(trials):
            seq.add_symbol(0, 1, v, h, np.zeros((2, 3)), network.D)
            seq.bump()
            parts[i % 3].add_symbol(0, 1, v, h, np.zeros((2, 3)), network.D)
            parts[i % 3].bump()
        merged = SinrAccumulator(1, 2, 1)
        for p in parts:
            merged.merge(p)
        assert merged.count == seq.count
        assert np.allclose(merged.gain, seq.gain)
        assert np.allclose(merged.cross, seq.cross)


class TestFinalize:
    def test_zero_combiner_gives_zero_sinr(self):
        network = make_network(
            SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 2, 1, 100.0),
            np.ones((1, 2)), [0])
        acc = SinrAccumulator(1, 1, 1)
        acc.add_symbol(0, 1, np.zeros((1, 2), dtype=complex),
                       np.ones((1, 2), dtype=complex), np.zeros((1, 2)), network.D)
        acc.bump()
        assert finalize_sinr(acc, network, 0, 0, 1) == 0.0

    def test_single_ap_mr_closed_form(self):
        """Independent UatF oracle on single-AP Rayleigh: SINR = p eps / (p beta + s2).

        With v = h_hat, h = h_hat + e: E{v*h} = eps, E{|v*h|^2} = 2 eps^2 + eps c
        (complex Gaussian fourth moment), so the denominator collapses to
        eps (p beta + sigma^2).  Verified against direct Monte Carlo.
        """
        p, eps, c, s2 = 0.4, 0.6, 0.25, 0.05
        beta = eps + c
        network = make_network(
            SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 1, 1, 100.0),
            np.array([[beta]]), [0], p=p, sigma2=s2)
        rng = np.random.default_rng(3)
        acc = SinrAccumulator(1, 1, 1)
        n = 400000
        hh = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(eps / 2)
        e = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(c / 2)
        for i in range(n):
            acc.add_symbol(0, 1, np.array([[hh[i]]]), np.array([[hh[i] + e[i]]]),
                           np.zeros((1, 1)), network.D)
        acc.count = n
        sinr = finalize_sinr(acc, network, 0, 0, 1)
        assert sinr == pytest.approx(p * eps / (p * beta + s2), rel=0.02)

    def test_negative_denominator_flagged(self):
        network = make_network(
            SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 1, 1, 100.0),
            np.ones((1, 1)), [0], p=1.0, sigma2=0.0)
        acc = SinrAccumulator(1, 1, 1)
        # cross sum below |gain|^2 forces a negative variance estimate
        acc.count = 1
        acc.gain[0, 0, 0] = 2.0
        acc.cross[0, 0, 0, 0] = 1.0
        assert np.isnan(finalize_sinr(acc, network, 0, 0, 1))

    def test_extra_interferer_never_raises_sinr(self, rng):
        layout = SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 3, 2, 100.0)
        net2 = make_network(layout, np.ones((2, 3)), [0, 1], sigma2=1e-3)
        acc = SinrAccumulator(1, 2, 1)
        for _ in range(200):
            h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            v = np.zeros_like(h)
            v[0] = h[0]
            acc.add_symbol(0, 1, v, h, np.zeros((2, 3)), net2.D)
            acc.bump()
        with_interf = finalize_sinr(acc, net2, 0, 0, 1)
        # removing UE 1's cross term can only increase the SINR
        acc.cross[0, 0, 0, 1] = 0.0
        without = finalize_sinr(acc, net2, 0, 0, 1)
        assert without >= with_interf

    def test_scale_invariance(self, rng):
        layout = SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 3, 2, 100.0)
        network = make_network(layout, np.ones((2, 3)), [0, 1], sigma2=1e-3)
        trials = [
            (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
             rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
            for _ in range(50)
        ]
        lam = np.abs(rng.standard_normal((2, 3))) * 0.01
        a1 = SinrAccumulator(1, 2, 1)
        a2 = SinrAccumulator(1, 2, 1)
        alpha = 3.7 - 1.2j
        for v, h in trials:
            a1.add_symbol(0, 1, v, h, lam, network.D)
            a1.bump()
            a2.add_symbol(0, 1, alpha * v, h, lam, network.D)
            a2.bump()
        s1 = finalize_sinr(a1, network, 0, 0, 1)
        s2 = finalize_sinr(a2, network, 0, 0, 1)
        assert s1 == pytest.approx(s2, rel=1e-9)


class TestSeAssembly:
    def test_equal_sinrs(self):
        assert se_per_block(np.full(5, 3.0)) == pytest.approx(2.0)

    def test_zero_sinr(self):
        assert se_per_block(np.zeros(4)) == 0.0

    def test_two_symbol_hand_value(self):
        assert se_per_block(np.array([1.0, 3.0])) == pytest.approx(1.5)

    def test_channel_use_mapping(self):
        layout = SimulationLayout(1200, 84, 15e3, 12, 15, (0,), tuple(range(1, 13)),
                                  2, 2, 1000.0)
        assert symbol_of_channel_use(1, layout) == 1
        assert symbol_of_channel_use(12, layout) == 1
        assert symbol_of_channel_use(13, layout) == 2
        assert symbol_of_channel_use(60, layout) == 5
        assert symbol_of_channel_use(144, layout) == 12
        assert symbol_of_channel_use(180, layout) == 15
        with pytest.raises(ValueError):
            symbol_of_channel_use(181, layout)

    def test_per_channel_use_expansion(self):
        layout = SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 2, 2, 100.0)
        sinr = np.array([1.0, 3.0])
        curve = se_per_channel_use(sinr, layout)
        assert curve.shape == (16,)
        assert np.allclose(curve[:8], 1.0)
        assert np.allclose(curve[8:], 2.0)

    def test_invalid_sinr_propagates(self):
        assert np.isnan(se_per_block(np.array([1.0, np.nan])))
