"""UatF SINR accumulation, ICI power term, and spectral-efficiency assembly."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from cfofdm.network import NetworkRealization, SimulationLayout
from cfofdm.phase_noise import KernelParams, build_correlation_table, correlation_b_fast
from cfofdm.se import (
    SinrAccumulator,
    finalize_sinr,
    lambda_ici,
    se_from_sinr,
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
        acc.add_symbol(0, v[None], h[:, :, None], lam, network.D)
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
        acc.add_symbol(0, v[None], np.zeros((2, 2, 1), dtype=complex),
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
        one.add_symbol(0, v[None], h[:, :, None], lam, network.D)
        one.bump()
        many = SinrAccumulator(1, 2, 1)
        for _ in range(7):
            many.add_symbol(0, v[None], h[:, :, None], lam, network.D)
            many.bump()
        s1 = finalize_sinr(one, network, 0)[0, 0]
        s7 = finalize_sinr(many, network, 0)[0, 0]
        assert s1 == pytest.approx(s7, rel=1e-12)

    def test_accumulate_trial_covers_all_symbols(self, rng):
        layout = SimulationLayout(16, 2, 15e3, 8, 3, (0,), (1,), 3, 2, 100.0)
        network = make_network(layout, np.ones((2, 3)), [0, 1])
        acc = SinrAccumulator(1, 2, 3)
        h_eff = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        combiners = np.moveaxis(h_eff, -1, 0)  # (tau_c, K, L)
        acc.add_symbol(0, combiners, h_eff, np.zeros((2, 3)), network.D)
        acc.bump()
        for t in range(3):
            ref = SinrAccumulator(1, 2, 1)
            ref.add_symbol(0, combiners[t][None], h_eff[:, :, t, None], np.zeros((2, 3)),
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
            seq.add_symbol(0, v[None], h[:, :, None], np.zeros((2, 3)), network.D)
            seq.bump()
            parts[i % 3].add_symbol(0, v[None], h[:, :, None], np.zeros((2, 3)), network.D)
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
        acc.add_symbol(0, np.zeros((1, 1, 2), dtype=complex),
                       np.ones((1, 2, 1), dtype=complex), np.zeros((1, 2)), network.D)
        acc.bump()
        assert finalize_sinr(acc, network, 0)[0, 0] == 0.0

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
        n = 400000
        hh = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(eps / 2)
        e = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(c / 2)
        # one stacked call with the draws on the symbol axis, summed into one symbol
        draws = SinrAccumulator(1, 1, n)
        draws.add_symbol(0, hh[:, None, None], (hh + e)[None, None, :],
                         np.zeros((1, 1)), network.D)
        acc = SinrAccumulator(1, 1, 1)
        for name in ("gain", "cross", "ici", "vnorm"):
            getattr(acc, name)[:] = getattr(draws, name).sum(axis=2, keepdims=True)
        acc.count = n
        sinr = finalize_sinr(acc, network, 0)[0, 0]
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
        assert np.isnan(finalize_sinr(acc, network, 0)[0, 0])

    def test_extra_interferer_never_raises_sinr(self, rng):
        layout = SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 3, 2, 100.0)
        net2 = make_network(layout, np.ones((2, 3)), [0, 1], sigma2=1e-3)
        acc = SinrAccumulator(1, 2, 1)
        for _ in range(200):
            h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            v = np.zeros_like(h)
            v[0] = h[0]
            acc.add_symbol(0, v[None], h[:, :, None], np.zeros((2, 3)), net2.D)
            acc.bump()
        with_interf = finalize_sinr(acc, net2, 0)[0, 0]
        # removing UE 1's cross term can only increase the SINR
        acc.cross[0, 0, 0, 1] = 0.0
        without = finalize_sinr(acc, net2, 0)[0, 0]
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
            a1.add_symbol(0, v[None], h[:, :, None], lam, network.D)
            a1.bump()
            a2.add_symbol(0, alpha * v[None], h[:, :, None], lam, network.D)
            a2.bump()
        s1 = finalize_sinr(a1, network, 0)[0, 0]
        s2 = finalize_sinr(a2, network, 0)[0, 0]
        assert s1 == pytest.approx(s2, rel=1e-9)

    def test_grid_equals_per_record_formula(self, rng):
        """Every record of the grid equals the per-record UatF formula exactly,
        zero-combiner (0) and non-positive-denominator (NaN) records included."""
        layout = SimulationLayout(16, 2, 15e3, 8, 4, (0,), (1,), 3, 3, 100.0)
        network = make_network(layout, np.ones((3, 3)), [0, 1, 2], sigma2=1e-3)
        network.p = np.array([0.1, 0.2, 0.3])
        acc = SinrAccumulator(2, 3, 4)
        lam = np.abs(rng.standard_normal((3, 3))) * 0.01
        for _ in range(20):
            for s in range(2):
                hs, vs = [], []
                for tau in range(1, 5):
                    hs.append(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
                    vs.append(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
                acc.add_symbol(s, np.stack(vs), np.stack(hs, axis=-1), lam, network.D)
            acc.bump()
        acc.gain[1, 0, 2] = 0.0        # zero numerator
        acc.ici[1, 2, 3, :] = -1e6     # negative denominator

        def per_record(s, k, t):
            n = acc.count
            num = network.p[k] * np.abs(acc.gain[s, k, t] / n) ** 2
            if num == 0.0:
                return 0.0
            den = ((network.p * acc.cross[s, k, t] / n).sum() - num
                   + (acc.ici[s, k, t] / n).sum() + network.sigma2 * acc.vnorm[s, k, t] / n)
            return float("nan") if den <= 0.0 else float(num / den)

        for s in range(2):
            expect = np.array([[per_record(s, k, t) for t in range(4)] for k in range(3)])
            assert np.array_equal(finalize_sinr(acc, network, s), expect, equal_nan=True)
        assert finalize_sinr(acc, network, 1)[0, 2] == 0.0
        assert np.isnan(finalize_sinr(acc, network, 1)[2, 3])


class TestSeAssembly:
    def test_equal_sinrs(self):
        curve, block = se_from_sinr(np.full((2, 5), 3.0))
        assert block == pytest.approx(2.0)
        assert curve.shape == (5,)
        assert np.allclose(curve, 2.0)

    def test_zero_sinr(self):
        curve, block = se_from_sinr(np.zeros((2, 4)))
        assert block == 0.0
        assert np.all(curve == 0.0)

    def test_two_symbol_hand_value(self):
        curve, block = se_from_sinr(np.array([[1.0, 3.0]]))
        assert block == pytest.approx(1.5)
        assert np.allclose(curve, [1.0, 2.0])

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
        """Every channel use of the block reads the curve point of its symbol."""
        layout = SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 2, 2, 100.0)
        curve, _ = se_from_sinr(np.array([[1.0, 3.0]]))
        n_uses = layout.block_subcarriers * layout.block_symbols
        expanded = np.array([curve[symbol_of_channel_use(c, layout) - 1]
                             for c in range(1, n_uses + 1)])
        assert expanded.shape == (16,)
        assert np.allclose(expanded[:8], 1.0)
        assert np.allclose(expanded[8:], 2.0)

    def test_invalid_sinr_propagates(self):
        """NaN records are averaged out; NaN reaches only a curve point or block
        with no valid record behind it, and without a 0/0 warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve, block = se_from_sinr(np.array([[1.0, np.nan], [3.0, np.nan]]))
            assert np.allclose(curve[0], 1.5) and np.isnan(curve[1])
            assert block == pytest.approx(1.5)
            _, block = se_from_sinr(np.array([[1.0, np.nan], [np.nan, np.nan]]))
            assert block == pytest.approx(1.0)
            curve, block = se_from_sinr(np.full((2, 2), np.nan))
            assert np.isnan(curve).all() and np.isnan(block)
