"""UatF SINR accumulation, ICI power term, and spectral-efficiency assembly."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from cfofdm.config import ci_config
from cfofdm.harness import build_geometry, build_setup
from cfofdm.network import NetworkRealization, SimulationLayout
from cfofdm.phase_noise import KernelParams, build_correlation_table
from cfofdm.se import (
    SinrAccumulator,
    finalize_sinr,
    lambda_ici,
    se_from_sinr,
    symbol_of_channel_use,
)

from kernel_scalar import correlation_b_fast
from test_ofdm import make_network


def cpe_table(n=64, sigma2=7e-4, stride=None):
    params = KernelParams(n=n, sigma2_tot=sigma2, stride=stride or n)
    return build_correlation_table(params, range(-5, 6))


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
        off_diag = sum(correlation_b_fast(i, i, 0, table.params).real
                       for i in range(-n // 2, n // 2) if i != 0)
        # AP 0 hears both UEs, each at p beta = 0.2 * 0.5
        assert lam.shape == (2,)
        assert lam[0] == pytest.approx(2 * 0.2 * 0.5 * off_diag, abs=1e-12)

    def test_linear_in_power(self, small_layout):
        table = cpe_table()
        net1 = make_network(small_layout, np.ones((2, 2)), [0, 1], p=0.1)
        net2 = make_network(small_layout, np.ones((2, 2)), [0, 1], p=0.2)
        assert np.allclose(2 * lambda_ici(net1, table), lambda_ici(net2, table))

    @pytest.mark.parametrize("gamma_ap, gamma_ue", [
        (0.0, 0.0), (4e-17, 0.0), (0.0, 4e-17), (4e-17, 4e-17)])
    def test_nonnegative_and_zero_when_ideal(self, gamma_ap, gamma_ue):
        """lambda >= 0 at every AP of a ci geometry in every world, and exactly
        0 where both oscillator kinds are ideal: B_00 is then exactly 1, with
        no round-off of either sign."""
        cfg = replace(ci_config(), gamma_ap=gamma_ap, gamma_ue=gamma_ue)
        setup = build_setup(cfg)
        lam = build_geometry(cfg, setup, 0).lam
        assert np.all(lam >= 0.0)
        assert np.all(lam == 0.0) == setup.pn.ideal


class TestAccumulator:
    def test_single_trial_hand_value(self):
        # one trial, MR, K=1, L=2, no PN/noise: all terms analytic
        network = make_network(
            SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 2, 1, 100.0),
            np.ones((1, 2)), [0], p=1.0, sigma2=0.0)
        acc = SinrAccumulator((1, 1, 1))
        h = np.array([[1 + 1j, 2 - 1j]])
        v = h.copy()  # MR with D = I
        lam = np.zeros(2)
        acc.add_symbol(0, v[None], h[None], lam, network)
        acc.bump()
        norm2 = np.sum(np.abs(h) ** 2)
        assert acc.gain[0, 0, 0] == pytest.approx(norm2)
        assert acc.received[0, 0, 0] == pytest.approx(norm2**2)
        assert acc.vnorm[0, 0, 0] == pytest.approx(norm2)

    def test_zero_channel_contributes_zero(self):
        network = make_network(
            SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 2, 2, 100.0),
            np.ones((2, 2)), [0, 1])
        acc = SinrAccumulator((1, 1, 2))
        v = np.ones((2, 2), dtype=complex)
        acc.add_symbol(0, v[None], np.zeros((1, 2, 2), dtype=complex),
                       np.zeros(2), network)
        assert np.all(acc.gain == 0) and np.all(acc.received == 0)

    def test_identical_trials_average_to_single(self, rng):
        network = make_network(
            SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 3, 2, 100.0),
            np.ones((2, 3)), [0, 1], sigma2=1e-3)
        h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        lam = np.abs(rng.standard_normal((2, 3))).sum(axis=0)
        one = SinrAccumulator((1, 1, 2))
        one.add_symbol(0, v[None], h[None], lam, network)
        one.bump()
        many = SinrAccumulator((1, 1, 2))
        for _ in range(7):
            many.add_symbol(0, v[None], h[None], lam, network)
            many.bump()
        s1 = finalize_sinr(one, network)[0, 0, 0]
        s7 = finalize_sinr(many, network)[0, 0, 0]
        assert s1 == pytest.approx(s7, rel=1e-12)

    def test_accumulate_trial_covers_all_symbols(self, rng):
        layout = SimulationLayout(16, 2, 15e3, 8, 3, (0,), (1,), 3, 2, 100.0)
        network = make_network(layout, np.ones((2, 3)), [0, 1])
        acc = SinrAccumulator((1, 3, 2))
        h_eff = rng.standard_normal((3, 2, 3)) + 1j * rng.standard_normal((3, 2, 3))
        acc.add_symbol(0, h_eff, h_eff, np.zeros(3), network)  # MR, (tau_c, K, L)
        acc.bump()
        for t in range(3):
            ref = SinrAccumulator((1, 1, 2))
            ref.add_symbol(0, h_eff[t][None], h_eff[t][None], np.zeros(3), network)
            assert np.allclose(acc.gain[0, t], ref.gain[0, 0])
            assert np.allclose(acc.received[0, t], ref.received[0, 0])

    def test_merge_matches_sequential(self, rng):
        network = make_network(
            SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 3, 2, 100.0),
            np.ones((2, 3)), [0, 1])
        def trial():
            h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            return v, h
        seq = SinrAccumulator((1, 1, 2))
        parts = [SinrAccumulator((1, 1, 2)) for _ in range(3)]
        trials = [trial() for _ in range(9)]
        for i, (v, h) in enumerate(trials):
            seq.add_symbol(0, v[None], h[None], np.zeros(3), network)
            seq.bump()
            parts[i % 3].add_symbol(0, v[None], h[None], np.zeros(3), network)
            parts[i % 3].bump()
        merged = SinrAccumulator((1, 1, 2))
        for p in parts:
            merged.merge(p)
        assert merged.count == seq.count
        assert np.allclose(merged.gain, seq.gain)
        assert np.allclose(merged.received, seq.received)

    def test_estimator_slice_equals_per_entry_calls(self, rng):
        """One call over estimators 1 and 2 of 3 at scheme 1 of 2, index
        (slice(1, 3), 1), adds bit for bit what one call per (estimator,
        scheme) entry adds, and leaves every other entry alone."""
        layout = SimulationLayout(16, 2, 15e3, 8, 3, (0,), (1,), 3, 2, 100.0)
        network = make_network(layout, np.ones((2, 3)), [0, 1], sigma2=1e-3)
        network = replace(network, D=np.array([[1, 0, 1], [1, 1, 0]], dtype=np.int8))
        h_eff = rng.standard_normal((3, 2, 3)) + 1j * rng.standard_normal((3, 2, 3))
        v = rng.standard_normal((2, 3, 2, 3)) + 1j * rng.standard_normal((2, 3, 2, 3))
        lam = rng.uniform(size=3)
        stacked, per_entry = SinrAccumulator((3, 2, 3, 2)), SinrAccumulator((3, 2, 3, 2))
        stacked.add_symbol((slice(1, 3), 1), v, h_eff, lam, network)
        for e, v_e in zip((1, 2), v):
            per_entry.add_symbol((e, 1), v_e, h_eff, lam, network)
        for name in ("gain", "received", "ici", "vnorm"):
            got = getattr(stacked, name)
            assert np.array_equal(got, getattr(per_entry, name))
            assert not got[0].any() and not got[:, 0].any() and got[1:, 1].all()

    def test_footprint_has_no_ue_pair_axis(self):
        """Every array is (E, S, tau_c, K): at fig3's K=100 the whole accumulator
        is smaller than one (E, S, tau_c, K, K) array of reals."""
        shape = (3, 2, 15, 100)
        acc = SinrAccumulator(shape)
        arrays = [a for a in vars(acc).values() if isinstance(a, np.ndarray)]
        assert all(a.shape == shape for a in arrays)
        assert sum(a.nbytes for a in arrays) < np.prod(shape) * shape[-1] * 8


def ue_pair_sinr(trials, p, sigma2, D, lam_pair):
    """Reference UatF SINR, (K, tau_c), from per-UE-pair sums: for every
    (k, i), E|v_k^H D_k h_i|^2 and the ICI power sum_l |D_k v_k|_l^2 lambda_{i,l}
    of UE i at AP l, each summed over i only at the end."""
    tau_c, K, _ = trials[0][0].shape
    gain = np.zeros((K, tau_c), dtype=complex)
    cross = np.zeros((K, tau_c, K))
    ici = np.zeros((K, tau_c, K))
    vnorm = np.zeros((K, tau_c))
    for v, h_eff in trials:
        for t in range(tau_c):
            for k in range(K):
                vd = np.conj(v[t, k]) * D[k]
                for i in range(K):
                    cross[k, t, i] += abs(vd @ h_eff[i, :, t]) ** 2
                    ici[k, t, i] += np.abs(vd) ** 2 @ lam_pair[i]
                gain[k, t] += vd @ h_eff[k, :, t]
                vnorm[k, t] += np.sum(np.abs(vd) ** 2)
    n = len(trials)
    num = p[:, None] * np.abs(gain / n) ** 2
    den = ((p * cross / n).sum(axis=-1) - num + (ici / n).sum(axis=-1)
           + sigma2 * vnorm / n)
    return num / den


def test_ue_pair_reference_gives_same_sinr(rng):
    """The per-UE sums finalize to the SINR of the per-UE-pair sums, with
    phase-noise ICI, unequal powers and a partial serving pattern."""
    K, L, tau_c = 3, 4, 2
    layout = SimulationLayout(16, 2, 15e3, 8, tau_c, (0,), (1,), L, K, 100.0)
    network = make_network(layout, np.ones((K, L)), [0, 1, 2], sigma2=1e-2)
    network.p = np.array([0.1, 0.4, 0.25])
    network.D = np.array([[1, 1, 0, 0], [0, 1, 1, 1], [1, 0, 1, 1]], dtype=np.int8)
    lam_pair = np.abs(rng.standard_normal((K, L))) * 0.05  # UE i's ICI at AP l

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    trials = [(draw(tau_c, K, L), draw(tau_c, K, L)) for _ in range(30)]
    acc = SinrAccumulator((2, tau_c, K))
    for v, h_eff in trials:
        acc.add_symbol(1, v, h_eff, lam_pair.sum(axis=0), network)
        acc.bump()
    # the reference takes (K, L, tau_c) channels and gives (K, tau_c) SINRs
    expect = ue_pair_sinr([(v, h.transpose(1, 2, 0)) for v, h in trials], network.p,
                          network.sigma2, network.D, lam_pair).T
    assert np.all(expect > 0)
    np.testing.assert_allclose(finalize_sinr(acc, network)[1], expect, rtol=1e-12, atol=0)


class TestFinalize:
    def test_zero_combiner_gives_zero_sinr(self):
        network = make_network(
            SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 2, 1, 100.0),
            np.ones((1, 2)), [0])
        acc = SinrAccumulator((1, 1, 1))
        acc.add_symbol(0, np.zeros((1, 1, 2), dtype=complex),
                       np.ones((1, 1, 2), dtype=complex), np.zeros(2), network)
        acc.bump()
        assert finalize_sinr(acc, network)[0, 0, 0] == 0.0

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
        draws = SinrAccumulator((1, n, 1))
        draws.add_symbol(0, hh[:, None, None], (hh + e)[:, None, None],
                         np.zeros(1), network)
        acc = SinrAccumulator((1, 1, 1))
        for name in ("gain", "received", "ici", "vnorm"):
            getattr(acc, name)[:] = getattr(draws, name).sum(axis=1, keepdims=True)
        acc.count = n
        sinr = finalize_sinr(acc, network)[0, 0, 0]
        assert sinr == pytest.approx(p * eps / (p * beta + s2), rel=0.02)

    def test_negative_denominator_flagged(self):
        network = make_network(
            SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 1, 1, 100.0),
            np.ones((1, 1)), [0], p=1.0, sigma2=0.0)
        acc = SinrAccumulator((1, 1, 1))
        # received power below |gain|^2 forces a negative variance estimate
        acc.count = 1
        acc.gain[0, 0, 0] = 2.0
        acc.received[0, 0, 0] = 1.0
        assert np.isnan(finalize_sinr(acc, network)[0, 0, 0])

    def test_extra_interferer_never_raises_sinr(self, rng):
        layout = SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 3, 2, 100.0)
        net2 = make_network(layout, np.ones((2, 3)), [0, 1], sigma2=1e-3)
        acc = SinrAccumulator((1, 1, 2))
        alone = SinrAccumulator((1, 1, 2))  # the same draws with UE 1 silent
        for _ in range(200):
            h = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            v = np.zeros_like(h)
            v[0] = h[0]
            acc.add_symbol(0, v[None], h[None], np.zeros(3), net2)
            acc.bump()
            h[1] = 0.0
            alone.add_symbol(0, v[None], h[None], np.zeros(3), net2)
            alone.bump()
        with_interf = finalize_sinr(acc, net2)[0, 0, 0]
        # removing UE 1's received power can only increase the SINR
        without = finalize_sinr(alone, net2)[0, 0, 0]
        assert without >= with_interf

    def test_scale_invariance(self, rng):
        layout = SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 3, 2, 100.0)
        network = make_network(layout, np.ones((2, 3)), [0, 1], sigma2=1e-3)
        trials = [
            (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
             rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
            for _ in range(50)
        ]
        lam = np.abs(rng.standard_normal((2, 3))).sum(axis=0) * 0.01
        a1 = SinrAccumulator((1, 1, 2))
        a2 = SinrAccumulator((1, 1, 2))
        alpha = 3.7 - 1.2j
        for v, h in trials:
            a1.add_symbol(0, v[None], h[None], lam, network)
            a1.bump()
            a2.add_symbol(0, alpha * v[None], h[None], lam, network)
            a2.bump()
        s1 = finalize_sinr(a1, network)[0, 0, 0]
        s2 = finalize_sinr(a2, network)[0, 0, 0]
        assert s1 == pytest.approx(s2, rel=1e-9)

    def test_grid_equals_per_record_formula(self, rng):
        """Every record of the grid equals the per-record UatF formula exactly,
        zero-combiner (0) and non-positive-denominator (NaN) records included."""
        layout = SimulationLayout(16, 2, 15e3, 8, 4, (0,), (1,), 3, 3, 100.0)
        network = make_network(layout, np.ones((3, 3)), [0, 1, 2], sigma2=1e-3)
        network.p = np.array([0.1, 0.2, 0.3])
        acc = SinrAccumulator((2, 4, 3))
        lam = np.abs(rng.standard_normal((3, 3))).sum(axis=0) * 0.01
        for _ in range(20):
            for s in range(2):
                hs, vs = [], []
                for tau in range(1, 5):
                    hs.append(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
                    vs.append(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
                acc.add_symbol(s, np.stack(vs), np.stack(hs), lam, network)
            acc.bump()
        acc.gain[1, 2, 0] = 0.0        # zero numerator
        acc.ici[1, 3, 2] = -3e6        # negative denominator

        def per_record(s, t, k):
            n = acc.count
            num = network.p[k] * np.abs(acc.gain[s, t, k] / n) ** 2
            if num == 0.0:
                return 0.0
            den = (acc.received[s, t, k] + acc.ici[s, t, k]
                   + network.sigma2 * acc.vnorm[s, t, k]) / n - num
            return float("nan") if den <= 0.0 else float(num / den)

        expect = np.array([[[per_record(s, t, k) for k in range(3)] for t in range(4)]
                           for s in range(2)])
        sinr = finalize_sinr(acc, network)
        assert np.array_equal(sinr, expect, equal_nan=True)
        assert sinr[1, 2, 0] == 0.0
        assert np.isnan(sinr[1, 3, 2])


class TestSeAssembly:
    def test_equal_sinrs(self):
        row = se_from_sinr(np.full((5, 2), 3.0))  # (tau_c, K)
        assert row[0] == pytest.approx(2.0)
        assert row.shape == (6,)
        assert np.allclose(row[1:], 2.0)

    def test_zero_sinr(self):
        row = se_from_sinr(np.zeros((4, 2)))
        assert row[0] == 0.0
        assert np.all(row[1:] == 0.0)

    def test_two_symbol_hand_value(self):
        row = se_from_sinr(np.array([[1.0], [3.0]]))
        assert row[0] == pytest.approx(1.5)
        assert np.allclose(row[1:], [1.0, 2.0])

    def test_channel_use_mapping(self):
        layout = SimulationLayout(1200, 84, 15e3, 12, 15, (0,), tuple(range(1, 13)),
                                  2, 2, 1000.0)
        assert symbol_of_channel_use(0, layout) == 0  # the block row
        assert symbol_of_channel_use(1, layout) == 1
        assert symbol_of_channel_use(12, layout) == 1
        assert symbol_of_channel_use(13, layout) == 2
        assert symbol_of_channel_use(60, layout) == 5
        assert symbol_of_channel_use(144, layout) == 12
        assert symbol_of_channel_use(180, layout) == 15
        with pytest.raises(ValueError):
            symbol_of_channel_use(181, layout)
        with pytest.raises(ValueError):
            symbol_of_channel_use(-1, layout)

    def test_per_channel_use_expansion(self):
        """The block row reads entry 0, and every channel use of the block the
        entry of its symbol."""
        layout = SimulationLayout(16, 2, 15e3, 8, 2, (0,), (1,), 2, 2, 100.0)
        row = se_from_sinr(np.array([[1.0], [3.0]]))
        n_uses = layout.block_subcarriers * layout.block_symbols
        expanded = np.array([row[symbol_of_channel_use(c, layout)]
                             for c in range(n_uses + 1)])
        assert expanded.shape == (17,)
        assert expanded[0] == pytest.approx(1.5)
        assert np.allclose(expanded[1:9], 1.0)
        assert np.allclose(expanded[9:], 2.0)

    def test_invalid_sinr_propagates(self):
        """NaN records are averaged out; NaN reaches only a symbol or block entry
        with no valid record behind it, and without a 0/0 warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = se_from_sinr(np.array([[1.0, 3.0], [np.nan, np.nan]]))
            assert np.allclose(row[1], 1.5) and np.isnan(row[2])
            assert row[0] == pytest.approx(1.5)
            row = se_from_sinr(np.array([[1.0, np.nan], [np.nan, np.nan]]))
            assert row[0] == pytest.approx(1.0)
            row = se_from_sinr(np.full((2, 2), np.nan))
            assert np.isnan(row).all()

    def test_rows_equal_per_row_calls(self, rng):
        """Over leading axes every row equals its own call, and NaN appears only
        in the row without a valid record."""
        sinr = rng.uniform(0.1, 10.0, (2, 3, 4, 10))  # (rows..., tau_c, K)
        sinr[0, 1, :3, 2] = np.nan  # some invalid records
        sinr[0, 1, :, 4] = np.nan   # a UE without a valid record
        sinr[1, 2] = np.nan         # a row without a valid record
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = se_from_sinr(sinr)
        assert rows.shape == (2, 3, 5)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(rows[idx], se_from_sinr(sinr[idx]), equal_nan=True)
        assert np.isnan(rows[1, 2]).all()
        assert np.isnan(rows[..., 1:]).sum() == 4 and np.isnan(rows[..., 0]).sum() == 1
        per_ue = [np.log2(1 + r[~np.isnan(r)]).mean() for r in sinr[0, 1].T if (r == r).any()]
        assert rows[0, 1, 0] == pytest.approx(np.mean(per_ue), rel=1e-15)


class TestNoPnMrClosedForm:
    @pytest.mark.parametrize("n_ues", [4, 5], ids=["orthogonal_pilots", "shared_pilot"])
    def test_monte_carlo_mr_matches_closed_form(self, n_ues):
        """On the ci world with ideal oscillators, each geometry's Monte Carlo
        MR SE lies within 3 batch standard errors of the closed form
        (``no_pn_mr_oracle``).  At K = 5 > tau_p = 4 UEs 0 and 4 share a pilot
        sequence, so the oracle's coherent co-pilot term enters, though at
        most at 0.4 % of the SE, below what the test resolves.  400 trials
        put the UatF bias of a sample-mean SINR, about 1.7 / n relative, at
        0.4 %, well below a batch standard error of 1-4 %."""
        from cfofdm.config import ci_config
        from cfofdm.harness import build_geometry, build_setup

        from no_pn_mr_oracle import mr_se_no_pn
        from one_geometry import run_one_geometry

        cfg = replace(ci_config(), n_ues=n_ues, gamma_ap=0.0, gamma_ue=0.0,
                      estimators=("pna_ofdm",), schemes=("mr",), n_geometries=1,
                      n_trials=400)
        setup = build_setup(cfg)
        for g in range(4):
            geom = build_geometry(cfg, setup, g)
            network = geom.network
            assert (n_ues > 4) == (len(np.unique(network.pilot_index)) < n_ues)
            oracle = mr_se_no_pn(network, geom.contexts[0].eps[0]).mean()
            result = run_one_geometry(cfg, setup, g)
            batches = result.batch_se[:, 0, 0, 0]  # the block entry of each batch
            err = np.std(batches, ddof=1) / np.sqrt(len(batches))
            assert abs(result.se[0, 0, 0] - oracle) <= 3.0 * err, (g, result.se[0, 0, 0], oracle, err)

    def test_cross_term_matches_sample_mean(self):
        """The oracle's E{v_k^H h_i} (``mr_cross``) equals the sample mean of
        sum_l D_kl h_hat_kl^* h_il over channels and pilot noise drawn through
        ``no_pn_reference``, within 4 standard errors, for every pair (k, i).
        The world makes the coherent co-pilot term large: UEs 0 and 4 share
        a pilot sequence, and the APs are the four that hear the weaker of
        the two best, every one serving every UE, where beta_4l / beta_0l
        spans three orders of magnitude.  Each co-pilot entry then lies more
        than 10 standard errors from zero, so an oracle without the term
        fails."""
        from types import SimpleNamespace

        from cfofdm.config import ci_config
        from cfofdm.harness import build_geometry, build_setup

        import no_pn_reference
        from no_pn_mr_oracle import mr_cross

        cfg = replace(ci_config(), gamma_ap=0.0, gamma_ue=0.0, estimators=("pna_ofdm",))
        layout = cfg.layout()
        full = build_geometry(cfg, build_setup(cfg), 0).network
        t = full.pilot_index
        assert t[0] == t[4] and len(np.unique(t)) == 4
        aps = np.argsort(np.minimum(full.beta[0], full.beta[4]))[-4:]
        beta = full.beta[:, aps]
        ratio = beta[4] / beta[0]
        assert ratio.max() / ratio.min() > 1e3
        network = SimpleNamespace(beta=beta, D=np.ones(beta.shape, dtype=np.int8), p=full.p,
                                  pilot_index=t, sigma2=full.sigma2)
        K, L = beta.shape
        book = layout.pilot_book

        def estimate(y):
            return no_pn_reference.estimate_channels(y, book, t, network.p, beta, network.sigma2)

        gamma = beta - estimate(np.zeros((L, layout.tau_p), dtype=complex))[1]
        expect = mr_cross(network, gamma)
        rng = np.random.default_rng(11)
        n = 2000
        samples = np.empty((n, K, K), dtype=complex)
        for d in range(n):
            h = np.sqrt(beta / 2) * (rng.standard_normal((K, L))
                                     + 1j * rng.standard_normal((K, L)))
            noise = np.sqrt(network.sigma2 / 2) * (rng.standard_normal((L, layout.tau_p))
                                                   + 1j * rng.standard_normal((L, layout.tau_p)))
            h_hat, _ = estimate(no_pn_reference.synth_pilot_obs(h, book, t, network.p, noise))
            samples[d] = (network.D * h_hat).conj() @ h.T  # [k, i]
        mean = samples.mean(axis=0)
        err = np.sqrt(samples.real.var(axis=0, ddof=1) + samples.imag.var(axis=0, ddof=1)
                      ) / np.sqrt(n)
        assert (np.abs(mean - expect) <= 4.0 * err).all(), (mean, expect, err)
        co_pilot = (t[:, None] == t[None, :]) & ~np.eye(K, dtype=bool)
        assert co_pilot.sum() == 2
        assert (np.abs(expect[co_pilot]) > 10.0 * err[co_pilot]).all()
