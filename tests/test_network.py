"""Geometry, path loss, pilot assignment, cooperation clusters, and channels."""

import numpy as np
import pytest

from cfofdm.network import (
    SimulationLayout,
    assign_pilots,
    form_dcc,
    gen_channel,
    large_scale_fading,
    noise_power_w,
    place_nodes,
)


def make_layout(**kw):
    base = dict(
        n_subcarriers=1200, cp_len=84, subcarrier_spacing=15e3,
        block_subcarriers=12, block_symbols=15,
        pilot_subcarriers=(0,), pilot_symbols=tuple(range(1, 13)),
        n_aps=200, n_ues=10, area_side=1000.0,
    )
    base.update(kw)
    return SimulationLayout(**base)


class TestLayout:
    def test_full_scale_dimensions(self):
        layout = make_layout()
        assert layout.tau_p == 12
        assert layout.n_blocks == 100
        assert layout.bandwidth == pytest.approx(18e6)
        assert layout.sample_time == pytest.approx(1 / 18e6)
        assert layout.pilot_slots[0] == (0, 1)
        assert layout.pilot_slots[-1] == (0, 12)

    def test_pilot_budget_enforced(self):
        # an over-budget placement necessarily puts an index out of range
        with pytest.raises(ValueError):
            make_layout(block_symbols=2, pilot_symbols=(1, 2, 3),
                        pilot_subcarriers=tuple(range(12)), block_subcarriers=12,
                        n_subcarriers=24)
        # 12 * 2 = 24 pilots fit exactly into N_c * tau_c = 24
        make_layout(block_symbols=2, pilot_symbols=(1, 2),
                    pilot_subcarriers=tuple(range(12)), block_subcarriers=12,
                    n_subcarriers=24)

    def test_pilot_indices_validated(self):
        with pytest.raises(ValueError):
            make_layout(pilot_subcarriers=(12,))
        with pytest.raises(ValueError):
            make_layout(pilot_symbols=(0,))
        with pytest.raises(ValueError, match="n_subcarriers"):
            make_layout(n_subcarriers=8, pilot_subcarriers=(10,))


class TestPlacement:
    def test_counts_and_bounds(self):
        layout = make_layout()
        ap, ue = place_nodes(layout, np.random.default_rng(0))
        assert ap.shape == (200, 2) and ue.shape == (10, 2)
        pts = np.vstack([ap, ue])
        assert pts.shape[0] == 210
        assert (pts >= 0).all() and (pts <= 1000).all()

    def test_deterministic_for_fixed_seed(self):
        layout = make_layout(n_aps=1, n_ues=1)
        a1 = place_nodes(layout, np.random.default_rng(7))
        a2 = place_nodes(layout, np.random.default_rng(7))
        assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])

    def test_mean_position_clt(self):
        layout = make_layout(n_aps=10000, n_ues=1)
        ap, _ = place_nodes(layout, np.random.default_rng(3))
        # uniform on [0, 1000]: mean 500, std 1000/sqrt(12); 3-sigma CLT band
        bound = 3 * 1000 / np.sqrt(12) / np.sqrt(10000)
        assert np.abs(ap.mean(axis=0) - 500).max() < bound


class TestLargeScaleFading:
    def test_hand_values(self):
        ue = np.array([[0.0, 0.0]])
        ap = np.array([[1.0, 0.0], [100.0, 0.0]])
        beta = large_scale_fading(ue, ap, 1000.0, wraparound=False, shadow_sigma_db=0.0,
                                  ap_height_m=0.0)
        assert beta[0, 0] == pytest.approx(10 ** (-3.05), rel=1e-12)
        assert beta[0, 1] == pytest.approx(10 ** (-(30.5 + 73.4) / 10), rel=1e-12)

    def test_distance_floor(self):
        ue = np.array([[5.0, 5.0]])
        ap = np.array([[5.0, 5.0], [5.5, 5.0]])
        beta = large_scale_fading(ue, ap, 1000.0, wraparound=False, shadow_sigma_db=0.0,
                                  ap_height_m=0.0)
        # both distances floor to 1 m
        assert beta[0, 0] == beta[0, 1] == pytest.approx(10 ** (-3.05))

    def test_duplicated_positions_identical_rows(self):
        rng = np.random.default_rng(5)
        ap = rng.uniform(0, 1000, (6, 2))
        ue = np.vstack([ap[0], ap[0]])
        beta = large_scale_fading(ue, ap, 1000.0, wraparound=True, shadow_sigma_db=0.0)
        assert np.array_equal(beta[0], beta[1])

    def test_wraparound_translation_invariance(self):
        rng = np.random.default_rng(9)
        ap = rng.uniform(0, 1000, (8, 2))
        ue = rng.uniform(0, 1000, (3, 2))
        shift = np.array([317.0, 741.0])
        beta1 = large_scale_fading(ue, ap, 1000.0, wraparound=True, shadow_sigma_db=0.0)
        beta2 = large_scale_fading((ue + shift) % 1000.0, (ap + shift) % 1000.0,
                                   1000.0, wraparound=True, shadow_sigma_db=0.0)
        assert np.allclose(beta1, beta2, rtol=1e-12)

    def test_noise_power(self):
        # -174 dBm/Hz + 10log10(18 MHz) + 7 dB = -94.45 dBm
        assert noise_power_w(18e6, 7.0) == pytest.approx(10 ** ((-94.4472747 - 30) / 10), rel=1e-6)


class TestPilotAssignment:
    def test_round_robin_distinct_when_room(self):
        beta = np.ones((10, 4))
        t = assign_pilots(beta, 12)
        assert len(set(t.tolist())) == 10
        assert (t == np.arange(10)).all()

    def test_round_robin_sharing_counts(self):
        beta = np.ones((100, 4))
        t = assign_pilots(beta, 12)
        counts = np.bincount(t, minlength=12)
        assert set(counts.tolist()) <= {8, 9}
        assert counts.sum() == 100

    def test_greedy_spreads_identical_ues(self):
        # two identical UEs must take distinct pilots under the greedy rule
        beta = np.array([[0.5, 0.2], [0.5, 0.2]])
        t = assign_pilots(beta, 2, policy="greedy")
        assert set(t.tolist()) == {0, 1}


class TestDcc:
    def test_single_ue_all_ones(self):
        beta = np.random.default_rng(0).uniform(0.1, 1, (1, 5))
        D = form_dcc(beta, np.array([0]), 4)
        assert (D == 1).all()

    def test_distinct_pilots_all_ones(self):
        beta = np.random.default_rng(1).uniform(0.1, 1, (3, 6))
        D = form_dcc(beta, np.arange(3), 12)
        assert (D == 1).all()

    def test_shared_pilot_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            beta = rng.uniform(0.01, 1, (3, 4))
            t = np.zeros(3, dtype=int)  # all three share one pilot
            D = form_dcc(beta, t, 4)
            # brute force: strongest-first master claims walk down to the best
            # unclaimed AP; unclaimed APs serve their argmax UE
            claims = {}
            for k in sorted(range(3), key=lambda k: -beta[k].max()):
                for l in np.argsort(-beta[k]):
                    if l not in claims:
                        claims[int(l)] = k
                        break
            expect = np.zeros((3, 4), dtype=int)
            for l in range(4):
                expect[claims.get(l, beta[:, l].argmax()), l] = 1
            assert np.array_equal(D, expect), "instance %d" % trial

    def test_invariants_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            K, L, tau_p = 11, 7, 4
            beta = rng.uniform(1e-4, 1, (K, L))
            t = assign_pilots(beta, tau_p)
            D = form_dcc(beta, t, tau_p)
            assert (D.sum(axis=1) >= 1).all()
            for l in range(L):
                served = np.flatnonzero(D[:, l])
                pilots_used = t[served]
                assert len(np.unique(pilots_used)) == len(pilots_used)
                assert len(served) <= tau_p


class TestChannel:
    def test_zero_beta_gives_zero(self, small_layout):
        beta = np.zeros((2, 2))
        ch = gen_channel(beta, small_layout, np.random.default_rng(0))
        assert np.all(ch == 0)

    def test_sample_variance_matches_beta(self, small_layout):
        beta = np.array([[0.5]])
        layout = SimulationLayout(
            n_subcarriers=16, cp_len=2, subcarrier_spacing=15e3,
            block_subcarriers=8, block_symbols=3, pilot_subcarriers=(0,),
            pilot_symbols=(1,), n_aps=1, n_ues=1, area_side=100.0,
        )
        rng = np.random.default_rng(4)
        draws = np.concatenate(
            [gen_channel(beta, layout, rng).ravel() for _ in range(50000)]
        )
        var = np.mean(np.abs(draws) ** 2)
        assert var == pytest.approx(0.5, rel=0.03)

    def test_cross_block_decorrelation(self, small_layout):
        beta = np.ones((1, 1))
        rng = np.random.default_rng(6)
        n = 100000
        prods = np.empty(n, dtype=complex)
        for i in range(n // 1000):
            hs = np.stack(
                [gen_channel(beta, small_layout, rng)[0, 0] for _ in range(1000)]
            )
            prods[i * 1000 : (i + 1) * 1000] = hs[:, 0] * np.conj(hs[:, 1])
        se = prods.real.std(ddof=1) / np.sqrt(n)
        assert abs(prods.real.mean()) < 3 * se
        assert abs(prods.imag.mean()) < 3 * se
