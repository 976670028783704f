"""Wiener traces, phase-drift spectra, and the drift correlation kernel."""

import numpy as np
import pytest

from cfofdm.config import ci_config
from cfofdm.phase_noise import (
    KernelParams,
    PnParams,
    build_correlation_table,
    gen_pn_trace,
    lag_spectra,
    offset_spectra,
    phasor,
    pn_increment_variance,
    wiener_walks,
)
from cfofdm.validate import correlation_b_oracle, phase_drift

from kernel_scalar import correlation_b_fast, correlation_b_literal


class TestIncrementVariance:
    def test_default_scenario_value(self):
        # f_c = 2 GHz, gamma = 4e-17, T_s = 1/18 MHz
        val = pn_increment_variance(2e9, 4e-17, 1 / 18e6)
        assert val == pytest.approx(3.509e-4, rel=1e-3)

    def test_zero_carrier(self):
        assert pn_increment_variance(0.0, 4e-17, 1e-8) == 0.0

    def test_hand_evaluation(self):
        val = pn_increment_variance(1e9, 4e-17, 5.5556e-8)
        assert val == pytest.approx(4 * np.pi**2 * 1e18 * 4e-17 * 5.5556e-8, rel=1e-12)
        assert val == pytest.approx(8.773e-5, rel=1e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pn_increment_variance(-1.0, 4e-17, 1e-8)


def wiener_walks_oracle(n_nodes, n_symbols, n_samples, sigma2, cp_len, rng):
    """The walks drawn by ``rng.normal`` and summed out of place."""
    inc = rng.normal(0.0, np.sqrt(sigma2), size=(n_nodes, n_symbols * n_samples))
    inc[:, 0] = rng.uniform(0.0, 2.0 * np.pi, size=n_nodes)
    if n_symbols > 1:
        inc[:, n_samples::n_samples] *= np.sqrt(cp_len + 1.0)
    return np.cumsum(inc, axis=1).reshape(n_nodes, n_symbols, n_samples)


class TestTraces:
    @pytest.mark.parametrize("shape, sigma2, cp_len", [
        ((3, 4, 16), 3e-4, 2),
        ((5, 3, 10), 0.0, 2),    # ideal oscillators
        ((4, 1, 12), 1e-2, 6),   # one symbol: no CP jump
        ((2, 5, 7), 2e-2, 0),    # no cyclic prefix
        ((200, 2, 1200), 3.5e-4, 84),
    ])
    def test_walks_match_oracle_bitwise(self, shape, sigma2, cp_len):
        rng, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
        walks = wiener_walks(*shape, sigma2, cp_len, rng)
        expect = wiener_walks_oracle(*shape, sigma2, cp_len, rng_ref)
        assert walks.shape == shape
        assert walks.tobytes() == expect.tobytes()
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_zero_variance_constant_trace(self, small_layout):
        pn = PnParams(carrier_hz=0.0, gamma_ap=0.0, gamma_ue=0.0, sample_time=1e-7)
        trace = gen_pn_trace(pn, small_layout, np.random.default_rng(0))
        theta = trace.ue_phase[0] + trace.ap_phase[0]
        assert np.ptp(theta) == 0.0

    def test_increment_variance_statistics(self):
        rng = np.random.default_rng(1)
        sig2 = 3e-4
        walks = wiener_walks(100000, 1, 8, sig2, 4, rng)
        inc = np.diff(walks[:, 0, :], axis=1).ravel()
        n = inc.size
        # chi-square 3-sigma interval on the sample variance
        assert inc.var() == pytest.approx(sig2, rel=3 * np.sqrt(2 / n))

    def test_boundary_jump_variance(self):
        rng = np.random.default_rng(2)
        sig2, cp = 3e-4, 6
        walks = wiener_walks(100000, 2, 4, sig2, cp, rng)
        jump = walks[:, 1, 0] - walks[:, 0, -1]
        n = jump.size
        assert jump.var() == pytest.approx((cp + 1) * sig2, rel=3 * np.sqrt(2 / n))

    def test_shared_ap_component(self, small_layout):
        """One walk per node, so the received phases theta_{k,l} = phi_k +
        varphi_l of every UE at one AP hold the same AP walk."""
        layout = small_layout
        pn = PnParams(carrier_hz=2e9, gamma_ap=4e-17, gamma_ue=4e-17,
                      sample_time=layout.sample_time)
        trace = gen_pn_trace(pn, layout, np.random.default_rng(3))
        walk = (layout.block_symbols, layout.n_subcarriers)
        assert trace.ap_phase.shape == (layout.n_aps,) + walk
        assert trace.ue_phase.shape == (layout.n_ues,) + walk
        theta = trace.ue_phase[:, None] + trace.ap_phase[None]  # (K, L, tau_c, N)
        diff = theta[:, 1] - trace.ue_phase  # theta_{k,1} - phi_k
        assert np.allclose(diff[0], diff[1], atol=1e-9)
        assert np.allclose(diff[0], trace.ap_phase[1], atol=1e-9)


class TestPhasor:
    @staticmethod
    def traces():
        layout = ci_config().layout()
        pn = PnParams(carrier_hz=2e9, gamma_ap=4e-15, gamma_ue=4e-15,
                      sample_time=layout.sample_time)
        trace = gen_pn_trace(pn, layout, np.random.default_rng(5))
        return (trace.ap_phase, trace.ue_phase, trace.ap_phase[:, 2, ::-1],
                -trace.ue_phase[:, 0, :])

    def test_within_four_eps_of_complex_exp(self):
        """The tangent form is within 4 eps of np.exp(1j*theta) in each
        component, and its modulus within 4 eps of 1, on generated traces and
        at angles where tan(theta/2) is 0, +-1 or near its poles."""
        eps = np.finfo(float).eps
        special = np.array([0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 3 * np.pi / 2,
                            2 * np.pi, 50.0, -50.0, 1e3])
        for theta in self.traces() + (special,):
            expect = np.exp(1j * theta)
            got = phasor(theta)
            assert got.shape == expect.shape
            assert np.isfinite(got).all()
            assert np.abs(got.real - expect.real).max() <= 4 * eps
            assert np.abs(got.imag - expect.imag).max() <= 4 * eps
            assert np.abs(np.abs(got) - 1.0).max() <= 4 * eps

    def test_view_gives_bits_of_its_copy(self):
        """A strided, reversed, transposed or broadcast view gives bit for bit
        the phasor of its contiguous copy, written into ``out`` when given:
        the synthesis takes phasors of views, and its stack and tile tests
        compare them with phasors of other views of the same phases."""
        ap, ue = self.traces()[:2]
        views = (ap[:, 2, ::-1], ue[:, :, ::3], ap.transpose(2, 0, 1),
                 np.broadcast_to(ue[:, :1, :1], ue.shape))
        for theta in views:
            expect = phasor(np.ascontiguousarray(theta))
            out = np.empty(theta.shape, dtype=complex)
            assert phasor(theta, out=out) is out
            assert np.array_equal(out.view(np.uint64), expect.view(np.uint64))


class TestPhaseDrift:
    def test_zero_phase_is_delta(self):
        j = phase_drift(np.zeros(16))
        assert j[0] == pytest.approx(1.0)
        assert np.abs(j[1:]).max() < 1e-15

    def test_constant_phase(self):
        c = 0.7
        j = phase_drift(np.full(16, c))
        assert j[0] == pytest.approx(np.exp(1j * c))
        assert np.abs(j[1:]).max() < 1e-14

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            phase_drift(np.zeros(0))


class TestKernelOracle:
    def test_no_noise_identity(self):
        params = KernelParams(n=32, sigma2_tot=0.0, stride=32)
        assert correlation_b_literal(0, 0, 0, params) == pytest.approx(1.0)
        assert abs(correlation_b_literal(3, -2, 0, params)) < 1e-14

    def test_block_matches_scalar_literal(self):
        """``validate.correlation_b_oracle``, per lag one product E D E^H / N^2,
        is the scalar double sum at every lag and offset pair, offsets beyond
        N/2 and a stride other than N included."""
        params = KernelParams(n=32, sigma2_tot=5e-3, stride=36)
        offsets, lags = np.array([-9, -1, 0, 3, 17]), np.array([-2, 0, 1, 3])
        block = correlation_b_oracle(offsets, lags, params)
        assert block.shape == (lags.size, offsets.size, offsets.size)
        expect = [[[correlation_b_literal(int(i1), int(i2), int(dt), params) for i2 in offsets]
                   for i1 in offsets] for dt in lags]
        assert np.abs(block - np.array(expect)).max() <= 1e-14

    def test_difference_substitution_closed_form(self):
        n, sig2 = 1200, 7e-4
        params = KernelParams(n=n, sigma2_tot=sig2, stride=n)
        d = np.arange(1, n)
        closed = (n + 2 * ((n - d) * np.exp(-sig2 * d / 2)).sum()) / n**2
        assert correlation_b_fast(0, 0, 0, params).real == pytest.approx(closed, abs=1e-13)


class TestKernelFast:
    def test_equal_offsets_counting_identity(self, kernel_params_64):
        # i1 == i2 keeps exactly N - |d| terms per lag: check against a direct sum
        n = kernel_params_64.n
        d = np.arange(-(n - 1), n)
        damp = np.exp(-kernel_params_64.sigma2_tot / 2 * np.abs(d))
        direct = (damp * (n - np.abs(d)) * np.exp(-2j * np.pi * d * 5 / n)).sum() / n**2
        assert correlation_b_fast(5, 5, 0, kernel_params_64) == pytest.approx(direct)

    def test_large_noise_limit(self):
        params = KernelParams(n=64, sigma2_tot=1e8, stride=64)
        assert correlation_b_fast(0, 0, 0, params).real == pytest.approx(1 / 64, rel=1e-10)
        table = build_correlation_table(params, range(-3, 4))
        assert np.isfinite(table.values).all()
        assert table.cpe(0) == pytest.approx(1 / 64, rel=1e-10)

    def test_hermitian_symmetry(self, kernel_params_64):
        for (i1, i2, dt) in [(3, -5, 2), (0, 4, -1), (-7, -7, 3)]:
            a = correlation_b_fast(i1, i2, dt, kernel_params_64)
            b = correlation_b_fast(i2, i1, -dt, kernel_params_64)
            assert a == pytest.approx(np.conj(b), abs=1e-14)

class TestCorrelationTable:
    def test_cached_entries_match_oracle(self, kernel_params_64, rng):
        needed = set()
        while len(needed) < 100:
            needed.add((int(rng.integers(-8, 9)), int(rng.integers(-8, 9)),
                        int(rng.integers(-3, 4))))
        for key in needed:
            assert correlation_b_fast(*key, kernel_params_64) == pytest.approx(
                correlation_b_literal(*key, kernel_params_64), abs=1e-10)
        # the CPE grid, read at an integer lag array
        table = build_correlation_table(kernel_params_64, range(-3, 4))
        lags = np.array([[-1, 0], [2, -1]])
        assert table.cpe(lags) == pytest.approx(np.array(
            [[correlation_b_literal(0, 0, int(dt), kernel_params_64).real for dt in row]
             for row in lags]), abs=1e-10)

    @pytest.mark.parametrize("cp", [0, 4])
    def test_full_grid_matches_oracle(self, cp):
        from cfofdm.network import SimulationLayout

        layout = SimulationLayout(
            n_subcarriers=32, cp_len=cp, subcarrier_spacing=15e3, block_subcarriers=8,
            block_symbols=5, pilot_subcarriers=(0, 3), pilot_symbols=(1, 2),
            n_aps=1, n_ues=1, area_side=100.0,
        )
        params = KernelParams(n=32, sigma2_tot=5e-3, stride=32 + cp)
        # the offsets of the ICI covariance's pilot-pair sums, and the CPE offset 0
        subs, _ = layout.pilot_slot_positions
        cols = np.flatnonzero(np.isin(np.arange(layout.n_subcarriers) % layout.block_subcarriers,
                                      layout.pilot_subcarriers))
        offsets = np.union1d((subs[:, None] - cols[None, :]).ravel(), [0])
        assert offsets.min() < 0 < offsets.max()
        lags = range(-(layout.block_symbols - 1), layout.block_symbols)
        oracle = np.array([[[correlation_b_literal(int(i1), int(i2), dt, params)
                             for i2 in offsets] for i1 in offsets] for dt in lags])
        # unit weight on one offset per side
        for a, dt in enumerate(lags):
            for r, i1 in enumerate(offsets):
                for c, i2 in enumerate(offsets):
                    assert correlation_b_fast(int(i1), int(i2), dt, params) == pytest.approx(
                        oracle[a, r, c], abs=1e-10)
        # random complex weights over all offsets at once, every lag in one call
        rng = np.random.default_rng(cp)
        y = rng.standard_normal((2, offsets.size)) + 1j * rng.standard_normal((2, offsets.size))
        dense = np.zeros((2, params.n), dtype=complex)
        dense[:, offsets % params.n] = y
        a1, a2 = offset_spectra(dense)
        got = np.einsum("f,af,f->a", a1, lag_spectra(params, lags), np.conj(a2))
        expect = np.einsum("r,arc,c->a", y[0], oracle, np.conj(y[1]))
        assert got == pytest.approx(expect, abs=1e-10)

    def test_miss_is_logic_error(self, kernel_params_64):
        table = build_correlation_table(kernel_params_64, [0])
        with pytest.raises(LookupError):
            table.cpe(1)
        with pytest.raises(LookupError):
            table.cpe(np.array([0, 1]))

    def test_zero_noise_table_all_ones(self):
        params = KernelParams(n=32, sigma2_tot=0.0, stride=32)
        table = build_correlation_table(params, range(-14, 15))
        for dt in range(-14, 15):
            assert table.cpe(dt) == pytest.approx(1.0, abs=1e-12)
        assert all(np.array_equal(v, table.values[0]) for v in table.values)

    def test_default_layout_cpe_span(self):
        from cfofdm.config import fig2_config
        from cfofdm.harness import build_kernel_table

        cfg = fig2_config()
        table = build_kernel_table(cfg)
        for dt in range(-14, 15):
            assert 0.0 < table.cpe(dt) <= 1.0

