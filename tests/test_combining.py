"""The four receive combiners and their structural properties."""

from dataclasses import replace

import numpy as np
import pytest

from cfofdm.combining import SCHEMES, combiner_matrix
from cfofdm.config import ci_config
from cfofdm.harness import derived_rng
from cfofdm.network import NetworkRealization, generate_network

from combining_oracle import combiner_matrix_at, combiner_matrix_per_estimate


def make_setup(h_hat, err_var, D, p=0.2, sigma2=1e-3):
    """A network for (tau_c, K, L) estimates and error variances."""
    K, L = h_hat.shape[-2:]
    network = NetworkRealization(
        ap_positions=np.zeros((L, 2)), ue_positions=np.zeros((K, 2)),
        beta=np.abs(h_hat[0]) + err_var[0], D=np.asarray(D, dtype=np.int8),
        pilot_index=np.arange(K) % max(K, 1), p=np.full(K, p), sigma2=sigma2,
    )
    return (h_hat, err_var), network


class TestMr:
    def test_unit_vector(self):
        h = np.zeros((1, 1, 3), dtype=complex)
        h[0, 0, 0] = 1.0
        est, network = make_setup(h, np.zeros((1, 1, 3)), np.ones((1, 3)))
        v = combiner_matrix("mr", *est, network)[0, 0]
        assert np.array_equal(v, h[0, 0])

    def test_masked_outside_cluster(self, rng):
        h = rng.standard_normal((1, 2, 4)) + 1j * rng.standard_normal((1, 2, 4))
        D = np.array([[1, 0, 1, 0], [0, 1, 1, 1]])
        est, network = make_setup(h, np.zeros((1, 2, 4)), D)
        v = combiner_matrix("mr", *est, network)[0, 0]
        assert v[1] == 0 and v[3] == 0

    def test_random_elementwise(self, rng):
        h = rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))
        D = (rng.uniform(size=(3, 5)) > 0.4).astype(int)
        D[:, 0] = 1
        est, network = make_setup(h, np.zeros((2, 3, 5)), D)
        v = combiner_matrix("mr", *est, network)
        for k in range(3):
            for tau in (1, 2):
                assert np.allclose(v[tau - 1, k], D[k] * h[tau - 1, k])


class TestLpMmse:
    def test_single_term_denominator(self):
        h = np.array([[[0.8 + 0.1j]]])
        c = np.array([[[0.0]]])
        est, network = make_setup(h, c, np.ones((1, 1)), p=0.5, sigma2=1e-2)
        v = combiner_matrix("lp_mmse", *est, network)[0, 0, 0]
        expect = 0.5 * h[0, 0, 0] / (0.5 * np.abs(h[0, 0, 0]) ** 2 + 1e-2)
        assert v == pytest.approx(expect, rel=1e-12)

    def test_zero_estimate(self):
        h = np.zeros((1, 1, 2), dtype=complex)
        est, network = make_setup(h, np.zeros((1, 1, 2)), np.ones((1, 2)))
        assert combiner_matrix("lp_mmse", *est, network)[0, 0, 0] == 0

    def test_two_ue_hand_denominator(self, rng):
        h = rng.standard_normal((1, 2, 1)) + 1j * rng.standard_normal((1, 2, 1))
        c = np.abs(rng.standard_normal((1, 2, 1))) * 0.1
        est, network = make_setup(h, c, np.ones((2, 1)), p=0.3, sigma2=2e-3)
        v = combiner_matrix("lp_mmse", *est, network)[0, 0, 0]
        den = sum(0.3 * (np.abs(h[0, i, 0]) ** 2 + c[0, i, 0]) for i in range(2)) + 2e-3
        assert v == pytest.approx(0.3 * h[0, 0, 0] / den, rel=1e-12)

    def test_unserved_entries_are_zero(self):
        h = np.ones((1, 2, 2), dtype=complex)
        D = np.array([[1, 0], [0, 1]])
        est, network = make_setup(h, np.zeros((1, 2, 2)), D)
        v = combiner_matrix("lp_mmse", *est, network)[0]
        assert v[0, 1] == 0 and v[1, 0] == 0


class TestPMmse:
    def test_sherman_morrison_single_cluster(self, rng):
        # P_k = {k}, full support: (p h h^H + (p c + s) I)^{-1} h has closed form
        h = rng.standard_normal((1, 1, 3)) + 1j * rng.standard_normal((1, 1, 3))
        c = np.full((1, 1, 3), 0.05)
        est, network = make_setup(h, c, np.ones((1, 3)), p=0.4, sigma2=1e-3)
        v = combiner_matrix("p_mmse", *est, network)[0, 0]
        hv = h[0, 0]
        a = 0.4 * 0.05 + 1e-3  # constant per-AP error variance keeps the diag scalar
        expect = 0.4 * hv / (a + 0.4 * np.vdot(hv, hv).real)
        assert np.allclose(v, expect, rtol=1e-10)

    def test_disjoint_clusters(self):
        h = np.ones((1, 2, 4), dtype=complex)
        D = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
        est, network = make_setup(h, np.zeros((1, 2, 4)), D)
        groups = [(g.ues.tolist(), g.support.tolist(), g.partial.tolist())
                  for g in network.groups]
        assert groups == [([0], [0, 1], [0]), ([1], [2, 3], [1])]

    def test_output_in_cluster_span(self, rng):
        h = rng.standard_normal((1, 3, 5)) + 1j * rng.standard_normal((1, 3, 5))
        D = np.array([[1, 0, 1, 0, 1], [1, 1, 0, 0, 0], [0, 0, 0, 1, 1]])
        est, network = make_setup(h, np.full((1, 3, 5), 0.01), D)
        v = combiner_matrix("p_mmse", *est, network)[0, 0]
        assert np.all(v[network.D[0] == 0] == 0)


class TestMmse:
    def test_single_ue_equals_p_mmse(self, rng):
        h = rng.standard_normal((1, 1, 4)) + 1j * rng.standard_normal((1, 1, 4))
        est, network = make_setup(h, np.full((1, 1, 4), 0.02), np.ones((1, 4)))
        assert np.allclose(combiner_matrix("mmse", *est, network)[0, 0],
                           combiner_matrix("p_mmse", *est, network)[0, 0], rtol=1e-12)

    def test_equals_p_mmse_when_all_shared(self, rng):
        h = rng.standard_normal((1, 3, 4)) + 1j * rng.standard_normal((1, 3, 4))
        est, network = make_setup(h, np.full((1, 3, 4), 0.02), np.ones((3, 4)))
        mmse = combiner_matrix("mmse", *est, network)
        p_mmse = combiner_matrix("p_mmse", *est, network)
        for k in range(3):
            a = mmse[0, k]
            b = p_mmse[0, k]
            assert np.abs(a - b).max() <= 1e-9

    def test_matches_canonical_reference(self, rng):
        """All-ones clusters, no PN: the standard MMSE combiner formula."""
        K, L = 3, 5
        h = rng.standard_normal((1, K, L)) + 1j * rng.standard_normal((1, K, L))
        c = np.abs(rng.standard_normal((1, K, L))) * 0.05
        est, network = make_setup(h, c, np.ones((K, L)), p=0.25, sigma2=3e-3)
        k = 1
        # independent formulation: full L x L system assembled entrywise
        a = np.zeros((L, L), dtype=complex)
        for i in range(K):
            hv = h[0, i]
            a += 0.25 * np.outer(hv, hv.conj())
            a += 0.25 * np.diag(c[0, i])
        a += 3e-3 * np.eye(L)
        expect = 0.25 * np.linalg.solve(a, h[0, k])
        assert np.allclose(combiner_matrix("mmse", *est, network)[0, k], expect,
                           rtol=1e-10)

    def test_finite_outputs(self, rng):
        h = 1e3 * (rng.standard_normal((1, 2, 3)) + 1j * rng.standard_normal((1, 2, 3)))
        est, network = make_setup(h, np.zeros((1, 2, 3)), np.ones((2, 3)), sigma2=1e-9)
        for scheme in ("mr", "lp_mmse", "p_mmse", "mmse"):
            v = combiner_matrix(scheme, *est, network)
            assert np.isfinite(v).all()


def ci_estimates(seed, stack=()):
    """A ci geometry with random estimates of the channels' scale on every
    symbol of the block: (*stack, tau_c, K, L), one draw per stacked entry."""
    layout = ci_config().layout()
    network = generate_network(layout, derived_rng(seed, 0, 0))
    rng = np.random.default_rng(seed)
    shape = stack + (layout.block_symbols, layout.n_ues, layout.n_aps)
    beta = network.beta
    h = np.sqrt(beta / 2) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    c = 0.1 * beta * rng.uniform(size=shape)
    return (h, c), network


def few_ap_clusters(est, network):
    """The ci estimates on clusters of 2-3 of the 4 strongest APs per UE, where
    every group has more members than support APs, as in fig3 at K=100."""
    aps = np.argsort(network.beta.sum(axis=0))[-4:]
    D = np.zeros_like(network.D)
    for k, cluster in enumerate(((0, 1), (0, 1, 2), (1, 2), (2, 3), (0, 3))):
        D[k, aps[list(cluster)]] = 1
    return est, replace(network, D=D)


class TestStackedMatchesPerSymbolOracle:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("clusters", ("ci", "all_ones", "few_aps"))
    def test_matches_per_symbol_oracle(self, scheme, clusters):
        est, network = ci_estimates(3)
        if clusters == "ci":
            assert len({row.tobytes() for row in network.D}) >= 2  # several groups
        elif clusters == "few_aps":
            est, network = few_ap_clusters(est, network)
            assert all(len(g.partial) > len(g.support) for g in network.groups)
        else:
            # fig2 pilot layout: K <= tau_p, every AP serves every UE
            K = 4
            network = replace(network, D=np.ones((K, network.D.shape[1]), dtype=np.int8),
                              p=network.p[:K], beta=network.beta[:K])
            est = (est[0][:, :K], est[1][:, :K])
        v = combiner_matrix(scheme, *est, network)
        assert v.shape == est[0].shape
        # the oracle takes (K, L, tau_c) estimates
        est_kl = [a.transpose(1, 2, 0) for a in est]
        for tau in range(1, v.shape[0] + 1):
            ref = combiner_matrix_at(scheme, *est_kl, network, tau)
            np.testing.assert_allclose(v[tau - 1], ref, rtol=1e-12, atol=0)


class TestStackedEstimates:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_stack_equals_per_estimate_calls(self, scheme):
        """Three stacked estimates give bit for bit the combiners of one call
        each, on a geometry with several cluster groups."""
        est, network = ci_estimates(5, stack=(3,))
        assert len(network.groups) >= 2
        v = combiner_matrix(scheme, *est, network)
        assert v.shape == (3, ci_config().block_symbols) + network.D.shape
        assert np.array_equal(v, combiner_matrix_per_estimate(scheme, *est, network))

    @pytest.mark.parametrize("scheme", ("p_mmse", "mmse"))
    def test_support_form_stack_equals_per_estimate_calls(self, scheme):
        """The same, where every group has more members than support APs."""
        est, network = few_ap_clusters(*ci_estimates(5, stack=(3,)))
        v = combiner_matrix(scheme, *est, network)
        assert np.array_equal(v, combiner_matrix_per_estimate(scheme, *est, network))


class TestPinvFallback:
    @pytest.mark.parametrize("scheme", ("p_mmse", "mmse"))
    def test_one_warning_per_singular_group_and_symbol(self, scheme, monkeypatch, caplog):
        h = np.ones((4, 3, 4), dtype=complex) * (1 + 0.5j)  # (tau_c, K, L)
        h += 0.1 * np.arange(48).reshape(4, 3, 4)
        c = np.full((4, 3, 4), 0.01)
        D = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]])
        # (group, tau) systems whose members' channels are zero on the support
        # reduce to sigma2 * I (support form) or to the members' P^-1 (member
        # form) and are declared singular: group {0, 1} (support {0, 1}) at
        # tau 2, group {2} (support {2, 3}) at taus 1 and 3
        singular = [((0, 1), 2), ((2, 3), 1), ((2, 3), 3)]
        for support, tau in singular:
            h[tau - 1, :, support] = 0.0
            c[tau - 1, :, support] = 0.0
        est, network = make_setup(h, c, D)
        normal = combiner_matrix(scheme, *est, network)

        real_solve = np.linalg.solve

        def solve(a, b):
            eye = np.eye(a.shape[-1])
            # every UE sends at one power
            if any((a == d).all(axis=(-2, -1)).any() for d in (network.sigma2 * eye,
                                                               eye / network.p[0])):
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        with caplog.at_level("WARNING", logger="cfofdm.combining"):
            v = combiner_matrix(scheme, *est, network)
        warnings = [r for r in caplog.records if r.name == "cfofdm.combining"]
        assert len(warnings) == len(singular)
        assert np.isfinite(v).all()
        for support, tau in singular:
            ks = np.flatnonzero(D[:, support[0]])
            assert np.all(v[tau - 1][np.ix_(ks, support)] == 0)  # zero channels: a zero rhs, or Z^-1 H = 0
        bad = {(tuple(np.flatnonzero(D[:, s[0]])), t) for s, t in singular}
        for t in range(4):
            for k in range(3):
                group = tuple(np.flatnonzero((D == D[k]).all(axis=1)))
                if (group, t + 1) not in bad:
                    assert np.array_equal(v[t, k], normal[t, k])

    @pytest.mark.parametrize("scheme", ("p_mmse", "mmse"))
    def test_stacked_fallback_names_estimate_and_symbol(self, scheme, monkeypatch, caplog):
        """In a (2, tau_c, K, L) stack with one singular system, in estimate 1,
        only that system takes the pseudo-inverse: one warning, and estimate
        0's combiners stay bitwise those of the stacked solve."""
        h = np.ones((2, 4, 3, 4), dtype=complex) * (1 + 0.5j)
        h += 0.1 * np.arange(96).reshape(2, 4, 3, 4)
        c = np.full((2, 4, 3, 4), 0.01)
        D = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]])
        h[1, 2, :, 2:] = 0.0  # group {2} (support {2, 3}) at tau 3 reduces to P^-1 (p_mmse) or sigma2 * I (mmse)
        c[1, 2, :, 2:] = 0.0
        _, network = make_setup(h[0], c[0], D)
        normal = combiner_matrix(scheme, h, c, network)

        real_solve = np.linalg.solve

        def solve(a, b):
            eye = np.eye(a.shape[-1])
            # every UE sends at one power
            if any((a == d).all(axis=(-2, -1)).any() for d in (network.sigma2 * eye,
                                                               eye / network.p[0])):
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        with caplog.at_level("WARNING", logger="cfofdm.combining"):
            v = combiner_matrix(scheme, h, c, network)
        warnings = [r for r in caplog.records if r.name == "cfofdm.combining"]
        assert len(warnings) == 1
        assert "UEs [2] at stacked estimate 1, symbol 3" in warnings[0].getMessage()
        assert np.array_equal(v[0], normal[0])
        assert np.all(v[1, 2, 2, 2:] == 0)  # zero channels: a zero rhs, or Z^-1 H = 0
        v[1, 2, 2, 2:] = normal[1, 2, 2, 2:]
        assert np.array_equal(v, normal)


class TestSharedMmseSolve:
    def test_full_partial_group_rows_equal(self, monkeypatch):
        """A group whose partial set is every UE solves one system in P-MMSE and
        MMSE alike: the two schemes' rows are equal bit for bit, and either
        scheme given the other's combiners as ``solved`` skips those groups'
        solves and returns its own combiners bit for bit."""
        from cfofdm import combining

        est, network = ci_estimates(5, stack=(3,))
        K = network.D.shape[0]
        full = [g for g in network.groups if len(g.partial) == K]
        assert 0 < len(full) < len(network.groups)
        p_mmse = combiner_matrix("p_mmse", *est, network)
        mmse = combiner_matrix("mmse", *est, network)
        for g in full:
            assert np.array_equal(p_mmse[..., g.ues, :], mmse[..., g.ues, :])
            assert np.any(mmse[..., g.ues, :] != 0)

        solves = []
        real = combining._masked_mmse_group

        def counted(v, h_hat, err_var, network, group, members):
            solves.append(group)
            return real(v, h_hat, err_var, network, group, members)

        monkeypatch.setattr(combining, "_masked_mmse_group", counted)
        assert np.array_equal(combiner_matrix("p_mmse", *est, network, solved=mmse), p_mmse)
        assert np.array_equal(combiner_matrix("mmse", *est, network, solved=p_mmse), mmse)
        assert len(solves) == 2 * (len(network.groups) - len(full))


class TestReducedSolve:
    @pytest.mark.parametrize("scheme", ("p_mmse", "mmse"))
    def test_systems_are_members_by_members(self, scheme, monkeypatch):
        """On the fig2 pilot layout, every AP serving every UE, each MMSE-family
        solve is (..., |members|, |members|), here (tau_c, K, K), never the
        (tau_c, L, L) system of the cluster support."""
        est, network = ci_estimates(3)
        K, L = 4, network.D.shape[1]
        network = replace(network, D=np.ones((K, L), dtype=np.int8),
                          p=network.p[:K], beta=network.beta[:K])
        est = (est[0][:, :K], est[1][:, :K])
        shapes = []
        real_solve = np.linalg.solve

        def solve(a, b):
            shapes.append(a.shape)
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        combiner_matrix(scheme, *est, network)
        assert shapes == [(est[0].shape[0], K, K)]

    @pytest.mark.parametrize("scheme", ("p_mmse", "mmse"))
    def test_more_members_than_support_aps_solve_in_the_support(self, scheme, monkeypatch):
        """A group with more members than support APs, as every group of fig3 at
        K=100, solves its (..., |S|, |S|) systems instead."""
        est, network = few_ap_clusters(*ci_estimates(3))
        shapes = []
        real_solve = np.linalg.solve

        def solve(a, b):
            shapes.append(a.shape)
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        combiner_matrix(scheme, *est, network)
        tau_c = est[0].shape[0]
        assert shapes == [(tau_c, len(g.support), len(g.support)) for g in network.groups]

    def test_high_snr_matches_extended_precision_oracle(self):
        """Where the noise is far below the channels, the |S| x |S| systems are
        ill-conditioned (cond >= 1e5), and a float64 solve of them is off by
        about cond * 1e-16.  Every ci group has fewer members than support APs,
        so it solves in the member dimension, and that gives the extended-precision
        oracle's P-MMSE and MMSE combiners within 1e-12.  The oracle's own
        error, about cond * eps(longdouble) before its refinement, stays below
        1e-13."""
        h, c, network, cond = high_snr_world(1e-5)
        assert cond >= 1e5
        assert cond * np.finfo(np.longdouble).eps < 1e-13
        assert_matches_oracle(h, c, network)

    def test_ill_conditioned_matches_refined_oracle(self):
        """With sigma^2 scaled down to 1e-10 the systems reach cond >= 1e10,
        where a long double solve alone is off by about cond * 1e-19, 1e-9.
        The oracle refines it with a residual computed exactly in rationals
        (``combining_oracle.exact_residual``); each refinement shrinks its
        error by about cond * eps(longdouble), far below one, so it is exact
        to float64.  The production combiners match it within 1e-12."""
        h, c, network, cond = high_snr_world(1e-10)
        assert cond >= 1e10
        assert cond * np.finfo(np.longdouble).eps < 1e-6
        assert_matches_oracle(h, c, network)


def high_snr_world(sigma2):
    """The ci geometry with unit-variance estimates, noise power ``sigma2``
    and error variances below it: (h, c, network, the largest condition
    number of a group's |S| x |S| system)."""
    (h, _), network = ci_estimates(3)
    rng = np.random.default_rng(7)
    h = (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)) / np.sqrt(2)
    c = 0.1 * sigma2 * rng.uniform(size=h.shape)
    network = replace(network, sigma2=sigma2)
    assert all(len(network.D) < len(g.support) for g in network.groups)
    cond = 0.0
    for g in network.groups:
        for t in range(h.shape[0]):
            hm = h[t][np.ix_(g.partial, g.support)]
            p = network.p[g.partial]
            a = (hm.T * p) @ hm.conj()
            a[np.diag_indices_from(a)] += (p[:, None] * c[t][np.ix_(g.partial, g.support)]
                                           ).sum(axis=0) + sigma2
            cond = max(cond, np.linalg.cond(a))
    return h, c, network, cond


def assert_matches_oracle(h, c, network):
    """The P-MMSE and MMSE combiners equal the per-symbol oracle's within 1e-12."""
    est_kl = [a.transpose(1, 2, 0) for a in (h, c)]
    for scheme in ("p_mmse", "mmse"):
        v = combiner_matrix(scheme, h, c, network)
        for tau in range(1, v.shape[0] + 1):
            ref = combiner_matrix_at(scheme, *est_kl, network, tau)
            np.testing.assert_allclose(v[tau - 1], ref, rtol=1e-12, atol=0)
