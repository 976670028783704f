"""Configuration parsing, experiment orchestration, CSV output, and the CLI."""

import copy
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cfofdm import estimation
from cfofdm.cli import main as cli_main
from cfofdm.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    ci_config,
    effective_config_text,
    fig2_config,
    parse_config,
)
from cfofdm.harness import (
    CSV_HEADER,
    FIG3_UE_COUNTS,
    dump_geometry_csv,
    records_to_csv,
    run_experiment,
    run_fig2,
)

# the ci layout as `sim fig2` / `sim fig3` overrides, less n_ues (fig3 sets it)
CI_FIG = ["n_subcarriers=120", "block_symbols=5", "pilot_symbols=1:4", "n_aps=30",
          "shadow_sigma_db=0"]


def small_cfg(**kw):
    cfg = replace(
        ci_config(), n_aps=6, n_ues=3, n_geometries=2, n_trials=12,
        estimators=("pna_ofdm",), schemes=("mr", "mmse"),
    )
    return replace(cfg, **kw)


def all_invalid_finalize(acc, network, scheme_idx):
    """finalize_sinr stand-in that marks every SINR record invalid."""
    return np.full(acc.gain[scheme_idx].shape, np.nan)


class TestConfigParsing:
    def test_fig2_preset_matches_scenario(self):
        cfg = fig2_config()
        layout = cfg.layout()
        assert (cfg.n_aps, cfg.n_ues) == (200, 10)
        assert layout.n_subcarriers == 1200
        assert layout.block_subcarriers == 12
        assert layout.block_symbols == 15
        assert layout.tau_p == 12
        assert cfg.subcarrier_spacing_hz == 15e3
        assert cfg.gamma_ap == cfg.gamma_ue == 4e-17
        assert cfg.carrier_hz == 2e9
        # derived quantities
        assert layout.bandwidth == pytest.approx(18e6)
        assert cfg.pn_params().sigma2_ap == pytest.approx(3.509e-4, rel=1e-3)

    def test_empty_file_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()

    def test_unknown_key_rejected_with_line(self):
        # the last three keys were switches of earlier versions
        for entry in ("bogus_key = 1", "eval_block = 1", "gaussian_ici = false",
                      "data_symbols = gaussian"):
            with pytest.raises(ConfigError, match="line 3"):
                parse_config("n_aps = 4\nn_ues = 2\n%s\n" % entry)

    def test_invalid_value_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("n_aps = not_a_number")

    def test_over_budget_pilots_rejected(self):
        with pytest.raises(ConfigError, match="pilot symbols"):
            parse_config("block_symbols = 2\npilot_symbols = 1:12\n")

    def test_comments_and_ranges(self):
        cfg = parse_config(
            "# comment line\npilot_symbols = 1:3, 5  # trailing comment\nn_aps = 7\n"
        )
        assert cfg.pilot_symbols == (1, 2, 3, 5)
        assert cfg.n_aps == 7

    def test_effective_echo_contains_derived(self):
        text = effective_config_text(ci_config())
        assert "bandwidth_hz" in text
        assert "sigma2_phase_ap" in text
        assert "noise_power_w" in text
        assert "tau_p" in text

    def test_bad_enum_rejected(self):
        with pytest.raises(ConfigError, match="estimator"):
            parse_config("estimators = magic")

    def test_infeasible_serving_capacity_rejected(self):
        with pytest.raises(ConfigError, match="serving capacity"):
            parse_config("n_aps = 4\nn_ues = 100\nblock_symbols = 5\n"
                         "pilot_symbols = 1:4\nn_subcarriers = 120\n")


class TestRunExperiment:
    def test_deterministic_csv(self):
        cfg = small_cfg(n_trials=6, n_geometries=1)
        a = records_to_csv(run_experiment(cfg))
        b = records_to_csv(run_experiment(cfg))
        assert a == b

    def test_threaded_matches_sequential(self):
        cfg = small_cfg(n_trials=8, n_geometries=1)
        a = records_to_csv(run_experiment(cfg, threads=1))
        b = records_to_csv(run_experiment(cfg, threads=3))
        assert a == b

    def test_thread_count_invariance_all_estimators_and_schemes(self):
        cfg = replace(ci_config(), n_geometries=2, n_trials=10,
                      estimators=("pna_ofdm", "pna_sc", "unaware"),
                      schemes=("mr", "lp_mmse", "p_mmse", "mmse"))
        a = records_to_csv(run_experiment(cfg, threads=1))
        b = records_to_csv(run_experiment(cfg, threads=2))
        assert a == b

    def test_threads_below_one_rejected(self):
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads"):
                run_experiment(small_cfg(), threads=threads)

    def test_scheme_rows_present(self):
        cfg = small_cfg(n_trials=4, n_geometries=1)
        records = run_experiment(cfg)
        layout = cfg.layout()
        n_uses = layout.block_subcarriers * layout.block_symbols
        for scheme in ("mr", "mmse"):
            rows = [r for r in records if r.scheme == scheme]
            assert len(rows) == n_uses + 1  # per channel use plus block row
            assert {r.channel_use for r in rows} == set(range(n_uses + 1))
            per_tau = {}
            for r in rows[1:]:
                assert r.tau == math.ceil(r.channel_use / layout.block_subcarriers)
                per_tau.setdefault(r.tau, set()).add((r.se_per_ue, r.standard_error))
            # every channel use of a symbol carries that symbol's SE and error
            assert sorted(per_tau) == list(range(1, layout.block_symbols + 1))
            assert all(len(v) == 1 for v in per_tau.values())

    def test_standard_error_scaling(self):
        """Doubling trials shrinks the trial-level standard error by ~1/sqrt(2)."""
        base = small_cfg(n_geometries=1, shadow_sigma_db=0.0)
        se_small = np.mean([
            r.standard_error for r in run_experiment(replace(base, n_trials=64))
            if r.channel_use > 0
        ])
        se_big = np.mean([
            r.standard_error for r in run_experiment(replace(base, n_trials=128))
            if r.channel_use > 0
        ])
        ratio = se_big / se_small
        assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.2)

    def test_greedy_pilot_policy_runs(self):
        cfg = small_cfg(n_trials=3, n_geometries=1, pilot_policy="greedy")
        records = run_experiment(cfg)
        assert all(np.isfinite(r.se_per_ue) for r in records)

    def test_csv_schema(self):
        cfg = small_cfg(n_trials=3, n_geometries=1)
        text = records_to_csv(run_experiment(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        first = lines[1].split(",")
        assert len(first) == len(CSV_HEADER.split(","))
        assert first[0] == "ci"


class TestDumpGeometry:
    def test_schema_and_counts(self):
        cfg = small_cfg()
        text = dump_geometry_csv(cfg)
        lines = text.strip().split("\n")
        assert lines[0] == "node_type,index,x_m,y_m"
        aps = [l for l in lines[1:] if l.startswith("ap,")]
        ues = [l for l in lines[1:] if l.startswith("ue,")]
        assert len(aps) == cfg.n_aps and len(ues) == cfg.n_ues
        x = float(lines[1].split(",")[2])
        assert 0 <= x <= cfg.area_side_m


class TestCli:
    def test_run_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text(
            "n_subcarriers = 120\nblock_symbols = 5\npilot_symbols = 1:4\n"
            "n_aps = 5\nn_ues = 2\nn_geometries = 1\nn_trials = 4\n"
            "shadow_sigma_db = 0\nname = clitest\n"
        )
        out = tmp_path / "out.csv"
        rc = cli_main(["run", str(cfg_path), "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith(CSV_HEADER)
        assert "clitest" in text

    def test_cli_output_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text(
            "n_subcarriers = 120\nblock_symbols = 5\npilot_symbols = 1:4\n"
            "n_aps = 5\nn_ues = 2\nn_geometries = 1\nn_trials = 4\n"
        )
        outs = []
        for name, threads in (("a.csv", "1"), ("b.csv", "2")):
            out = tmp_path / name
            assert cli_main(["run", str(cfg_path), "--out", str(out),
                             "--threads", threads]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_config_error_exit_code(self, tmp_path, capsys):
        # the last three keys were switches of earlier versions
        for entry in ("definitely_not_a_key = 1", "eval_block = 1", "gaussian_ici = false",
                      "data_symbols = gaussian"):
            cfg_path = tmp_path / "bad.cfg"
            cfg_path.write_text(
                "n_subcarriers = 120\nblock_symbols = 5\npilot_symbols = 1:4\n"
                "n_aps = 5\nn_ues = 2\nn_geometries = 1\nn_trials = 1\n%s\n" % entry
            )
            assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 1
            assert "line 8" in capsys.readouterr().err

    @pytest.mark.parametrize("args, code", [
        pytest.param("run t.cfg --bogus", 1, id="unknown_option"),
        pytest.param("run t.cfg --deterministic", 1, id="removed_option"),
        pytest.param("run t.cfg --threads 0", 1, id="zero_threads"),
        pytest.param("run t.cfg --threads -3", 1, id="negative_threads"),
        pytest.param("run t.cfg --threads two", 1, id="non_integer_threads"),
        pytest.param("", 1, id="no_command"),
        pytest.param("--help", 0, id="help"),
        pytest.param("run --help", 0, id="run_help"),
    ])
    def test_usage_exit_code(self, tmp_path, capsys, args, code):
        """Usage errors are config errors (exit 1); --help exits 0."""
        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text(
            "n_subcarriers = 120\nblock_symbols = 5\npilot_symbols = 1:4\n"
            "n_aps = 5\nn_ues = 2\nn_geometries = 1\nn_trials = 1\n"
        )
        argv = [str(cfg_path) if a == "t.cfg" else a for a in args.split()]
        argv += ["--out", str(tmp_path / "o.csv")] if "t.cfg" in args else []
        assert cli_main(argv) == code
        if code:
            assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        "master_seed = -2", "gamma_ap = -1e-17", "gamma_ue = -1e-17", "carrier_hz = -2e9",
        "subcarrier_spacing_hz = 0", "tx_power_w = -0.1", "shadow_sigma_db = -1",
        "n_subcarriers = 8\npilot_subcarriers = 10",
    ])
    def test_out_of_range_value_exit_code(self, tmp_path, capsys, entry):
        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text(
            "n_subcarriers = 120\nblock_symbols = 5\npilot_symbols = 1:4\n"
            "n_aps = 5\nn_ues = 2\nn_geometries = 1\nn_trials = 1\n%s\n" % entry
        )
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self):
        assert cli_main(["run", "/nonexistent/path.cfg"]) == 1

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        from cfofdm import se

        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text(
            "n_subcarriers = 120\nblock_symbols = 5\npilot_symbols = 1:4\n"
            "n_aps = 5\nn_ues = 2\nn_geometries = 1\nn_trials = 2\n"
        )
        monkeypatch.setattr(se, "finalize_sinr", all_invalid_finalize)
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 3

    def test_validate_exit_code(self):
        assert cli_main(["validate"]) == 0

    def test_validation_failure_exit_code(self, monkeypatch):
        from cfofdm import validate

        monkeypatch.setattr(validate, "lmmse_moments",
                            lambda cfg: validate.Check("lmmse_moments", False, "injected"))
        assert cli_main(["validate"]) == 2

    def test_dump_geometry(self, tmp_path):
        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text("n_aps = 4\nn_ues = 2\n")
        out = tmp_path / "geo.csv"
        assert cli_main(["dump-geometry", str(cfg_path), "--out", str(out)]) == 0
        assert out.read_text().startswith("node_type,index")
        assert cli_main(["dump-geometry", str(cfg_path), "--seed", "-2"]) == 1

    def test_fig3_rows(self, tmp_path):
        """fig3 is the channel-use-60 rows of fig2 at every UE count."""
        counts = ["n_geometries=1", "n_trials=2"]
        out = tmp_path / "fig3.csv"
        assert cli_main(["fig3", *CI_FIG, *counts, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        rows = lines[1:]
        assert len(rows) == 40
        fields = [r.split(",") for r in rows]
        assert {f[0] for f in fields} == {"fig3_K%d" % K for K in FIG3_UE_COUNTS}
        assert {(f[2], f[1]) for f in fields} == {
            (e, s) for e in ("unaware", "pna_sc", "pna_ofdm", "no_pn") for s in ("mmse", "mr")}
        assert {f[5] for f in fields} == {"60"}
        base = apply_overrides(replace(fig2_config(), name="fig3"), CI_FIG + counts)
        for K in FIG3_UE_COUNTS:
            cfg = replace(base, n_ues=K, name="fig3_K%d" % K)
            expect = [r.csv_row() for r in run_fig2(cfg) if r.channel_use == 60]
            assert [r for r, f in zip(rows, fields) if f[0] == cfg.name] == expect

    def test_fig3_validates_every_count_first(self, monkeypatch, capsys):
        """K = 100 exceeds the capacity of 8 APs: nothing runs before the error."""
        from cfofdm import harness

        calls = []
        real_run = harness.run_experiment

        def counting_run(*args, **kwargs):
            calls.append(args[0].name)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(harness, "run_experiment", counting_run)
        argv = ["fig3", *CI_FIG, "n_aps=8", "n_geometries=1", "n_trials=1"]
        assert cli_main(argv) == 1
        assert calls == []
        assert "serving capacity" in capsys.readouterr().err

    def test_fig3_rejects_n_ues_override(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        argv = ["fig3", *CI_FIG, "n_ues=5", "n_geometries=1", "n_trials=1", "--out", str(out)]
        assert cli_main(argv) == 1
        assert "fig3 sets n_ues itself" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text(
            "n_subcarriers = 120\nblock_symbols = 5\npilot_symbols = 1:4\n"
            "n_aps = 5\nn_ues = 2\nn_geometries = 1\nn_trials = 4\n"
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["run", str(cfg_path), "--out", str(a), "--seed", "1"]) == 0
        assert cli_main(["run", str(cfg_path), "--out", str(b), "--seed", "2"]) == 0
        assert a.read_text() != b.read_text()


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        """The package needs only numpy; scipy would be most of a cold import."""
        import cfofdm

        src = os.path.dirname(os.path.dirname(os.path.abspath(cfofdm.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import cfofdm.cli, sys; "
                "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
        subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                       check=True, timeout=120)


class TestValidateSuite:
    def test_detects_injected_kernel_bug(self, monkeypatch):
        """A stride-off-by-one fast kernel must fail the oracle-equivalence check."""
        from cfofdm import validate as val
        from cfofdm.phase_noise import KernelParams, correlation_b_fast

        def broken_fast(i1, i2, dtau, params):
            shifted = KernelParams(params.n, params.sigma2_tot, params.stride + 1)
            return correlation_b_fast(i1, i2, dtau, shifted)

        monkeypatch.setattr(val, "correlation_b_fast", broken_fast)
        assert not val.kernel_oracle(32).ok

    def test_clean_run_passes(self):
        from cfofdm.validate import kernel_oracle, trace_sum

        assert kernel_oracle(32).ok
        assert trace_sum(32).ok


class TestSinrSymbolDependence:
    def test_sinr_varies_across_symbols_with_pn(self):
        """The common phase error makes the SINR symbol-dependent."""
        cfg = small_cfg(n_trials=40, n_geometries=1, estimators=("pna_ofdm",),
                        schemes=("mmse",))
        records = run_experiment(cfg)
        per_tau = {}
        for r in records:
            if r.channel_use > 0:
                per_tau.setdefault(r.tau, r.se_per_ue)
        vals = np.array([per_tau[t] for t in sorted(per_tau)])
        assert np.ptp(vals) / vals.mean() > 0.01


class TestInvalidRecordGuard:
    def test_excess_invalid_fraction_raises(self, monkeypatch):
        cfg = small_cfg(n_trials=2, n_geometries=1)
        from cfofdm import se

        monkeypatch.setattr(se, "finalize_sinr", all_invalid_finalize)
        with pytest.raises(RuntimeError, match="invalid"):
            run_experiment(cfg)

    def test_single_invalid_record_is_left_out(self, monkeypatch):
        """One negative UatF denominator: counted, averaged over, never NaN."""
        from cfofdm import harness, se

        cfg = small_cfg(n_trials=2, n_geometries=2, n_ues=5,
                        estimators=("pna_ofdm", "pna_sc", "unaware"))
        real_finalize = se.finalize_sinr
        calls = []

        def finalize_one_negative(acc, network, scheme_idx):
            calls.append(scheme_idx)
            if len(calls) == 1:
                acc = copy.deepcopy(acc)
                acc.ici[scheme_idx, 0, 0] -= 1e6 * acc.count
            return real_finalize(acc, network, scheme_idx)

        monkeypatch.setattr(se, "finalize_sinr", finalize_one_negative)
        geom = harness.run_geometry(cfg, harness.build_setup(cfg), 0)
        assert geom.n_invalid == 1
        assert all(np.isfinite(c).all() for c in geom.curves.values())
        calls.clear()
        text = records_to_csv(run_experiment(cfg))
        values = [float(v) for line in text.splitlines()[1:]
                  for v in (line.split(",")[7], line.split(",")[9])]
        assert np.isfinite(values).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_result_without_valid_record_raises(self, monkeypatch):
        """Under 1% invalid overall, but no valid record behind one curve point."""
        from cfofdm import se

        cfg = small_cfg(n_trials=1, n_geometries=4, n_ues=5,
                        estimators=("pna_ofdm", "pna_sc", "unaware"))
        real_finalize = se.finalize_sinr
        first = []  # holds the first accumulator seen, so its identity stays unique

        def finalize_tau1_invalid(acc, network, scheme_idx):
            first[:] = first or [acc, scheme_idx]
            sinr = real_finalize(acc, network, scheme_idx)
            if acc is first[0] and scheme_idx == first[1]:
                sinr[:, 0] = np.nan
            return sinr

        monkeypatch.setattr(se, "finalize_sinr", finalize_tau1_invalid)
        with pytest.raises(RuntimeError, match="no valid SINR record"):
            run_experiment(cfg)


class TestStackedTrial:
    def test_run_trial_matches_per_symbol_loop(self):
        """One trial's accumulators equal those of the per-symbol combine-and-
        accumulate loop on the same draws."""
        from cfofdm import se
        from cfofdm.combining import SCHEMES
        from cfofdm.harness import build_geometry, build_setup, derived_rng, run_trial
        from cfofdm.network import gen_channel
        from cfofdm.ofdm import build_transmit_grids, synth_pilot_observations
        from cfofdm.phase_noise import gen_pn_trace

        from combining_oracle import add_symbol_at, combiner_matrix_at

        cfg = replace(ci_config(), schemes=SCHEMES, shadow_sigma_db=4.0,
                      estimators=("pna_ofdm", "pna_sc", "unaware"))
        setup = build_setup(cfg)
        geom = build_geometry(cfg, setup, 0)
        layout, network, lam = setup.layout, geom.network, geom.lam
        assert len({row.tobytes() for row in network.D}) >= 2
        rng = derived_rng(cfg.master_seed, 1, 0, 0)
        out = run_trial(cfg, setup, geom, copy.deepcopy(rng))

        h = gen_channel(network.beta, layout, rng)
        trace = gen_pn_trace(setup.pn, layout, rng)
        grids = build_transmit_grids(layout, setup.book, network.pilot_index, rng)
        y, cpe = synth_pilot_observations(h, grids, trace, network, layout, rng)
        h_eff = cpe * h[:, :, 0][:, :, None]
        for kind, ctx in geom.contexts.items():
            h_hat = estimation.estimate_all(ctx, y)
            ref = se.SinrAccumulator(len(cfg.schemes), layout.n_ues, layout.block_symbols)
            for s_idx, scheme in enumerate(cfg.schemes):
                for tau in range(1, layout.block_symbols + 1):
                    v = combiner_matrix_at(scheme, h_hat, ctx.err_var, network, tau)
                    add_symbol_at(ref, s_idx, tau, v, h_eff[:, :, tau - 1], lam, network.D)
            for name in ("gain", "cross", "ici", "vnorm"):
                np.testing.assert_allclose(getattr(out[kind], name), getattr(ref, name),
                                           rtol=1e-12, atol=0)
            assert out[kind].count == 1
