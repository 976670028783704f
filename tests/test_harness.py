"""Configuration parsing, experiment orchestration, CSV output, and the CLI."""

import ast
import copy
import logging
import math
import os
import pickle
import re
import subprocess
import sys
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from cfofdm import estimation
from cfofdm.combining import SCHEMES
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
from cfofdm.se import SinrAccumulator

import former_models
from one_geometry import run_one_geometry

FLOAT_KEYS = [f.name for f in fields(ExperimentConfig) if f.type == "float"]

# the ci layout as `sim fig2` / `sim fig3` overrides, less n_ues (fig3 sets it)
CI_FIG = ["n_subcarriers=120", "block_symbols=5", "pilot_symbols=1:4", "n_aps=30",
          "shadow_sigma_db=0"]
ALL_SCHEMES = "schemes=mr,lp_mmse,p_mmse,mmse"
ALL_KINDS = "estimators=unaware,pna_sc,pna_ofdm,pna_ofdm_cp"
CI = ["name=ci", *CI_FIG, "n_ues=5", ALL_SCHEMES]
TWO_OF_7 = ["n_geometries=2", "n_trials=7"]
IDEAL = ["estimators=pna_ofdm", "gamma_ap=0", "gamma_ue=0"]
SMALL = ["n_subcarriers=120", "block_symbols=5", "pilot_symbols=1:4", "n_geometries=1"]

# `sim` command, its overrides (for `run`, its config file's lines) and the
# worker counts whose --out files must be byte-identical
THREAD_CASES = [
    # every estimator kind, pna_ofdm_cp among them, which no benchmark workload runs
    pytest.param("fig2", [*CI, ALL_KINDS, "n_geometries=2", "n_trials=6"], (1, 2, 3),
                 id="all_kinds_6"),
    # trial stacks of 7, 4 and 3, each synthesized in pieces of 3, the last one partial
    pytest.param("fig2", [*CI, ALL_KINDS, *TWO_OF_7], (1, 2, 3), id="all_kinds_7_4_3"),
    # three one-trial stacks on two workers: the caller finalizes geometry 1, which it never ran
    pytest.param("fig2", [*CI, "n_geometries=3", "n_trials=1"], (1, 2),
                 id="uneven_three_geometries"),
    # the one phase-noise set-up without a tau_c-symbol estimator context
    pytest.param("fig2", [*CI, *TWO_OF_7, "estimators=unaware"], (1, 2), id="unaware_alone"),
    # the both-ideal world draws its trials in ideal pieces of 6
    pytest.param("fig2", [*CI, *TWO_OF_7, "gamma_ap=0", "gamma_ue=0"], (1, 2),
                 id="both_ideal"),
    # two slots per pilot symbol share the tile buffers; the ICI base's Gram has P^2 = 4 rows
    pytest.param("fig2", [*CI, *TWO_OF_7, "pilot_subcarriers=0,5"], (1, 2),
                 id="two_pilot_columns"),
    pytest.param("fig2", [*CI, *TWO_OF_7, "block_subcarriers=11"], (1, 2),
                 id="partial_block_product_synthesis"),
    pytest.param("fig2", [*CI, *TWO_OF_7, "block_subcarriers=2"], (1, 2),
                 id="drift_spectrum_synthesis"),
    # one record per UE count; at K = 100 > L = 30 the MMSE-family solves are K-dimensional
    pytest.param("fig3", ["name=ci", *CI_FIG, ALL_SCHEMES, *TWO_OF_7], (1, 2),
                 id="fig3_support_dimension_mmse"),
    pytest.param("run", [*CI, *TWO_OF_7, *IDEAL], (1, 2), id="run_both_ideal"),
    pytest.param("run", [*CI, "estimators=pna_ofdm,pna_sc,unaware", "n_geometries=2",
                         "n_trials=10"], (1, 2), id="run_phase_noise"),
    pytest.param("run", ["name=ci", *SMALL, "shadow_sigma_db=0", "n_aps=6", "n_ues=3",
                         "estimators=pna_ofdm", "schemes=mr,mmse", "n_trials=8"], (1, 3),
                 id="run_one_geometry_three_workers"),
    pytest.param("run", [*SMALL, "n_aps=5", "n_ues=2", "n_trials=4"], (1, 2),
                 id="run_shadowed"),
]


def small_cfg(**kw):
    cfg = replace(
        ci_config(), n_aps=6, n_ues=3, n_geometries=2, n_trials=12,
        estimators=("pna_ofdm",), schemes=("mr", "mmse"),
    )
    return replace(cfg, **kw)


def all_invalid_finalize(acc, network):
    """finalize_sinr stand-in that marks every SINR record invalid."""
    return np.full(acc.gain.shape, np.nan)


def trace_bytes(layout):
    """Bytes of one trial's float64 phase walks, the unit of the stack budget."""
    return (layout.n_ues + layout.n_aps) * layout.block_symbols * layout.n_subcarriers * 8


def counting_runs(monkeypatch):
    """The names of the experiments harness.run_experiment runs from now on."""
    from cfofdm import harness

    calls = []
    real_run = harness.run_experiment

    def counting_run(*args, **kwargs):
        calls.append(args[0].name)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(harness, "run_experiment", counting_run)
    return calls


class ForkCalls:
    """Values appended by this process or by a worker process forked from
    it: each ``append`` writes one line to a file opened for appending (one
    write per line, so lines of several processes do not interleave), and
    ``list()`` reads them back in the order written."""

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def append(self, value):
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(repr(value) + "\n")

    def list(self):
        return [ast.literal_eval(line) for line in self.path.read_text().splitlines()]


def assert_no_child_left():
    """Every process this one forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_traces(monkeypatch, calls=None):
    """Whether each ``gen_pn_trace`` call of harness from now on is of an
    ideal world, in call order, appended to ``calls`` (a new list if None)."""
    from cfofdm import harness

    calls = [] if calls is None else calls
    real_trace = harness.gen_pn_trace

    def counting_trace(params, *args, **kwargs):
        calls.append(params.ideal)
        return real_trace(params, *args, **kwargs)

    monkeypatch.setattr(harness, "gen_pn_trace", counting_trace)
    return calls


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

    def test_removed_stride_key_rejected(self, tmp_path, capsys):
        """``cp_consistent_correlation`` and ``ici_mode``, the former switches
        of the kernel stride and of the estimator's model, are unknown keys:
        the estimator kind alone selects its model (``pna_ofdm`` or
        ``pna_ofdm_cp``), and ``sim run`` on a file that names an old key
        exits 1 and writes no CSV."""
        for key, value in (("cp_consistent_correlation", "true"),
                           ("ici_mode", "independent_data")):
            cfg_path = tmp_path / "stride.cfg"
            cfg_path.write_text("n_subcarriers = 120\nblock_symbols = 5\npilot_symbols = 1:4\n"
                                "n_aps = 5\nn_ues = 2\nn_geometries = 1\nn_trials = 1\n"
                                "%s = %s\n" % (key, value))
            assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 1
            assert "line 8: unknown key '%s'" % key in capsys.readouterr().err
            assert not (tmp_path / "o.csv").exists()

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

    @pytest.mark.parametrize("key", ["estimators", "schemes"])
    def test_empty_list_rejected(self, key):
        cfg = replace(ci_config(), **{key: ()})
        with pytest.raises(ConfigError, match="%s must list at least one entry" % key):
            cfg.validate()
        with pytest.raises(ConfigError, match=key):
            run_experiment(cfg)

    @pytest.mark.parametrize("key", ["estimators", "schemes"])
    def test_duplicate_entries_rejected(self, key):
        value = {"estimators": "pna_ofdm, unaware, pna_ofdm", "schemes": "mr, mr"}[key]
        with pytest.raises(ConfigError, match="%s lists an entry more than once" % key):
            parse_config("%s = %s" % (key, value))

    def test_key_given_twice_in_file_rejected(self, tmp_path, capsys):
        """A key set twice in one file is an error naming both lines, not the
        last value silently kept."""
        with pytest.raises(ConfigError, match="line 3: n_trials already set on line 1"):
            parse_config("n_trials = 10\nn_aps = 5\nn_trials = 20\n")
        cfg_path = tmp_path / "twice.cfg"
        cfg_path.write_text("n_subcarriers = 120\nblock_symbols = 5\npilot_symbols = 1:4\n"
                            "n_aps = 5\nn_ues = 2\nn_geometries = 1\nn_trials = 1\n"
                            "n_aps = 6\n")
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 1
        assert "line 8: n_aps already set on line 4" in capsys.readouterr().err

    def test_key_given_twice_in_overrides_rejected(self, capsys):
        """Two overrides of one key are an error; one override of a key that
        the file sets is not."""
        message = "override 2 (n_trials=5): n_trials already set by override 1"
        with pytest.raises(ConfigError, match=re.escape(message)):
            apply_overrides(ci_config(), ["n_trials=3", "n_trials=5"])
        assert cli_main(["fig2", "n_trials=3", "n_trials=5"]) == 1
        assert message in capsys.readouterr().err
        with pytest.raises(ConfigError, match=re.escape("override 1 (bogus=1): unknown key")):
            apply_overrides(ci_config(), ["bogus=1"])
        assert apply_overrides(parse_config("n_trials = 10"), ["n_trials=3"]).n_trials == 3

    def test_override_keeps_hash(self):
        """A '#' in an override is part of its value, not a comment as in a file."""
        with pytest.raises(ConfigError, match=re.escape("override 1 (n_trials=3#0): invalid")):
            apply_overrides(ci_config(), ["n_trials=3#0"])
        assert apply_overrides(ci_config(), ["name=run#1"]).name == "run#1"
        assert parse_config("name = run#1").name == "run"

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, entries, workers", THREAD_CASES)
    def test_thread_count_invariance(self, tmp_path, command, entries, workers):
        """``sim`` writes the same bytes on every worker count (every warning
        is an error, so a fork from a process with a second thread fails on
        Python 3.12 and later), and the no_pn rows of ``sim fig2``, which
        replay its phase-noise draws, are those of a both-ideal ``sim run``
        that draws them."""

        def sim(command, entries, threads):
            if command == "run":
                cfg = tmp_path / "case.cfg"
                cfg.write_text("\n".join(entries) + "\n")
                entries = [str(cfg)]
            out = tmp_path / "out.csv"
            argv = [command, *entries, "--threads", str(threads), "--out", str(out)]
            assert cli_main(argv) == 0
            return out.read_text()

        texts = [sim(command, entries, threads) for threads in workers]
        assert texts == [texts[0]] * len(workers)
        if command == "fig2":
            ideal = [o for o in entries if o.split("=")[0] not in ("estimators", "gamma_ap",
                                                                   "gamma_ue")]
            no_pn = [line.replace(",no_pn,", ",pna_ofdm,")
                     for line in texts[0].splitlines() if ",no_pn," in line]
            assert no_pn == sim("run", [*ideal, *IDEAL], 1).splitlines()[1:]

    def test_thread_cases_run_every_kind_and_scheme(self):
        """Every row of the thread-count table compares worker counts, and
        every estimator kind and combining scheme is named by a row, so none
        drops out of the table when one is added or renamed."""
        named = {"estimators": set(), "schemes": set()}
        for case in THREAD_CASES:
            _, entries, workers = case.values
            assert len(workers) > 1
            for entry in entries:
                key, value = entry.split("=")
                named.get(key, set()).update(value.split(","))
        assert named == {"estimators": set(estimation.ESTIMATOR_KINDS),
                         "schemes": set(SCHEMES)}

    def test_forks_once_per_run(self, monkeypatch):
        """A run of S trial stacks in all on T workers forks min(T, S) - 1
        worker processes once, whatever its geometry count, and ``run_fig2``
        twice that, one set per run; the records are those of a run in one
        process.  Three geometries of one trial on two workers fork one
        child, which runs geometry 1.  One thread or a platform without
        ``os.fork`` forks nothing."""
        from cfofdm import harness

        forks = []
        real_fork = os.fork

        def counting_fork():
            forks.append(None)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        for n_trials, threads, expected in ((12, 1, 0), (12, 2, 1), (12, 3, 2), (1, 2, 1)):
            cfg = small_cfg(n_geometries=3, n_trials=n_trials)
            assert harness.trial_stack_size(cfg.layout(), n_trials, threads) == (
                -(-n_trials // threads))
            sequential = records_to_csv(run_experiment(cfg))
            figure = records_to_csv(run_fig2(cfg))
            del forks[:]
            assert records_to_csv(run_experiment(cfg, threads=threads)) == sequential
            assert len(forks) == expected
            assert_no_child_left()
            del forks[:]
            assert records_to_csv(run_fig2(cfg, threads=threads)) == figure
            assert len(forks) == 2 * expected
            assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        cfg = small_cfg(n_geometries=3)
        assert records_to_csv(run_experiment(cfg, threads=2)) == records_to_csv(
            run_experiment(cfg))

    def test_child_stacks_merged_as_they_come(self, monkeypatch):
        """With two geometries of four trial stacks on two workers, the
        calling process unpickles a child's stack only once it has merged
        the one before: it never holds more than one unmerged child stack."""
        from cfofdm import harness

        held, most, loads = [], [], []
        real_loads, real_merge = pickle.loads, SinrAccumulator.merge

        def accumulators(obj):
            if isinstance(obj, SinrAccumulator):
                return [obj]
            if isinstance(obj, (tuple, list)):
                return [acc for item in obj for acc in accumulators(item)]
            return []

        def counting_loads(data, *args, **kwargs):
            out = real_loads(data, *args, **kwargs)
            loads.append(None)
            held.extend(accumulators(out))
            most.append(len(held))
            return out

        def merge(self, other, row=None):
            if any(other is acc for acc in held):
                held[:] = [acc for acc in held if acc is not other]
            return real_merge(self, other, row)

        cfg = small_cfg(n_geometries=2, n_trials=4)
        monkeypatch.setattr(harness, "_CHUNK_BYTES",
                            16 * cfg.block_symbols * cfg.n_ues * cfg.n_aps)
        assert harness.trial_stack_size(cfg.layout(), 4, 2) == 1
        sequential = records_to_csv(run_experiment(cfg))
        monkeypatch.setattr(pickle, "loads", counting_loads)
        monkeypatch.setattr(SinrAccumulator, "merge", merge)
        assert records_to_csv(run_experiment(cfg, threads=2)) == sequential
        assert len(loads) == 4 and max(most) == 1 and not held
        assert_no_child_left()

    def test_threads_below_one_rejected(self):
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads"):
                run_experiment(small_cfg(), threads=threads)

    def test_threads_above_cap_rejected_before_any_fork(self, monkeypatch):
        """run_experiment enforces the CLI's cap itself, before any worker
        exists; ``os.fork`` is replaced by one that fails if called, so no
        process starts."""
        from cfofdm import harness

        class ForkReached(Exception):
            pass

        def no_fork():
            raise ForkReached("fork")

        monkeypatch.setattr(os, "fork", no_fork)
        for threads in (harness.MAX_THREADS + 1, 10 ** 6):
            with pytest.raises(ValueError, match="threads"):
                run_experiment(small_cfg(), threads=threads)
        with pytest.raises(ForkReached):
            run_experiment(small_cfg(), threads=harness.MAX_THREADS)
        assert_no_child_left()

    def test_worker_log_records_handled_once_in_stack_order(self, monkeypatch):
        """A pinv fallback forced in a forked worker reaches a handler on the
        calling process's ``cfofdm.combining`` logger exactly once.  With one
        fallback in each of four trial stacks on two workers, the records
        arrive in stack order: from the calling process, its child, then
        each again."""
        from cfofdm import harness

        forks, records, failed = [], [], []
        real_fork, real_solve, real_trial = os.fork, np.linalg.solve, harness.run_trial
        parent = os.getpid()
        everywhere = False  # also fail in the calling process

        def fork():
            forks.append(real_fork())
            return forks[-1]

        def trial(*args, **kwargs):
            del failed[:]
            return real_trial(*args, **kwargs)

        def solve(a, b):
            # a stack's first stacked solve, then that solve's first system
            if len(failed) < 2 and (everywhere or os.getpid() != parent):
                failed.append(a.shape)
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        class Keep(logging.Handler):
            def emit(self, record):
                records.append(record)

        handler = Keep(level=logging.WARNING)
        logger = logging.getLogger("cfofdm.combining")
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(harness, "run_trial", trial)
        logger.addHandler(handler)
        try:
            run_experiment(small_cfg(n_geometries=1, n_trials=12), threads=2)
            assert len(forks) == 1 and len(records) == 1
            assert "using pseudo-inverse" in records[0].getMessage()
            assert records[0].process == forks[0]
            del forks[:], records[:]
            everywhere = True
            cfg = small_cfg(n_geometries=1, n_trials=4)
            monkeypatch.setattr(harness, "_CHUNK_BYTES",
                                16 * cfg.block_symbols * cfg.n_ues * cfg.n_aps)
            assert harness.trial_stack_size(cfg.layout(), 4, 2) == 1
            run_experiment(cfg, threads=2)
            assert [r.process for r in records] == [parent, forks[0]] * 2
        finally:
            logger.removeHandler(handler)
        assert_no_child_left()

    @pytest.mark.parametrize("case, geometry", [
        pytest.param(case, geometry, id=case + ("_on_geometry_1_of_2" if geometry else ""))
        for geometry in (0, 1)
        for case in ("child_raises", "child_exits", "parent_raises", "parent_interrupted")])
    def test_worker_failure_reaps_every_child(self, monkeypatch, case, geometry):
        """An exception in a forked worker raises in the calling process with
        its type and message; a worker that exits without its results raises
        RuntimeError naming the geometry and the exit status; an error or
        interrupt in the calling process kills the workers still running.
        Every child is reaped in each case.  The failure comes on the only
        geometry of a run, or on geometry 1 of 2, after every stack of
        geometry 0 went through."""
        from cfofdm import harness

        parent = os.getpid()
        real_trial, real_geometry = harness.run_trial, harness.build_geometry
        built = []  # the geometries this process built, in order

        def build(cfg, setup, geometry_index):
            built.append(geometry_index)
            return real_geometry(cfg, setup, geometry_index)

        def trial(*args, **kwargs):
            if built[-1] != geometry:
                return real_trial(*args, **kwargs)
            in_child = os.getpid() != parent
            if case == "child_raises" and in_child:
                raise ValueError("stack failed in a worker")
            if case == "child_exits" and in_child:
                os._exit(7)
            if case.startswith("parent") and in_child:
                time.sleep(60)
            if case == "parent_raises" and not in_child:
                raise ValueError("stack failed in the calling process")
            if case == "parent_interrupted" and not in_child:
                raise KeyboardInterrupt
            return real_trial(*args, **kwargs)

        expected = {
            "child_raises": (ValueError, "^stack failed in a worker$"),
            "child_exits": (RuntimeError, r"^geometry %d: worker process \d+ exited with "
                            r"status 7 before sending its results$" % geometry),
            "parent_raises": (ValueError, "^stack failed in the calling process$"),
            "parent_interrupted": (KeyboardInterrupt, None),
        }[case]
        monkeypatch.setattr(harness, "build_geometry", build)
        monkeypatch.setattr(harness, "run_trial", trial)
        t0 = time.monotonic()
        with pytest.raises(expected[0], match=expected[1]) as info:
            run_experiment(small_cfg(n_geometries=geometry + 1), threads=2)
        assert time.monotonic() - t0 < 30  # no sleeping worker was waited for
        assert type(info.value) is expected[0]
        if case == "child_raises":
            assert "in trial" in str(info.value.__cause__)  # the worker's traceback
        assert_no_child_left()

    def test_worker_runtime_error_exit_code(self, tmp_path, monkeypatch, capsys):
        """A RuntimeError in a forked worker ends ``sim`` with exit code 3 and
        its message, as in the calling process."""
        from cfofdm import harness

        parent = os.getpid()
        real_trial = harness.run_trial

        def trial(*args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("Monte Carlo underflow in a worker")
            return real_trial(*args, **kwargs)

        monkeypatch.setattr(harness, "run_trial", trial)
        out = tmp_path / "o.csv"
        assert cli_main(["fig2", *CI_FIG, "n_ues=5", "n_geometries=1", "n_trials=2",
                         "--threads", "2", "--out", str(out)]) == 3
        assert "runtime error: Monte Carlo underflow in a worker" in capsys.readouterr().err
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("n_trials", [7, 2], ids=["partial_last_stack", "under_one_stack"])
    def test_csv_invariant_to_threads_and_stack_size(self, monkeypatch, n_trials):
        """Byte-identical ``run_fig2`` CSVs, the phase-noise rows and the
        one-symbol no_pn rows, on 1 and 2 threads with synthesis pieces of 1
        and 3 phase-noise trials (ideal pieces of 2 and 6), on one geometry,
        whose standard error reads every trial batch; also in the worlds
        where only the UEs or only the APs have phase noise, whose ideal kind
        is held as (B, nodes, 1, 1) phases, and where both kinds are ideal,
        whose drawn run of 3 estimators has ideal pieces.  At 7 trials the
        trial stack is 7 on one thread and 4 on two, larger than a piece,
        whose last one is partial.  Each equals the drawn run followed by a
        standalone ideal run, which draws what ``run_fig2`` replays."""
        from cfofdm import harness

        base = replace(ci_config(), n_geometries=1, n_trials=n_trials,
                       estimators=("pna_ofdm", "pna_sc", "unaware"),
                       schemes=("mr", "lp_mmse", "p_mmse", "mmse"))
        layout = base.layout()
        assert [harness.trial_stack_size(layout, n_trials, t) for t in (1, 2)] == (
            [7, 4] if n_trials == 7 else [2, 1])
        setups = [harness.build_setup(c) for c in (base, replace(base, gamma_ap=0.0,
                                                                   gamma_ue=0.0))]
        for world in ({}, {"gamma_ap": 0.0}, {"gamma_ue": 0.0},
                      {"gamma_ap": 0.0, "gamma_ue": 0.0}):
            cfg = replace(base, **world)
            no_pn = replace(cfg, gamma_ap=0.0, gamma_ue=0.0, estimators=("pna_ofdm",))
            drawn = records_to_csv(run_experiment(cfg) + [replace(r, estimator="no_pn")
                                                          for r in run_experiment(no_pn)])
            texts = set()
            for stack, ideal_stack in ((1, 2), (3, 6)):
                monkeypatch.setattr(harness, "_STACK_BYTES", stack * trace_bytes(layout))
                assert [harness._piece_size(s) for s in setups] == [stack, ideal_stack]
                for threads in (1, 2):
                    texts.add(records_to_csv(run_fig2(cfg, threads=threads)))
            assert texts == {drawn}
            assert ",no_pn," in drawn

    def test_unaware_alone_under_phase_noise(self):
        """A run of one estimator alone under phase noise gives, byte for
        byte, that estimator's rows of the same run with every estimator, for
        every kind: unaware, whose one-symbol context is then the only one of
        the set-up, and the two PN-aware OFDM kinds, so that a pna_ofdm
        against pna_ofdm_cp comparison in one run is exact."""
        cfg = replace(ci_config(), n_geometries=1, n_trials=3,
                      schemes=("mr", "lp_mmse", "p_mmse", "mmse"))
        every = records_to_csv(run_experiment(replace(cfg, estimators=estimation.ESTIMATOR_KINDS)))
        for kind in estimation.ESTIMATOR_KINDS:
            alone = records_to_csv(run_experiment(replace(cfg, estimators=(kind,))))
            rows = [line for line in every.splitlines() if ",%s," % kind in line]
            assert len(rows) == 4 * (1 + 60)
            assert alone.splitlines()[1:] == rows

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


class TestAggregation:
    """Every CSV row, the block row included, is its entry [e, s, tau] of
    ``GeometryResult.se`` averaged over the geometries, with the standard error
    over the geometries or over the trial batches of a single geometry."""

    def assert_rows(self, cfg, per_geometry, spread):
        """Each record matches the fsum mean over ``per_geometry`` and the
        ddof=1 standard error over ``spread`` within 1e-14 relative."""
        n_block_rows = 0
        for line in records_to_csv(run_experiment(cfg)).splitlines()[1:]:
            f = line.split(",")
            at = cfg.estimators.index(f[2]), cfg.schemes.index(f[1]), int(f[6])
            values = [x[at] for x in per_geometry]
            mean = math.fsum(values) / len(values)
            spread_values = [x[at] for x in spread]
            spread_mean = math.fsum(spread_values) / len(spread_values)
            err = math.sqrt(math.fsum((v - spread_mean) ** 2 for v in spread_values)
                            / (len(spread_values) - 1) / len(spread_values))
            assert math.isclose(float(f[7]), mean, rel_tol=1e-14)
            assert math.isclose(float(f[9]), err, rel_tol=1e-14)
            n_block_rows += f[5] == "0"
        assert n_block_rows == len(cfg.estimators) * len(cfg.schemes)

    def test_spread_over_geometries(self):
        from cfofdm import harness

        cfg = replace(ci_config(), n_geometries=3, n_trials=4,
                      estimators=("pna_ofdm", "unaware"), schemes=("mr", "mmse"))
        setup = harness.build_setup(cfg)
        per_geometry = [run_one_geometry(cfg, setup, g).se for g in range(3)]
        assert per_geometry[0].shape == (2, 2, 1 + cfg.block_symbols)
        self.assert_rows(cfg, per_geometry, per_geometry)

    def test_spread_over_trial_batches(self):
        from cfofdm import harness

        cfg = replace(ci_config(), n_geometries=1, n_trials=16,
                      estimators=("pna_ofdm", "unaware"), schemes=("mr", "mmse"))
        geom = run_one_geometry(cfg, harness.build_setup(cfg), 0)
        assert geom.batch_se.shape == (8, 2, 2, 1 + cfg.block_symbols)
        self.assert_rows(cfg, [geom.se], geom.batch_se)


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
        pytest.param("run t.cfg --threads 65", 1, id="threads_above_cap"),
        pytest.param("validate --n 0", 1, id="zero_validate_n"),
        pytest.param("validate --n 1", 1, id="validate_n_1"),
        pytest.param("validate --n 4", 1, id="validate_n_below_floor"),
        pytest.param("validate --n 257", 1, id="validate_n_above_cap"),
        pytest.param("validate --n 2048", 1, id="validate_n_2048"),
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
        "n_subcarriers = 8\npilot_subcarriers = 10", "cp_len = -2",
        "n_subcarriers = 8\nblock_subcarriers = 12", "pilot_symbols = 1, 5:3",
        "ap_height_m = -10",
    ])
    def test_out_of_range_value_exit_code(self, tmp_path, capsys, entry):
        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text(
            "n_subcarriers = 120\nblock_symbols = 5\npilot_symbols = 1:4\n"
            "n_aps = 5\nn_ues = 2\nn_geometries = 1\nn_trials = 1\n%s\n" % entry
        )
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_value_exit_code(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text(
            "n_subcarriers = 120\nblock_symbols = 5\npilot_symbols = 1:4\n"
            "n_aps = 5\nn_ues = 2\nn_geometries = 1\nn_trials = 1\n%s = %s\n" % (key, value)
        )
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 1
        assert "config error: %s must be finite" % key in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "", "a\nb", "a\rb"])
    def test_name_that_breaks_csv_rows_rejected(self, tmp_path, capsys, name):
        """The name is the first CSV field: a comma, quote or line break, or no
        name, would corrupt every row. Nothing runs and no file is written."""
        out = tmp_path / "o.csv"
        argv = ["fig2", "name=" + name, *CI_FIG, "n_ues=5", "n_geometries=1", "n_trials=2",
                "--seed", "0", "--out", str(out)]
        assert cli_main(argv) == 1
        assert "config error: name" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_rejected_before_running(self, tmp_path, monkeypatch, capsys):
        """An --out under a missing directory, or naming a directory, is a config
        error before anything runs; an existing file is not truncated first."""
        from cfofdm import cli

        calls = counting_runs(monkeypatch)
        fig2 = ["fig2", "name=ci", *CI_FIG, "n_ues=5", "n_geometries=2", "n_trials=5",
                "--seed", "0"]
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            assert cli_main([*fig2, "--out", str(out)]) == 1
            assert "config error: --out" in capsys.readouterr().err
        assert calls == []
        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text("n_aps = 4\nn_ues = 2\n")
        missing = str(tmp_path / "missing" / "geo.csv")
        assert cli_main(["dump-geometry", str(cfg_path), "--out", missing]) == 1
        assert "config error: --out" in capsys.readouterr().err
        # a failure of the write itself is reported the same way
        monkeypatch.setattr(cli, "_check_out", lambda out_path: None)
        assert cli_main(["dump-geometry", str(cfg_path), "--out", missing]) == 1
        assert "config error: cannot write" in capsys.readouterr().err
        kept = tmp_path / "kept.csv"
        kept.write_text("old\n")
        assert cli_main(["fig2", "name=a,b", *CI_FIG, "n_ues=5", "--out", str(kept)]) == 1
        assert "config error: name" in capsys.readouterr().err
        assert kept.read_text() == "old\n"
        assert calls == []

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

    def test_greedy_pilots_within_slot_budget_exit_code(self, tmp_path):
        """K = n_aps * tau_p passes validation, so it runs: greedy pilots leave
        every UE an (AP, pilot) slot of its own."""
        argv = ["fig2", "n_subcarriers=120", "block_symbols=5", "pilot_symbols=1:4",
                "shadow_sigma_db=0", "n_aps=10", "n_ues=40", "pilot_policy=greedy",
                "n_geometries=3", "n_trials=2", "--seed", "1", "--out", str(tmp_path / "o.csv")]
        assert cli_main(argv) == 0

    def test_validate_exit_code(self):
        assert cli_main(["validate"]) == 0

    def test_validation_failure_exit_code(self, monkeypatch):
        from cfofdm import validate

        monkeypatch.setattr(validate, "lmmse_moments",
                            lambda cfg: [validate.Check("lmmse_moments", False, "injected")])
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
        calls = counting_runs(monkeypatch)
        ci_but_aps = [o for o in CI_FIG if not o.startswith("n_aps=")]
        argv = ["fig3", *ci_but_aps, "n_aps=8", "n_geometries=1", "n_trials=1"]
        assert cli_main(argv) == 1
        assert calls == []
        assert "serving capacity" in capsys.readouterr().err

    def test_fig3_short_coherence_block(self, tmp_path, monkeypatch, capsys):
        """N_c * tau_c = 48 channel uses never reach channel use 60: nothing runs."""
        calls = counting_runs(monkeypatch)
        out = tmp_path / "o.csv"
        argv = ["fig3", "name=ci", "n_subcarriers=120", "block_symbols=4", "pilot_symbols=1:3",
                "n_aps=40", "shadow_sigma_db=0", "n_geometries=1", "n_trials=1",
                "--seed", "0", "--out", str(out)]
        assert cli_main(argv) == 1
        assert calls == []
        assert "channel use 60" in capsys.readouterr().err
        assert not out.exists()

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

    def test_run_loads_no_numpy_ma(self, tmp_path):
        """A run imports no numpy.ma that ``import cfofdm.cli`` had not loaded:
        on numpy 2.4 a plain ``np.unique(x)`` imports it (5 ms and about 1 MB
        per run).  Comparing before and after the run keeps the test valid on a
        numpy that loads numpy.ma eagerly."""
        import cfofdm

        cfg_path = tmp_path / "ci.cfg"
        cfg_path.write_text(
            "n_subcarriers = 120\nblock_symbols = 5\npilot_symbols = 1:4\n"
            "n_aps = 30\nn_ues = 5\nshadow_sigma_db = 0\n"
            "estimators = unaware, pna_sc, pna_ofdm\nschemes = mr, lp_mmse, p_mmse, mmse\n"
            "n_geometries = 1\nn_trials = 2\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cfofdm.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, cfofdm.cli; before = 'numpy.ma' in sys.modules; "
                "rc = cfofdm.cli.main(['run', sys.argv[1], '--out', sys.argv[2]]); "
                "print(rc, before, 'numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, str(cfg_path), str(tmp_path / "o.csv")],
                              env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                              text=True, timeout=120)
        rc, before, after = proc.stdout.split()
        assert rc == "0", proc.stderr
        assert after == before, "the run imported numpy.ma"


class TestValidateSuite:
    def test_detects_injected_kernel_bug(self, monkeypatch):
        """A stride-off-by-one lag spectrum in the evaluator the kernel checks
        call must fail the oracle-equivalence check."""
        from cfofdm import validate as val
        from cfofdm.phase_noise import KernelParams, lag_spectra

        def broken_lag_spectra(params, lags, lag_weight=None):
            shifted = KernelParams(params.n, params.sigma2_tot, params.stride + 1)
            return lag_spectra(shifted, lags, lag_weight)

        monkeypatch.setattr(val, "lag_spectra", broken_lag_spectra)
        assert not val.kernel_oracle(32).ok

    def test_detects_synthesis_fault(self, monkeypatch, capsys):
        """Pilot observations of the synthesis off by 1e-6 relative fail the
        domain check at both of its sizes, and only it: ``sim validate`` exits 2."""
        from cfofdm import ofdm

        real = ofdm.synth_pilot_observations

        def off(*args, **kwargs):
            y, cpe = real(*args, **kwargs)
            return y * (1.0 + 1e-6), cpe

        monkeypatch.setattr(ofdm, "synth_pilot_observations", off)
        assert cli_main(["validate", "--n", "5"]) == 2
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("PASS ")]
        assert len(failed) == 2
        assert all(line.startswith("FAIL domain_equivalence: ") for line in failed)

    def test_checks_run(self, monkeypatch):
        """``run_validation`` runs every check, in this order, at each of the
        sizes of the CI step (at 5 and 64 the two kernel-oracle sizes
        coincide); a check dropped from it fails here, not silently."""
        from cfofdm import validate

        def named(name):
            return lambda *args: validate.Check(name, True, "")

        for fn, name in [("kernel_oracle", "kernel_oracle_equivalence"),
                         ("parseval", "parseval"), ("trace_sum", "kernel_trace_sum"),
                         ("mc_kernel", "mc_kernel_consistency"),
                         ("domain_equivalence", "domain_equivalence"),
                         ("no_pn_reduction", "no_pn_reduction")]:
            monkeypatch.setattr(validate, fn, named(name))
        monkeypatch.setattr(validate, "lmmse_moments",
                            lambda cfg: [validate.Check("lmmse_moments", True, "")])
        tail = ["parseval", "kernel_trace_sum", "mc_kernel_consistency",
                "domain_equivalence", "domain_equivalence", "no_pn_reduction", "lmmse_moments"]
        for n, oracles in ((5, 1), (64, 1), (256, 2)):
            ok, lines = validate.run_validation(n)
            assert ok
            assert [line.split(":")[0] for line in lines] == (
                ["PASS kernel_oracle_equivalence"] * oracles + ["PASS " + c for c in tail])

    def test_moments_read_what_observe_returns(self, monkeypatch):
        """``lmmse_moments`` reads the observations and effective channels of
        ``harness.observe``, the function every run's trials go through: at
        ``sim validate``'s size the check passes, and with ``observe``'s
        h_eff scaled by 1.1 at the name the check calls it fails."""
        from cfofdm import harness, validate

        cfg = replace(ci_config(), n_aps=3, n_ues=2, n_trials=3000,
                      estimators=("pna_ofdm_cp",))
        (check,) = validate.lmmse_moments(cfg)
        assert check.ok, check.detail

        def faulty(*args, **kwargs):
            y, h_eff = harness.observe(*args, **kwargs)
            return y, 1.1 * h_eff

        monkeypatch.setattr(validate, "observe", faulty)
        (check,) = validate.lmmse_moments(cfg)
        assert not check.ok, check.detail

    def test_moments_score_every_model_on_one_synthesis(self, monkeypatch):
        """At ``sim validate``'s size, a former model added to the set-up gets
        its own verdict from the same trial stacks: the pna_ofdm_cp verdict
        reads as without it, and ``observe`` runs once per trial stack either
        way, not once per model."""
        from cfofdm import harness, validate

        cfg = replace(ci_config(), n_aps=3, n_ues=2, n_trials=3000,
                      estimators=("pna_ofdm_cp",))
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return harness.observe(*args, **kwargs)

        monkeypatch.setattr(validate, "observe", counting)
        (alone,) = validate.lmmse_moments(cfg)
        stacks = len(calls)
        assert stacks == -(-cfg.n_trials // harness.trial_stack_size(cfg.layout(), cfg.n_trials))
        former_models.add_to_setup(monkeypatch, former_models.stride_n)
        pna, stride_n = validate.lmmse_moments(cfg)
        assert pna.detail == alone.detail
        assert stride_n.detail != alone.detail
        assert len(calls) == 2 * stacks

    def test_moments_of_one_symbol_and_every_symbol_models(self):
        """A set-up that mixes the one-symbol unaware model with the tau_c-
        symbol pna_ofdm_cp one is scored, the unaware estimate standing for
        every symbol: unaware fails and pna_ofdm_cp passes, with the detail
        lines both gave when every model covered tau_c symbols."""
        from cfofdm import validate

        cfg = replace(ci_config(), n_aps=3, n_ues=2, n_trials=300,
                      estimators=("unaware", "pna_ofdm_cp"))
        checks = validate.lmmse_moments(cfg)
        assert [c.ok for c in checks] == [False, True]
        assert [c.detail for c in checks] == [
            "orthogonality %s, variance decomposition %s, E|h_hat|^2 vs eps %s standard "
            "errors over 300 trials and 5 symbols (tol 3)" % z
            for z in (("7.90", "6.85", "5.99"), ("1.93", "0.69", "1.34"))]

    def test_clean_run_passes(self):
        from cfofdm.validate import domain_equivalence, kernel_oracle, trace_sum

        assert kernel_oracle(32).ok
        assert trace_sum(32).ok
        assert domain_equivalence(5, 5, 0).ok  # two whole coherence blocks and a partial one


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

        def finalize_one_negative(acc, network):
            calls.append(acc)
            if len(calls) == 1:  # pair (0, 0), symbol 1, UE 0 of the first accumulator
                acc = copy.deepcopy(acc)
                acc.ici[0, 0, 0, 0] -= 1e6 * acc.count
            return real_finalize(acc, network)

        monkeypatch.setattr(se, "finalize_sinr", finalize_one_negative)
        geom = run_one_geometry(cfg, harness.build_setup(cfg), 0)
        assert geom.n_invalid == 1
        assert np.isfinite(geom.se).all()
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

        def finalize_tau1_invalid(acc, network):
            first[:] = first or [acc]
            sinr = real_finalize(acc, network)
            if acc is first[0]:
                sinr[0, 0, 0] = np.nan  # pair (0, 0) at symbol 1, first geometry
            return sinr

        monkeypatch.setattr(se, "finalize_sinr", finalize_tau1_invalid)
        with pytest.raises(RuntimeError, match="no valid SINR record"):
            run_experiment(cfg)


class TestStackedTrial:
    @pytest.mark.parametrize("world", [
        # every estimator and scheme; K = tau_c = 5
        pytest.param(dict(schemes=("mr", "lp_mmse", "p_mmse", "mmse"),
                          estimators=("pna_ofdm", "pna_sc", "unaware")), id="ci"),
        # K, L, tau_c, E and S all differ, so a swapped axis changes a shape
        pytest.param(dict(n_ues=5, n_aps=7, block_symbols=4, pilot_symbols=(1, 2, 3),
                          schemes=("p_mmse", "mr", "lp_mmse"),
                          estimators=("unaware", "pna_ofdm")), id="distinct_sizes"),
        # ideal oscillators: the trial path runs one symbol, the oracle every one
        pytest.param(dict(gamma_ap=0.0, gamma_ue=0.0, schemes=("mr", "lp_mmse", "p_mmse", "mmse"),
                          estimators=("pna_ofdm", "pna_sc", "unaware")), id="ideal"),
        # one ideal node kind: the trial path holds its (B, nodes, 1, 1) phases
        pytest.param(dict(gamma_ap=0.0, schemes=("mr", "lp_mmse", "p_mmse", "mmse"),
                          estimators=("pna_ofdm", "pna_sc", "unaware")), id="ue_only_pn"),
        pytest.param(dict(gamma_ue=0.0, schemes=("mr", "lp_mmse", "p_mmse", "mmse"),
                          estimators=("pna_ofdm", "pna_sc", "unaware")), id="ap_only_pn"),
    ])
    def test_run_trial_matches_per_symbol_loop(self, world):
        """One trial's accumulators equal those of the per-symbol combine-and-
        accumulate loop on the same draws, and every per-symbol array of the
        trial path is (..., T, K, L), every result (E, S, ...).  T is tau_c,
        or 1 with ideal oscillators, where the oracle still runs every symbol,
        every symbol's sums are equal, and the one symbol stands for them.
        An estimator's context, estimates and combiners cover its own T_est
        symbols: 1 for unaware, whose one symbol the oracle broadcasts into
        every symbol as in an ideal world.  Where both MMSE variants run, a
        group whose partial set is every UE has rows in both, each checked
        against the oracle's own solve."""
        from cfofdm import combining, se
        from cfofdm.harness import build_geometry, build_setup, derived_rng, run_trial
        from cfofdm.network import gen_channel
        from cfofdm.ofdm import build_transmit_grids
        from cfofdm.phase_noise import gen_pn_trace

        from combining_oracle import add_symbol_at, combiner_matrix_at
        from pilot_oracle import synth_one

        cfg = replace(ci_config(), shadow_sigma_db=4.0, n_geometries=1, n_trials=2, **world)
        setup = build_setup(cfg)
        geom = build_geometry(cfg, setup, 0)
        layout, network, lam = setup.layout, geom.network, geom.lam
        assert len({row.tobytes() for row in network.D}) >= 2
        E, S, T, K, L = (len(cfg.estimators), len(cfg.schemes), layout.block_symbols,
                         layout.n_ues, layout.n_aps)
        ideal = cfg.gamma_ap == cfg.gamma_ue == 0.0
        T_out = 1 if ideal else T
        T_est = [1 if ideal or kind == "unaware" else T for kind in cfg.estimators]
        assert [ctx.err_var.shape for ctx in geom.contexts] == [(t, K, L) for t in T_est]
        if {"p_mmse", "mmse"} <= set(cfg.schemes):
            assert any(len(g.partial) == K for g in network.groups)
        rng = derived_rng(cfg.master_seed, 1, 0, 0)
        out = run_trial(cfg, setup, geom, [copy.deepcopy(rng)])

        h = gen_channel(network.beta, layout, rng)
        trace = gen_pn_trace(setup.pn, layout, rng)
        grids = build_transmit_grids(layout, network.pilot_index, rng)
        y, cpe = synth_one(h, grids, trace, network, layout, rng)
        assert cpe.shape == (T, K, L)
        h_eff = cpe * h[:, :, 0]
        for e, ctx in enumerate(geom.contexts):
            h_hat = estimation.estimate_all(ctx, y)
            assert h_hat.shape == ctx.eps.shape == (T_est[e], K, L)
            v_all = combining.combiner_matrix(cfg.schemes[0], h_hat, ctx.err_var, network)
            assert v_all.shape == (T_est[e], K, L)
            # the oracle runs every symbol of the block, where the one symbol of
            # a one-symbol context stands for each
            h_hat, err_var = (np.broadcast_to(a, (T, K, L)) for a in (h_hat, ctx.err_var))
            for s, scheme in enumerate(cfg.schemes):
                # the oracles take (K, L, tau_c) estimates and (rows, K, tau_c) sums
                ref = se.SinrAccumulator((1, K, T))
                for tau in range(1, T + 1):
                    v = combiner_matrix_at(scheme, h_hat.transpose(1, 2, 0),
                                           err_var.transpose(1, 2, 0), network, tau)
                    add_symbol_at(ref, 0, tau, v, h_eff[tau - 1], lam, network)
                for name in ("gain", "received", "ici", "vnorm"):
                    expect = getattr(ref, name)[0].T  # (tau_c, K)
                    if ideal:
                        assert np.array_equal(expect, np.broadcast_to(expect[:1], expect.shape))
                    assert getattr(out, name).shape == (1, E, S, T_out, K)
                    np.testing.assert_allclose(
                        np.broadcast_to(getattr(out, name)[0, e, s], expect.shape),
                        expect, rtol=1e-12, atol=0)
        assert out.count == 1
        result = run_one_geometry(cfg, setup, 0)
        assert result.se.shape == (E, S, 1 + T)
        assert result.batch_se.shape == (2, E, S, 1 + T)
        if ideal:  # every symbol reads the one symbol's sums
            per_tau = result.se[..., 1:]
            assert np.array_equal(per_tau, np.broadcast_to(per_tau[..., :1], per_tau.shape))


class TestTrialStack:
    @pytest.mark.parametrize("pn", [True, False], ids=["pn", "no_pn"])
    @pytest.mark.parametrize("stack", [1, 2, 3, 7])
    def test_stack_matches_trials_alone(self, stack, pn):
        """Each trial of a stack has, bit for bit, the four sums of its stack
        of one, on the ci world with every estimator and scheme: a stack of
        up to one synthesis piece, or of 7, synthesized in pieces of 3, 3 and
        1 with phase noise and of 6 and 1 without."""
        from cfofdm.combining import SCHEMES
        from cfofdm.harness import _piece_size, build_geometry, build_setup, run_trial, trial_rngs

        cfg = replace(ci_config(), schemes=SCHEMES,
                      estimators=("pna_ofdm", "pna_sc", "unaware"))
        if not pn:
            cfg = replace(cfg, gamma_ap=0.0, gamma_ue=0.0)
        setup = build_setup(cfg)
        geom = build_geometry(cfg, setup, 0)
        layout = setup.layout
        assert _piece_size(setup) == (3 if pn else 6)
        acc = run_trial(cfg, setup, geom, trial_rngs(cfg.master_seed, 0, range(stack)))
        assert acc.gain.shape == (stack, 3, 4, layout.block_symbols if pn else 1, layout.n_ues)
        for b in range(stack):
            alone = run_trial(cfg, setup, geom, trial_rngs(cfg.master_seed, 0, range(b, b + 1)))
            for name in ("gain", "received", "ici", "vnorm"):
                assert np.array_equal(getattr(acc, name)[b], getattr(alone, name)[0])

    def test_stack_with_one_ap_sub_tiles_matches_trials_alone(self):
        """At 28 ci trials a stack's ICI sub-tile is one AP, where numpy would
        sum the UE axis pairwise; each trial still has, bit for bit, the four
        sums of its stack of one."""
        from cfofdm import ofdm
        from cfofdm.combining import SCHEMES
        from cfofdm.harness import build_geometry, build_setup, run_trial, trial_rngs

        cfg = replace(ci_config(), schemes=SCHEMES,
                      estimators=("pna_ofdm", "pna_sc", "unaware"))
        setup = build_setup(cfg)
        geom = build_geometry(cfg, setup, 0)
        layout = setup.layout
        B = 28
        assert ofdm._TILE_BYTES // (16 * B * layout.n_ues * layout.n_subcarriers) == 1
        acc = run_trial(cfg, setup, geom, trial_rngs(cfg.master_seed, 0, range(B)))
        for b in range(B):
            alone = run_trial(cfg, setup, geom, trial_rngs(cfg.master_seed, 0, range(b, b + 1)))
            for name in ("gain", "received", "ici", "vnorm"):
                assert np.array_equal(getattr(acc, name)[b], getattr(alone, name)[0])


class TestReplay:
    WORLDS = [pytest.param({}, id="pn"), pytest.param({"gamma_ap": 0.0}, id="ue_pn"),
              pytest.param({"gamma_ue": 0.0}, id="ap_pn")]

    @pytest.mark.parametrize("world", WORLDS)
    @pytest.mark.parametrize("stack", [1, 3])
    def test_replayed_stack_ends_where_drawn_stack_ends(self, monkeypatch, world, stack):
        """A recorded ideal stack replays, drawing no trace, and gives the
        drawn stack's y and h_eff, and leaves every trial generator where the
        drawn stack leaves it."""
        from cfofdm.harness import build_geometry, build_setup, observe, trial_rngs

        cfg = replace(ci_config(), n_geometries=1, n_trials=2 + stack, **world)
        ideal = replace(cfg, gamma_ap=0.0, gamma_ue=0.0)
        setup, ideal_setup = build_setup(cfg), build_setup(ideal)
        network = build_geometry(cfg, setup, 0).network
        trials, record = range(2, 2 + stack), {}
        observe(replace(setup, draws=record), network, trial_rngs(cfg.master_seed, 0, trials))
        drawn_rngs = trial_rngs(cfg.master_seed, 0, trials)
        y, h_eff = observe(ideal_setup, network, drawn_rngs)
        traces = counting_traces(monkeypatch)
        replayed_rngs = trial_rngs(cfg.master_seed, 0, trials)
        y_r, h_eff_r = observe(replace(ideal_setup, draws=record), network, replayed_rngs)
        assert traces == []
        assert np.array_equal(y_r, y) and np.array_equal(h_eff_r, h_eff)
        for a, b in zip(replayed_rngs, drawn_rngs):
            assert a.bit_generator.state == b.bit_generator.state
            assert np.array_equal(a.standard_normal(8), b.standard_normal(8))

    def test_noise_drawn_at_the_record_point(self):
        """A drawn phase-noise piece records each generator's state after its
        channel, trace and grids, and its y is the noise-free synthesis of
        those draws plus, bit for bit, the noise drawn from the recorded
        state: the synthesis draws and adds no noise of its own.  Each entry
        is keyed by the trial's seed and spawn key and holds its initial
        phases, AP then UE."""
        from cfofdm.harness import _piece_size, build_geometry, build_setup, observe, trial_rngs
        from cfofdm.network import gen_channel
        from cfofdm.ofdm import build_transmit_grids, synth_pilot_observations
        from cfofdm.phase_noise import PhaseNoiseTrace, gen_pn_trace

        from pilot_oracle import receiver_noise

        cfg = replace(ci_config(), n_geometries=1, n_trials=3)
        setup = build_setup(cfg)
        network = build_geometry(cfg, setup, 0).network
        layout, B = setup.layout, _piece_size(setup)
        assert B == cfg.n_trials  # one piece
        record = {}
        rngs = trial_rngs(cfg.master_seed, 0, range(B))
        copies = copy.deepcopy(rngs)
        y, _ = observe(replace(setup, draws=record), network, rngs)
        keys = [(cfg.master_seed, (1, 0, b)) for b in range(B)]
        assert list(record) == keys
        trials = [(gen_channel(network.beta, layout, r), gen_pn_trace(setup.pn, layout, r),
                   build_transmit_grids(layout, network.pilot_index, r)) for r in copies]
        trace = PhaseNoiseTrace(np.stack([t.ap_phase for _, t, _ in trials]),
                                np.stack([t.ue_phase for _, t, _ in trials]))
        clean, _ = synth_pilot_observations(np.stack([h for h, _, _ in trials]),
                                            np.stack([g for _, _, g in trials]), trace,
                                            network, layout)
        for b, r in enumerate(copies):
            phases, state = record[keys[b]]
            assert np.array_equal(phases, np.concatenate((trace.ap_phase[b, :, 0, 0],
                                                          trace.ue_phase[b, :, 0, 0])))
            assert r.bit_generator.state == state
            r.bit_generator.state = state
            assert np.array_equal(y[b], clean[b] + receiver_noise(network, y.shape[1:], r))
            assert r.bit_generator.state == rngs[b].bit_generator.state

    def test_foreign_seed_record_draws(self, monkeypatch):
        """A record made under another master seed holds none of the ideal
        run's trials: the run draws every trace, its CSV is byte for byte that
        of a drawn run, and it records its own trials beside the others."""
        cfg = replace(ci_config(), n_geometries=1, n_trials=4, master_seed=1)
        ideal = replace(cfg, master_seed=2, gamma_ap=0.0, gamma_ue=0.0,
                        estimators=("pna_ofdm",))
        record = {}
        run_experiment(cfg, draws=record)
        drawn = records_to_csv(run_experiment(ideal))
        traces = counting_traces(monkeypatch)
        assert records_to_csv(run_experiment(ideal, draws=record)) == drawn
        assert traces == [True] * 4
        assert sorted(record) == [(seed, (1, 0, t)) for seed in (1, 2) for t in range(4)]

    def test_unrecorded_ideal_stack_draws(self, monkeypatch):
        """An ideal stack whose rows are not all recorded draws, bit for bit
        as a stack without a record does, y, h_eff and end states, and
        records what it draws; the stack then replays to the same."""
        from cfofdm.harness import build_geometry, build_setup, observe, trial_rngs

        cfg = replace(ci_config(), n_geometries=1, n_trials=4, gamma_ap=0.0, gamma_ue=0.0)
        setup = build_setup(cfg)
        network = build_geometry(cfg, setup, 0).network
        record = {}

        def run(draws):
            rngs = trial_rngs(cfg.master_seed, 0, range(4))
            y, h_eff = observe(replace(setup, draws=draws), network, rngs)
            return y, h_eff, [rng.bit_generator.state for rng in rngs]

        observe(replace(setup, draws=record), network,
                trial_rngs(cfg.master_seed, 0, range(1)))  # trial 0 alone is recorded
        traces = counting_traces(monkeypatch)
        drawn = run(None)
        partly = run(record)
        assert traces == [True] * 8
        assert len(record) == 4
        replayed = run(record)
        assert len(traces) == 8
        for y, h_eff, states in (partly, replayed):
            assert np.array_equal(y, drawn[0]) and np.array_equal(h_eff, drawn[1])
            assert states == drawn[2]

    @pytest.mark.parametrize("world", WORLDS + [
        pytest.param({"gamma_ap": 0.0, "gamma_ue": 0.0}, id="ideal")])
    def test_no_pn_half_draws_no_trace(self, monkeypatch, tmp_path, world):
        """``run_fig2``'s ideal run replays every trial of its first run: it
        draws no trace, whether the first run has phase noise or is itself
        ideal and records as it draws.  The first run's forked workers send
        their entries back, so the ideal run starts with every trial recorded.
        A fallback to drawing would give the same CSV, only slower.  The
        traces are counted in every worker process."""
        from cfofdm import harness

        traces = counting_traces(monkeypatch, ForkCalls(tmp_path / "traces"))
        starts, recorded = [], []
        real_run = harness.run_experiment

        def run(*args, draws=None, **kwargs):
            starts.append(len(traces.list()))
            recorded.append(len(draws))
            return real_run(*args, draws=draws, **kwargs)

        monkeypatch.setattr(harness, "run_experiment", run)
        cfg = replace(ci_config(), n_geometries=2, n_trials=7,
                      schemes=("mr", "lp_mmse", "p_mmse", "mmse"), **world)
        run_fig2(cfg, threads=2)
        ideal = cfg.pn_params().ideal
        traces = traces.list()
        assert starts[0] == 0 and traces[:starts[1]] == [ideal] * 14
        assert traces[starts[1]:] == []
        assert recorded == [0, 14]

    def test_worker_messages_carry_their_stacks_entries(self, monkeypatch):
        """On two workers, each message of the forked child carries the
        record entries of its own stack's trials alone, in trial order, not
        those of its earlier stacks; the ideal run, which records nothing,
        sends none."""
        from types import SimpleNamespace

        from cfofdm import harness

        carried, stacks = [], []

        def loads(data):
            message = pickle.loads(data)
            carried.append([key for key, _ in message[1]])
            return message

        real_receive = harness._Workers.receive

        def receive(self, w, geometry_index, t0):
            trials = range(t0, min(t0 + self.stack, self.cfg.n_trials))
            stacks.append([(self.cfg.master_seed, (1, geometry_index, t)) for t in trials])
            return real_receive(self, w, geometry_index, t0)

        monkeypatch.setattr(harness, "pickle", SimpleNamespace(
            dumps=pickle.dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL, loads=loads))
        monkeypatch.setattr(harness._Workers, "receive", receive)
        cfg = replace(ci_config(), n_geometries=2, n_trials=7)
        run_fig2(cfg, threads=2)
        # stacks of 4 and 3 trials; the child runs the second stack of each geometry
        assert stacks[:2] == [[(cfg.master_seed, (1, g, t)) for t in range(4, 7)]
                              for g in (0, 1)]
        assert carried == stacks[:2] + [[], []]


class TestSynthesisPieces:
    WORLDS = TestReplay.WORLDS + [pytest.param({"gamma_ap": 0.0, "gamma_ue": 0.0}, id="ideal")]

    def test_trial_stack_sizes(self):
        """A ci geometry of 30 trials goes in two stacks of 15 on one or two
        threads, in both oscillator worlds, and a fig2 one in stacks of one;
        a stack holds at most the combiner budget's trials and at most an
        even spread over the threads, and its synthesis pieces stay 3 trials
        with phase noise and 6 ideal ones at ci, 1 and 1 at fig2."""
        from cfofdm import harness
        from cfofdm.harness import _piece_size, build_setup, trial_stack_size

        ci, fig2 = ci_config().layout(), fig2_config().layout()
        assert [trial_stack_size(ci, 30, t) for t in (1, 2)] == [15, 15]
        assert [trial_stack_size(fig2, n, t) for n in (1, 200) for t in (1, 2)] == [1] * 4
        for cfg, pieces in ((ci_config(), (3, 6)), (fig2_config(), (1, 1))):
            ideal = replace(cfg, gamma_ap=0.0, gamma_ue=0.0)
            assert tuple(_piece_size(build_setup(c)) for c in (cfg, ideal)) == pieces
        most = harness._CHUNK_BYTES // (16 * ci.block_symbols * ci.n_ues * ci.n_aps)
        for n_trials in range(1, 100):
            for threads in (1, 2, 3):
                size = trial_stack_size(ci, n_trials, threads)
                assert 1 <= size <= min(most, -(-n_trials // threads))
                # no thread gets a stack more than another
                stacks = -(-n_trials // size)
                assert -(-stacks // threads) == -(-n_trials // (threads * most))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_geometry_stacks(self, monkeypatch, tmp_path, threads):
        """``run_fig2`` on a ci geometry of 30 trials runs two trial stacks of
        15 in each world, whose pieces synthesize 3 drawn or at most 6
        replayed trials; the calls are counted in every worker process."""
        from cfofdm import harness, ofdm

        stacks, pieces = ForkCalls(tmp_path / "stacks"), ForkCalls(tmp_path / "pieces")
        real_trial, real_synth = harness.run_trial, ofdm.synth_pilot_observations

        def counted_trial(cfg, setup, geom, rngs):
            stacks.append((geom.contexts[0].eps.shape[0], len(rngs)))
            return real_trial(cfg, setup, geom, rngs)

        def counted_synth(h, *args, **kwargs):
            pieces.append(len(h))
            return real_synth(h, *args, **kwargs)

        monkeypatch.setattr(harness, "run_trial", counted_trial)
        monkeypatch.setattr(ofdm, "synth_pilot_observations", counted_synth)
        cfg = replace(ci_config(), n_geometries=1, n_trials=30)
        run_fig2(cfg, threads=threads)
        T = cfg.block_symbols
        stacks, pieces = stacks.list(), pieces.list()
        assert sorted(stacks) == [(1, 15), (1, 15), (T, 15), (T, 15)]
        # drawn: 5 pieces of 3 per stack; replayed: pieces of 6, 6 and 3
        assert sorted(pieces) == [3] * 12 + [6] * 4

    @pytest.mark.parametrize("world", WORLDS)
    def test_stack_matches_its_pieces(self, monkeypatch, world):
        """Observing a stack of 7 trials gives, bit for bit, the y and h_eff
        of observing its pieces one call each (3, 3 and 1 trials, or 6 and 1
        where only ideal oscillators or the UEs' walks are held), leaves
        every generator where the pieces leave it, and records the same
        draws; replaying the record, as a stack or in pieces of 6 and 1,
        draws no trace and gives the replayed pieces' y, h_eff and end
        states, and those of drawing the ideal stack."""
        from cfofdm.harness import (_piece_size, _trial_key, build_geometry, build_setup,
                                    observe, trial_rngs)

        cfg = replace(ci_config(), n_geometries=1, n_trials=7, **world)
        ideal = replace(cfg, gamma_ap=0.0, gamma_ue=0.0)
        setup, ideal_setup = build_setup(cfg), build_setup(ideal)
        network = build_geometry(cfg, setup, 0).network
        layout, B = setup.layout, 7

        def in_pieces(stp, rngs, piece):
            parts = [observe(stp, network, rngs[lo:lo + piece]) for lo in range(0, B, piece)]
            return tuple(np.concatenate(a) for a in zip(*parts))

        def assert_same(a, b, rngs_a, rngs_b):
            assert all(np.array_equal(u, v) for u, v in zip(a, b))
            for r, q in zip(rngs_a, rngs_b):
                assert r.bit_generator.state == q.bit_generator.state

        piece = _piece_size(setup)
        assert piece < B and B % piece
        stack_record, piece_record = {}, {}
        rngs, piece_rngs = (trial_rngs(cfg.master_seed, 0, range(B)) for _ in range(2))
        stack = observe(replace(setup, draws=stack_record), network, rngs)
        pieces = in_pieces(replace(setup, draws=piece_record), piece_rngs, piece)
        T = 1 if setup.pn.ideal else layout.block_symbols
        assert stack[1].shape == (B, T, layout.n_ues, layout.n_aps)
        assert_same(stack, pieces, rngs, piece_rngs)
        assert list(stack_record) == list(piece_record) == [_trial_key(r) for r in rngs]
        for key, (phases, state) in stack_record.items():
            assert np.array_equal(phases, piece_record[key][0])
            assert state == piece_record[key][1]

        replay_piece = _piece_size(ideal_setup)
        assert replay_piece < B and B % replay_piece
        rngs, piece_rngs, drawn_rngs = (trial_rngs(cfg.master_seed, 0, range(B))
                                        for _ in range(3))
        traces = counting_traces(monkeypatch)
        replayed = observe(replace(ideal_setup, draws=stack_record), network, rngs)
        pieces = in_pieces(replace(ideal_setup, draws=piece_record), piece_rngs, replay_piece)
        assert traces == []
        assert_same(replayed, pieces, rngs, piece_rngs)
        assert_same(replayed, observe(ideal_setup, network, drawn_rngs), rngs, drawn_rngs)


class TestTrialMemory:
    def test_trial_peak_within_synthesis_working_set(self):
        """A phase-noise trial's traced peak stays below its trace, h and grids
        plus the synthesis working set, derived from the AP tile: one (tile, N)
        buffer of AP phasors, one (sub-tile, UEs, N) buffer of drift spectra
        within the same budget, and four tiles' worth for the (K, N) UE
        phasors and weighted grid, the block sums, the CPE, y and temporaries.
        Four (L, N) arrays in the synthesis, or a trace kept alive through
        combining, exceed it."""
        import tracemalloc

        from cfofdm import ofdm
        from cfofdm.harness import build_geometry, build_setup, derived_rng, run_trial

        cfg = replace(fig2_config(), n_subcarriers=600, n_aps=100, n_ues=10,
                      n_geometries=1, n_trials=1)
        setup = build_setup(cfg)
        geom = build_geometry(cfg, setup, 0)
        layout = setup.layout
        K, L, n = layout.n_ues, layout.n_aps, layout.n_subcarriers
        trace_bytes = (K + L) * layout.block_symbols * n * 8  # float64 phases
        h_bytes = K * L * layout.n_blocks * 16
        grids_bytes = K * len(layout.pilot_symbols) * n * 16
        tile_bytes = ofdm._tile_rows(n) * n * 16  # 52 APs: 0.5 MB
        budget = 6 * tile_bytes
        assert budget < L * n * 16 * 4
        tracemalloc.start()
        try:
            run_trial(cfg, setup, geom, [derived_rng(cfg.master_seed, 1, 0, 0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < trace_bytes + h_bytes + grids_bytes + budget

    def test_ideal_stack_observes_no_walk(self):
        """Observing a stack of ideal-oscillator trials keeps each node's
        initial phase alone: its traced peak stays below one trial's
        (nodes, tau_c, N) walk.  Observing the same stack with phase noise
        holds one synthesis piece's walks at a time, never the stack's: here a
        piece is one trial of a stack of three, and the peak lies between one
        trial's walks and two.  Where only the UEs have phase noise, the
        piece holds no AP walk.  The layout makes the walks dwarf the rest:
        many symbols, few pilot symbols and APs."""
        import tracemalloc

        from cfofdm.harness import _piece_size, build_geometry, build_setup, observe, trial_rngs

        base = replace(ci_config(), n_subcarriers=240, block_symbols=40, pilot_symbols=(1, 2),
                       n_aps=10, n_ues=4)
        B = 3
        piece = _piece_size(build_setup(base))
        assert piece + 1 < B
        walk_bytes = trace_bytes(base.layout())  # one trial's float64 walks
        ap_walk_bytes = base.n_aps * base.block_symbols * base.n_subcarriers * 8
        peaks = {}
        for name, cfg in (("ideal", replace(base, gamma_ap=0.0, gamma_ue=0.0)),
                          ("ue_pn", replace(base, gamma_ap=0.0)), ("pn", base)):
            setup = build_setup(cfg)
            network = build_geometry(cfg, setup, 0).network
            rngs = trial_rngs(cfg.master_seed, 0, range(B))
            tracemalloc.start()
            try:
                y, h_eff = observe(setup, network, rngs)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            T = 1 if name == "ideal" else cfg.block_symbols
            assert h_eff.shape == (B, T, cfg.n_ues, cfg.n_aps)
        assert peaks["ideal"] < walk_bytes < peaks["pn"] < (piece + 1) * walk_bytes
        assert peaks["ue_pn"] < peaks["pn"] - 0.9 * piece * ap_walk_bytes

    def test_fig2_setup_holds_no_band_wide_array(self):
        """The fig2 set-up (kernel table, ICI base, estimator models) leaves
        less than 1 MiB traced while it lives: no array over the band, such as
        a (tau_p, |T_p|, N) pilot grid (2.64 MiB at fig2), stays on it."""
        import tracemalloc

        from cfofdm.harness import build_setup

        tracemalloc.start()
        try:
            setup = build_setup(fig2_config())
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert setup.layout.n_subcarriers == 1200
        assert held < 1 << 20
