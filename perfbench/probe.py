"""Run one `sim` command in this process and time it from outside the package.

    python3 perfbench/probe.py --mode plain|trace --result OUT.json [--spans OUT.jsonl] -- SIM_ARGS...

The probe replaces public functions of the cfofdm modules with timing wrappers
(in the namespace the caller looks them up in), then calls ``cfofdm.cli.main``.

* ``plain`` wraps only the set-up calls (kernel table, ICI base, network,
  estimator contexts, ICI power) and the experiment and geometry loops: a few
  dozen calls per run, so the run is measured with tracing effectively off.
* ``trace`` wraps every layer boundary down to the per-trial and per-symbol
  calls, keeps the spans in memory and writes them out after the run.

The result file holds the run's wall time (from the start of this process,
before the package is imported, to the CSV being written), the set-up time,
counts, versions and, in trace mode, the per-layer metrics.
"""

import time

T_START = time.perf_counter()

import argparse
import collections
import functools
import itertools
import json
import logging
import statistics
import sys
import threading

# Span names of the set-up calls whose time is setup_s.
SETUP = (
    "harness.build_kernel_table",
    "estimation.build_ici_base",
    "network.generate_network",
    "estimation.build_context",
    "se.lambda_ici",
)


class Tracer:
    """In-memory spans (id, name, start, end, parent id, thread id), thread-safe.

    A span's parent is the innermost open span on its own thread; a span opened
    on a worker thread with nothing open there is parented to the innermost
    open span of the main thread, which is blocked in the pool that ran it.
    """

    def __init__(self):
        self.spans = []
        self.notes = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` by a timing wrapper recording spans named ``name``.

        ``note(result, *args, **kwargs)`` may return a dict kept for the span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, name, t0, t1, parent, threading.get_ident()))
            if note is not None:
                info = note(out, *args, **kwargs)
                with self._lock:
                    self.notes[sid] = info
            return out

        setattr(owner, attr, wrapper)


class CountHandler(logging.Handler):
    """Counts warning records of one logger (the pinv fallbacks in combining)."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1  # emit runs under the handler's own lock


def _experiment_note(out, cfg, *args, **kwargs):
    return {"trials": cfg.n_geometries * cfg.n_trials,
            "no_pn": cfg.gamma_ap == 0.0 and cfg.gamma_ue == 0.0}


def _geometry_note(out, *args, **kwargs):
    return {"invalid": out.n_invalid, "records": out.n_records}


def _table_note(out, *args, **kwargs):
    return {"entries": len(out)}


def _synth_note(out, h, grids, trace, network, layout, *args, gaussian_ici=False, **kw):
    # One length-N FFT per (UE, AP, pilot symbol); none with Gaussian ICI.
    k, l = h.shape[:2]
    return {"ffts": 0 if gaussian_ici else k * l * len(layout.pilot_symbols)}


def install(tracer, mode):
    """Wrap the package's public functions; ``mode`` is plain or trace."""
    from cfofdm import cli, combining, estimation, harness, ofdm, se

    # Each function is replaced where its caller looks it up: as an attribute
    # of its own module, or under the name harness or cli imported it by.
    tracer.wrap(harness, "run_experiment", "harness.run_experiment", _experiment_note)
    tracer.wrap(cli, "run_experiment", "harness.run_experiment", _experiment_note)
    tracer.wrap(harness, "run_geometry", "harness.run_geometry", _geometry_note)
    tracer.wrap(harness, "build_kernel_table", "harness.build_kernel_table")
    tracer.wrap(estimation, "build_ici_base", "estimation.build_ici_base")
    tracer.wrap(estimation, "build_context", "estimation.build_context")
    tracer.wrap(se, "lambda_ici", "se.lambda_ici")
    tracer.wrap(harness, "generate_network", "network.generate_network")
    if mode == "plain":
        return
    tracer.wrap(harness, "build_correlation_table", "phase_noise.build_correlation_table",
                _table_note)
    tracer.wrap(harness, "run_trial", "harness.run_trial")
    tracer.wrap(harness, "gen_channel", "network.gen_channel")
    tracer.wrap(harness, "gen_pn_trace", "phase_noise.gen_pn_trace")
    tracer.wrap(harness, "cpe_per_symbol", "phase_noise.cpe_per_symbol")
    tracer.wrap(ofdm, "build_transmit_grids", "ofdm.build_transmit_grids")
    tracer.wrap(ofdm, "synth_pilot_observations", "ofdm.synth_pilot_observations",
                _synth_note)
    tracer.wrap(estimation, "estimate_all", "estimation.estimate_all")
    tracer.wrap(combining, "combiner_matrix", "combining.combiner_matrix")
    tracer.wrap(se.SinrAccumulator, "add_symbol", "se.SinrAccumulator.add_symbol")
    tracer.wrap(se, "finalize_sinr", "se.finalize_sinr")
    tracer.wrap(cli, "records_to_csv", "harness.records_to_csv")


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(tracer, fallbacks):
    """Per-layer metrics from the spans of one traced run."""
    spans = {s[0]: s for s in tracer.spans}
    notes = tracer.notes
    children = collections.defaultdict(list)
    for sid, _, t0, t1, parent, _ in tracer.spans:
        children[parent].append((t0, t1))

    def self_time(sid):
        _, _, t0, t1, _, _ = spans[sid]
        clipped = [(max(a, t0), min(b, t1)) for a, b in children[sid] if b > t0 and a < t1]
        return (t1 - t0) - _union_length(clipped)

    def in_no_pn(sid):
        while sid in spans:
            if spans[sid][1] == "harness.run_experiment":
                return notes.get(sid, {}).get("no_pn", False)
            sid = spans[sid][4]
        return False

    by_name = collections.defaultdict(list)
    for s in tracer.spans:
        by_name[s[1]].append(s)

    def total(name):
        return sum(t1 - t0 for _, _, t0, t1, _, _ in by_name[name])

    synth = by_name["ofdm.synth_pilot_observations"]
    no_pn = [in_no_pn(s[0]) for s in synth]
    trials = by_name["harness.run_trial"]
    geoms = by_name["harness.run_geometry"]
    calls = len(by_name["combining.combiner_matrix"])
    invalid = sum(notes[s[0]]["invalid"] for s in geoms)
    records = sum(notes[s[0]]["records"] for s in geoms)
    return {
        "phase_noise.table_s": total("phase_noise.build_correlation_table"),
        "phase_noise.table_entries": max(
            notes[s[0]]["entries"] for s in by_name["phase_noise.build_correlation_table"]),
        "estimation.ici_base_s": total("estimation.build_ici_base"),
        "ofdm.synth_s": float(sum(s[3] - s[2] for s, flag in zip(synth, no_pn) if not flag)),
        "ofdm.synth_no_pn_s": float(sum(s[3] - s[2] for s, flag in zip(synth, no_pn) if flag)),
        "ofdm.fft_count": sum(notes[s[0]]["ffts"] for s in synth),
        "ofdm.grids_s": total("ofdm.build_transmit_grids"),
        "phase_noise.cpe_s": total("phase_noise.cpe_per_symbol"),
        "phase_noise.trace_s": total("phase_noise.gen_pn_trace"),
        "network.channel_s": total("network.gen_channel"),
        "network.geometry_s": total("network.generate_network"),
        "estimation.context_s": total("estimation.build_context"),
        "estimation.estimate_s": total("estimation.estimate_all"),
        "combining.combiner_s": total("combining.combiner_matrix"),
        "combining.calls": calls,
        "combining.pinv_fallbacks": fallbacks,
        "combining.fallback_ratio": fallbacks / calls if calls else 0.0,
        "se.lambda_s": total("se.lambda_ici"),
        "se.accumulate_s": total("se.SinrAccumulator.add_symbol"),
        "se.finalize_s": total("se.finalize_sinr"),
        "se.finalize_calls": len(by_name["se.finalize_sinr"]),
        "se.invalid_records": invalid,
        "se.valid_ratio": 1.0 - invalid / records if records else 0.0,
        "harness.trials": len(trials),
        "harness.trial_s_p50": statistics.median(t1 - t0 for _, _, t0, t1, _, _ in trials),
        "harness.trial_self_s": sum(self_time(s[0]) for s in trials),
        "harness.geometry_self_s": sum(self_time(s[0]) for s in geoms),
        "harness.csv_s": total("harness.records_to_csv"),
    }


def _blas_info():
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (deps.get("name"), deps.get("version"))
    except (TypeError, KeyError):
        return "unknown"


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("plain", "trace"), required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("sim_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    sim_args = args.sim_args[1:] if args.sim_args[:1] == ["--"] else args.sim_args

    from cfofdm import cli

    tracer = Tracer()
    install(tracer, args.mode)
    counter = CountHandler()
    logging.getLogger("cfofdm.combining").addHandler(counter)
    code = cli.main(sim_args)
    run_s = time.perf_counter() - T_START

    import numpy
    import scipy

    # a set-up call nested in another (build_context building its own ICI
    # base) is counted once, in its caller
    names = {s[0]: s[1] for s in tracer.spans}
    setup_s = sum(t1 - t0 for _, name, t0, t1, parent, _ in tracer.spans
                  if name in SETUP and names.get(parent) not in SETUP)
    notes = tracer.notes
    result = {
        "exit_code": code,
        "run_s": run_s,
        "setup_s": setup_s,
        "trials": sum(notes[s[0]]["trials"] for s in tracer.spans
                      if s[1] == "harness.run_experiment" and s[0] in notes),
        "invalid_records": sum(notes[s[0]]["invalid"] for s in tracer.spans
                               if s[1] == "harness.run_geometry" and s[0] in notes),
        "pinv_fallbacks": counter.count,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "blas": _blas_info()},
    }
    if args.mode == "trace" and code == 0:
        result["layers"] = summarize(tracer, counter.count)
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as f:
            for s in tracer.spans:
                f.write(json.dumps(s) + "\n")
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
