"""The benchmark probe still finds every function it wraps by name.

``perfbench/probe.py`` replaces functions of the package by timing wrappers
looked up by module and name; a rename in ``src`` would silently drop a
per-layer metric or make it read zero. This runs the probe in trace mode on a
one-geometry ci ``sim fig2`` and checks that it reports every per-layer metric
of BENCHMARK.json, and that each wrapped stage was entered.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_trace_reports_every_per_layer_metric(tmp_path):
    pytest.importorskip("scipy")  # the probe stamps the scipy version
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        names = {m["name"] for m in json.load(f)["per_layer"]}
    names.discard("trace.overhead_frac")  # perfbench/run.py derives it from two runs
    result = tmp_path / "result.json"
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "probe.py"), "--mode", "trace",
           "--result", str(result), "--", "fig2", "name=ci", "n_subcarriers=120",
           "block_symbols=5", "pilot_symbols=1:4", "n_aps=30", "n_ues=5",
           "shadow_sigma_db=0", "schemes=mr,lp_mmse,p_mmse,mmse", "n_geometries=1",
           "n_trials=2", "--seed", "0", "--threads", "2", "--out", str(tmp_path / "o.csv")]
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result.read_text())["layers"]
    assert sorted(names - set(layers)) == []
    # a zero means a wrapped function is no longer called by the name the probe
    # wraps; the CPE is computed inside the synthesis, and this run has no fault
    idle = {name for name in names if layers[name] == 0}
    assert idle <= {"phase_noise.cpe_s", "se.invalid_records", "combining.pinv_fallbacks",
                    "combining.fallback_ratio"}
