"""cfofdm benchmark: run one workload through the `sim` CLI and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --record

Run from the repository root. Each repetition of a workload is a fresh
process (``probe.py``) running one `sim` command with BLAS pinned to one
thread; repetitions continue while the next one is expected to end within
``--seconds``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
(medians over repetitions) with ``--trace 0``, the per-layer metrics of one
traced repetition with ``--trace 1``. Metric names and units come from
BENCHMARK.json. Every CSV is checked against the stored reference for its
seed, or structurally where no reference is stored. ``--record`` stores the
reference for a seed instead of measuring.
"""

import argparse
import gzip
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE = os.path.join(HERE, "probe.py")
REF_DIR = os.path.join(HERE, "ref")
SUMS = os.path.join(REF_DIR, "SHA256SUMS")
OUT_DIR = ".perfbench"
REP_TIMEOUT_S = 170.0
MAX_REPS = 20
# Documented round-off tolerance on the two floating-point CSV columns; every
# other column must match the reference exactly.
RTOL = 1e-9
ATOL = 1e-12
FLOAT_COLUMNS = ("se_per_ue", "standard_error")
CSV_HEADER = ("experiment,scheme,estimator,K,L,channel_use,tau,se_per_ue,"
              "n_trials,standard_error,master_seed")


@dataclass(frozen=True)
class Workload:
    sim_args: tuple   # the sim command, without --seed, --threads and --out
    threads: int      # harness --threads
    geometries: int
    trials: int       # per geometry
    rows: int         # CSV data rows, for the structural check


CI_LAYOUT = ("name=ci", "n_subcarriers=120", "block_symbols=5", "pilot_symbols=1:4",
             "n_aps=30", "n_ues=5", "shadow_sigma_db=0")

WORKLOADS = {
    # Paper's headline scenario at full layer size, one geometry, phase noise
    # only; rows are 3 estimators x 2 schemes x (1 block + 180 uses).
    "fig2_slice": Workload(("run", os.path.join(HERE, "fig2_pn.cfg")),
                           threads=1, geometries=1, trials=1, rows=6 * 181),
    # fig3's K=100 point is not a workload: as the host's speed drifts, its run
    # times spread past the 0.25 bound within a set of runs (README, Workloads).
    # ci layout, every estimator and scheme, through the harness thread pool.
    "ci_threads": Workload(("fig2",) + CI_LAYOUT + (
        "schemes=mr,lp_mmse,p_mmse,mmse", "n_geometries=5", "n_trials=30"),
        threads=2, geometries=5, trials=30, rows=(12 + 4) * 61),
}


def blas_env():
    return {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def sim_env():
    return dict(os.environ, PYTHONPATH=os.path.abspath("src"), **blas_env())


def warm_up():
    """Import the package once untimed, so that the first timed repetition of a
    fresh checkout pays neither the bytecode compile nor a cold file cache."""
    proc = subprocess.Popen([sys.executable, "-c", "import cfofdm.cli"], env=sim_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    wait_with_timeout(proc, REP_TIMEOUT_S)


def wait_with_timeout(proc, timeout):
    """Reap ``proc`` with os.wait4 (for its own rusage); kill it after ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_rep(name, wl, seed, mode, tag):
    """One fresh-process repetition; returns a dict describing it."""
    paths = {ext: os.path.join(OUT_DIR, "%s.%s" % (tag, ext))
             for ext in ("csv", "json", "log", "spans.jsonl")}
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, PROBE, "--mode", mode, "--result", paths["json"]]
    if mode == "trace":
        cmd += ["--spans", paths["spans.jsonl"]]
    cmd += ["--", *wl.sim_args, "--seed", str(seed), "--threads", str(wl.threads),
            "--out", paths["csv"]]
    env = sim_env()
    with open(paths["log"], "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
        code, usage = wait_with_timeout(proc, REP_TIMEOUT_S)
    rep = {"mode": mode, "exit_code": code, "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "csv": paths["csv"]}
    if code == 0 and os.path.exists(paths["json"]) and os.path.exists(paths["csv"]):
        with open(paths["json"], encoding="utf-8") as f:
            rep.update(json.load(f))
        rep["check"] = check_csv(paths["csv"], name, wl, seed, rep["invalid_records"])
    else:
        rep["check"] = {"ok": False, "kind": "none", "detail": "probe exited %d; see %s"
                        % (code, paths["log"])}
    rep["ok"] = rep["check"]["ok"]
    return rep


def read_sums():
    sums = {}
    if os.path.exists(SUMS):
        with open(SUMS, encoding="utf-8") as f:
            for line in f:
                digest, name = line.split()
                sums[name] = digest
    return sums


def ref_name(workload, seed):
    return "%s-seed%d.csv" % (workload, seed)


def _rows(text):
    lines = text.rstrip("\n").split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def structural_check(text, wl, seed, invalid_records):
    header, rows = _rows(text)
    cols = CSV_HEADER.split(",")
    problems = []
    if header != CSV_HEADER:
        problems.append("header differs")
    if len(rows) != wl.rows:
        problems.append("%d rows, expected %d" % (len(rows), wl.rows))
    for row in rows:
        rec = dict(zip(cols, row))
        if len(row) != len(cols) or not all(math.isfinite(float(rec[c]))
                                            for c in FLOAT_COLUMNS):
            problems.append("bad row %s" % ",".join(row))
            break
        if int(rec["n_trials"]) != wl.geometries * wl.trials or int(rec["master_seed"]) != seed:
            problems.append("row with wrong n_trials or seed: %s" % ",".join(row))
            break
    if invalid_records:
        problems.append("%d invalid SINR records" % invalid_records)
    return problems


def compare_to_reference(text, ref_text):
    header, rows = _rows(text)
    ref_header, ref_rows = _rows(ref_text)
    if header != ref_header or len(rows) != len(ref_rows):
        return ["header or row count differs from the reference"]
    cols = header.split(",")
    float_idx = [cols.index(c) for c in FLOAT_COLUMNS]
    for row, ref in zip(rows, ref_rows):
        same_keys = all(a == b for i, (a, b) in enumerate(zip(row, ref)) if i not in float_idx)
        close = all(math.isclose(float(row[i]), float(ref[i]), rel_tol=RTOL, abs_tol=ATOL)
                    for i in float_idx)
        if len(row) != len(ref) or not same_keys or not close:
            return ["row differs from the reference beyond round-off: %s vs %s"
                    % (",".join(row), ",".join(ref))]
    return []


def check_csv(path, workload, wl, seed, invalid_records):
    """Reference check if this seed has a stored reference, else structural."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    problems = structural_check(text, wl, seed, invalid_records)
    name = ref_name(workload, seed)
    expected = read_sums().get(name)
    if expected is None:
        return {"ok": not problems, "kind": "structural (no stored reference for this seed)",
                "sha256": digest, "detail": "; ".join(problems)}
    with gzip.open(os.path.join(REF_DIR, name + ".gz"), "rt", encoding="utf-8") as f:
        ref_text = f.read()
    if hashlib.sha256(ref_text.encode("utf-8")).hexdigest() != expected:
        problems.append("stored reference does not match SHA256SUMS")
    identical = digest == expected
    if not identical:
        problems += compare_to_reference(text, ref_text)
    return {"ok": not problems, "kind": "reference", "byte_identical": identical,
            "sha256": digest, "detail": "; ".join(problems)}


def git_sha():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def src_sha256():
    """Digest of the package sources; identifies the code where git is absent."""
    h = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(os.path.join("src", "cfofdm"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(path.encode("utf-8") + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def env_stamp(name, wl, seed, reps):
    versions = next((r["versions"] for r in reps if "versions" in r), {})
    return {
        "workload": name, "seed": seed, "command": ["sim", *wl.sim_args],
        "git_sha": git_sha(), "src_sha256": src_sha256(), **versions,
        "blas_threads": blas_env(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "harness_threads": wl.threads,
        "n_geometries": wl.geometries, "n_trials": wl.trials,
    }


def end_to_end(reps):
    done = [r for r in reps if "run_s" in r]
    return {
        "run_s": statistics.median(r["run_s"] for r in done),
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "trials_per_s": statistics.median(r["trials"] / (r["run_s"] - r["setup_s"])
                                          for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }


def per_layer(reps):
    plain, traced = reps
    if "layers" not in traced or "run_s" not in plain:
        return None
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["run_s"] / plain["run_s"] - 1.0
    return layers


def record(name, wl, seed):
    os.makedirs(REF_DIR, exist_ok=True)
    rep = run_rep(name, wl, seed, "plain", "%s-seed%d-record" % (name, seed))
    if rep["exit_code"] != 0 or not rep["ok"]:
        print("not recorded: %s" % rep["check"]["detail"], file=sys.stderr)
        return 1
    with open(rep["csv"], "rb") as f:
        data = f.read()
    sums = read_sums()
    sums[ref_name(name, seed)] = hashlib.sha256(data).hexdigest()
    with gzip.GzipFile(os.path.join(REF_DIR, ref_name(name, seed) + ".gz"), "wb",
                       mtime=0) as f:
        f.write(data)
    with open(SUMS, "w", encoding="utf-8") as f:
        for ref, digest in sorted(sums.items()):
            f.write("%s  %s\n" % (digest, ref))
    print("recorded %s (%s)" % (ref_name(name, seed), sums[ref_name(name, seed)]))
    return 0


def main(argv):
    p = argparse.ArgumentParser(description="cfofdm benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this seed's CSV as the reference instead of measuring")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join("src", "cfofdm", "cli.py")) or \
            not os.path.isfile("BENCHMARK.json"):
        print("perfbench: run from the repository root (src/cfofdm and BENCHMARK.json "
              "not found in %s)" % os.getcwd(), file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = WORKLOADS[args.workload]
    if args.record:
        return record(args.workload, wl, args.seed)

    tag = "%s-seed%d" % (args.workload, args.seed)
    warm_up()
    reps = []
    if args.trace:
        reps.append(run_rep(args.workload, wl, args.seed, "plain", tag + "-plain"))
        reps.append(run_rep(args.workload, wl, args.seed, "trace", tag + "-trace"))
        values = per_layer(reps)
        wanted = spec["per_layer"]
    else:
        start = time.perf_counter()
        walls = []
        while True:
            t0 = time.perf_counter()
            reps.append(run_rep(args.workload, wl, args.seed, "plain",
                                "%s-r%d" % (tag, len(reps))))
            walls.append(time.perf_counter() - t0)
            if len(reps) >= MAX_REPS or (time.perf_counter() - start
                                         + statistics.median(walls) > args.seconds):
                break
        values = end_to_end(reps) if any("run_s" in r for r in reps) else None
        wanted = spec["end_to_end"]

    for i, r in enumerate(reps):
        print("rep %d %s: exit %d, run_s %s, setup_s %s, check %s%s%s" % (
            i, r["mode"], r["exit_code"], r.get("run_s"), r.get("setup_s"),
            r["check"]["kind"],
            ", byte-identical" if r["check"].get("byte_identical") else "",
            ", FAILED: " + r["check"]["detail"] if not r["ok"] else ""))
    stamp = env_stamp(args.workload, wl, args.seed, reps)
    with open(os.path.join(OUT_DIR, tag + "-trace%d.json" % args.trace), "w",
              encoding="utf-8") as f:
        json.dump({"env": stamp, "reps": reps, "values": values}, f, indent=1)
    print(json.dumps({"env": stamp}))
    if values is None:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    failed = sum(not r["ok"] for r in reps)
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
