"""Experiment orchestration: deterministic seeded Monte Carlo execution,
result aggregation, and CSV persistence."""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import combining, estimation, ofdm, se
from .config import ExperimentConfig, effective_config_text
from .network import NetworkRealization, SimulationLayout, gen_channel, generate_network
from .phase_noise import (
    KernelGrid,
    KernelParams,
    PnParams,
    build_correlation_table,
    cpe_per_symbol,  # unused here; perfbench/probe.py wraps this name (ROADMAP item 2)
    gen_pn_trace,
)

CSV_HEADER = (
    "experiment,scheme,estimator,K,L,channel_use,tau,se_per_ue,"
    "n_trials,standard_error,master_seed"
)

_STREAM_GEOMETRY = 0
_STREAM_TRIAL = 1
_N_BATCHES = 8  # trial batches behind single-geometry standard errors


def derived_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a labeled stream; a pure function of its inputs."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


@dataclass
class ResultRecord:
    """One CSV row of aggregated spectral efficiency."""

    experiment: str
    scheme: str
    estimator: str
    n_ues: int
    n_aps: int
    channel_use: int  # 0 denotes the per-block average
    tau: int          # 0 for the per-block row
    se_per_ue: float
    n_trials: int
    standard_error: float
    master_seed: int

    def csv_row(self) -> str:
        return ",".join(
            [
                self.experiment,
                self.scheme,
                self.estimator,
                str(self.n_ues),
                str(self.n_aps),
                str(self.channel_use),
                str(self.tau),
                repr(float(self.se_per_ue)),
                str(self.n_trials),
                repr(float(self.standard_error)),
                str(self.master_seed),
            ]
        )


def build_kernel_table(cfg: ExperimentConfig) -> KernelGrid:
    """Kernel grid covering the estimators' needs for this configuration.

    Every lag within the coherence block; the pilot offsets only when the
    phase-noise-aware OFDM estimator needs the ICI covariance.
    """
    layout = cfg.layout()
    params = KernelParams.from_layout(layout, cfg.pn_params(),
                                      cp_consistent=cfg.cp_consistent_correlation)
    offsets = [0]
    if "pna_ofdm" in cfg.estimators:
        offsets = estimation.kernel_offsets(layout)
    lags = range(-(layout.block_symbols - 1), layout.block_symbols)
    return build_correlation_table(params, offsets, lags)


def _geometry(cfg: ExperimentConfig, geometry_index: int) -> NetworkRealization:
    """The network realization of one geometry, drawn from its own stream."""
    return generate_network(
        cfg.layout(), derived_rng(cfg.master_seed, _STREAM_GEOMETRY, geometry_index),
        tx_power_w=cfg.tx_power_w, noise_figure_db=cfg.noise_figure_db,
        shadow_sigma_db=cfg.shadow_sigma_db, wraparound=cfg.wraparound,
        pilot_policy=cfg.pilot_policy, ap_height_m=cfg.ap_height_m,
    )


@dataclass
class Setup:
    """Per-configuration state, shared by every geometry."""

    layout: SimulationLayout
    pn: PnParams
    table: KernelGrid
    book: np.ndarray                         # (tau_p, tau_p) pilot book
    ici_base: Optional[estimation.IciBase]   # None without pna_ofdm


@dataclass
class Geometry:
    """Per-geometry state, shared by every Monte Carlo trial."""

    network: NetworkRealization
    contexts: Dict[str, estimation.EstimatorContext]
    lam: np.ndarray  # (K, L) ICI power


def build_setup(cfg: ExperimentConfig) -> Setup:
    """Layout, phase-noise parameters, kernel grid, pilot book and ICI base of
    one configuration."""
    layout = cfg.layout()
    table = build_kernel_table(cfg)
    book = ofdm.build_pilot_book(layout.tau_p)
    ici_base = None
    if "pna_ofdm" in cfg.estimators:
        ici_base = estimation.build_ici_base(layout, table, book, mode=cfg.ici_mode)
    return Setup(layout, cfg.pn_params(), table, book, ici_base)


def build_geometry(cfg: ExperimentConfig, setup: Setup, geometry_index: int) -> Geometry:
    """Network, estimator contexts and ICI power of one geometry."""
    network = _geometry(cfg, geometry_index)
    contexts = {
        kind: estimation.build_context(network, setup.layout, setup.table, setup.book,
                                       kind=kind, ici_base=setup.ici_base)
        for kind in cfg.estimators
    }
    return Geometry(network, contexts, se.lambda_ici(network, setup.table))


def run_trial(cfg: ExperimentConfig, setup: Setup, geom: Geometry,
              rng: np.random.Generator) -> Dict[str, se.SinrAccumulator]:
    """One Monte Carlo trial: draw, synthesize, estimate, combine, accumulate.

    Returns one single-trial accumulator per estimator kind.
    """
    layout, network = setup.layout, geom.network
    h = gen_channel(network.beta, layout, rng)
    trace = gen_pn_trace(setup.pn, layout, rng)
    grids = ofdm.build_transmit_grids(layout, setup.book, network.pilot_index, rng)
    y, cpe = ofdm.synth_pilot_observations(h, grids, trace, network, layout, rng)
    h_eff = cpe * h[:, :, 0][:, :, None]

    out: Dict[str, se.SinrAccumulator] = {}
    for kind, ctx in geom.contexts.items():
        h_hat = estimation.estimate_all(ctx, y)
        acc = se.SinrAccumulator(len(cfg.schemes), layout.n_ues, layout.block_symbols)
        for s_idx, scheme in enumerate(cfg.schemes):
            v = combining.combiner_matrix(scheme, h_hat, ctx.err_var, network)
            acc.add_symbol(s_idx, v, h_eff, geom.lam, network.D)
        acc.bump()
        out[kind] = acc
    return out


@dataclass
class GeometryResult:
    """Per-geometry SE summaries keyed by (estimator kind, scheme)."""

    curves: Dict[Tuple[str, str], np.ndarray]        # per-symbol SE, (tau_c,)
    blocks: Dict[Tuple[str, str], float]             # per-block SE
    # SE per trial batch, (n_batches, tau_c) and (n_batches,); filled only for
    # a single-geometry run of several batches, where they feed the standard error
    batch_curves: Dict[Tuple[str, str], np.ndarray]
    batch_blocks: Dict[Tuple[str, str], np.ndarray]
    n_invalid: int
    n_records: int


def run_geometry(
    cfg: ExperimentConfig,
    setup: Setup,
    geometry_index: int,
    threads: int = 1,
) -> GeometryResult:
    """All Monte Carlo trials for one network geometry.

    Trial t lands in batch t % n_batches; the batches are merged in order.
    Trials run in the calling thread at ``threads`` = 1, else on a pool.
    """
    layout = setup.layout
    geom = build_geometry(cfg, setup, geometry_index)
    network = geom.network

    n_batches = max(1, min(_N_BATCHES, cfg.n_trials))
    batches: Dict[str, List[se.SinrAccumulator]] = {
        kind: [se.SinrAccumulator(len(cfg.schemes), layout.n_ues, layout.block_symbols)
               for _ in range(n_batches)]
        for kind in cfg.estimators
    }

    def one(t: int):
        rng = derived_rng(cfg.master_seed, _STREAM_TRIAL, geometry_index, t)
        return run_trial(cfg, setup, geom, rng)

    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        trial_map = map if pool is None else pool.map
        chunk = 4 * threads  # trials in flight at once
        for lo in range(0, cfg.n_trials, chunk):
            ids = range(lo, min(lo + chunk, cfg.n_trials))
            for t, partial in zip(ids, trial_map(one, ids)):
                for kind, acc in partial.items():
                    batches[kind][t % n_batches].merge(acc)

    finalize_batches = cfg.n_geometries == 1 and n_batches > 1
    curves, blocks, bcurves, bblocks = {}, {}, {}, {}
    n_invalid = 0
    n_records = 0
    for kind in cfg.estimators:
        total = se.SinrAccumulator(len(cfg.schemes), layout.n_ues, layout.block_symbols)
        for b in batches[kind]:
            total.merge(b)
        for s_idx, scheme in enumerate(cfg.schemes):
            key = (kind, scheme)
            sinr = se.finalize_sinr(total, network, s_idx)
            curves[key], blocks[key] = se.se_from_sinr(sinr)
            n_invalid += int(np.isnan(sinr).sum())
            n_records += sinr.size
            if finalize_batches:
                per_batch = [se.se_from_sinr(se.finalize_sinr(b, network, s_idx))
                             for b in batches[kind]]
                bcurves[key] = np.stack([c for c, _ in per_batch])
                bblocks[key] = np.array([bl for _, bl in per_batch])
    return GeometryResult(curves=curves, blocks=blocks, batch_curves=bcurves,
                          batch_blocks=bblocks, n_invalid=n_invalid,
                          n_records=n_records)


def _standard_error(rows) -> np.ndarray:
    """Standard error of the mean over the rows (axis 0); zero for one row."""
    rows = np.asarray(rows)
    if len(rows) == 1:
        return np.zeros(rows.shape[1:])
    return np.std(rows, axis=0, ddof=1) / np.sqrt(len(rows))


def run_experiment(
    cfg: ExperimentConfig,
    threads: int = 1,
    progress: bool = False,
) -> List[ResultRecord]:
    """Run the full experiment and aggregate records across geometries.

    The records are a pure function of the configuration: byte-identical for
    every ``threads`` value (>= 1).  The standard error spreads over the
    geometries, or over the trial batches of a single-geometry run.  Curves
    stay per symbol until the rows are written: channel use c gets the value of
    symbol ceil(c / N_c).  Raises RuntimeError if more than 1% of SINR records
    are invalid.
    """
    cfg.validate()
    if threads < 1:
        raise ValueError("threads must be >= 1")
    layout = cfg.layout()
    t0 = time.perf_counter()
    if progress:
        print(effective_config_text(cfg), file=sys.stderr, end="")
    setup = build_setup(cfg)
    geoms: List[GeometryResult] = []
    for g in range(cfg.n_geometries):
        geoms.append(run_geometry(cfg, setup, g, threads=threads))
        if progress:
            print(
                "geometry %d/%d done (%.1f s elapsed)"
                % (g + 1, cfg.n_geometries, time.perf_counter() - t0),
                file=sys.stderr,
            )

    n_invalid = sum(g.n_invalid for g in geoms)
    n_records = sum(g.n_records for g in geoms)
    if n_invalid > 0.01 * n_records:
        raise RuntimeError(
            "Monte Carlo underflow: %d of %d SINR records invalid" % (n_invalid, n_records)
        )

    n_uses = layout.block_subcarriers * layout.block_symbols
    total_trials = cfg.n_geometries * cfg.n_trials
    records: List[ResultRecord] = []
    for kind in cfg.estimators:
        for scheme in cfg.schemes:
            key = (kind, scheme)
            curve_rows = [g.curves[key] for g in geoms]
            block_rows = [g.blocks[key] for g in geoms]
            curve = np.mean(curve_rows, axis=0)
            block = float(np.mean(block_rows))
            if geoms[0].batch_curves:  # one geometry: spread over its trial batches
                curve_rows = geoms[0].batch_curves[key]
                block_rows = geoms[0].batch_blocks[key]
            curve_se = _standard_error(curve_rows)
            block_se = float(_standard_error(block_rows))
            records.append(
                ResultRecord(cfg.name, scheme, kind, layout.n_ues, layout.n_aps,
                             0, 0, block, total_trials, block_se, cfg.master_seed)
            )
            for c in range(1, n_uses + 1):
                tau = se.symbol_of_channel_use(c, layout)
                records.append(
                    ResultRecord(
                        cfg.name, scheme, kind, layout.n_ues, layout.n_aps,
                        c, tau, float(curve[tau - 1]),
                        total_trials, float(curve_se[tau - 1]), cfg.master_seed,
                    )
                )
    if not np.isfinite([(r.se_per_ue, r.standard_error) for r in records]).all():
        raise RuntimeError("Monte Carlo underflow: a result has no valid SINR record")
    if progress:
        print("experiment %s finished in %.1f s"
              % (cfg.name, time.perf_counter() - t0), file=sys.stderr)
    return records


def records_to_csv(records: Sequence[ResultRecord]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"


def run_fig2(cfg: ExperimentConfig, threads: int = 1,
             progress: bool = False) -> List[ResultRecord]:
    """SE per UE versus channel use: every estimator of ``cfg``, then the
    same scenario with ideal oscillators (where all estimators coincide),
    labelled ``no_pn``."""
    records = run_experiment(cfg, threads=threads, progress=progress)
    no_pn = replace(cfg, gamma_ap=0.0, gamma_ue=0.0, estimators=("pna_ofdm",))
    ref = run_experiment(no_pn, threads=threads, progress=progress)
    return records + [replace(r, estimator="no_pn") for r in ref]


FIG3_UE_COUNTS = (1, 6, 10, 20, 100)
FIG3_CHANNEL_USE = 60


def run_fig3(base: ExperimentConfig, threads: int = 1,
             progress: bool = False) -> List[ResultRecord]:
    """SE per UE at channel use 60 versus the number of UEs: ``run_fig2`` of
    ``base`` at every count of FIG3_UE_COUNTS, experiment ``<name>_K<count>``.

    Every count's configuration is validated before the first one runs.
    """
    cfgs = [replace(base, n_ues=K, name="%s_K%d" % (base.name, K)) for K in FIG3_UE_COUNTS]
    for cfg in cfgs:
        cfg.validate()
    return [r for cfg in cfgs for r in run_fig2(cfg, threads=threads, progress=progress)
            if r.channel_use == FIG3_CHANNEL_USE]


def dump_geometry_csv(cfg: ExperimentConfig) -> str:
    """Node coordinates of geometry 0 as CSV (node_type, index, x_m, y_m)."""
    cfg.validate()
    network = _geometry(cfg, 0)
    lines = ["node_type,index,x_m,y_m"]
    for i, (x, y) in enumerate(network.ap_positions):
        lines.append("ap,%d,%s,%s" % (i, repr(float(x)), repr(float(y))))
    for i, (x, y) in enumerate(network.ue_positions):
        lines.append("ue,%d,%s,%s" % (i, repr(float(x)), repr(float(y))))
    return "\n".join(lines) + "\n"
