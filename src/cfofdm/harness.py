"""Experiment orchestration: deterministic seeded Monte Carlo execution,
result aggregation, CSV persistence, and the validation suite."""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor
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
    cpe_per_symbol,
    gen_pn_trace,
)

CSV_HEADER = (
    "experiment,scheme,estimator,K,L,channel_use,tau,se_per_ue,"
    "n_trials,standard_error,master_seed"
)

_STREAM_GEOMETRY = 0
_STREAM_TRIAL = 1


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
        offsets = estimation.kernel_offsets(layout, cfg.eval_block)
    lags = range(-(layout.block_symbols - 1), layout.block_symbols)
    return build_correlation_table(params, offsets, lags)


def run_trial(
    cfg: ExperimentConfig,
    layout: SimulationLayout,
    pn: PnParams,
    network: NetworkRealization,
    book: np.ndarray,
    contexts: Dict[str, estimation.EstimatorContext],
    lam: np.ndarray,
    ici_power: Optional[np.ndarray],
    rng: np.random.Generator,
) -> Dict[str, se.SinrAccumulator]:
    """One Monte Carlo trial: draw, synthesize, estimate, combine, accumulate.

    Returns one single-trial accumulator per estimator kind.
    """
    channel = gen_channel(network.beta, layout, rng)
    trace = gen_pn_trace(pn, layout, rng)
    grids = ofdm.build_transmit_grids(layout, book, network.pilot_index, rng,
                                      data_kind=cfg.data_symbols)
    cpe = cpe_per_symbol(trace)  # (K, L, tau_c)
    y = ofdm.synth_pilot_observations(
        channel.h, grids, trace, network, layout, rng,
        eval_block=cfg.eval_block, gaussian_ici=cfg.gaussian_ici,
        ici_power=ici_power, cpe=cpe,
    )
    h_eff = cpe * channel.h[:, :, cfg.eval_block - 1][:, :, None]

    out: Dict[str, se.SinrAccumulator] = {}
    for kind, ctx in contexts.items():
        est = estimation.estimate_all(ctx, y)
        acc = se.SinrAccumulator(len(cfg.schemes), layout.n_ues, layout.block_symbols)
        for s_idx, scheme in enumerate(cfg.schemes):
            for tau in range(1, layout.block_symbols + 1):
                v = combining.combiner_matrix(scheme, est, network, tau)
                acc.add_symbol(s_idx, tau, v, h_eff[:, :, tau - 1], lam, network.D)
        acc.bump()
        out[kind] = acc
    return out


@dataclass
class GeometryResult:
    """Per-geometry SE summaries keyed by (estimator kind, scheme)."""

    curves: Dict[Tuple[str, str], np.ndarray]        # per-channel-use SE
    blocks: Dict[Tuple[str, str], float]             # per-block SE
    batch_curves: Dict[Tuple[str, str], np.ndarray]  # (n_batches, n_uses)
    batch_blocks: Dict[Tuple[str, str], np.ndarray]  # (n_batches,)
    n_invalid: int
    n_records: int


def run_geometry(
    cfg: ExperimentConfig,
    table: KernelGrid,
    ici_base: Optional[estimation.IciBase],
    geometry_index: int,
    threads: int = 1,
    n_batches: int = 8,
) -> GeometryResult:
    """All Monte Carlo trials for one network geometry."""
    layout = cfg.layout()
    pn = cfg.pn_params()
    g_rng = derived_rng(cfg.master_seed, _STREAM_GEOMETRY, geometry_index)
    network = generate_network(
        layout, g_rng,
        tx_power_w=cfg.tx_power_w, noise_figure_db=cfg.noise_figure_db,
        shadow_sigma_db=cfg.shadow_sigma_db, wraparound=cfg.wraparound,
        pilot_policy=cfg.pilot_policy, ap_height_m=cfg.ap_height_m,
    )
    book = ofdm.build_pilot_book(layout.tau_p)
    contexts = {
        kind: estimation.build_context(
            network, layout, table, kind=kind, ici_mode=cfg.ici_mode, pn=pn,
            book=book, eval_block=cfg.eval_block, ici_base=ici_base,
        )
        for kind in cfg.estimators
    }
    lam = se.lambda_ici(network, table)
    # matched per-sample ICI power for the gaussian_ici speed option
    ici_power = lam

    n_batches = max(1, min(n_batches, cfg.n_trials))
    batches: Dict[str, List[se.SinrAccumulator]] = {
        kind: [se.SinrAccumulator(len(cfg.schemes), layout.n_ues, layout.block_symbols)
               for _ in range(n_batches)]
        for kind in cfg.estimators
    }

    def one(t: int):
        rng = derived_rng(cfg.master_seed, _STREAM_TRIAL, geometry_index, t)
        return run_trial(cfg, layout, pn, network, book, contexts, lam, ici_power, rng)

    trial_ids = list(range(cfg.n_trials))
    if threads <= 1:
        for t in trial_ids:
            partial = one(t)
            for kind, acc in partial.items():
                batches[kind][t % n_batches].merge(acc)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunk = 4 * threads
            for lo in range(0, len(trial_ids), chunk):
                ids = trial_ids[lo : lo + chunk]
                for t, partial in zip(ids, pool.map(one, ids)):
                    for kind, acc in partial.items():
                        batches[kind][t % n_batches].merge(acc)

    curves, blocks, bcurves, bblocks = {}, {}, {}, {}
    n_invalid = 0
    n_records = 0
    for kind in cfg.estimators:
        total = se.SinrAccumulator(len(cfg.schemes), layout.n_ues, layout.block_symbols)
        for b in batches[kind]:
            total.merge(b)
        for s_idx, scheme in enumerate(cfg.schemes):
            sinr = se.finalize_sinr(total, network, s_idx)
            curve, block = se.se_from_sinr(sinr, layout)
            n_invalid += int(np.isnan(sinr).sum())
            n_records += sinr.size
            curves[(kind, scheme)] = curve
            blocks[(kind, scheme)] = block
            if n_batches > 1:
                bc = []
                bb = []
                for b in batches[kind]:
                    c, bl = se.se_from_sinr(se.finalize_sinr(b, network, s_idx), layout)
                    bc.append(c)
                    bb.append(bl)
                bcurves[(kind, scheme)] = np.stack(bc)
                bblocks[(kind, scheme)] = np.array(bb)
            else:
                bcurves[(kind, scheme)] = curve[None, :]
                bblocks[(kind, scheme)] = np.array([block])
    return GeometryResult(curves=curves, blocks=blocks, batch_curves=bcurves,
                          batch_blocks=bblocks, n_invalid=n_invalid,
                          n_records=n_records)


def run_experiment(
    cfg: ExperimentConfig,
    threads: int = 1,
    progress: bool = False,
    estimator_label: Optional[Dict[str, str]] = None,
) -> List[ResultRecord]:
    """Run the full experiment and aggregate records across geometries.

    The records are a pure function of the configuration: byte-identical for
    every ``threads`` value.  Raises RuntimeError if more than 1% of SINR
    records are invalid.
    """
    cfg.validate()
    layout = cfg.layout()
    t0 = time.perf_counter()
    if progress:
        print(effective_config_text(cfg), file=sys.stderr, end="")
    table = build_kernel_table(cfg)
    ici_base = None
    if "pna_ofdm" in cfg.estimators:
        book = ofdm.build_pilot_book(layout.tau_p)
        ici_base = estimation.build_ici_base(layout, table, book, mode=cfg.ici_mode,
                                             eval_block=cfg.eval_block)
    geoms: List[GeometryResult] = []
    for g in range(cfg.n_geometries):
        geoms.append(run_geometry(cfg, table, ici_base, g, threads=threads))
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
        label = (estimator_label or {}).get(kind, kind)
        for scheme in cfg.schemes:
            key = (kind, scheme)
            curve = np.mean([g.curves[key] for g in geoms], axis=0)
            block = float(np.mean([g.blocks[key] for g in geoms]))
            if cfg.n_geometries > 1:
                curve_se = np.std([g.curves[key] for g in geoms], axis=0, ddof=1) / np.sqrt(
                    cfg.n_geometries
                )
                block_se = float(
                    np.std([g.blocks[key] for g in geoms], ddof=1) / np.sqrt(cfg.n_geometries)
                )
            else:
                bc = geoms[0].batch_curves[key]
                nb = bc.shape[0]
                if nb > 1:
                    curve_se = np.std(bc, axis=0, ddof=1) / np.sqrt(nb)
                    block_se = float(
                        np.std(geoms[0].batch_blocks[key], ddof=1) / np.sqrt(nb)
                    )
                else:
                    curve_se = np.zeros(n_uses)
                    block_se = 0.0
            records.append(
                ResultRecord(cfg.name, scheme, label, layout.n_ues, layout.n_aps,
                             0, 0, block, total_trials, block_se, cfg.master_seed)
            )
            for c in range(1, n_uses + 1):
                records.append(
                    ResultRecord(
                        cfg.name, scheme, label, layout.n_ues, layout.n_aps,
                        c, se.symbol_of_channel_use(c, layout), float(curve[c - 1]),
                        total_trials, float(curve_se[c - 1]), cfg.master_seed,
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


def write_csv(records: Sequence[ResultRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(records_to_csv(records))


def no_pn_variant(cfg: ExperimentConfig) -> ExperimentConfig:
    """Same scenario with ideal oscillators; all estimators coincide."""
    return replace(cfg, gamma_ap=0.0, gamma_ue=0.0, estimators=("pna_ofdm",))


def run_fig2(cfg: Optional[ExperimentConfig] = None, threads: int = 1,
             progress: bool = False) -> List[ResultRecord]:
    """SE per UE versus channel use, all estimators plus no-phase-noise references."""
    from .config import fig2_config

    cfg = cfg if cfg is not None else fig2_config()
    records = run_experiment(cfg, threads=threads, progress=progress)
    ref = run_experiment(no_pn_variant(cfg), threads=threads, progress=progress,
                         estimator_label={"pna_ofdm": "no_pn"})
    return records + ref


FIG3_UE_COUNTS = (1, 6, 10, 20, 100)
FIG3_CHANNEL_USE = 60


def run_fig3(base: Optional[ExperimentConfig] = None, threads: int = 1,
             progress: bool = False,
             ue_counts: Sequence[int] = FIG3_UE_COUNTS) -> List[ResultRecord]:
    """SE per UE at channel use 60 versus the number of UEs."""
    from .config import fig3_config

    out: List[ResultRecord] = []
    for K in ue_counts:
        cfg = fig3_config(K)
        if base is not None:
            cfg = replace(base, n_ues=K, name="%s_K%d" % (base.name, K))
        recs = run_experiment(cfg, threads=threads, progress=progress)
        recs += run_experiment(no_pn_variant(cfg), threads=threads, progress=progress,
                               estimator_label={"pna_ofdm": "no_pn"})
        out.extend(r for r in recs if r.channel_use == FIG3_CHANNEL_USE)
    return out


def dump_geometry_csv(cfg: ExperimentConfig) -> str:
    """Node coordinates of geometry 0 as CSV (node_type, index, x_m, y_m)."""
    layout = cfg.layout()
    rng = derived_rng(cfg.master_seed, _STREAM_GEOMETRY, 0)
    network = generate_network(
        layout, rng,
        tx_power_w=cfg.tx_power_w, noise_figure_db=cfg.noise_figure_db,
        shadow_sigma_db=cfg.shadow_sigma_db, wraparound=cfg.wraparound,
        pilot_policy=cfg.pilot_policy, ap_height_m=cfg.ap_height_m,
    )
    lines = ["node_type,index,x_m,y_m"]
    for i, (x, y) in enumerate(network.ap_positions):
        lines.append("ap,%d,%s,%s" % (i, repr(float(x)), repr(float(y))))
    for i, (x, y) in enumerate(network.ue_positions):
        lines.append("ue,%d,%s,%s" % (i, repr(float(x)), repr(float(y))))
    return "\n".join(lines) + "\n"
