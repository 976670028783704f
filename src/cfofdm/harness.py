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
from .config import ConfigError, ExperimentConfig, effective_config_text
from .network import NetworkRealization, SimulationLayout, gen_channel, generate_network
from .phase_noise import (
    KernelGrid,
    KernelParams,
    PhaseNoiseTrace,
    PnParams,
    build_correlation_table,
    cpe_per_symbol,  # unused here; perfbench/probe.py wraps this name (ROADMAP item 4)
    gen_pn_trace,
)

CSV_HEADER = (
    "experiment,scheme,estimator,K,L,channel_use,tau,se_per_ue,"
    "n_trials,standard_error,master_seed"
)

_STREAM_GEOMETRY = 0
_STREAM_TRIAL = 1
_N_BATCHES = 8  # trial batches behind single-geometry standard errors
MAX_THREADS = 64  # worker threads of one run, each an OS thread


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
    """CPE kernel at every symbol lag within the coherence block."""
    layout = cfg.layout()
    n = layout.n_subcarriers
    stride = n + (layout.cp_len if cfg.cp_consistent_correlation else 0)
    return build_correlation_table(KernelParams(n, cfg.pn_params().sigma2_tot, stride),
                                   range(-(layout.block_symbols - 1), layout.block_symbols))


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
    models: List[estimation.EstimatorModel]   # one per entry of cfg.estimators
    # T, the length of a trial's symbol axis: tau_c, or 1 where both oscillator
    # kinds are ideal, so that every symbol of the block is the same symbol
    symbols: int


@dataclass
class Geometry:
    """Per-geometry state, shared by every Monte Carlo trial."""

    network: NetworkRealization
    contexts: List[estimation.EstimatorContext]  # one per entry of cfg.estimators
    lam: np.ndarray  # (L,) ICI power received at each AP


def build_setup(cfg: ExperimentConfig) -> Setup:
    """Layout, phase-noise parameters, kernel grid, estimator models and
    symbol count of one configuration."""
    layout, pn = cfg.layout(), cfg.pn_params()
    table = build_kernel_table(cfg)
    symbols = 1 if pn.ideal else layout.block_symbols
    models = estimation.build_models(layout, table, cfg.estimators, cfg.ici_mode, symbols)
    return Setup(layout, pn, table, models, symbols)


def build_geometry(cfg: ExperimentConfig, setup: Setup, geometry_index: int) -> Geometry:
    """Network, estimator contexts and ICI power of one geometry."""
    network = _geometry(cfg, geometry_index)
    contexts = [estimation.build_context(network, model) for model in setup.models]
    return Geometry(network, contexts, se.lambda_ici(network, setup.table))


# Bytes of the phase traces of one synthesis piece: the synthesis tile budget.
# A ci piece is three trials, a replayed ideal ci piece six; a fig2 or fig3
# trace alone, or a fig2 or fig3 ideal trial's AP tile, exceeds the budget, so
# there a piece is one trial.
_STACK_BYTES = ofdm._TILE_BYTES
# Bytes of one estimator's stacked (B, tau_c, K, L) complex combiners, which
# bound a trial stack: half the synthesis tile budget.  A ci stack of 15
# trials then combines one estimator per call.
_CHUNK_BYTES = ofdm._TILE_BYTES // 2


def stack_size(layout: SimulationLayout, replay: bool = False) -> int:
    """Trials per synthesis piece (``observe``): at least one, and as many as
    fit ``_STACK_BYTES`` with their phase traces, (K + L) tau_c N float64
    phases each, and with the AP rows of their synthesis tile, L N complex
    samples each (the larger only at tau_c = 1).  A replayed ideal trial
    (``replay``, see ``TrialDraws``) holds no trace and no grids: it counts
    the AP rows of its tile and its channel, K L R complex samples."""
    n, K, L = layout.n_subcarriers, layout.n_ues, layout.n_aps
    if replay:
        return max(1, _STACK_BYTES // (16 * L * (n + K * layout.n_blocks)))
    trace = (K + L) * layout.block_symbols * n * 8
    return max(1, _STACK_BYTES // max(trace, L * n * 16))


def trial_stack_size(layout: SimulationLayout, n_trials: int, threads: int = 1) -> int:
    """Trials per trial stack of a geometry of ``n_trials`` trials on
    ``threads`` threads: the unit of the pool, the estimation, the combining
    and the accumulation.  At most as many as keep one estimator's stacked
    combiners, 16 tau_c K L bytes per trial, within ``_CHUNK_BYTES``, and
    the trials spread evenly over stacks whose count is a multiple of
    ``threads``: 15 at the ci layout's 30 trials, on 1 or 2 threads, in
    both oscillator worlds; 1 at fig2's layout."""
    per_trial = 16 * layout.block_symbols * layout.n_ues * layout.n_aps
    most = max(1, _CHUNK_BYTES // per_trial)
    stacks = threads * -(-n_trials // (threads * most))
    return -(-n_trials // stacks)


_WORD = (1 << 64) - 1  # the low half of a 128-bit PCG64 word


@dataclass
class StackDraws:
    """What an ideal-oscillator twin reuses of some trials' draws, one row per
    trial: each node's initial phase and the trial generator's PCG64 state
    just before the receiver noise, packed as the 128-bit state and increment
    in (high, low) 64-bit words, then ``has_uint32`` and ``uinteger``.

    A recording stack (``replay`` False) is filled by ``observe`` as it draws;
    a replaying one stands in for the trace and grids.  The arrays of a stack
    are views of its geometry's, which ``TrialDraws`` keeps.
    """

    replay: bool
    ap_phase: np.ndarray  # (trials, L) float64
    ue_phase: np.ndarray  # (trials, K) float64
    state: np.ndarray     # (trials, 6) uint64
    recorded: np.ndarray  # (trials,) bool

    def rows(self, trials: range) -> "StackDraws":
        """The stack of ``trials``: views of this geometry's rows."""
        pick = slice(trials.start, trials.stop)
        return StackDraws(self.replay, self.ap_phase[pick], self.ue_phase[pick],
                          self.state[pick], self.recorded[pick])

    def record(self, trace: PhaseNoiseTrace, rngs: Sequence[np.random.Generator]) -> None:
        """Keep the stack's initial phases, the first sample of each walk, and
        its generators' states."""
        self.ap_phase[...] = trace.ap_phase[..., 0, 0]
        self.ue_phase[...] = trace.ue_phase[..., 0, 0]
        for row, rng in zip(self.state, rngs):
            s = rng.bit_generator.state
            state, inc = s["state"]["state"], s["state"]["inc"]
            row[...] = (state >> 64, state & _WORD, inc >> 64, inc & _WORD,
                        s["has_uint32"], s["uinteger"])
        self.recorded[...] = True

    def restore(self, rngs: Sequence[np.random.Generator]) -> None:
        """Move each generator to its recorded state."""
        if not self.recorded.all():
            raise LookupError("a replayed trial has no recorded draws")
        for row, rng in zip(self.state, rngs):
            hi, lo, inc_hi, inc_lo, has_uint32, uinteger = (int(w) for w in row)
            rng.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
                "has_uint32": has_uint32, "uinteger": uinteger,
            }


class TrialDraws:
    """The ``StackDraws`` of every geometry of a run: recorded by the
    phase-noise run of ``run_fig2`` and replayed by its ideal twin
    (``replayed``), which frees each geometry's as it takes it.  A record
    is (K + L) float64 phases, six words and a flag per trial: 1.7 KB at
    fig2's K = 10, L = 200, 17 MB at 50 geometries of 200 trials."""

    def __init__(self, replay: bool = False, geometries: Optional[Dict[int, StackDraws]] = None):
        self.replay = replay
        self._geometries = {} if geometries is None else geometries

    def replayed(self) -> "TrialDraws":
        """The same records, replayed."""
        return TrialDraws(True, self._geometries)

    def geometry(self, index: int, n_trials: int, layout: SimulationLayout) -> StackDraws:
        """The rows of geometry ``index``: new ones to record, or the recorded
        ones to replay, which no longer stay here; raises LookupError if
        geometry ``index`` or one of its ``n_trials`` trials was not recorded."""
        if not self.replay:
            draws = StackDraws(False, np.empty((n_trials, layout.n_aps)),
                               np.empty((n_trials, layout.n_ues)),
                               np.empty((n_trials, 6), dtype=np.uint64),
                               np.zeros(n_trials, dtype=bool))
            self._geometries[index] = draws
            return draws
        draws = self._geometries.pop(index, None)
        if draws is None or len(draws.recorded) != n_trials:
            raise LookupError("geometry %d has no recorded draws of %d trials" % (index, n_trials))
        return replace(draws, replay=True)


def trial_rngs(master_seed: int, geometry_index: int, trials: range) -> List[np.random.Generator]:
    """The generators of ``trials`` of one geometry, one stream per trial."""
    return [derived_rng(master_seed, _STREAM_TRIAL, geometry_index, t) for t in trials]


def _as_stack(first: np.ndarray, size: int) -> np.ndarray:
    """A stack of ``size`` arrays shaped like ``first``, holding ``first`` at
    entry 0: a view of ``first`` itself for a stack of one."""
    if size == 1:
        return first[None]
    stack = np.empty((size,) + first.shape, dtype=first.dtype)
    stack[0] = first
    return stack


def observe(setup: Setup, network: NetworkRealization, rngs: Sequence[np.random.Generator],
            shared_data: bool = False,
            draws: Optional[StackDraws] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Draw and synthesize a stack of trials, one generator per trial.

    Trial b draws from ``rngs[b]`` in this order: channel, phase trace,
    transmit grids (``ofdm.build_transmit_grids``, with ``shared_data``), and
    the receiver noise of the synthesis.  The trials go in pieces of
    ``stack_size``, the last one maybe partial, so the stack holds at most one
    piece's traces and grids at a time.  In a piece, trial 0 draws new
    arrays, which a piece of one uses as they are; the walks of every further
    trial go straight into the piece's stacked trace.  Of a node kind with
    ideal oscillators (sigma^2 = 0) it holds each node's initial phase alone,
    (B, nodes, 1, 1).  Returns the pilot observations y (B, L, tau_p) and the
    effective channels h_eff (B, T, K, L) of the whole stack, each trial's bit
    for bit those of its stack of one.

    A recording ``draws`` keeps each trial's initial phases and its
    generator's state before the noise.  A replaying one, in an ideal world,
    stands in for the trace and grids: each trial draws its channel, moves its
    generator to the recorded state and is synthesized from the recorded
    phases and the layout's pilot samples, the only samples of the grids an
    ideal synthesis reads.  y, h_eff and every generator's end state are
    then bit for bit those of the drawn stack.  ``draws`` is taken a piece's
    rows at a time.
    """
    replay = draws is not None and draws.replay
    if replay and not setup.pn.ideal:
        raise ValueError("only an ideal-oscillator world replays draws")
    B, piece = len(rngs), stack_size(setup.layout, replay)
    parts = [_observe_piece(setup, network, rngs[lo:lo + piece], shared_data,
                            None if draws is None else draws.rows(range(lo, min(lo + piece, B))))
             for lo in range(0, B, piece)]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(a) for a in zip(*parts))


def _observe_piece(setup: Setup, network: NetworkRealization,
                   rngs: Sequence[np.random.Generator], shared_data: bool,
                   draws: Optional[StackDraws]) -> Tuple[np.ndarray, np.ndarray]:
    """``observe`` of one synthesis piece."""
    layout = setup.layout
    B = len(rngs)
    h = _as_stack(gen_channel(network.beta, layout, rngs[0]), B)
    for b in range(1, B):
        h[b] = gen_channel(network.beta, layout, rngs[b])
    if draws is not None and draws.replay:
        draws.restore(rngs)
        trace = PhaseNoiseTrace(draws.ap_phase[..., None, None], draws.ue_phase[..., None, None])
        pilots = layout.pilot_grid[network.pilot_index]
        grids = np.broadcast_to(pilots, (B,) + pilots.shape)
    else:
        ap_cut, ue_cut = (np.s_[..., :1, :1] if s2 == 0.0 else np.s_[...]
                          for s2 in (setup.pn.sigma2_ap, setup.pn.sigma2_ue))
        trace = gen_pn_trace(setup.pn, layout, rngs[0])
        grids = _as_stack(ofdm.build_transmit_grids(layout, network.pilot_index, rngs[0],
                                                    shared_data), B)
        trace = PhaseNoiseTrace(_as_stack(trace.ap_phase[ap_cut], B),
                                _as_stack(trace.ue_phase[ue_cut], B))
        for b in range(1, B):
            gen_pn_trace(setup.pn, layout, rngs[b],
                         PhaseNoiseTrace(trace.ap_phase[b], trace.ue_phase[b]))
            grids[b] = ofdm.build_transmit_grids(layout, network.pilot_index, rngs[b],
                                                 shared_data)
        if draws is not None:
            draws.record(trace, rngs)
    y, cpe = ofdm.synth_pilot_observations(h, grids, trace, network, layout, rngs)
    return y, cpe * h[:, None, :, :, 0]


def run_trial(cfg: ExperimentConfig, setup: Setup, geom: Geometry,
              rngs: Sequence[np.random.Generator],
              draws: Optional[StackDraws] = None) -> se.SinrAccumulator:
    """A stack of Monte Carlo trials, one generator of ``rngs`` each: draw
    and synthesize (``observe``, a piece of ``stack_size`` trials at a time),
    estimate, combine, accumulate.

    Returns an accumulator of shape (B, E, S, T, K), T = ``setup.symbols``,
    whose entry b holds trial b alone (``count`` 1): entry [b, e, s] holds
    estimator e with scheme s.  In an ideal world T is 1: the one symbol
    stands for every symbol of the block, and broadcasts into them when
    merged.  Every array of the trials carries the stack axis first, and
    each trial's sums are bit for bit those of its stack of one.  The
    estimators go in chunks, as many as fit ``_CHUNK_BYTES`` and at least
    one: a chunk's estimates are stacked, and each scheme makes one combiner
    call and one accumulate call over the chunk's entries [:, e0:e1, s].
    With both MMSE variants, the second takes the rows the first solved for
    every group whose partial set is every UE.  ``draws`` goes to ``observe``.
    """
    layout, network = setup.layout, geom.network
    y, h_eff = observe(setup, network, rngs, draws=draws)
    B, E, T = len(rngs), len(geom.contexts), setup.symbols
    acc = se.SinrAccumulator((B, E, len(cfg.schemes), T, layout.n_ues))
    per_call = max(1, _CHUNK_BYTES // (16 * B * T * layout.n_ues * layout.n_aps))
    both_mmse = {"p_mmse", "mmse"} <= set(cfg.schemes)
    for e0 in range(0, E, per_call):
        chunk = geom.contexts[e0:e0 + per_call]
        h_hat = np.stack([estimation.estimate_all(ctx, y) for ctx in chunk], axis=1)
        err_var = np.stack([ctx.err_var for ctx in chunk])
        solved = None  # the first MMSE variant's combiners, until the second is made
        for s, scheme in enumerate(cfg.schemes):
            # one scheme's combiners at a time: the call's result is freed after
            # it, or after the other MMSE variant
            v = combining.combiner_matrix(scheme, h_hat, err_var, network, solved=solved)
            acc.add_symbol((slice(None), slice(e0, e0 + len(chunk)), s), v,
                           h_eff[:, None], geom.lam, network)
            if both_mmse and scheme in ("p_mmse", "mmse"):
                solved = v if solved is None else None
            del v
    acc.bump()
    return acc


@dataclass
class GeometryResult:
    """Per-geometry SE of every (estimator, scheme) pair: entry 0 of the last
    axis is the block, entry tau symbol tau."""

    se: np.ndarray  # (E, S, 1 + tau_c)
    # SE per trial batch, (n_batches, E, S, 1 + tau_c); only for a single-geometry
    # run of several batches, where it feeds the standard error
    batch_se: Optional[np.ndarray]
    n_invalid: int
    n_records: int


def run_geometry(
    cfg: ExperimentConfig,
    setup: Setup,
    geometry_index: int,
    threads: int = 1,
    draws: Optional[TrialDraws] = None,
) -> GeometryResult:
    """All Monte Carlo trials for one network geometry.

    The trials go in stacks of ``trial_stack_size``, the last one maybe
    partial.  Trial t lands in batch t % n_batches, merged in trial order; the
    batches are merged in order.  Stacks run in the calling thread at
    ``threads`` = 1, else on a pool, at most 4 ``threads`` stacks in flight.
    ``draws``, if given, records or replays the geometry's trials
    (``TrialDraws``).
    """
    layout = setup.layout
    geom = build_geometry(cfg, setup, geometry_index)
    network = geom.network
    record = None if draws is None else draws.geometry(geometry_index, cfg.n_trials, layout)

    shape = (len(cfg.estimators), len(cfg.schemes), layout.block_symbols, layout.n_ues)
    n_batches = max(1, min(_N_BATCHES, cfg.n_trials))
    batches = [se.SinrAccumulator(shape) for _ in range(n_batches)]
    stack = trial_stack_size(layout, cfg.n_trials, threads)

    def one(t0: int):
        trials = range(t0, min(t0 + stack, cfg.n_trials))
        return run_trial(cfg, setup, geom, trial_rngs(cfg.master_seed, geometry_index, trials),
                         None if record is None else record.rows(trials))

    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        trial_map = map if pool is None else pool.map
        chunk = 4 * threads * stack  # trials of the stacks in flight at once
        for lo in range(0, cfg.n_trials, chunk):
            starts = range(lo, min(lo + chunk, cfg.n_trials), stack)
            for t0, acc in zip(starts, trial_map(one, starts)):
                for b in range(len(acc.gain)):
                    batches[(t0 + b) % n_batches].merge(acc, b)

    total = se.SinrAccumulator(shape)
    for b in batches:
        total.merge(b)
    sinr = se.finalize_sinr(total, network)
    batch_se = None
    if cfg.n_geometries == 1 and n_batches > 1:
        batch_se = np.stack([se.se_from_sinr(se.finalize_sinr(b, network)) for b in batches])
    return GeometryResult(se=se.se_from_sinr(sinr), batch_se=batch_se,
                          n_invalid=int(np.isnan(sinr).sum()), n_records=sinr.size)


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
    draws: Optional[TrialDraws] = None,
) -> List[ResultRecord]:
    """Run the full experiment and aggregate records across geometries.

    The records are a pure function of the configuration: byte-identical for
    every ``threads`` value from 1 to MAX_THREADS; any other raises ValueError
    before a thread starts.  The standard error spreads over the
    geometries, or over the trial batches of a single-geometry run.  A row's SE
    stays one (1 + tau_c) array, the block then every symbol, until the records
    are written: channel use c reads entry ceil(c / N_c), so the block row
    (c = 0) reads entry 0.  Raises RuntimeError if more than 1% of SINR records
    are invalid.  ``draws`` goes to every ``run_geometry``.
    """
    cfg.validate()
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError("threads must lie in [1, %d], got %r" % (MAX_THREADS, threads))
    layout = cfg.layout()
    t0 = time.perf_counter()
    if progress:
        print(effective_config_text(cfg), file=sys.stderr, end="")
    setup = build_setup(cfg)
    geoms: List[GeometryResult] = []
    for g in range(cfg.n_geometries):
        geoms.append(run_geometry(cfg, setup, g, threads=threads, draws=draws))
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
    per_geometry = np.stack([g.se for g in geoms])  # (geometries, E, S, 1 + tau_c)
    mean = np.mean(per_geometry, axis=0)
    # one geometry: the spread is over its trial batches
    spread = per_geometry if geoms[0].batch_se is None else geoms[0].batch_se
    err = _standard_error(spread)
    if not (np.isfinite(mean).all() and np.isfinite(err).all()):
        raise RuntimeError("Monte Carlo underflow: a result has no valid SINR record")
    records: List[ResultRecord] = []
    for e, s in np.ndindex(mean.shape[:2]):  # estimators, then schemes: CSV order
        for c in range(n_uses + 1):
            tau = se.symbol_of_channel_use(c, layout)
            records.append(
                ResultRecord(
                    cfg.name, cfg.schemes[s], cfg.estimators[e], layout.n_ues, layout.n_aps,
                    c, tau, float(mean[e, s, tau]), total_trials, float(err[e, s, tau]),
                    cfg.master_seed,
                )
            )
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
    labelled ``no_pn``.  The ideal run replays the draws of the first
    (``TrialDraws``): its rows are those of a drawn run, byte for byte."""
    draws = TrialDraws()
    records = run_experiment(cfg, threads=threads, progress=progress, draws=draws)
    no_pn = replace(cfg, gamma_ap=0.0, gamma_ue=0.0, estimators=("pna_ofdm",))
    ref = run_experiment(no_pn, threads=threads, progress=progress, draws=draws.replayed())
    return records + [replace(r, estimator="no_pn") for r in ref]


FIG3_UE_COUNTS = (1, 6, 10, 20, 100)
FIG3_CHANNEL_USE = 60


def run_fig3(base: ExperimentConfig, threads: int = 1,
             progress: bool = False) -> List[ResultRecord]:
    """SE per UE at channel use 60 versus the number of UEs: ``run_fig2`` of
    ``base`` at every count of FIG3_UE_COUNTS, experiment ``<name>_K<count>``.

    Every count's configuration is validated before the first one runs, and
    the coherence block must reach channel use 60.
    """
    cfgs = [replace(base, n_ues=K, name="%s_K%d" % (base.name, K)) for K in FIG3_UE_COUNTS]
    for cfg in cfgs:
        cfg.validate()
    n_uses = base.block_subcarriers * base.block_symbols
    if n_uses < FIG3_CHANNEL_USE:
        raise ConfigError("fig3 reads channel use %d, but the coherence block has "
                          "only %d channel uses" % (FIG3_CHANNEL_USE, n_uses))
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
