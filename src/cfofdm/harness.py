"""Experiment orchestration: deterministic seeded Monte Carlo execution,
result aggregation, and CSV persistence."""

from __future__ import annotations

import logging
import os
import pickle
import signal
import sys
import time
import traceback
from dataclasses import dataclass, replace
from itertools import islice
from typing import BinaryIO, List, Optional, Sequence, Tuple

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
# Workers of one run: the calling process and up to 63 children forked once
# per run, each with its own geometry and trial working set
MAX_THREADS = 64


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
    """The simulated world's CPE kernel, at the traces' stride N + N_cp, at every
    symbol lag within the coherence block: ``estimation.assumed_kernel``
    derives each estimator kind's kernel from it."""
    layout = cfg.layout()
    n = layout.n_subcarriers
    return build_correlation_table(KernelParams(n, cfg.pn_params().sigma2_tot, n + layout.cp_len),
                                   range(-(layout.block_symbols - 1), layout.block_symbols))


def _geometry(cfg: ExperimentConfig, geometry_index: int) -> NetworkRealization:
    """The network realization of one geometry, drawn from its own stream."""
    return generate_network(cfg, derived_rng(cfg.master_seed, _STREAM_GEOMETRY, geometry_index))


@dataclass
class Setup:
    """Per-configuration state, shared by every geometry.  ``draws`` is the
    no_pn replay record of ``draw_trials``, if any: ``_trial_key`` of each
    trial to its initial phases, AP then UE, and its generator's
    ``bit_generator.state`` just before its receiver noise."""

    layout: SimulationLayout
    pn: PnParams
    table: KernelGrid
    models: List[estimation.EstimatorModel]   # one per entry of cfg.estimators
    draws: Optional[dict] = None


@dataclass
class Geometry:
    """Per-geometry state, shared by every Monte Carlo trial."""

    network: NetworkRealization
    contexts: List[estimation.EstimatorContext]  # one per entry of cfg.estimators
    lam: np.ndarray  # (L,) ICI power received at each AP


def build_setup(cfg: ExperimentConfig) -> Setup:
    """Layout, phase-noise parameters, kernel grid and estimator models of
    one configuration."""
    layout, pn = cfg.layout(), cfg.pn_params()
    table = build_kernel_table(cfg)
    models = estimation.build_models(layout, table, cfg.estimators)
    return Setup(layout, pn, table, models)


def build_geometry(cfg: ExperimentConfig, setup: Setup, geometry_index: int) -> Geometry:
    """Network, estimator contexts and ICI power of one geometry."""
    network = _geometry(cfg, geometry_index)
    contexts = [estimation.build_context(network, model) for model in setup.models]
    return Geometry(network, contexts, se.lambda_ici(network, setup.table))


# Bytes of what one synthesis piece holds: the synthesis tile budget.  A ci
# piece is three phase-noise trials or six ideal ones; a fig2 or fig3 trial's
# walks, or an ideal one's AP tile, exceed the budget, so there a piece is one
# trial.
_STACK_BYTES = ofdm._TILE_BYTES
# Bytes of one estimator's stacked (B, tau_c, K, L) complex combiners, which
# bound a trial stack: half the synthesis tile budget.  A ci stack is then 15
# trials.
_CHUNK_BYTES = ofdm._TILE_BYTES // 2


def _piece_size(setup: Setup) -> int:
    """Trials per synthesis piece of ``observe``: at least one, and as many
    as fit ``_STACK_BYTES`` with what a trial holds, the larger of its phase
    walks, tau_c N float64 phases per node of a kind with phase noise, and
    its AP tile and channel, L (N + K R) complex samples."""
    layout, pn = setup.layout, setup.pn
    n, K, L = layout.n_subcarriers, layout.n_ues, layout.n_aps
    nodes = L * (pn.sigma2_ap > 0.0) + K * (pn.sigma2_ue > 0.0)
    walks = nodes * layout.block_symbols * n * 8
    return max(1, _STACK_BYTES // max(walks, 16 * L * (n + K * layout.n_blocks)))


def trial_stack_size(layout: SimulationLayout, n_trials: int, threads: int = 1) -> int:
    """Trials per trial stack of a geometry of ``n_trials`` trials on
    ``threads`` workers: the unit of a worker, the estimation, the combining
    and the accumulation.  At most as many as keep one estimator's stacked
    combiners, 16 tau_c K L bytes per trial, within ``_CHUNK_BYTES``, and
    the trials spread evenly over stacks whose count is a multiple of
    ``threads``: 15 at the ci layout's 30 trials, on 1 or 2 threads, in
    both oscillator worlds; 1 at fig2's layout."""
    per_trial = 16 * layout.block_symbols * layout.n_ues * layout.n_aps
    most = max(1, _CHUNK_BYTES // per_trial)
    stacks = threads * -(-n_trials // (threads * most))
    return -(-n_trials // stacks)


def trial_rngs(master_seed: int, geometry_index: int, trials: range) -> List[np.random.Generator]:
    """The generators of ``trials`` of one geometry, one stream per trial."""
    return [derived_rng(master_seed, _STREAM_TRIAL, geometry_index, t) for t in trials]


def _trial_key(rng: np.random.Generator) -> tuple:
    """A trial's key in a replay record: its generator's seed and spawn key,
    (master seed, (stream, geometry, trial)) for ``trial_rngs``."""
    seq = rng.bit_generator.seed_seq
    return seq.entropy, seq.spawn_key


def _as_stack(first: np.ndarray, size: int) -> np.ndarray:
    """A stack of ``size`` arrays shaped like ``first``, holding ``first`` at
    entry 0: a view of ``first`` itself for a stack of one."""
    if size == 1:
        return first[None]
    stack = np.empty((size,) + first.shape, dtype=first.dtype)
    stack[0] = first
    return stack


def observe(setup: Setup, network: NetworkRealization,
            rngs: Sequence[np.random.Generator]) -> Tuple[np.ndarray, np.ndarray]:
    """Draw (``draw_trials``) and synthesize a stack of trials, one generator
    per trial, in pieces of ``_piece_size``, the last one maybe partial, so
    the stack holds at most one piece's traces and grids at a time.  Each
    trial's receiver noise is added to the noise-free synthesis of
    ``ofdm.synth_pilot_observations``, itself drawing nothing.  Returns the
    pilot observations y (B, L, tau_p) and the effective channels h_eff
    (B, T, K, L) of the whole stack, each trial's bit for bit those of its
    stack of one."""
    B, piece = len(rngs), _piece_size(setup)
    parts = [_observe_piece(setup, network, rngs[lo:lo + piece]) for lo in range(0, B, piece)]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(a) for a in zip(*parts))


def _observe_piece(setup: Setup, network: NetworkRealization,
                   rngs: Sequence[np.random.Generator]) -> Tuple[np.ndarray, np.ndarray]:
    """``observe`` of one synthesis piece."""
    h, trace, grids, noise = draw_trials(setup, network, rngs)
    y, cpe = ofdm.synth_pilot_observations(h, grids, trace, network, setup.layout)
    return y + noise, cpe * h[:, None, :, :, 0]


def draw_trials(setup: Setup, network: NetworkRealization, rngs: Sequence[np.random.Generator],
                ) -> Tuple[np.ndarray, PhaseNoiseTrace, np.ndarray, np.ndarray]:
    """What a stack of trials draws, trial b from ``rngs[b]`` in this order:
    channels h (B, K, L, R), the phase trace, allocated up front (an ideal
    node kind holds each node's initial phase alone, (B, nodes, 1, 1)),
    transmit grids (B, K, |T_p|, N) and receiver noise (B, L, tau_p).

    An ideal stack whose trials are all in the replay record
    ``setup.draws`` replays them: each trial draws its channel, moves its
    generator to the recorded state and draws its noise, and takes the
    recorded phases and the layout's pilot samples, the only grid samples an
    ideal synthesis reads.  Every other stack draws, and records into
    ``setup.draws``, if any, each trial's initial phases and, just before
    its noise, its generator's state.  Replaying gives the drawn stack's y,
    h_eff and generator end states bit for bit, so drawing is never wrong,
    only slower.
    """
    layout, pn, record = setup.layout, setup.pn, setup.draws
    B, L = len(rngs), layout.n_aps
    h = _as_stack(gen_channel(network.beta, layout, rngs[0]), B)
    for b in range(1, B):
        h[b] = gen_channel(network.beta, layout, rngs[b])
    keys = [] if record is None else [_trial_key(rng) for rng in rngs]
    replay = pn.ideal and record is not None and all(key in record for key in keys)
    if replay:
        phases = np.stack([record[key][0] for key in keys])[..., None, None]
        trace = PhaseNoiseTrace(phases[:, :L], phases[:, L:])
        pilots = np.zeros((layout.n_ues, len(layout.pilot_symbols), layout.n_subcarriers),
                          dtype=complex)
        ofdm.place_pilots(pilots, layout, network.pilot_index)
        grids = np.broadcast_to(pilots, (B,) + pilots.shape)
    else:
        walk = (layout.block_symbols, layout.n_subcarriers)
        trace = PhaseNoiseTrace(*(np.empty((B, nodes) + (walk if s2 > 0.0 else (1, 1)))
                                  for nodes, s2 in ((layout.n_aps, pn.sigma2_ap),
                                                    (layout.n_ues, pn.sigma2_ue))))
        for b in range(B):
            gen_pn_trace(pn, layout, rngs[b],
                         PhaseNoiseTrace(trace.ap_phase[b], trace.ue_phase[b]))
        grids = _as_stack(ofdm.build_transmit_grids(layout, network.pilot_index, rngs[0]), B)
        for b in range(1, B):
            grids[b] = ofdm.build_transmit_grids(layout, network.pilot_index, rngs[b])
    shape = (layout.n_aps, layout.tau_p)
    noise = np.empty((B,) + shape, dtype=complex)
    for b, rng in enumerate(rngs):
        if replay:
            rng.bit_generator.state = record[keys[b]][1]
        elif record is not None:
            record[keys[b]] = (np.concatenate((trace.ap_phase[b, :, 0, 0],
                                               trace.ue_phase[b, :, 0, 0])),
                               rng.bit_generator.state)
        noise[b] = np.sqrt(network.sigma2 / 2.0) * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return h, trace, grids, noise


def run_trial(cfg: ExperimentConfig, setup: Setup, geom: Geometry,
              rngs: Sequence[np.random.Generator]) -> se.SinrAccumulator:
    """A stack of Monte Carlo trials, one generator of ``rngs`` each: draw
    and synthesize (``observe``), estimate, combine, accumulate.

    Returns an accumulator of shape (B, E, S, T, K), T the symbol count of
    the world's effective channels, whose entry b holds trial b alone
    (``count`` 1): entry [b, e, s] holds estimator e with scheme s.  In an
    ideal world T is 1: the one symbol stands for every symbol of the block,
    and broadcasts into them when merged.  A context of one symbol
    (``estimation.build_models``: ``unaware``, or every kind in an ideal
    world) gives one estimate and one combiner per UE, which broadcast
    against the T symbols of h_eff when accumulated.  Every array of the
    trials carries the stack axis first, and each trial's sums are bit for
    bit those of its stack of one.  Each estimator makes one estimate of
    the stack, then each scheme one combiner call, which depends on that
    estimate alone, and one accumulate call over its entries [:, e, s].
    """
    layout, network = setup.layout, geom.network
    y, h_eff = observe(setup, network, rngs)
    shape = (len(rngs), len(geom.contexts), len(cfg.schemes), h_eff.shape[1], layout.n_ues)
    acc = se.SinrAccumulator(shape)
    for e, ctx in enumerate(geom.contexts):
        h_hat = estimation.estimate_all(ctx, y)
        for s, scheme in enumerate(cfg.schemes):
            # one scheme's combiners at a time, freed before the next is made
            v = combining.combiner_matrix(scheme, h_hat, ctx.err_var, network)
            acc.add_symbol((slice(None), e, s), v, h_eff, geom.lam, network)
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


def _capture_records() -> list:
    """The list that every record the package's loggers make from now on
    goes to, kept from every handler and ready to pickle: its message
    formatted and its arguments dropped.  For a forked worker, which
    captures until it exits."""
    records = []

    def keep(record):
        record.msg, record.args = record.getMessage(), None
        records.append(record)
        return False

    for name, logger in list(logging.Logger.manager.loggerDict.items()):
        if name.split(".")[0] == __package__ and isinstance(logger, logging.Logger):
            logger.addFilter(keep)
    return records


@dataclass
class _Child:
    """A forked worker not yet reaped."""

    pid: int
    pipe: BinaryIO  # the read end of its pipe
    left: int       # its stacks not yet read


class _Workers:
    """The worker processes of the trial stacks of ``geometries``, forked once.

    The stacks are those of ``trial_stack_size`` for ``threads`` workers.
    Items (g, t0), the stack at trial t0 of geometry g, taken in that order,
    go round-robin: item i runs on worker i % W, W the least of ``threads``
    and the item count, or 1 where ``os.fork`` is missing.  A geometry has a
    multiple of ``threads`` stacks unless it has fewer, so worker w runs
    stacks w, w + threads, ... of each geometry.  Worker 0 is the calling
    process, which runs its stacks in ``run_geometry``.  Each other one is a
    child forked here with ``os.fork``, which inherits cfg and set-up, so
    no input is pickled.  A child builds a geometry when it reaches its
    first stack there, holding one geometry at a time.  As soon as a stack
    is done it pickles one message down its own pipe: the stack's
    accumulator, the entries it added to the set-up's replay record and the
    package's log records it made, or the exception that stopped the child.
    ``receive`` reads a child's messages one at a time, in item order.
    ``close``, or leaving a ``with`` block, reaps every child, killing first
    each one whose stacks are not all read.
    """

    def __init__(self, cfg: ExperimentConfig, setup: Setup, geometries: range, threads: int):
        self.cfg, self.setup = cfg, setup
        self.stack = trial_stack_size(setup.layout, cfg.n_trials, threads)
        self.starts = range(0, cfg.n_trials, self.stack)
        self.first = geometries.start
        items = [(g, t0) for g in geometries for t0 in self.starts]
        self.count = min(threads, len(items)) if hasattr(os, "fork") else 1
        self.children = {}  # worker index: _Child
        try:
            for w in range(1, self.count):
                r, w_fd = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    os.close(r)
                    os.close(w_fd)
                    raise
                if pid == 0:
                    self._serve(items[w::self.count], r, w_fd)
                os.close(w_fd)
                self.children[w] = _Child(pid, os.fdopen(r, "rb"), len(items[w::self.count]))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def worker(self, geometry_index: int, t0: int) -> int:
        """The worker of the stack at trial t0 of a geometry."""
        item = (geometry_index - self.first) * len(self.starts) + t0 // self.stack
        return item % self.count

    def run_stack(self, geom: Geometry, geometry_index: int, t0: int) -> se.SinrAccumulator:
        """``run_trial`` of the stack at trial t0 of the geometry ``geom``."""
        trials = range(t0, min(t0 + self.stack, self.cfg.n_trials))
        return run_trial(self.cfg, self.setup, geom,
                         trial_rngs(self.cfg.master_seed, geometry_index, trials))

    def _serve(self, items: Sequence[Tuple[int, int]], r: int, w_fd: int) -> None:
        """A child's work: run ``items``, writing each one's message down its
        pipe, ``r`` to ``w_fd``, as a length and the pickled bytes.  Leaves
        only through ``os._exit``."""
        status = 1
        try:
            os.close(r)
            for child in self.children.values():  # the read ends of earlier children
                child.pipe.close()
            records = _capture_records()
            record = {} if self.setup.draws is None else self.setup.draws
            current = geom = None
            with os.fdopen(w_fd, "wb") as pipe:
                for g, t0 in items:
                    try:
                        if g != current:
                            geom = None  # one geometry at a time
                            geom, current = build_geometry(self.cfg, self.setup, g), g
                        recorded = len(record)
                        acc = self.run_stack(geom, g, t0)
                        message = acc, list(islice(record.items(), recorded, None)), records[:]
                    except Exception as exc:
                        message = None, exc, traceback.format_exc()
                    del records[:]
                    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
                    pipe.write(len(data).to_bytes(8, "little"))
                    pipe.write(data)
                    pipe.flush()
                    if message[0] is None:
                        break
            status = 0
        finally:
            os._exit(status)

    def receive(self, w: int, geometry_index: int, t0: int) -> se.SinrAccumulator:
        """The accumulator of the stack at trial t0 of a geometry, worker w's
        next message.  The entries its stack added to the replay record go
        into the set-up's, and its log records are handled here by the
        loggers that made them.  A child's exception is raised here with its
        type and message; a child that exits without the message raises
        RuntimeError naming the geometry."""
        child = self.children[w]
        head = child.pipe.read(8)
        size = int.from_bytes(head, "little")
        data = child.pipe.read(size) if len(head) == 8 else b""
        if len(head) < 8 or len(data) < size:
            raise RuntimeError("geometry %d: worker process %d exited with status %d before "
                               "sending its results"
                               % (geometry_index, child.pid, self._reap(w, kill=False)))
        child.left -= 1
        message = pickle.loads(data)  # bytes that a child of this process wrote
        if message[0] is None:  # the exception that stopped the child
            _, exc, trace = message
            raise exc from RuntimeError("in worker process %d of geometry %d:\n%s"
                                        % (child.pid, geometry_index, trace))
        acc, added, records = message
        if added:
            self.setup.draws.update(added)
        for record in records:
            logging.getLogger(record.name).handle(record)
        return acc

    def _reap(self, w: int, kill: bool) -> int:
        """Reap worker w, killed first if ``kill``; its exit status."""
        child = self.children.pop(w)
        child.pipe.close()
        if kill:
            os.kill(child.pid, signal.SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1])

    def close(self) -> None:
        """Reap every child, killing first each one whose stacks are not all read."""
        for w in list(self.children):
            self._reap(w, kill=self.children[w].left > 0)


def run_geometry(cfg: ExperimentConfig, setup: Setup, geometry_index: int,
                 workers: _Workers) -> GeometryResult:
    """All Monte Carlo trials for one network geometry.

    The trials go in the stacks of ``workers``, a run's ``_Workers`` whose
    geometries hold this one, the last stack maybe partial.  The calling
    process builds the geometry and runs its own stacks here, and reads each
    other stack from its worker, in stack order; where it runs none it draws
    the network alone.  Trial t lands in batch t % n_batches, each stack
    merged in trial order as it comes; the batches are merged in order.
    """
    layout = setup.layout
    shape = (len(cfg.estimators), len(cfg.schemes), layout.block_symbols, layout.n_ues)
    n_batches = max(1, min(_N_BATCHES, cfg.n_trials))
    batches = [se.SinrAccumulator(shape) for _ in range(n_batches)]
    geom = None
    for t0 in workers.starts:
        w = workers.worker(geometry_index, t0)
        if w == 0:
            if geom is None:
                geom = build_geometry(cfg, setup, geometry_index)
            acc = workers.run_stack(geom, geometry_index, t0)
        else:
            acc = workers.receive(w, geometry_index, t0)
        for b in range(len(acc.gain)):
            batches[(t0 + b) % n_batches].merge(acc, b)
        del acc  # merged: freed before the next stack is read

    network = _geometry(cfg, geometry_index) if geom is None else geom.network
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
    draws: Optional[dict] = None,
) -> List[ResultRecord]:
    """Run the full experiment and aggregate records across geometries.

    The records are a pure function of the configuration: byte-identical for
    every ``threads`` value from 1 to MAX_THREADS; any other raises ValueError
    before a worker process is forked.  The workers (``_Workers``) are forked
    once, after the set-up, and ``run_geometry`` takes each geometry's stacks
    from them in turn.  The standard error spreads over the
    geometries, or over the trial batches of a single-geometry run.  A row's SE
    stays one (1 + tau_c) array, the block then every symbol, until the records
    are written: channel use c reads entry ceil(c / N_c), so the block row
    (c = 0) reads entry 0.  Raises RuntimeError if more than 1% of SINR records
    are invalid.  ``draws``, a replay record (``Setup.draws``), goes on the
    set-up.
    """
    cfg.validate()
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError("threads must lie in [1, %d], got %r" % (MAX_THREADS, threads))
    layout = cfg.layout()
    t0 = time.perf_counter()
    if progress:
        print(effective_config_text(cfg), file=sys.stderr, end="")
    setup = replace(build_setup(cfg), draws=draws)
    geoms: List[GeometryResult] = []
    with _Workers(cfg, setup, range(cfg.n_geometries), threads) as workers:
        for g in range(cfg.n_geometries):
            geoms.append(run_geometry(cfg, setup, g, workers=workers))
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
    labelled ``no_pn``.  Both runs take one replay record: the first records
    every trial's draws and the ideal run replays them, so its rows are
    those of a drawn run, byte for byte."""
    draws = {}
    records = run_experiment(cfg, threads=threads, progress=progress, draws=draws)
    no_pn = replace(cfg, gamma_ap=0.0, gamma_ue=0.0, estimators=("pna_ofdm",))
    ref = run_experiment(no_pn, threads=threads, progress=progress, draws=draws)
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
