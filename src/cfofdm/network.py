"""Network geometry, large-scale fading, pilot assignment, cooperation clusters,
and block-fading channel realizations."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Tuple

import numpy as np

# Propagation constants (path loss in dB at 3-D distance d meters, d >= 1):
#   PL(d) = -30.5 - 36.7 * log10(d)
PATHLOSS_CONST_DB = -30.5
PATHLOSS_EXP_DB = 36.7
DISTANCE_FLOOR_M = 1.0
PILOT_POLICIES = ("round_robin", "greedy")


@dataclass(frozen=True)
class SimulationLayout:
    """Static OFDM / coherence-block / network dimensions.

    Attributes
    ----------
    n_subcarriers : int
        Subcarriers per OFDM symbol (N).
    cp_len : int
        Cyclic-prefix length in samples (N_cp).
    subcarrier_spacing : float
        Subcarrier spacing in Hz.
    block_subcarriers : int
        Subcarriers per coherence block (N_c).
    block_symbols : int
        OFDM symbols per coherence block (tau_c).
    pilot_subcarriers : tuple[int, ...]
        Block-local subcarrier indices carrying pilots, each in [0, N_c).
    pilot_symbols : tuple[int, ...]
        1-based OFDM symbol indices carrying pilots, each in [1, tau_c].
    n_aps, n_ues : int
        AP count (L) and UE count (K).
    area_side : float
        Side of the square deployment area in meters.
    """

    n_subcarriers: int
    cp_len: int
    subcarrier_spacing: float
    block_subcarriers: int
    block_symbols: int
    pilot_subcarriers: tuple
    pilot_symbols: tuple
    n_aps: int
    n_ues: int
    area_side: float

    def __post_init__(self):
        if self.n_subcarriers < 1 or self.block_subcarriers < 1:
            raise ValueError("subcarrier counts must be >= 1")
        if self.block_subcarriers > self.n_subcarriers:
            raise ValueError("block_subcarriers must not exceed n_subcarriers")
        if self.cp_len < 0:
            raise ValueError("cp_len must be >= 0")
        if self.block_symbols < 1:
            raise ValueError("block_symbols must be >= 1")
        if self.n_aps < 1 or self.n_ues < 1:
            raise ValueError("n_aps and n_ues must be >= 1")
        if self.area_side <= 0:
            raise ValueError("area_side must be positive")
        if not self.pilot_subcarriers or not self.pilot_symbols:
            raise ValueError("pilot placement must be non-empty")
        if any(not 0 <= n < self.block_subcarriers for n in self.pilot_subcarriers):
            raise ValueError("pilot subcarriers must lie in [0, block_subcarriers)")
        if any(not 1 <= t <= self.block_symbols for t in self.pilot_symbols):
            raise ValueError("pilot symbols must lie in [1, block_symbols]")
        if len(set(self.pilot_subcarriers)) != len(self.pilot_subcarriers):
            raise ValueError("pilot subcarriers must be distinct")
        if len(set(self.pilot_symbols)) != len(self.pilot_symbols):
            raise ValueError("pilot symbols must be distinct")
        if self.tau_p > self.block_subcarriers * self.block_symbols:
            raise ValueError(
                "pilot length tau_p=%d exceeds block size N_c*tau_c=%d"
                % (self.tau_p, self.block_subcarriers * self.block_symbols)
            )

    @property
    def tau_p(self) -> int:
        """Pilot length: one channel use per (pilot subcarrier, pilot symbol) pair."""
        return len(self.pilot_subcarriers) * len(self.pilot_symbols)

    @property
    def n_blocks(self) -> int:
        """Coherence blocks per OFDM symbol, R = ceil(N / N_c)."""
        return -(-self.n_subcarriers // self.block_subcarriers)

    @property
    def bandwidth(self) -> float:
        """Signal bandwidth W = N * delta_f in Hz."""
        return self.n_subcarriers * self.subcarrier_spacing

    @property
    def sample_time(self) -> float:
        """Sample period T_s = 1 / W in seconds."""
        return 1.0 / self.bandwidth

    @property
    def pilot_slot_positions(self) -> tuple:
        """Absolute subcarrier and 1-based symbol index of every pilot slot of
        the first coherence block, the one under evaluation: two integer
        arrays, enumerated symbol-major, so the i-th pilot sample of every
        sequence is sent at slot i of every coherence block."""
        n_p, n_s = len(self.pilot_subcarriers), len(self.pilot_symbols)
        return np.tile(self.pilot_subcarriers, n_s), np.repeat(self.pilot_symbols, n_p)

    @cached_property
    def pilot_book(self) -> np.ndarray:
        """Mutually orthogonal pilot sequences as columns of a (tau_p, tau_p) matrix.

        Columns are exponential-basis (DFT) sequences with unit-modulus entries, so
        ||s_t||^2 = tau_p exactly and distinct columns are exactly orthogonal.
        Row i is the sample sent at slot i of ``pilot_slot_positions``.
        """
        m = np.arange(self.tau_p)
        book = np.exp(-2j * np.pi * np.outer(m, m) / self.tau_p)
        book.setflags(write=False)  # one array, shared by every caller
        return book


@dataclass(frozen=True)
class ClusterGroup:
    """The UEs served by one and the same set of APs (one distinct row of D)."""

    ues: np.ndarray      # the UEs of the group, ascending
    support: np.ndarray  # their serving APs
    partial: np.ndarray  # UEs sharing a serving AP with them, the group included


@dataclass
class NetworkRealization:
    """One drawn network: geometry, large-scale fading, clusters, pilots, powers.

    ``groups`` is built from D once, at construction, in order of each
    group's first UE.
    """

    ap_positions: np.ndarray  # (L, 2) meters
    ue_positions: np.ndarray  # (K, 2) meters
    beta: np.ndarray          # (K, L) linear power gain
    D: np.ndarray             # (K, L) binary cooperation matrix
    pilot_index: np.ndarray   # (K,) 0-based pilot indices in [0, tau_p)
    p: np.ndarray             # (K,) transmit power, W
    sigma2: float             # noise power, W
    groups: Tuple[ClusterGroup, ...] = field(init=False, repr=False)

    def __post_init__(self):
        rows = {}
        for k in range(self.D.shape[0]):
            rows.setdefault(self.D[k].tobytes(), []).append(k)
        self.groups = tuple(
            ClusterGroup(ues=np.asarray(ks), support=np.flatnonzero(self.D[ks[0]]),
                         partial=np.flatnonzero((self.D & self.D[ks[0]]).any(axis=1)))
            for ks in rows.values())


def place_nodes(layout: SimulationLayout, rng: np.random.Generator):
    """Drop APs and UEs i.i.d. uniformly on the square area.

    Returns (ap_positions, ue_positions), each an (n, 2) array in meters.
    """
    ap = rng.uniform(0.0, layout.area_side, size=(layout.n_aps, 2))
    ue = rng.uniform(0.0, layout.area_side, size=(layout.n_ues, 2))
    return ap, ue


def _pairwise_distances(ue_pos, ap_pos, area_side, wraparound):
    """Minimum UE-AP distances, over the 8 mirror replicas if wraparound is on."""
    diff = np.abs(ue_pos[:, None, :] - ap_pos[None, :, :])
    if wraparound:
        diff = np.minimum(diff, area_side - diff)
    return np.sqrt((diff**2).sum(axis=-1))


def large_scale_fading(
    ue_positions: np.ndarray,
    ap_positions: np.ndarray,
    area_side: float,
    rng: np.random.Generator,
    wraparound: bool,
    shadow_sigma_db: float,
    ap_height_m: float,
) -> np.ndarray:
    """Large-scale fading matrix beta (K, L), linear scale.

    beta_dB = -30.5 - 36.7*log10(d) + F with d the 3-D distance including the
    AP-UE height difference, floored at 1 m, and F ~ N(0, shadow_sigma_db^2)
    i.i.d. per link.
    """
    d = _pairwise_distances(ue_positions, ap_positions, area_side, wraparound)
    d = np.maximum(np.sqrt(d**2 + ap_height_m**2), DISTANCE_FLOOR_M)
    beta_db = PATHLOSS_CONST_DB - PATHLOSS_EXP_DB * np.log10(d)
    if shadow_sigma_db > 0:
        beta_db = beta_db + rng.normal(0.0, shadow_sigma_db, size=d.shape)
    return 10.0 ** (beta_db / 10.0)


def assign_pilots(beta: np.ndarray, tau_p: int, policy: str) -> np.ndarray:
    """Assign a 0-based pilot index to every UE.

    ``round_robin``: t_k = k mod tau_p.  ``greedy``: UEs in descending order of
    their strongest link pick, among the pilots with fewer than L UEs, the one
    with the least accumulated gain at their strongest AP.  A pilot holds at
    most L UEs because each needs its own (AP, pilot) slot for its master claim
    in ``form_dcc``; with K <= L * tau_p a pilot with room always exists.
    """
    K, L = beta.shape
    if policy == "round_robin":
        return np.arange(K) % tau_p
    if policy != "greedy":
        raise ValueError("unknown pilot policy: %r" % (policy,))
    t = np.full(K, -1, dtype=int)
    for k in np.argsort(-beta.max(axis=1), kind="stable"):
        on = t >= 0
        load = np.zeros(tau_p)
        np.add.at(load, t[on], beta[on, np.argmax(beta[k])])  # in UE order
        load[np.bincount(t[on], minlength=tau_p) >= L] = np.inf
        t[k] = np.argmin(load)
    return t


def form_dcc(beta: np.ndarray, pilot_index: np.ndarray, tau_p: int) -> np.ndarray:
    """Dynamic cooperation cluster matrix D (K, L).

    Each AP serves, on every pilot in use, only the strongest UE assigned to
    it; additionally every UE's strongest AP is forced to serve it, evicting a
    weaker same-pilot occupant if needed.  Keeps at most one served UE per
    (AP, pilot) and at least one serving AP per UE.
    """
    K, L = beta.shape
    used = np.flatnonzero(np.bincount(pilot_index))
    serve = np.zeros((L, tau_p), dtype=int)  # serve[l, t]: the UE AP l serves on pilot t
    for t in used:
        users = np.flatnonzero(pilot_index == t)
        serve[:, t] = users[np.argmax(beta[users, :], axis=0)]
    claimed = np.zeros((L, tau_p), dtype=bool)  # slots pinned by a master claim
    for k in np.argsort(-beta.max(axis=1), kind="stable"):
        t = pilot_index[k]
        aps = np.argsort(-beta[k])
        free = aps[~claimed[aps, t]]
        if not free.size:
            raise RuntimeError("no AP available to serve UE %d" % k)
        serve[free[0], t] = k
        claimed[free[0], t] = True
    D = np.zeros((K, L), dtype=np.int8)
    D[serve[:, used], np.arange(L)[:, None]] = 1
    return D


def gen_channel(beta: np.ndarray, layout: SimulationLayout,
                rng: np.random.Generator) -> np.ndarray:
    """Independent CN(0, beta_{k,l}) channel per (UE, AP, coherence block): (K, L, R)."""
    K, L = beta.shape
    shape = (K, L, layout.n_blocks)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z * np.sqrt(beta[:, :, None] / 2.0)


def noise_power_w(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power in watts: -174 dBm/Hz + 10*log10(W) + noise figure."""
    dbm = -174.0 + 10.0 * np.log10(bandwidth_hz) + noise_figure_db
    return float(10.0 ** ((dbm - 30.0) / 10.0))


def generate_network(cfg, rng: np.random.Generator) -> NetworkRealization:
    """Draw one complete network realization (geometry, beta, pilots, clusters)
    of the scenario of ``cfg``, an ``ExperimentConfig``: its layout, AP height,
    shadowing, wraparound, pilot policy, transmit power and noise figure."""
    layout = cfg.layout()
    ap_pos, ue_pos = place_nodes(layout, rng)
    beta = large_scale_fading(ue_pos, ap_pos, layout.area_side, rng, cfg.wraparound,
                              cfg.shadow_sigma_db, cfg.ap_height_m)
    t = assign_pilots(beta, layout.tau_p, cfg.pilot_policy)
    D = form_dcc(beta, t, layout.tau_p)
    return NetworkRealization(
        ap_positions=ap_pos,
        ue_positions=ue_pos,
        beta=beta,
        D=D,
        pilot_index=t,
        p=np.full(layout.n_ues, cfg.tx_power_w),
        sigma2=noise_power_w(layout.bandwidth, cfg.noise_figure_db),
    )
