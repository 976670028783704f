"""Network geometry, large-scale fading, pilot assignment, cooperation clusters,
and block-fading channel realizations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Propagation constants (path loss in dB at 3-D distance d meters, d >= 1):
#   PL(d) = -30.5 - 36.7 * log10(d)
PATHLOSS_CONST_DB = -30.5
PATHLOSS_EXP_DB = 36.7
DISTANCE_FLOOR_M = 1.0
AP_HEIGHT_M = 10.0  # vertical AP-UE separation entering the 3-D distance


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
        Block-local subcarrier indices carrying pilots, each in [0, min(N_c, N)).
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
        if max(self.pilot_subcarriers) >= self.n_subcarriers:
            raise ValueError("pilot subcarriers must lie below n_subcarriers")
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
    def pilot_slots(self) -> tuple:
        """Ordered pilot positions as (local subcarrier, 1-based symbol) pairs.

        Enumerated symbol-major, so the i-th pilot sample of every sequence is
        transmitted at ``pilot_slots[i]`` of every coherence block.
        """
        return tuple(
            (n, t) for t in self.pilot_symbols for n in self.pilot_subcarriers
        )

    @property
    def pilot_slot_positions(self) -> tuple:
        """Absolute subcarrier and 1-based symbol index of every pilot slot of
        the first coherence block, the one under evaluation: two integer
        arrays in ``pilot_slots`` order."""
        subs, syms = zip(*self.pilot_slots)
        return np.array(subs), np.array(syms)

    def pilot_subcarriers_absolute(self) -> np.ndarray:
        """Absolute subcarrier indices that carry pilots, across all blocks."""
        offs = np.arange(self.n_blocks) * self.block_subcarriers
        cols = (offs[:, None] + np.asarray(self.pilot_subcarriers)[None, :]).ravel()
        return np.sort(cols[cols < self.n_subcarriers])


@dataclass
class NetworkRealization:
    """One drawn network: geometry, large-scale fading, clusters, pilots, powers."""

    ap_positions: np.ndarray  # (L, 2) meters
    ue_positions: np.ndarray  # (K, 2) meters
    beta: np.ndarray          # (K, L) linear power gain
    D: np.ndarray             # (K, L) binary cooperation matrix
    pilot_index: np.ndarray   # (K,) 0-based pilot indices in [0, tau_p)
    p: np.ndarray             # (K,) transmit power, W
    sigma2: float             # noise power, W


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
    rng: Optional[np.random.Generator] = None,
    wraparound: bool = True,
    shadow_sigma_db: float = 4.0,
    ap_height_m: float = AP_HEIGHT_M,
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
        if rng is None:
            raise ValueError("rng required when shadow_sigma_db > 0")
        beta_db = beta_db + rng.normal(0.0, shadow_sigma_db, size=d.shape)
    return 10.0 ** (beta_db / 10.0)


def assign_pilots(beta: np.ndarray, tau_p: int, policy: str = "round_robin") -> np.ndarray:
    """Assign a 0-based pilot index to every UE.

    ``round_robin``: t_k = k mod tau_p.  ``greedy``: UEs in descending order of
    their strongest link pick the pilot with the least accumulated gain at
    their strongest AP.
    """
    K = beta.shape[0]
    if policy == "round_robin":
        return np.arange(K) % tau_p
    if policy != "greedy":
        raise ValueError("unknown pilot policy: %r" % (policy,))
    t = np.full(K, -1, dtype=int)
    order = np.argsort(-beta.max(axis=1), kind="stable")
    for k in order:
        l_star = int(np.argmax(beta[k]))
        contamination = np.zeros(tau_p)
        for i in np.flatnonzero(t >= 0):
            contamination[t[i]] += beta[i, l_star]
        t[k] = int(np.argmin(contamination))
    return t


def form_dcc(beta: np.ndarray, pilot_index: np.ndarray, tau_p: int) -> np.ndarray:
    """Dynamic cooperation cluster matrix D (K, L).

    Each AP serves, on every pilot in use, only the strongest UE assigned to
    it; additionally every UE's strongest AP is forced to serve it, evicting a
    weaker same-pilot occupant if needed.  Keeps at most one served UE per
    (AP, pilot) and at least one serving AP per UE.
    """
    K, L = beta.shape
    winner = {}  # (l, t) -> strongest UE using pilot t, from AP l's view
    for t in np.unique(pilot_index):
        users = np.flatnonzero(pilot_index == t)
        best = users[np.argmax(beta[users, :], axis=0)]
        for l in range(L):
            winner[(l, int(t))] = int(best[l])

    forced = {}  # (l, t) -> UE whose master claim pinned this slot
    order = np.argsort(-beta.max(axis=1), kind="stable")
    for k in order:
        t = int(pilot_index[k])
        for l in np.argsort(-beta[k]):
            if (int(l), t) not in forced:
                forced[(int(l), t)] = int(k)
                break
        else:
            raise RuntimeError("no AP available to serve UE %d" % k)

    D = np.zeros((K, L), dtype=np.int8)
    for l in range(L):
        for t in np.unique(pilot_index):
            k = forced.get((l, int(t)), winner[(l, int(t))])
            D[k, l] = 1
    return D


def gen_channel(beta: np.ndarray, layout: SimulationLayout,
                rng: np.random.Generator) -> np.ndarray:
    """Independent CN(0, beta_{k,l}) channel per (UE, AP, coherence block): (K, L, R)."""
    K, L = beta.shape
    shape = (K, L, layout.n_blocks)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z * np.sqrt(beta[:, :, None] / 2.0)


def gen_fir_taps(beta: np.ndarray, rng: np.random.Generator, n_taps: int = 8) -> np.ndarray:
    """Random FIR channel taps with an exponential power-delay profile.

    Tap powers decay as exp(-q / (n_taps / 4)) and are normalized so the total
    power per link equals beta.  Only the time-domain oracle consumes these.
    """
    K, L = beta.shape
    pdp = np.exp(-np.arange(n_taps) / (n_taps / 4.0))
    pdp = pdp / pdp.sum()
    z = rng.standard_normal((K, L, n_taps)) + 1j * rng.standard_normal((K, L, n_taps))
    return z * np.sqrt(beta[:, :, None] * pdp[None, None, :] / 2.0)


def noise_power_w(bandwidth_hz: float, noise_figure_db: float = 7.0) -> float:
    """Thermal noise power in watts: -174 dBm/Hz + 10*log10(W) + noise figure."""
    dbm = -174.0 + 10.0 * np.log10(bandwidth_hz) + noise_figure_db
    return float(10.0 ** ((dbm - 30.0) / 10.0))


def generate_network(
    layout: SimulationLayout,
    rng: np.random.Generator,
    tx_power_w: float = 0.1,
    noise_figure_db: float = 7.0,
    shadow_sigma_db: float = 4.0,
    wraparound: bool = True,
    pilot_policy: str = "round_robin",
    ap_height_m: float = AP_HEIGHT_M,
) -> NetworkRealization:
    """Draw one complete network realization (geometry, beta, pilots, clusters)."""
    ap_pos, ue_pos = place_nodes(layout, rng)
    beta = large_scale_fading(
        ue_pos, ap_pos, layout.area_side, rng,
        wraparound=wraparound, shadow_sigma_db=shadow_sigma_db,
        ap_height_m=ap_height_m,
    )
    t = assign_pilots(beta, layout.tau_p, policy=pilot_policy)
    D = form_dcc(beta, t, layout.tau_p)
    return NetworkRealization(
        ap_positions=ap_pos,
        ue_positions=ue_pos,
        beta=beta,
        D=D,
        pilot_index=t,
        p=np.full(layout.n_ues, tx_power_w),
        sigma2=noise_power_w(layout.bandwidth, noise_figure_db),
    )
