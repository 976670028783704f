"""Experiment configuration: flat key = value files, defaults, presets, and the
effective-configuration echo."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import List, Tuple

import numpy as np

from .combining import SCHEMES
from .estimation import ESTIMATOR_KINDS
from .network import PILOT_POLICIES, SimulationLayout, noise_power_w
from .phase_noise import PnParams


class ConfigError(Exception):
    """Raised for unparsable or invalid configuration input."""


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected a boolean, got %r" % text)


def _parse_int_list(text: str) -> Tuple[int, ...]:
    """Comma-separated integers; 'a:b' expands to the inclusive range a..b."""
    out: List[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ":" in piece:
            lo, hi = (int(v) for v in piece.split(":", 1))
            if hi < lo:
                raise ValueError("range %r runs backwards" % piece)
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(piece))
    if not out:
        raise ValueError("expected at least one integer")
    return tuple(out)


def _parse_str_list(text: str) -> Tuple[str, ...]:
    items = tuple(s.strip() for s in text.split(",") if s.strip())
    if not items:
        raise ValueError("expected at least one item")
    return items


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description.  Defaults give the full-scale scenario."""

    name: str = "run"
    # OFDM / coherence-block layout
    n_subcarriers: int = 1200          # N, subcarriers per OFDM symbol
    cp_len: int = -1                   # N_cp in samples; -1 means round(0.07 N)
    subcarrier_spacing_hz: float = 15e3
    block_subcarriers: int = 12        # N_c
    block_symbols: int = 15            # tau_c
    pilot_subcarriers: Tuple[int, ...] = (0,)      # block-local indices
    pilot_symbols: Tuple[int, ...] = tuple(range(1, 13))  # 1-based symbols
    # network
    n_aps: int = 200
    n_ues: int = 10
    area_side_m: float = 1000.0
    ap_height_m: float = 10.0
    tx_power_w: float = 0.1
    noise_figure_db: float = 7.0
    shadow_sigma_db: float = 4.0
    wraparound: bool = True
    pilot_policy: str = "round_robin"  # round_robin | greedy
    # oscillators
    carrier_hz: float = 2e9
    gamma_ap: float = 4e-17
    gamma_ue: float = 4e-17
    # receiver configuration
    estimators: Tuple[str, ...] = ("pna_ofdm",)    # pna_ofdm | pna_ofdm_cp | pna_sc | unaware
    schemes: Tuple[str, ...] = ("mmse", "mr")      # mr | lp_mmse | p_mmse | mmse
    # Monte Carlo
    n_geometries: int = 50
    n_trials: int = 200
    master_seed: int = 1

    @property
    def cp_len_effective(self) -> int:
        return self.cp_len if self.cp_len >= 0 else round(0.07 * self.n_subcarriers)

    def layout(self) -> SimulationLayout:
        return SimulationLayout(
            n_subcarriers=self.n_subcarriers,
            cp_len=self.cp_len_effective,
            subcarrier_spacing=self.subcarrier_spacing_hz,
            block_subcarriers=self.block_subcarriers,
            block_symbols=self.block_symbols,
            pilot_subcarriers=tuple(self.pilot_subcarriers),
            pilot_symbols=tuple(self.pilot_symbols),
            n_aps=self.n_aps,
            n_ues=self.n_ues,
            area_side=self.area_side_m,
        )

    def pn_params(self) -> PnParams:
        return PnParams(
            carrier_hz=self.carrier_hz,
            gamma_ap=self.gamma_ap,
            gamma_ue=self.gamma_ue,
            sample_time=self.layout().sample_time,
        )

    def validate(self) -> None:
        for f in fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ConfigError("%s must be finite" % f.name)
        if not self.name or any(c in self.name for c in ',"'):
            raise ConfigError("name must be non-empty, without ',' or '\"'")
        if self.cp_len < -1:
            raise ConfigError("cp_len must be >= 0, or -1 for round(0.07 N)")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        if min(self.gamma_ap, self.gamma_ue, self.carrier_hz) < 0:
            raise ConfigError("gamma_ap, gamma_ue and carrier_hz must be >= 0")
        if self.subcarrier_spacing_hz <= 0 or self.tx_power_w <= 0:
            raise ConfigError("subcarrier_spacing_hz and tx_power_w must be > 0")
        if self.shadow_sigma_db < 0:
            raise ConfigError("shadow_sigma_db must be >= 0")
        try:
            layout = self.layout()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.n_geometries < 1 or self.n_trials < 1:
            raise ConfigError("n_geometries and n_trials must be >= 1")
        if self.pilot_policy not in PILOT_POLICIES:
            raise ConfigError("unknown pilot_policy %r" % self.pilot_policy)
        for e in self.estimators:
            if e not in ESTIMATOR_KINDS:
                raise ConfigError("unknown estimator %r" % e)
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError("unknown scheme %r" % s)
        for key in ("estimators", "schemes"):
            entries = getattr(self, key)
            if not entries:
                raise ConfigError("%s must list at least one entry" % key)
            if len(set(entries)) < len(entries):
                raise ConfigError("%s lists an entry more than once" % key)
        if self.n_ues > self.n_aps * layout.tau_p:
            raise ConfigError(
                "n_ues = %d exceeds serving capacity n_aps * tau_p = %d"
                % (self.n_ues, self.n_aps * layout.tau_p)
            )


# value parser of every key, by its field annotation
_PARSE_TYPE = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "Tuple[int, ...]": _parse_int_list,
    "Tuple[str, ...]": _parse_str_list,
}
_PARSERS = {f.name: _PARSE_TYPE[f.type] for f in fields(ExperimentConfig)}


def parse_config(text: str, base: ExperimentConfig = None) -> ExperimentConfig:
    """Parse flat ``key = value`` text ('#' comments) over the defaults.

    Unknown or repeated keys and unparsable values raise ConfigError with the line number.
    """
    entries = [("line %d" % i, "on line %d" % i, raw.split("#", 1)[0])
               for i, raw in enumerate(text.splitlines(), start=1)]
    return _parse_entries(entries, base if base is not None else ExperimentConfig())


def _parse_entries(entries, cfg: ExperimentConfig) -> ExperimentConfig:
    """Apply ``key = value`` entries over ``cfg`` and validate the result.

    Each entry is (where, origin, text): an error names the entry by
    ``where`` ("line 3"), and names by ``origin`` ("on line 1") the entry
    that first set a key given twice.
    """
    updates, origin_of = {}, {}
    for where, origin, raw in entries:
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s: expected 'key = value', got %r" % (where, raw))
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError("%s: unknown key %r" % (where, key))
        if key in origin_of:
            raise ConfigError("%s: %s already set %s" % (where, key, origin_of[key]))
        origin_of[key] = origin
        try:
            updates[key] = _PARSERS[key](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError("%s: invalid value for %s: %s" % (where, key, exc)) from None
    cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg


def load_config(path: str, base: ExperimentConfig = None) -> ExperimentConfig:
    """Read and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from None
    return parse_config(text, base=base)


def apply_overrides(cfg: ExperimentConfig, overrides) -> ExperimentConfig:
    """Apply command-line ``key=value`` overrides onto a configuration; an error
    names the override by its position and text, "override 2 (n_trials=5)".
    A command line has no comments: a '#' is part of the value."""
    entries = [("override %d (%s)" % (i, raw), "by override %d" % i, raw)
               for i, raw in enumerate(overrides, start=1)]
    return _parse_entries(entries, cfg)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def effective_config_text(cfg: ExperimentConfig) -> str:
    """Echo of every configured and derived value actually used by a run."""
    lines = ["# effective configuration"]
    for f in fields(cfg):
        lines.append("%s = %s" % (f.name, _fmt(getattr(cfg, f.name))))
    layout = cfg.layout()
    pn = cfg.pn_params()
    lines.append("# derived")
    lines.append("cp_len_effective = %d            # samples" % layout.cp_len)
    lines.append("tau_p = %d                       # pilot channel uses" % layout.tau_p)
    lines.append("n_blocks = %d                    # coherence blocks per symbol" % layout.n_blocks)
    lines.append("bandwidth_hz = %s" % repr(layout.bandwidth))
    lines.append("sample_time_s = %s" % repr(layout.sample_time))
    lines.append("sigma2_phase_ap = %s             # rad^2 per sample" % repr(pn.sigma2_ap))
    lines.append("sigma2_phase_ue = %s             # rad^2 per sample" % repr(pn.sigma2_ue))
    lines.append("noise_power_w = %s" % repr(noise_power_w(layout.bandwidth, cfg.noise_figure_db)))
    return "\n".join(lines) + "\n"


def fig2_config() -> ExperimentConfig:
    """Full-scale preset: SE versus channel use in the first coherence block."""
    return ExperimentConfig(
        name="fig2",
        estimators=("unaware", "pna_sc", "pna_ofdm"),
        schemes=("mmse", "mr"),
    )


def ci_config() -> ExperimentConfig:
    """Reduced-scale configuration exercising every code path in well under a minute."""
    return ExperimentConfig(
        name="ci",
        n_subcarriers=120,
        block_subcarriers=12,
        block_symbols=5,
        pilot_subcarriers=(0,),
        pilot_symbols=(1, 2, 3, 4),
        n_aps=30,
        n_ues=5,
        shadow_sigma_db=0.0,
        n_geometries=5,
        n_trials=50,
    )
