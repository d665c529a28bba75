"""Run configuration: schema-checked YAML in, dataclasses out, and back again.

Field names carry their units as suffixes (_db, _nm, _ps, _hz, ...) and
unknown keys are rejected so a typo fails loudly instead of silently using
a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import yaml

from .channel import ChannelConfig, ElevationLossModel, FixedLossModel, PassProfile, load_pass_csv, synthesize_pass
from .errors import ConfigError, DomainError
from .receiver import DetectorModel
from .protocol import SecurityParams
from .source import (
    DiodeProfile,
    ExtinctionSet,
    FilterSpec,
    IntensityClass,
    IntensityLabel,
    PolarizationState,
    SourceConfig,
    intrinsic_qber,
)

# extinction ratios measured on the 785 nm module (H, V, D, A)
DEFAULT_EXTINCTION = ExtinctionSet(er_h=0.61e-3, er_v=0.35e-3, er_d=1.3e-2, er_a=1.8e-2)


def default_source(wavelength_nm: float = 785.0, repetition_rate_hz: float = 100e6) -> SourceConfig:
    """One wavelength half of the transmitter with documented defaults.

    Signal mu 0.3 (900 ps pulses), decoy mu 0.5 (500 ps), vacuum; diode
    spectra centered at 777.5 nm behind a 2 nm rectangular filter.
    """
    classes = (
        IntensityClass(IntensityLabel.SIGNAL, mu=0.3, emit_probability=0.7, pulse_fwhm_ps=900.0),
        IntensityClass(IntensityLabel.DECOY, mu=0.5, emit_probability=0.25, pulse_fwhm_ps=500.0),
        IntensityClass(IntensityLabel.VACUUM, mu=0.0, emit_probability=0.05),
    )
    diodes = tuple(
        DiodeProfile(
            polarization=pol,
            center_wavelength_nm=777.5,
            spectral_fwhm_nm=1.0,
            temp_coefficient_nm_per_c=0.05,
            current_coefficient_nm_per_ma=0.01,
            reference_temp_c=25.0,
            reference_current_ma=60.0,
            trigger_delay_ps=0.0,
            pulse_fwhm_by_class_ps={IntensityLabel.SIGNAL: 900.0, IntensityLabel.DECOY: 500.0},
        )
        for pol in PolarizationState
    )
    return SourceConfig(
        wavelength_label_nm=wavelength_nm,
        repetition_rate_hz=repetition_rate_hz,
        intensity_classes=classes,
        basis_probability_z=0.5,
        diode_profiles=diodes,
        extinction=DEFAULT_EXTINCTION,
        filter=FilterSpec(center_nm=777.5, fwhm_nm=2.0, shape="rectangular"),
        insertion_loss_db=0.0,
    )


@dataclass
class RunConfig:
    sources: List[SourceConfig]
    channel: ChannelConfig
    detector: DetectorModel
    security: SecurityParams
    block_pulses: int = 10_000_000
    seed: int = 1
    shards: int = 1
    e_misalignment: Optional[float] = None  # None: use intrinsic_qber of each source
    channel_pass_spec: Optional[dict] = None  # raw 'pass' block, kept for round-tripping

    def __post_init__(self):
        if not 1 <= len(self.sources) <= 2:
            raise ConfigError("need one or two source blocks")
        if self.block_pulses < 1:
            raise ConfigError("block_pulses must be >= 1")
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
        if self.e_misalignment is not None and not 0.0 <= self.e_misalignment <= 0.5:
            raise ConfigError("e_misalignment must be in [0, 0.5]")

    def e_det(self, source: SourceConfig) -> float:
        if self.e_misalignment is not None:
            return self.e_misalignment
        return intrinsic_qber(source.extinction)


def default_run_config() -> RunConfig:
    return RunConfig(
        sources=[default_source(785.0), default_source(808.0)],
        channel=ChannelConfig(mode="fixed", fixed_loss_db=40.0),
        detector=DetectorModel(),
        security=SecurityParams(),
    )


# ---------------------------------------------------------------------------
# YAML <-> dataclass plumbing

_LABELS = {l.value: l for l in IntensityLabel}
_POLS = {p.value: p for p in PolarizationState}


def _require_keys(d: dict, allowed: set, required: set, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(d).__name__}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _num(d: dict, key: str, where: str, default=None):
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    if not math.isfinite(v):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _parse_intensity(d: dict, where: str) -> IntensityClass:
    _require_keys(d, {"label", "mu", "emit_probability", "pulse_fwhm_ps"},
                  {"label", "mu", "emit_probability"}, where)
    label = d["label"]
    if label not in _LABELS:
        raise ConfigError(f"{where}.label: unknown intensity label {label!r}")
    return IntensityClass(
        label=_LABELS[label],
        mu=_num(d, "mu", where),
        emit_probability=_num(d, "emit_probability", where),
        pulse_fwhm_ps=_num(d, "pulse_fwhm_ps", where, 0.0),
    )


def _parse_diode(d: dict, where: str) -> DiodeProfile:
    allowed = {
        "polarization", "center_wavelength_nm", "spectral_fwhm_nm",
        "temp_coefficient_nm_per_c", "current_coefficient_nm_per_ma",
        "reference_temp_c", "reference_current_ma", "trigger_delay_ps",
        "pulse_fwhm_by_class_ps",
    }
    _require_keys(d, allowed, {"polarization", "center_wavelength_nm", "spectral_fwhm_nm"}, where)
    pol = d["polarization"]
    if pol not in _POLS:
        raise ConfigError(f"{where}.polarization: unknown state {pol!r}")
    fwhm_map = {}
    for k, v in (d.get("pulse_fwhm_by_class_ps") or {}).items():
        if k not in _LABELS:
            raise ConfigError(f"{where}.pulse_fwhm_by_class_ps: unknown label {k!r}")
        fwhm_map[_LABELS[k]] = float(v)
    return DiodeProfile(
        polarization=_POLS[pol],
        center_wavelength_nm=_num(d, "center_wavelength_nm", where),
        spectral_fwhm_nm=_num(d, "spectral_fwhm_nm", where),
        temp_coefficient_nm_per_c=_num(d, "temp_coefficient_nm_per_c", where, 0.0),
        current_coefficient_nm_per_ma=_num(d, "current_coefficient_nm_per_ma", where, 0.0),
        reference_temp_c=_num(d, "reference_temp_c", where, 25.0),
        reference_current_ma=_num(d, "reference_current_ma", where, 60.0),
        trigger_delay_ps=_num(d, "trigger_delay_ps", where, 0.0),
        pulse_fwhm_by_class_ps=fwhm_map,
    )


def _parse_source(d: dict, where: str) -> SourceConfig:
    allowed = {
        "wavelength_label_nm", "repetition_rate_hz", "intensity_classes",
        "basis_probability_z", "diode_profiles", "extinction", "filter",
        "insertion_loss_db",
    }
    required = {"wavelength_label_nm", "repetition_rate_hz", "intensity_classes",
                "basis_probability_z", "diode_profiles", "extinction", "filter"}
    _require_keys(d, allowed, required, where)
    ext = d["extinction"]
    _require_keys(ext, {"er_h", "er_v", "er_d", "er_a"}, {"er_h", "er_v", "er_d", "er_a"},
                  f"{where}.extinction")
    filt = d["filter"]
    _require_keys(filt, {"center_nm", "fwhm_nm", "shape"}, {"center_nm", "fwhm_nm"}, f"{where}.filter")
    try:
        return SourceConfig(
            wavelength_label_nm=_num(d, "wavelength_label_nm", where),
            repetition_rate_hz=_num(d, "repetition_rate_hz", where),
            intensity_classes=tuple(
                _parse_intensity(c, f"{where}.intensity_classes[{i}]")
                for i, c in enumerate(d["intensity_classes"])
            ),
            basis_probability_z=_num(d, "basis_probability_z", where),
            diode_profiles=tuple(
                _parse_diode(p, f"{where}.diode_profiles[{i}]")
                for i, p in enumerate(d["diode_profiles"])
            ),
            extinction=ExtinctionSet(**{k: float(v) for k, v in ext.items()}),
            filter=FilterSpec(
                center_nm=_num(filt, "center_nm", f"{where}.filter"),
                fwhm_nm=_num(filt, "fwhm_nm", f"{where}.filter"),
                shape=filt.get("shape", "rectangular"),
            ),
            insertion_loss_db=_num(d, "insertion_loss_db", where, 0.0),
        )
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_channel(d: dict, where: str) -> ChannelConfig:
    allowed = {"mode", "fixed_loss_db", "excess_loss_db", "background_click_prob", "pass"}
    _require_keys(d, allowed, {"mode"}, where)
    mode = d["mode"]
    profile = None
    if mode == "pass":
        p = d.get("pass")
        if p is None:
            raise ConfigError(f"{where}: pass mode requires a 'pass' block")
        allowed_p = {"csv_path", "max_elevation_deg", "orbit_altitude_m", "min_elevation_deg",
                     "step_s", "loss", "zenith_atmospheric_db", "receiver_diameter_m"}
        _require_keys(p, allowed_p, set(), f"{where}.pass")
        min_el = _num(p, "min_elevation_deg", f"{where}.pass", 10.0)
        loss_model = ElevationLossModel(
            altitude_m=_num(p, "orbit_altitude_m", f"{where}.pass", 500e3),
            zenith_atmospheric_db=_num(p, "zenith_atmospheric_db", f"{where}.pass", 1.0),
            receiver_diameter_m=_num(p, "receiver_diameter_m", f"{where}.pass", 1.0),
        )
        if "csv_path" in p:
            profile = load_pass_csv(p["csv_path"], loss_model, min_elevation_deg=min_el)
        else:
            profile = synthesize_pass(
                max_elevation_deg=_num(p, "max_elevation_deg", f"{where}.pass", 90.0),
                orbit_altitude_m=_num(p, "orbit_altitude_m", f"{where}.pass", 500e3),
                min_elevation_deg=min_el,
                step_s=_num(p, "step_s", f"{where}.pass", 1.0),
                loss_model=loss_model,
            )
    try:
        return ChannelConfig(
            mode=mode,
            fixed_loss_db=_num(d, "fixed_loss_db", where, 40.0),
            pass_profile=profile,
            excess_loss_db=_num(d, "excess_loss_db", where, 0.0),
            background_click_prob=_num(d, "background_click_prob", where, 0.0),
        )
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_run_config(data: dict) -> RunConfig:
    allowed = {"sources", "channel", "detector", "security", "block_pulses", "seed",
               "shards", "e_misalignment"}
    _require_keys(data, allowed, {"sources", "channel"}, "config")
    det = data.get("detector", {})
    _require_keys(det, {"efficiency", "dark_prob", "gate_width_ps", "basis_probability_z"},
                  set(), "config.detector")
    sec = data.get("security", {})
    _require_keys(sec, {"eps_secrecy", "eps_correctness", "f_ec"}, set(), "config.security")
    try:
        detector = DetectorModel(
            efficiency=_num(det, "efficiency", "config.detector", 0.5),
            dark_prob=_num(det, "dark_prob", "config.detector", 1e-7),
            gate_width_ps=_num(det, "gate_width_ps", "config.detector", 1000.0),
            basis_probability_z=_num(det, "basis_probability_z", "config.detector", 0.5),
        )
        security = SecurityParams(
            eps_secrecy=_num(sec, "eps_secrecy", "config.security", 1e-9),
            eps_correctness=_num(sec, "eps_correctness", "config.security", 1e-15),
            f_ec=_num(sec, "f_ec", "config.security", 1.16),
        )
    except DomainError as exc:
        raise ConfigError(f"config: {exc}") from exc
    sources = [
        _parse_source(s, f"config.sources[{i}]") for i, s in enumerate(data["sources"])
    ]
    seed = data.get("seed", 1)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("config.seed: expected an integer")
    block = data.get("block_pulses", 10_000_000)
    if not isinstance(block, int) or isinstance(block, bool):
        raise ConfigError("config.block_pulses: expected an integer")
    shards = data.get("shards", 1)
    if not isinstance(shards, int) or isinstance(shards, bool):
        raise ConfigError("config.shards: expected an integer")
    return RunConfig(
        sources=sources,
        channel=_parse_channel(data["channel"], "config.channel"),
        detector=detector,
        security=security,
        block_pulses=block,
        seed=seed,
        shards=shards,
        e_misalignment=data.get("e_misalignment"),
        channel_pass_spec=data["channel"].get("pass"),
    )


def load_run_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_run_config(data)


def source_to_dict(s: SourceConfig) -> dict:
    return {
        "wavelength_label_nm": s.wavelength_label_nm,
        "repetition_rate_hz": s.repetition_rate_hz,
        "intensity_classes": [
            {
                "label": c.label.value,
                "mu": c.mu,
                "emit_probability": c.emit_probability,
                "pulse_fwhm_ps": c.pulse_fwhm_ps,
            }
            for c in s.intensity_classes
        ],
        "basis_probability_z": s.basis_probability_z,
        "diode_profiles": [
            {
                "polarization": d.polarization.value,
                "center_wavelength_nm": d.center_wavelength_nm,
                "spectral_fwhm_nm": d.spectral_fwhm_nm,
                "temp_coefficient_nm_per_c": d.temp_coefficient_nm_per_c,
                "current_coefficient_nm_per_ma": d.current_coefficient_nm_per_ma,
                "reference_temp_c": d.reference_temp_c,
                "reference_current_ma": d.reference_current_ma,
                "trigger_delay_ps": d.trigger_delay_ps,
                "pulse_fwhm_by_class_ps": {k.value: v for k, v in d.pulse_fwhm_by_class_ps.items()},
            }
            for d in s.diode_profiles
        ],
        "extinction": s.extinction.as_dict(),
        "filter": {"center_nm": s.filter.center_nm, "fwhm_nm": s.filter.fwhm_nm, "shape": s.filter.shape},
        "insertion_loss_db": s.insertion_loss_db,
    }


def run_config_to_dict(cfg: RunConfig) -> dict:
    channel = {
        "mode": cfg.channel.mode,
        "fixed_loss_db": cfg.channel.fixed_loss_db,
        "excess_loss_db": cfg.channel.excess_loss_db,
        "background_click_prob": cfg.channel.background_click_prob,
    }
    if cfg.channel_pass_spec is not None:
        channel["pass"] = cfg.channel_pass_spec
    out = {
        "sources": [source_to_dict(s) for s in cfg.sources],
        "channel": channel,
        "detector": {
            "efficiency": cfg.detector.efficiency,
            "dark_prob": cfg.detector.dark_prob,
            "gate_width_ps": cfg.detector.gate_width_ps,
            "basis_probability_z": cfg.detector.basis_probability_z,
        },
        "security": {
            "eps_secrecy": cfg.security.eps_secrecy,
            "eps_correctness": cfg.security.eps_correctness,
            "f_ec": cfg.security.f_ec,
        },
        "block_pulses": cfg.block_pulses,
        "seed": cfg.seed,
        "shards": cfg.shards,
    }
    if cfg.e_misalignment is not None:
        out["e_misalignment"] = cfg.e_misalignment
    return out


def save_run_config(cfg: RunConfig, path):
    with open(path, "w") as fh:
        yaml.safe_dump(run_config_to_dict(cfg), fh, sort_keys=False)
