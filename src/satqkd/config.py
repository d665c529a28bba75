"""Run configuration: schema-checked YAML in, dataclasses out, and back again.

The dataclasses are the schema. Each init field is a YAML key of the same
name (or of the name in its ``key`` metadata), a field without a default is
a required key, and a field's default is the key's default. Field names
carry their units as suffixes (_db, _nm, _ps, _hz, ...) and unknown keys are
rejected so a typo fails loudly instead of silently using a default.
"""

from __future__ import annotations

import functools
import inspect
import math
import types
import typing
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum

import yaml

from .channel import ChannelConfig
from .errors import ConfigError, DomainError, open_or_raise
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

    Signal mu 0.3, decoy mu 0.5, vacuum; every diode emits 900 ps signal
    and 500 ps decoy pulses, its spectrum centered at 777.5 nm behind a 2 nm
    rectangular filter.
    """
    classes = (
        IntensityClass(IntensityLabel.SIGNAL, mu=0.3, emit_probability=0.7),
        IntensityClass(IntensityLabel.DECOY, mu=0.5, emit_probability=0.25),
        IntensityClass(IntensityLabel.VACUUM, mu=0.0, emit_probability=0.05),
    )
    diodes = tuple(
        DiodeProfile(
            polarization=pol,
            center_wavelength_nm=777.5,
            spectral_fwhm_nm=1.0,
            temp_coefficient_nm_per_c=0.05,
            reference_temp_c=25.0,
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
    sources: Sequence[SourceConfig]
    channel: ChannelConfig
    detector: DetectorModel = field(default_factory=DetectorModel)
    security: SecurityParams = field(default_factory=SecurityParams)
    block_pulses: int = 10_000_000
    seed: int = 1
    shards: int = 1
    e_misalignment: float | None = None  # None: use intrinsic_qber of each source

    def __post_init__(self):
        if not 1 <= len(self.sources) <= 2:
            raise ConfigError("need one or two source blocks")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.block_pulses < 2**63:  # the Monte Carlo counts pulses in int64
            raise ConfigError(f"block_pulses must be in [1, 2**63 - 1], got {self.block_pulses}")
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
        if self.e_misalignment is not None and not 0.0 <= self.e_misalignment <= 0.5:
            raise ConfigError("e_misalignment must be in [0, 0.5]")
        if self.detector.dark_prob + self.channel.background_click_prob >= 1.0:
            raise ConfigError("detector.dark_prob + channel.background_click_prob must be < 1, got "
                              f"{self.detector.dark_prob} + {self.channel.background_click_prob}")

    @property
    def receiver(self) -> DetectorModel:
        """The detector every route takes: background light clicks a detector as a dark count does."""
        return replace(self.detector, dark_prob=self.detector.dark_prob + self.channel.background_click_prob)

    def e_det(self, source: SourceConfig) -> float:
        if self.e_misalignment is not None:
            return self.e_misalignment
        return intrinsic_qber(source.extinction)


def default_run_config() -> RunConfig:
    return RunConfig(
        sources=(default_source(785.0), default_source(808.0)),
        channel=ChannelConfig(mode="fixed", fixed_loss_db=40.0),
    )


# ---------------------------------------------------------------------------
# YAML <-> dataclass, driven by the dataclass fields


@functools.cache
def _schema(cls) -> tuple:
    """({YAML key: (field name, type)}, required keys) of the init fields of a dataclass.

    Cached because resolving the annotations costs more than parsing a whole
    config, and every load walks the same few classes. The schema
    classes write collections.abc generics and X | None, not typing's
    Sequence[X] or Optional[X]: typing caches those for the life of the
    process, which would keep the classes of a re-imported package alive.
    """
    hints = inspect.get_annotations(cls, eval_str=True)
    init = [f for f in fields(cls) if f.init]
    keys = {f.metadata.get("key", f.name): (f.name, hints[f.name]) for f in init}
    required = {f.metadata.get("key", f.name) for f in init if f.default is MISSING and f.default_factory is MISSING}
    return keys, required


@functools.cache
def _members(enum: type) -> dict:
    """Value -> member of an Enum; a dict lookup is several times cheaper than calling the Enum."""
    return {m.value: m for m in enum}


def from_dict(tp, data, where: str):
    """The value of type tp that parsed YAML data describes; where is its path in error messages.

    float takes any finite number but a bool, int and str only their own
    type, an Enum its value, Sequence[X] a list, Mapping[K, V] a mapping and
    X | None also null. A dataclass takes a mapping of its schema's keys,
    and the DomainError of an invariant it checks becomes a ConfigError.
    """
    if tp is float:
        if type(data) not in (float, int):  # a bool is no number here
            raise ConfigError(f"{where}: expected a number, got {data!r}")
        if not math.isfinite(data):
            raise ConfigError(f"{where}: expected a finite number, got {data!r}")
        return float(data)
    if tp is int or tp is str:
        if type(data) is not tp:
            raise ConfigError(f"{where}: expected {tp.__name__}, got {data!r}")
        return data
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return _members(tp)[data]
        except (KeyError, TypeError):  # TypeError: an unhashable value such as a list
            raise ConfigError(f"{where}: expected one of {[m.value for m in tp]}, got {data!r}") from None
    if is_dataclass(tp):
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
        keys, required = _schema(tp)
        unknown = data.keys() - keys.keys()
        if unknown:
            raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}")
        missing = required - data.keys()
        if missing:
            raise ConfigError(f"{where}: missing keys {sorted(missing)}")
        kwargs = {}
        for key, value in data.items():
            name, hint = keys[key]
            if hint is float and type(value) is float and math.isfinite(value):
                kwargs[name] = value  # most values of a config: no recursive call for them
            else:
                kwargs[name] = from_dict(hint, value, f"{where}.{key}")
        try:
            return tp(**kwargs)
        except DomainError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        return None if data is None else from_dict(args[0], data, where)
    if origin is Sequence:
        if not isinstance(data, list):
            raise ConfigError(f"{where}: expected a list, got {type(data).__name__}")
        return tuple(from_dict(args[0], item, f"{where}[{i}]") for i, item in enumerate(data))
    if origin is Mapping:
        if not isinstance(data, dict):
            raise ConfigError(f"{where}: expected a mapping, got {type(data).__name__}")
        return {from_dict(args[0], k, f"{where}.{k}"): from_dict(args[1], v, f"{where}.{k}")
                for k, v in data.items()}
    raise TypeError(f"{where}: no YAML form for {tp!r}")


def to_dict(obj):
    """The YAML form of a config value, the inverse of from_dict; a field that is None is left out."""
    if type(obj) in (float, int, str):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [to_dict(item) for item in obj]
    if isinstance(obj, dict):
        return {to_dict(k): to_dict(v) for k, v in obj.items()}
    out = {}
    for key, (name, _) in _schema(type(obj))[0].items():  # a dataclass
        value = getattr(obj, name)
        if value is not None:
            out[key] = to_dict(value)
    return out


def parse_run_config(data: dict) -> RunConfig:
    return from_dict(RunConfig, data, "config")


# libyaml's parser when PyYAML is built with it: the same objects as the pure-Python one, ~8x faster
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_run_config(path) -> RunConfig:
    with open_or_raise(path, ConfigError) as fh:
        try:
            data = yaml.load(fh, Loader=YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_run_config(data)
