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
import reprlib
import types
import typing
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, field, fields, is_dataclass, replace
from enum import Enum

import yaml
from yaml.constructor import ConstructorError
from yaml.nodes import MappingNode, ScalarNode, SequenceNode

from .channel import ChannelConfig
from .errors import ConfigError, DomainError, open_or_raise
from .receiver import DetectorModel
from .protocol import SecurityParams
from .record import record
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


@record
class RunConfig:
    """A whole run: one or two sources, the channel, the detector, the security parameters and the Monte Carlo.

    Each source needs its own wavelength label, which names its CSV files.
    The detector's dark-click probability plus the channel's background
    one stays below 1. e_misalignment, when given, replaces every source's
    intrinsic QBER. The checks run at construction; dataclasses.replace
    makes a changed copy and runs them again.
    """

    sources: Sequence[SourceConfig]
    channel: ChannelConfig
    detector: DetectorModel = field(default_factory=DetectorModel)
    security: SecurityParams = field(default_factory=SecurityParams)
    block_pulses: int = 10_000_000
    seed: int = 1
    shards: int = 1  # only 1, which every report records; the key is to go (ROADMAP.md item 1)
    e_misalignment: float | None = None  # None: use intrinsic_qber of each source

    def __post_init__(self):
        if not 1 <= len(self.sources) <= 2:
            raise ConfigError("need one or two source blocks")
        labels = [f"{src.wavelength_label_nm:g}" for src in self.sources]  # as the CSV file names print them
        if len(set(labels)) != len(labels):
            raise ConfigError(f"sources: wavelength_label_nm {labels[0]} names both sources; "
                              "each source needs its own label, which names its CSV files")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.block_pulses < 2**63:  # the Monte Carlo counts pulses in int64
            raise ConfigError(f"block_pulses must be in [1, 2**63 - 1], got {self.block_pulses}")
        if self.shards != 1:
            raise ConfigError(f"shards must be 1, got {self.shards}: the Monte Carlo draws each source's block "
                              "as one stream, and the key stays only until it goes with ROADMAP.md item 1")
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
    A message shows an offending value as reprlib.repr cuts it short, so a
    long or deeply nested value makes a short message.
    """
    if tp is float:
        if type(data) not in (float, int):  # a bool is no number here
            raise ConfigError(f"{where}: expected a number, got {reprlib.repr(data)}{_text_number_hint(data)}")
        if not math.isfinite(data):
            raise ConfigError(f"{where}: expected a finite number, got {data!r}")
        return float(data)
    if tp is int or tp is str:
        if type(data) is not tp:
            raise ConfigError(f"{where}: expected {tp.__name__}, got {reprlib.repr(data)}")
        return data
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return _members(tp)[data]
        except (KeyError, TypeError):  # TypeError: an unhashable value such as a list
            raise ConfigError(f"{where}: expected one of {[m.value for m in tp]}, got {reprlib.repr(data)}") from None
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


def _text_number_hint(data) -> str:
    """Why a str that float() reads as a finite number is no number here; empty for any other value."""
    if type(data) is str:
        try:
            if math.isfinite(float(data)):
                return (" (YAML 1.1 reads it as text: write it with a decimal point and a signed exponent, "
                        "e.g. 1.0e-7)")
        except ValueError:
            pass
    return ""


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


# libyaml's parser when PyYAML is built with it, ~8x faster than the pure-Python one
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_TAG = "tag:yaml.org,2002:"
_STR, _FLOAT, _MAP, _SEQ = (_TAG + t for t in ("str", "float", "map", "seq"))
_DECIMAL = frozenset("0123456789.eE+-")  # a float tag on only these: float() reads it as SafeLoader does
_RESOLVER = yaml.resolver.Resolver()


@functools.lru_cache(maxsize=1024)
def _resolve(kind, value, implicit):
    """The tag of an untagged or ! node as Resolver gives it, or float for a plain decimal float.

    Cached, as a config repeats most of its scalars. libyaml reports an empty
    ! scalar as not plain, where PyYAML's parser reads every ! scalar as a
    plain one; so does this.
    """
    tag = _RESOLVER.resolve(kind, value, (True, False) if implicit == (False, False) else implicit)
    return float if tag == _FLOAT and _DECIMAL.issuperset(value) else tag


def _build(node, loader, built: dict):
    """The value of a composed node as SafeLoader constructs it; built maps each collection node built to its value.

    A str and a plain decimal float are made here, and every other scalar by
    the loader's own construct_object, so ints, bools, nulls, .nan and
    explicit tags come out as SafeLoader makes them. A mapping is flattened
    first by SafeLoader's flatten_mapping: << merges, and = as a key is a str.
    """
    tag = node.tag
    if node.__class__ is ScalarNode:
        if tag is float:
            return float(node.value)
        if tag == _STR:
            return node.value
        try:
            return loader.construct_object(node, deep=True)
        except (ValueError, LookupError, AttributeError) as exc:  # SafeLoader lets these out:
            # int() of !!int abc, !!bool maybe's dict lookup, !!timestamp abc's failed match
            raise ConstructorError(None, None, f"cannot read {node.value!r} as {tag}: {exc!r}",
                                   node.start_mark) from exc
    if node in built:  # an alias: the anchor's own object
        return built[node]
    if tag != (_MAP if node.__class__ is MappingNode else _SEQ):
        raise ConstructorError(None, None, f"found unsupported collection tag {tag!r}", node.start_mark)
    if node.__class__ is SequenceNode:
        built[node] = out = []
        for item in node.value:
            out.append(_build(item, loader, built))
        return out
    built[node] = out = {}
    loader.flatten_mapping(node)
    for key_node, value_node in node.value:
        key = _build(key_node, loader, built)
        if key.__class__ is dict or key.__class__ is list:
            raise ConstructorError("while constructing a mapping", node.start_mark,
                                   "found unhashable key", key_node.start_mark)
        out[key] = _build(value_node, loader, built)
    return out


def _read_yaml(stream):
    """The one YAML document of stream as SafeLoader builds it, from the node graph YAML_LOADER composes.

    A collection tag other than !!map and !!seq is a YAMLError, and so is
    every input SafeLoader refuses, a document nested past the recursion
    limit too; an empty stream gives None.
    """
    loader = YAML_LOADER(stream)
    loader.resolve = _resolve
    try:
        node = loader.get_single_node()
        return None if node is None else _build(node, loader, {})
    except RecursionError:
        raise ConstructorError(None, None, "found a document nested too deep to read") from None
    finally:
        loader.dispose()


def load_run_config(path) -> RunConfig:
    with open_or_raise(path, ConfigError, encoding="utf-8") as fh:
        try:
            data = _read_yaml(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_run_config(data)
