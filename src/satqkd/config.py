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
from dataclasses import MISSING, field, fields, is_dataclass, replace
from enum import Enum

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError
from yaml.events import AliasEvent, MappingStartEvent, ScalarEvent, SequenceEndEvent, SequenceStartEvent, StreamEndEvent
from yaml.nodes import ScalarNode

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
    """
    if tp is float:
        if type(data) not in (float, int):  # a bool is no number here
            raise ConfigError(f"{where}: expected a number, got {data!r}{_text_number_hint(data)}")
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
_STR, _FLOAT, _MAP, _SEQ, _MERGE, _VALUE = (_TAG + t for t in ("str", "float", "map", "seq", "merge", "value"))
_DECIMAL = frozenset("0123456789.eE+-")  # a float tag on only these: float() reads it as SafeLoader does
_NO_KEY = object()  # a mapping frame waiting for its next key
_IN_LIST = object()  # the key slot of a list frame
_MERGE_KEY = object()  # the key <<: merge the value's mappings in
_VALUE_KEY = object()  # the key =, which SafeLoader reads as the str "="
_KEY_TOKENS = {_MERGE: _MERGE_KEY, _VALUE: _VALUE_KEY}  # tags a plain scalar may have only as a key


def _read_yaml(stream):
    """The one YAML document of stream as SafeLoader builds it, read in one pass over YAML_LOADER's events.

    No node graph is built and no generic constructor runs over it: a str
    and a plain decimal float are made here, and every other scalar by the
    loader's own construct_object, so ints, bools, nulls, .nan and explicit
    tags come out as SafeLoader makes them. An alias is the anchor's object,
    << merges as SafeLoader's flatten_mapping does (a mapping's own keys win,
    then earlier mappings of a merge list) and = as a key is a str. A
    collection tag other than !!map and !!seq is a YAMLError, and so is
    every input SafeLoader refuses; an empty stream gives None. A scalar
    tagged ! resolves as a plain one with either loader, as SafeLoader's.
    """
    loader = YAML_LOADER(stream)
    try:
        get_event, resolve = loader.get_event, loader.resolve
        get_event()  # StreamStartEvent
        event = get_event()
        if event.__class__ is StreamEndEvent:
            return None
        document_mark = event.start_mark
        tags = {}  # (value, implicit) -> resolved tag of an untagged or ! scalar, or float for a plain decimal one
        anchors = {}  # name -> (object, start mark)
        stack = []  # open collections: [container, key or _NO_KEY (_IN_LIST in a list), merged mappings, start mark]
        event = get_event()
        while True:
            cls = event.__class__
            if cls is ScalarEvent:
                value, tag = event.value, event.tag
                if tag is None or tag == "!":
                    # PyYAML's parser reads a ! scalar as a plain one; libyaml does not when it is empty
                    seen = (value, event.implicit if tag is None else (True, False))
                    tag = tags.get(seen)
                    if tag is None:
                        tag = resolve(ScalarNode, value, seen[1])
                        tags[seen] = tag = float if tag == _FLOAT and _DECIMAL.issuperset(value) else tag
                if tag is float:
                    value = float(value)
                elif tag == _STR:
                    pass
                elif tag in _KEY_TOKENS and stack and stack[-1][1] is _NO_KEY:
                    value = _KEY_TOKENS[tag]
                else:
                    node = ScalarNode(tag, value, event.start_mark, event.end_mark, style=event.style)
                    try:
                        value = loader.construct_object(node, deep=True)
                    except (ValueError, LookupError, AttributeError) as exc:  # SafeLoader lets these out:
                        # int() of !!int abc, !!bool maybe's dict lookup, !!timestamp abc's failed match
                        raise ConstructorError(
                            None, None, f"cannot read {value!r} as {tag}: {exc!r}", event.start_mark) from exc
                if event.anchor is not None:
                    _anchor(anchors, event, value)
            elif cls is MappingStartEvent or cls is SequenceStartEvent:
                is_map = cls is MappingStartEvent
                if event.tag not in (None, "!", _MAP if is_map else _SEQ):
                    raise ConstructorError(
                        None, None, f"found unsupported collection tag {event.tag!r}", event.start_mark)
                container = {} if is_map else []
                stack.append([container, _NO_KEY if is_map else _IN_LIST, [], event.start_mark])
                if event.anchor is not None:
                    _anchor(anchors, event, container)
                event = get_event()
                continue
            elif cls is AliasEvent:
                try:
                    value = anchors[event.anchor][0]
                except KeyError:
                    raise ComposerError(
                        None, None, f"found undefined alias {event.anchor!r}", event.start_mark) from None
                if (value is _MERGE_KEY or value is _VALUE_KEY) and stack[-1][1] is not _NO_KEY:
                    raise ConstructorError(
                        None, None, "found an alias of a << or = key outside a key", event.start_mark)
            elif cls is SequenceEndEvent:
                value = stack.pop()[0]
            else:  # MappingEndEvent
                value, _, merged, _ = stack.pop()
                if merged:  # merged keys come first, and a later mapping overrides an earlier one
                    own = value.copy()
                    value.clear()
                    for mapping in merged:
                        value.update(mapping)
                    value.update(own)
            if not stack:
                break
            frame = stack[-1]
            container, key = frame[0], frame[1]
            if key is _IN_LIST:
                container.append(value)
            elif key is _NO_KEY:
                if value.__class__ is dict or value.__class__ is list:
                    raise ConstructorError(
                        "while constructing a mapping", frame[3], "found unhashable key", event.start_mark)
                frame[1] = value
            else:
                frame[1] = _NO_KEY
                if key is _VALUE_KEY:
                    container["="] = value
                elif key is not _MERGE_KEY:
                    container[key] = value
                elif value.__class__ is dict:
                    frame[2].append(value)
                elif value.__class__ is list and all(m.__class__ is dict for m in value):
                    frame[2].extend(reversed(value))  # the first mapping of a merge list wins
                else:
                    raise ConstructorError(
                        "while constructing a mapping", frame[3],
                        "expected a mapping or list of mappings for merging", event.start_mark)
            event = get_event()
        get_event()  # DocumentEndEvent
        event = get_event()
        if event.__class__ is not StreamEndEvent:
            raise ComposerError("expected a single document in the stream", document_mark,
                                              "but found another document", event.start_mark)
        return value
    finally:
        loader.dispose()


def _anchor(anchors: dict, event, value) -> None:
    """Name value by event's anchor; an anchor named twice in a document is a YAMLError."""
    if event.anchor in anchors:
        raise ComposerError(f"found duplicate anchor {event.anchor!r}; first occurrence",
                                          anchors[event.anchor][1], "second occurrence", event.start_mark)
    anchors[event.anchor] = value, event.start_mark


def load_run_config(path) -> RunConfig:
    with open_or_raise(path, ConfigError) as fh:
        try:
            data = _read_yaml(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return parse_run_config(data)
