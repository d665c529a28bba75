"""config's YAML reader against PyYAML's SafeLoader, run with each loader YAML_LOADER may be."""

import datetime
import io
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from satqkd import config
from satqkd.config import load_run_config, parse_run_config
from satqkd.errors import ConfigError

from test_golden_reports import LOW_PASS_CSV, configs

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
DEFAULT_YAML = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"


def read(text: str, loader):
    with mock.patch.object(config, "YAML_LOADER", loader):
        return config._read_yaml(io.StringIO(text))


def outcome(load) -> tuple:
    """("ok", repr of what load() gives) or ("error", None). A repr tells 1 from 1.0 and True, and shows key order."""
    try:
        return "ok", repr(load())
    except Exception:
        return "error", None


SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
DOCUMENTS = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(SCALARS, inner, max_size=4),
                         max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS, st.booleans())
def test_reader_builds_what_safeloader_builds_from_a_dumped_document(document, flow):
    text = yaml.safe_dump(document, default_flow_style=flow, sort_keys=False)
    want = repr(yaml.load(text, Loader=yaml.SafeLoader))
    for loader in LOADERS:
        assert repr(read(text, loader)) == want


# pieces of YAML text
TOKENS = ["<<", "=", ": ", ":", " ", "\n", "- ", "&a ", "&b ", "*a", "*b", "[", "]", "{", "}", ", ", "? ", "  ", "'",
          "!!map ", "!!seq ", "!!str ", "!!float ", "!!int ", "!!merge ", "! ", "---\n", "x", "y", "1", "1.5",
          "1e-7", "~", ".nan", "0x10", "1_000", "2001-12-14", "yes"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=25).map("".join))
def test_reader_refuses_what_safeloader_refuses_and_builds_the_rest(text):
    safe = outcome(lambda: yaml.load(text, Loader=yaml.SafeLoader))
    for loader in LOADERS:
        want = outcome(lambda: yaml.load(text, Loader=loader))
        if want[0] == safe[0] == "ok":
            want = safe  # libyaml's own constructor reads an empty ! scalar as '', SafeLoader as null
        try:
            got = "ok", repr(read(text, loader))
        except yaml.YAMLError:
            got = "error", None
        assert got == want, loader.__name__


CASES = [
    ("a: &x [1, 2]\nb: *x", {"a": [1, 2], "b": [1, 2]}),
    ("base: &b {x: 1, y: 2}\nm: {<<: *b, y: 3}", {"base": {"x": 1, "y": 2}, "m": {"x": 1, "y": 3}}),
    ("base: &b {x: 1, y: 2}\nm: {y: 3, <<: *b}", {"base": {"x": 1, "y": 2}, "m": {"x": 1, "y": 3}}),
    ("a: &a {x: 1}\nb: &b {x: 2, z: 0}\nm: {<<: [*a, *b]}", {"a": {"x": 1}, "b": {"x": 2, "z": 0}, "m": {"x": 1, "z": 0}}),
    ("a: &a {x: 1}\nb: &b {x: 2, z: 0}\nm: {<<: [*b, *a]}", {"a": {"x": 1}, "b": {"x": 2, "z": 0}, "m": {"x": 2, "z": 0}}),
    ("m: {<<: {x: 1}, <<: {x: 2}}", {"m": {"x": 2}}),
    ("'<<': 1", {"<<": 1}),
    ("=: 1", {"=": 1}),
    ("{&e =: 1, *e : 2}", {"=": 2}),
    # an = key is a str wherever it is aliased, before or after it is read as a key
    ("{&e =: 1, b: *e}", {"=": 1, "b": "="}),
    ("{a: &e =, *e : 1}", {"a": "=", "=": 1}),
    ("0x10", 16),
    ("1_000", 1000),
    ("685_230.15", 685230.15),
    ("2001-12-14", datetime.date(2001, 12, 14)),
    ("'1.5'", "1.5"),
    ("!!float 3", 3.0),
    ("!!str 1.5", "1.5"),
    ("! 1.5", 1.5),
    # a ! scalar resolves as a plain one, though libyaml reports an empty one as not plain
    ("a: !", {"a": None}),
    ("- !", [None]),
    ("? !", {None: None}),
    ('a: ! ""', {"a": None}),
    ("a: ! ''", {"a": None}),
    ("a: ! x", {"a": "x"}),
    ("a: ! 1.5", {"a": 1.5}),
    ("a: ! null", {"a": None}),
    ("a: ! true", {"a": True}),
    ("a: ! 12", {"a": 12}),
    (".nan", float("nan")),
    ("[.inf, -.Inf, -0.0, +1.5, .5, 1.]", [float("inf"), -float("inf"), -0.0, 1.5, 0.5, 1.0]),
    ("[1e-7, 1.0e-7, 1:30.5]", ["1e-7", 1e-7, 90.5]),
    ("[yes, No, ~, null, '']", [True, False, None, None, ""]),
    ("!!binary aGk=", b"hi"),
    ("!!map {a: !!seq [1]}", {"a": [1]}),
    ("{a: 1, a: 2}", {"a": 2}),
    # a mapping merged into itself merges nothing
    ("&a {<<: *a}", {}),
    ("&a {<<: [*a]}", {}),
    # a merged mapping aliased as a value is the merged mapping
    ("base: &b {x: 1}\nm: &m {<<: *b, y: 2}\nn: *m", {"base": {"x": 1}, "m": {"x": 1, "y": 2}, "n": {"x": 1, "y": 2}}),
    ("", None),
    ("# only a comment\n", None),
    ("--- 1\n...\n", 1),
]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("text,value", CASES, ids=[text for text, _ in CASES])
def test_reader_builds_each_construct_as_safeloader(loader, text, value):
    assert repr(read(text, loader)) == repr(value) == repr(yaml.load(text, Loader=yaml.SafeLoader))


def test_bang_tagged_empty_value_is_null_with_either_loader(tmp_path):
    path = tmp_path / "bang.yaml"
    path.write_text(DEFAULT_YAML.read_text() + "e_misalignment: !\n")
    for loader in LOADERS:
        with mock.patch.object(config, "YAML_LOADER", loader):
            assert load_run_config(path).e_misalignment is None  # each source's intrinsic QBER


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_alias_is_the_anchors_object(loader):
    data = read("a: &x [1, {b: 2}]\nb: *x\nc: &r [*r]", loader)
    assert data["a"] is data["b"] and data["c"][0] is data["c"]


ERRORS = [
    "a: &x 1\nb: &x 2",  # duplicate anchor
    "a: *x",  # undefined alias
    "a: 1\n---\nb: 2",  # a second document
    "? [1]\n: 2",  # unhashable keys
    "{{a: 1}: 2}",
    "<<: 1",  # a merge of no mapping
    "<<: [{a: 1}, 1]",
    "a: <<",  # merge and = tags are keys only
    "a: =",
    "{&m <<: {a: 1}, b: *m}",
    "x: !!map abc",
    "x: !!seq {a: 1}",
    "x: !foo 1",
    "a: !!int abc",  # SafeLoader lets int()'s ValueError out
    "a: !!bool maybe",
    "a: !!float ''",
    "a: !!timestamp abc",
    "sources: [\nchannel: {mode: fixed\n",  # malformed
]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("text", ERRORS)
def test_reader_raises_yaml_error_where_safeloader_refuses(loader, text):
    with pytest.raises(Exception):
        yaml.load(text, Loader=loader)
    with pytest.raises(yaml.YAMLError):
        read(text, loader)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("text,tag", [("!!set {a, b}", "set"), ("!!omap [a: 1]", "omap"), ("!!pairs [a: 1]", "pairs")])
def test_collection_tag_but_map_and_seq_is_a_yaml_error_naming_it(loader, text, tag):
    with pytest.raises(yaml.YAMLError, match=f"tag:yaml.org,2002:{tag}"):
        read(text, loader)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_reader_reads_the_default_config_as_safeloader(loader):
    text = DEFAULT_YAML.read_text()
    assert repr(read(text, loader)) == repr(yaml.load(text, Loader=yaml.SafeLoader))


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_load_reads_every_golden_config_as_safeloader(monkeypatch, tmp_path, loader):
    monkeypatch.setattr(config, "YAML_LOADER", loader)
    monkeypatch.chdir(tmp_path)  # a CSV pass names its CSV relative to the working directory
    (tmp_path / "low_pass.csv").write_text(LOW_PASS_CSV)
    for name, data in configs().items():
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(data, sort_keys=False))
        assert load_run_config(path) == parse_run_config(yaml.load(path.read_text(), Loader=yaml.SafeLoader)), name


def test_value_its_tag_cannot_build_is_invalid_yaml(tmp_path):
    path = tmp_path / "bad_int.yaml"
    path.write_text(DEFAULT_YAML.read_text().replace("seed: 1", "seed: !!int abc"))
    assert "seed: !!int abc" in path.read_text()
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_run_config(path)
