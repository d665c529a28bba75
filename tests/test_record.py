"""satqkd.record against dataclasses: every record class behaves as ``@dataclass(frozen=True)`` does.

Each record class is checked against a twin that ``dataclasses.make_dataclass``
builds with frozen=True from the same fields, the same __post_init__ and the
same other members: construction, argument errors, ``==``, hash, repr, the
signature, __doc__, __match_args__, the frozen errors, replace, deepcopy and
pickle must agree.
"""

import ast
import copy
import dataclasses
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import textwrap
from dataclasses import FrozenInstanceError, InitVar, KW_ONLY, field, replace
from pathlib import Path
from unittest.mock import ANY

import numpy as np
import pytest

import satqkd
from satqkd.analysis import Series, estimate_peak
from satqkd.channel import ChannelConfig, ElevationLossModel, PassSpec
from satqkd.config import default_run_config, default_source
from satqkd.optimizer import Axis, SearchSpace, optimize
from satqkd.protocol import SecurityParams, key_from_fixed_loss, simulate_block
from satqkd.receiver import DetectorModel
from satqkd.record import record

from conftest import save_run_config

@record
class Node:
    name: str
    children: list = field(default_factory=list, hash=False)
    weight: float = field(default=1.0, compare=False)
    tag: str = field(default="", repr=False, hash=False, metadata={"key": "label"})


def _series():
    x = np.arange(9.0)
    return Series(x, np.exp(-((x - 4.0) ** 2) / 4.0))


def _key():
    return key_from_fixed_loss(default_source(), 30.0, DetectorModel(), 0.01, SecurityParams(), 1.0)


def _search_space():
    return SearchSpace({"mu_signal": Axis(0.2, 0.6, 3)})


# one instance of each record class of the package, as the package builds it
SAMPLES = {
    "IntensityClass": lambda: default_source().intensity_classes[0],
    "ExtinctionSet": lambda: default_source().extinction,
    "FilterSpec": lambda: default_source().filter,
    "DiodeProfile": lambda: default_source().diode_profiles[0],
    "SourceConfig": default_source,
    "DetectorModel": DetectorModel,
    "SecurityParams": SecurityParams,
    "ElevationLossModel": ElevationLossModel,
    "PassSpec": lambda: PassSpec(max_elevation_deg=60.0),
    "PassProfile": lambda: PassSpec(max_elevation_deg=60.0).profile(),
    "ChannelConfig": lambda: ChannelConfig(mode="pass", pass_spec=PassSpec(max_elevation_deg=60.0)),
    "RunConfig": default_run_config,
    "TallyTable": lambda: simulate_block(default_source(), 30.0, DetectorModel(), 0.01, 10_000, seed=1),
    "DecoyBounds": lambda: _key().bounds,
    "KeyResult": _key,
    "Axis": lambda: Axis(0.2, 0.6, 3),
    "SearchSpace": _search_space,
    "OptimizeResult": lambda: optimize(_search_space(), default_source(), 30.0, DetectorModel(), 0.01,
                                       SecurityParams()),
    "Series": _series,
    "PeakEstimate": lambda: estimate_peak(_series()),
}


def package_dataclasses() -> dict:
    """{name: class} of every dataclass that a module of the package defines."""
    found = {}
    for info in pkgutil.iter_modules(satqkd.__path__):
        module = importlib.import_module(f"satqkd.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                found[obj.__name__] = obj
    return found


def is_record(cls) -> bool:
    return cls.__init__.__module__ == record.__module__


RECORDS = {name: cls for name, cls in package_dataclasses().items() if is_record(cls)}


def written_doc(cls):
    """The docstring written in the class body, None when there is none."""
    return ast.get_docstring(ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0], clean=False)


def twin(cls):
    """The class that @dataclass(frozen=True) makes of cls's fields and members."""
    members = {name: value for name, value in vars(cls).items()
               if not name.startswith("__") or name in ("__post_init__", "__call__")}
    specs = [(f.name, f.type, field(default=f.default, default_factory=f.default_factory, repr=f.repr,
                                    hash=f.hash, compare=f.compare, metadata=f.metadata))
             for f in dataclasses.fields(cls)]
    namespace = {**members, "__doc__": written_doc(cls), "__module__": cls.__module__}
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=True)


def outcome(fn):
    """("ok", fn()) or (the exception's type, its message)."""
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - any exception is an outcome to compare
        return type(exc), str(exc)


def behaviour(cls, args) -> dict:
    """What cls does, built from the field values args: each result or error, by what was done."""
    names = [f.name for f in dataclasses.fields(cls)]
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    kwargs = dict(zip(names, args))
    a, b = cls(*args), cls(**kwargs)
    other = names[0]
    done = {
        "by position": lambda: repr(cls(*args)),
        "by keyword": lambda: repr(cls(**kwargs)),
        "from defaults": lambda: repr(cls(**{name: kwargs[name] for name in required})),
        "missing one": lambda: repr(cls(*args[:len(required) - 1])),
        "missing all": lambda: repr(cls()),
        "unknown": lambda: repr(cls(*args, not_a_field=1)),
        "repeated": lambda: repr(cls(*args, **{other: args[0]})),
        "too many": lambda: repr(cls(*args, None)),
        "==": lambda: a == b,
        "!=": lambda: a != b,
        "== other type": lambda: a == args,
        "== what any value equals": lambda: a == ANY,  # True only if a's __eq__ leaves it to ANY's
        "hash": lambda: hash(a) == hash(b),
        "hash value": lambda: hash(a),
        "repr": lambda: repr(a),
        "signature": lambda: str(inspect.signature(cls)),
        "doc": lambda: cls.__doc__,
        "match args": lambda: cls.__match_args__,
        "fields": lambda: [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare,
                            f.metadata, f.kw_only) for f in dataclasses.fields(cls)],
        "set field": lambda: setattr(a, other, args[0]),
        "delete field": lambda: delattr(a, other),
        "set other": lambda: setattr(a, "not_a_field", 1),
        "delete other": lambda: delattr(a, "not_a_field"),
        "replace": lambda: repr(dataclasses.replace(a, **{other: args[0]})),
        "deepcopy": lambda: repr(copy.deepcopy(a)),
        "deepcopy ==": lambda: copy.deepcopy(a) == a,
    }
    return {what: outcome(fn) for what, fn in done.items()}


def assert_behaves_as_frozen_dataclass(cls, sample):
    args = tuple(getattr(sample, f.name) for f in dataclasses.fields(cls))
    expected = twin(cls)
    assert inspect.signature(cls) == inspect.signature(expected)
    assert behaviour(cls, args) == behaviour(expected, args)
    copied = pickle.loads(pickle.dumps(sample))
    assert type(copied) is cls and repr(copied) == repr(sample)
    assert outcome(lambda: copied == sample) == outcome(lambda: copy.deepcopy(sample) == sample)


def test_every_frozen_class_of_the_package_is_a_record_with_a_sample():
    assert set(package_dataclasses()) == set(RECORDS) == set(SAMPLES)
    assert len(RECORDS) == 20


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_behaves_as_a_frozen_dataclass(name):
    cls = RECORDS[name]
    sample = SAMPLES[name]()
    assert type(sample) is cls
    assert_behaves_as_frozen_dataclass(cls, sample)


def test_record_field_options_behave_as_a_frozen_dataclass():
    # default_factory, and fields left out of repr, of == or of the hash
    assert_behaves_as_frozen_dataclass(Node, Node("a", [Node("b")], 2.0, "t"))
    expected = twin(Node)
    for cls in (Node, expected):
        assert cls("a").children == [] and cls("a").children is not cls("a").children
        assert cls("a", weight=2.0) == cls("a") and cls("a") != cls("b")
        assert hash(cls("a", tag="x")) == hash(cls("a", tag="y"))
    # a record that holds itself
    loop, twin_loop = Node("a"), expected("a")
    loop.children.append(loop)
    twin_loop.children.append(twin_loop)
    assert repr(loop) == repr(twin_loop) == "Node(name='a', children=[...], weight=1.0)"


def test_record_without_a_docstring_gets_the_doc_dataclass_writes():
    assert Node.__doc__ == "Node(name: str, children: list = <factory>, weight: float = 1.0, tag: str = '')"
    assert all(written_doc(cls) is not None for cls in RECORDS.values())


def test_record_subclass_may_set_its_own_attributes():
    # the frozen __setattr__ refuses every attribute of the record's own class, and a subclass's fields
    for base in (Node, twin(Node)):
        sub = type("Sub", (base,), {})("a")
        sub.note = 1
        assert sub.note == 1
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'name'"):
            sub.name = "b"
        assert sub != base("a")


@pytest.mark.parametrize("annotations, body, refused", [
    ({"x": int}, {"x": field(default=0, init=False)}, "init=False"),
    ({"x": int, "y": InitVar[int]}, {"x": 0, "y": 0}, "InitVar"),
    ({"x": int}, {"x": field(default=0, kw_only=True)}, "kw_only"),
    ({"_": KW_ONLY, "x": int}, {"x": 0}, "kw_only"),
    ({"x": int}, {"x": 0, "__eq__": lambda self, other: True}, "__eq__"),
    ({"x": int}, {"x": 0, "__repr__": lambda self: ""}, "__repr__"),
])
def test_record_refuses_what_it_does_not_implement(annotations, body, refused):
    with pytest.raises(TypeError, match=refused):
        record(type("C", (), {"__annotations__": annotations, **body}))


def test_no_twin_is_built_by_an_import_a_config_load_or_a_keying_command(tmp_path):
    # record builds a class's dataclass twin on its first ==, hash, repr, signature or unbound call; were
    # one built in set-up or in a command, setup_s or keys_per_s would pay for compiling its methods
    cfg = replace(default_run_config(), block_pulses=200_000)
    fixed, passes = tmp_path / "fixed.yaml", tmp_path / "pass.yaml"
    save_run_config(cfg, fixed)
    pass_channel = ChannelConfig(mode="pass", pass_spec=PassSpec(max_elevation_deg=60.0, step_s=2.0))
    save_run_config(replace(cfg, channel=pass_channel), passes)
    argvs = [["simulate", "--config", str(fixed), "--seed", "2", "--loss-db", "35"],
             ["keyrate", "--config", str(fixed)], ["pass", "--config", str(passes)],
             ["pass", "--config", str(passes), "--mode", "mc"],
             ["optimize", "--loss-db", "38", "--mu-points", "5", "--config", str(fixed)],
             ["report-distinguishability", "--config", str(fixed)],
             ["optimize", "--mu-max", "800", "--mu-points", "3"]]  # a domain error, exit 4
    script = (
        "import contextlib, io, json, sys\n"
        "import satqkd.cli\n"
        "from satqkd import config, record\n"
        f"config.load_run_config({str(Path(__file__).resolve().parents[1] / 'configs' / 'default.yaml')!r})\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [satqkd.cli.main(argv) for argv in {argvs!r}]\n"
        "twins = record._twin.cache_info().currsize\n"
        "repr(config.default_run_config())\n"
        "print(json.dumps([codes, twins, record._twin.cache_info().currsize > 0]))\n"
    )
    path = os.pathsep.join(filter(None, [str(Path(satqkd.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 0, 0, 0, 4], 0, True]
