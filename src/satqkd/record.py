"""Frozen record classes without per-class code generation at import.

``@dataclass(frozen=True)`` writes the source of six methods for each class
and compiles it on every import, which made most of the package's import
time. ``record`` writes three of them once, in this module, as closures
over the class's fields: ``__init__``, which runs on every construction, and
the frozen ``__setattr__`` and ``__delattr__``, whose ``super(twin, self)``
would fail on a record. The rest come from the class's twin, the
``@dataclass(frozen=True)`` class of the same fields, built the first time
one of them is used: ``==``, hash, repr, the signature and the ``TypeError``
of a call that does not bind.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from dataclasses import MISSING, FrozenInstanceError

# the methods record writes; a class that defines one itself is refused
_WRITTEN = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


@functools.cache
def _twin(cls):
    """The @dataclass(frozen=True) class of cls's fields, whose methods a record borrows."""
    specs = [(f.name, f.type, dataclasses.field(default=f.default, default_factory=f.default_factory,
                                                repr=f.repr, hash=f.hash, compare=f.compare))
             for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, specs, namespace={"__qualname__": cls.__qualname__},
                                      frozen=True)


class _TwinSignature:
    """The signature of a record class: its twin's, built when asked for."""

    def __get__(self, obj, owner):
        if obj is not None:  # an instance has no signature of its own, as a dataclass instance has none
            raise AttributeError("__signature__")
        return inspect.signature(_twin(owner))


def record(cls):
    """Make cls a frozen dataclass whose methods are the closures below, not code compiled for it at import.

    It behaves as ``@dataclass(frozen=True)``: fields, replace, is_dataclass,
    field metadata and default_factory, __match_args__, the signature and
    __doc__, construction by position or keyword with __post_init__,
    ``==``, hash and repr over the same fields, FrozenInstanceError on set
    and delete, copy and pickle. A field with init=False, an InitVar, a
    kw_only field and a method of the class's own that record writes are
    refused, because record implements none of them.
    """
    own = [name for name in _WRITTEN if name in cls.__dict__]
    if own:
        raise TypeError(f"record {cls.__qualname__} defines {own}, which record writes")
    cls.__signature__ = _TwinSignature()  # read by the doc that dataclass writes for a class without one
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    if any(f._field_type is dataclasses._FIELD_INITVAR for f in cls.__dataclass_fields__.values()):
        raise TypeError(f"record {cls.__qualname__} has an InitVar field")
    fields = dataclasses.fields(cls)
    if not all(f.init and not f.kw_only for f in fields):
        raise TypeError(f"record {cls.__qualname__} has a field with init=False or kw_only")

    names = tuple(f.name for f in fields)
    n = len(names)
    required = [f.name for f in fields if f.default is MISSING and f.default_factory is MISSING]
    # the names that keywords may give after k positional arguments, and those they must give
    may_follow = [frozenset(names[k:]) for k in range(n + 1)]
    must_follow = [frozenset(required).intersection(names[k:]) for k in range(n + 1)]
    # every field in order, holding its default; a required field's slot is always overwritten
    template = {f.name: f.default for f in fields}
    factories = [(f.name, f.default_factory) for f in fields if f.default_factory is not MISSING]
    has_post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        k = len(args)
        # with every field given, none can be missing
        if k > n or not may_follow[k].issuperset(kwargs) or (
                k + len(kwargs) < n and not must_follow[k].issubset(kwargs)):
            _twin(cls).__init__(self, *args, **kwargs)  # a call that does not bind: raises Python's TypeError
        values = self.__dict__  # written directly, past the frozen __setattr__
        values.update(template)  # first, so that the fields keep their order
        if k:
            values.update(zip(names, args))
        values.update(kwargs)
        for name, factory in factories:
            if values[name] is MISSING:
                values[name] = factory()
        if has_post_init:
            self.__post_init__()

    def __repr__(self):
        return _twin(cls).__repr__(self)

    def __eq__(self, other):
        return _twin(cls).__eq__(self, other)

    def __hash__(self):
        return _twin(cls).__hash__(self)

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
