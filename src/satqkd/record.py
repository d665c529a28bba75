"""Frozen record classes without per-class code generation.

``@dataclass(frozen=True)`` writes the source of six methods for each class
and compiles it on every import, which made most of the package's import
time. ``record`` gives a class the same behaviour from methods written once
in this module: closures over the class's fields, attached as they are.
"""

from __future__ import annotations

import dataclasses
import inspect
import reprlib
from dataclasses import MISSING, FrozenInstanceError
from operator import attrgetter

# the methods record writes; a class that defines one itself is refused
_WRITTEN = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


class _InitSignature:
    """The signature of a record class: that of the dataclass __init__ over its fields, built when asked for."""

    def __get__(self, obj, owner):
        if obj is not None:  # an instance has no signature of its own, as a dataclass instance has none
            raise AttributeError("__signature__")
        return inspect.Signature([
            inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                              default=(f.default if f.default is not MISSING
                                       else inspect.Parameter.empty if f.default_factory is MISSING
                                       else dataclasses._HAS_DEFAULT_FACTORY))
            for f in dataclasses.fields(owner)
        ], return_annotation=None)


_SIGNATURE = _InitSignature()


def _getter(names):
    """obj -> the tuple of obj's attributes named in names."""
    if len(names) > 1:
        return attrgetter(*names)  # a tuple for two names or more
    return lambda obj: tuple(getattr(obj, name) for name in names)


def _arguments_error(cls, names, required, args, kwargs) -> TypeError:
    """The TypeError that Python gives when a dataclass __init__ over names cannot bind args and kwargs."""
    where = f"{cls.__qualname__}.__init__()"
    for key in kwargs:
        if key not in names:
            return TypeError(f"{where} got an unexpected keyword argument '{key}'")
        if names.index(key) < len(args):
            return TypeError(f"{where} got multiple values for argument '{key}'")
    if len(args) > len(names):
        takes = len(names) + 1 if len(required) == len(names) else f"from {len(required) + 1} to {len(names) + 1}"
        plural = "" if takes == 1 else "s"
        return TypeError(f"{where} takes {takes} positional argument{plural} but {len(args) + 1} were given")
    missing = [f"'{name}'" for name in required if name not in kwargs and names.index(name) >= len(args)]
    listed = ", ".join(missing[:-1]) + ", and " + missing[-1] if len(missing) > 2 else " and ".join(missing)
    plural = "" if len(missing) == 1 else "s"
    return TypeError(f"{where} missing {len(missing)} required positional argument{plural}: {listed}")


def record(cls):
    """Make cls a frozen dataclass whose methods are the closures below, not code compiled for it.

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
    cls.__signature__ = _SIGNATURE  # read by the doc that dataclass writes for a class without one
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
            raise _arguments_error(cls, names, required, args, kwargs)
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

    shown = tuple(f.name for f in fields if f.repr)
    shown_values = _getter(shown)

    @reprlib.recursive_repr()
    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(shown, shown_values(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    compared = _getter(tuple(f.name for f in fields if f.compare))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    hashed = _getter(tuple(f.name for f in fields if (f.compare if f.hash is None else f.hash)))

    def __hash__(self):
        return hash(hashed(self))

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
