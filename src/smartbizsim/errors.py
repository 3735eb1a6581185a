"""Exception hierarchy, the `Record` base of every record class, the
file reading, JSON decoding and typed reading every input parser
shares, and the JSON spelling every written document shares.

An error's class is its exit code: ConfigError is exit 2 (bad input
or config), SimulationError exit 3 (a failure inside a run). The few
subclasses exist only because code catches them by name.

A `Record` is defined by its annotations and class defaults alone, and
nothing is generated for it: its methods are the base's, which read
the class's `_fields`. `read` and `json_default` read the same fields.
"""

from __future__ import annotations

import datetime as dt
import json
import reprlib
import types
from collections import abc
from enum import Enum
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import get_args, get_origin, get_type_hints


class SmartBizError(Exception):
    """Base class for all package errors."""


class ConfigError(SmartBizError):
    """Invalid input document, reference, or configuration."""


class SimulationError(SmartBizError):
    """Failure raised while executing a simulation or pipeline step."""


class NoSlotAvailable(SimulationError):
    """No common free slot for a meeting; the world records the failed request."""


class AuthDenied(SimulationError):
    """A command failed the S9 check; the world records the denial."""


class UnknownUser(SimulationError):
    """A command names a user S9 does not know; the world records the denial."""


class DmaicStepError(SmartBizError):
    """A failure in a named pipeline step; the CLI picks the exit code from
    its `__cause__`."""


# -- records ---------------------------------------------------------------

class Record:
    """A class of named fields: its own annotations, in order, less any
    `ClassVar`. A field's default is the class attribute of its name; a
    field without one is required.

    A record is built from its fields, by position or keyword, runs its
    class's `__post_init__`, if any, once they are set, compares equal to
    a record of the same class with equal fields and has a repr. It is
    frozen and hashes by its fields, unless its class is declared with
    `frozen=False`: then its fields can be set and it has no hash.
    """

    _fields = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        annotations = cls.__dict__.get("__annotations__", {})
        cls._fields = tuple(
            name for name, kind in annotations.items()
            if not str(kind).startswith(("ClassVar[", "typing.ClassVar["))
        )
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} has {len(names)} fields, got {len(args)} values")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{cls.__name__} got two values for field {name!r}")
            kwargs[name] = value
        values = {}
        for name in names:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls.__dict__:
                values[name] = cls.__dict__[name]
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} has no field {next(iter(kwargs))!r}")
        self.__dict__.update(values)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")


def replace(record: Record, **changes) -> Record:
    """A copy of `record` with `changes`, built by its class: so the copy
    runs `__post_init__`, and a record that validates itself validates
    the copy too."""
    values = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**values, **changes})


# -- input documents -------------------------------------------------------

class LabeledEnum(Enum):
    """An enum read from text by its label, which is the value unless a
    subclass overrides `label`."""

    @property
    def label(self) -> str:
        return self.value

    @classmethod
    def from_label(cls, label: str):
        for member in cls:
            if member.label == label:
                return member
        raise ConfigError(f"unknown label {label!r}")


def read_document(path, what: str) -> str:
    """Read a UTF-8 input file; an OS error becomes a ConfigError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def parse_json(document: str, what: str):
    """Decode a JSON document; any failure becomes a ConfigError naming it:
    bad syntax, an integer past the digit limit (ValueError), nesting past
    the recursion limit (RecursionError)."""
    try:
        return json.loads(document)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def read(kind, value, *, base=None, given=None, at: str = ""):
    """A decoded JSON `value` read as the type `kind`, never coerced.

    An `int` is a JSON integer (not a bool, not 2.7), a `Fraction` an
    integer or a rational string such as "1/2", a tuple an array, a
    `Mapping` an object, a `LabeledEnum` its label, a date or time its
    text. A `Record` is an object of its fields: an unknown key is an
    error, a missing one takes the field's default or, given `base`,
    the value in `base`, so `base` plus a partial document is an update.
    `given` maps field names to values already read, which take the
    place of `value`'s, so a record is built once from parts read apart.
    The reader of a type is built when a document first holds it.

    A bad value raises a ConfigError that starts with its path, e.g.
    `links[0].latency_ms: expected an integer, got 2.7`; `at` is the
    path of `value` itself.
    """
    reader = _reader(kind)
    try:
        if given is not None:
            return reader(value, base, given)
        return reader(value) if base is None else reader(value, base)
    except ConfigError as exc:
        path = (at + getattr(exc, "path", "")).lstrip(". ")
        if not path:
            raise
        raise ConfigError(f"{path}: {exc}") from None


_READERS: dict = {}
_EXPECTED = {int: "an integer", bool: "true or false", str: "a string"}


def _reader(kind):
    reader = _READERS.get(kind)
    if reader is None:
        reader = _READERS[kind] = _compile(kind)
    return reader


def _compile(kind):
    """The reader function of one type, built once from its annotations."""
    from .timeline import parse_hhmm, parse_iso_date  # here: it imports this module

    origin, args = get_origin(kind), get_args(kind)
    if kind in _EXPECTED:
        return _exact(kind)
    if kind is Fraction:
        return _fraction
    if kind in (dt.date, dt.time):
        return _text(parse_iso_date if kind is dt.date else parse_hhmm)
    if isinstance(kind, type) and issubclass(kind, LabeledEnum):
        return _text(kind.from_label)
    if origin is types.UnionType and type(None) in args:
        (inner,) = [_reader(arg) for arg in args if arg is not type(None)]
        return lambda value: None if value is None else inner(value)
    if origin is tuple and args[-1] is Ellipsis:
        return _array(_reader(args[0]))
    if origin is tuple:
        return _fixed_array([_reader(arg) for arg in args])
    if origin is abc.Mapping and args[0] is str:
        return _mapping(_reader(args[1]))
    if isinstance(kind, type) and issubclass(kind, Record):
        generic = _object(kind)
        return _leaf_record(kind, generic) or generic
    raise TypeError(f"no reader for type {kind!r}")


def _at(exc: ConfigError, segment: str) -> None:
    """Prefix the path of a failure: paths are only built on failure."""
    exc.path = segment + getattr(exc, "path", "")


def _mismatch(expected: str, value) -> ConfigError:
    return ConfigError(f"expected {expected}, got {reprlib.repr(value)}")


def _exact(kind):
    def read_exact(value):
        if type(value) is kind:
            return value
        raise _mismatch(_EXPECTED[kind], value)

    read_exact.kind = kind
    return read_exact


def _fraction(value):
    try:
        if type(value) in (int, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise _mismatch('an integer or a rational string such as "1/2"', value)


def _text(parse):
    read_str = _reader(str)
    return lambda value: parse(read_str(value))


def _items(pairs) -> tuple:
    """Each (reader, item) pair read in turn; a failure names its index."""
    out = []
    try:
        for read_item, item in pairs:
            out.append(read_item(item))
    except ConfigError as exc:
        _at(exc, f"[{len(out)}]")
        raise
    return tuple(out)


def _array(read_item):
    def read_array(value):
        if type(value) not in (list, tuple):
            raise _mismatch("an array", value)
        return _items(zip(repeat(read_item), value))

    return read_array


def _fixed_array(readers):
    size = len(readers)
    kinds = tuple(getattr(read_item, "kind", None) for read_item in readers)

    def read_fixed(value):
        if type(value) not in (list, tuple) or len(value) != size:
            raise _mismatch(f"an array of {size}", value)
        if tuple(map(type, value)) == kinds:  # plain leaves, such as a busy pair
            return tuple(value)
        return _items(zip(readers, value))

    return read_fixed


def _mapping(read_item):
    def read_mapping(value):
        if type(value) is not dict:
            raise _mismatch("an object", value)
        out = {}
        try:
            for key, item in value.items():
                out[key] = read_item(item)
        except ConfigError as exc:
            _at(exc, f".{key}")
            raise
        return out

    return read_mapping


def _object(cls):
    """The reader of a `Record` class; the class may name
    `unknown_field_hint`. A field's reader is built when a document
    first holds the field."""
    hints = get_type_hints(cls)
    names = frozenset(cls._fields)
    readers = {}
    required = [name for name in cls._fields if name not in vars(cls)]
    nested = {
        name for name in names
        if isinstance(hints[name], type) and issubclass(hints[name], Record)
    }
    hint = getattr(cls, "unknown_field_hint", None)
    unknown_field = f"unknown field; {hint}" if hint else "unknown field"

    def failure(value, segment: str, problem: str) -> ConfigError:
        label = value.get("id")  # an entry with an id is named by it
        exc = ConfigError(problem)
        exc.path = (f" ({label!r})" if type(label) is str else "") + segment
        return exc

    def read_object(value, base=None, given=None):
        if type(value) is not dict:
            raise _mismatch("an object", value)
        if not value.keys() <= names:
            unknown = next(key for key in value if key not in names)
            raise failure(value, f".{unknown}", unknown_field)
        kwargs = {}
        try:
            for key, item in value.items():
                read_field = readers.get(key)
                if read_field is None:
                    read_field = readers[key] = _reader(hints[key])
                if base is None or key not in nested:
                    kwargs[key] = read_field(item)
                else:
                    kwargs[key] = read_field(item, getattr(base, key))
        except ConfigError as exc:
            _at(exc, f".{key}")
            raise
        if given is not None:
            kwargs.update(given)
        if base is not None:
            return replace(base, **kwargs)
        for name in required:
            if name not in kwargs:
                raise failure(value, "", f"missing field {name!r}")
        return cls(**kwargs)

    return read_object


_REQUIRED = object()  # the default of a required field: it fails every leaf test


def _leaf_test(kind, name: str) -> tuple[str, str] | None:
    """The inline check that the value in variable `name` is one `read`
    takes as `kind`, and the expression of what it reads as; None when
    `kind` is not a leaf: an exact type, one of them or None, or a
    tuple of strings."""
    if kind in _EXPECTED:
        return f"type({name}) is {kind.__name__}", name
    args = get_args(kind)
    if get_origin(kind) is types.UnionType and len(args) == 2 and type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        if inner in _EXPECTED:
            return f"({name} is None or type({name}) is {inner.__name__})", name
    if kind == tuple[str, ...]:
        test = f"type({name}) in (list, tuple) and all(type(s) is str for s in {name})"
        return test, f"tuple({name})"
    return None


def _leaf_record(cls, generic):
    """A reader of the `Record` class `cls` compiled to one function, when
    every field is a leaf and the class has no `__post_init__`; else None.

    The function checks the keys and every field's type inline and fills
    a new instance field by field, as the frozen `__init__` would, with no
    keyword arguments built. A document it does not take, or a call with
    `base` or `given`, goes to `generic`, which reads it or raises: so
    every error is the generic reader's, text and path.
    """
    if hasattr(cls, "__post_init__"):
        return None
    hints = get_type_hints(cls)
    namespace = {"_cls": cls, "_new": object.__new__, "_set": object.__setattr__,
                 "_generic": generic}
    reads, tests, sets = [], [], []
    for i, name in enumerate(cls._fields):
        leaf = _leaf_test(hints[name], f"v{i}")
        if leaf is None:
            return None
        namespace[f"_d{i}"] = vars(cls).get(name, _REQUIRED)
        reads.append(f"        v{i} = get({name!r}, _d{i})")
        tests.append(leaf[0])
        sets.append(f"            _set(obj, {name!r}, {leaf[1]})")
    namespace["_names"] = frozenset(cls._fields)
    source = "\n".join([
        "def read_leaf_record(value, base=None, given=None):",
        "    if base is None and given is None and type(value) is dict and value.keys() <= _names:",
        "        get = value.get",
        *reads,
        "        if (" + "\n                and ".join(f"({test})" for test in tests) + "):",
        "            obj = _new(_cls)",
        *sets,
        "            return obj",
        "    return _generic(value, base, given)",
    ])
    exec(source, namespace)
    return namespace["read_leaf_record"]


# -- output documents ------------------------------------------------------

def json_default(value):
    """The JSON spelling of one value the encoder cannot write itself, one
    level deep: the encoder writes what this returns, calling it again on
    what that holds.

    The spelling is the one `read` reads: a `Record` is an object of its
    fields in order, a `LabeledEnum` its label, a `Fraction` an integer when it is
    integral and "n/d" otherwise, a date its ISO text, a time "HH:MM", a
    `Mapping` an object. Anything else raises TypeError.
    """
    if isinstance(value, Record):
        return {name: getattr(value, name) for name in value._fields}
    if isinstance(value, LabeledEnum):
        return value.label
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, dt.date):
        return value.isoformat()
    if isinstance(value, dt.time):
        return f"{value:%H:%M}"
    if isinstance(value, abc.Mapping):
        return dict(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
