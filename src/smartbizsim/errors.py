"""Exception hierarchy, the `Record` base of every record class, the
one way to open an input file (`read_text`, then `decode`) and the typed
reading every input parser shares, and the encoder and JSON spelling
every written document shares, dates and times of day included. It imports nothing of the package.

An error's class is its exit code: ConfigError is exit 2 (bad input
or config), SimulationError exit 3 (a failure inside a run). A label
added on the way out, such as a pipeline step's name or the simulated
time, is raised as the same class. The few subclasses exist only
because code catches them by name.

A `Record` is defined by its annotations and class defaults alone, and
nothing is generated for it: its methods are the base's, which read
the class's `_fields`. Every record is frozen, and one function,
`_fill`, sets the fields of every record, whether built by its class,
copied by `replace` or read from a document. `read` and `json_default`
read the same fields: one reader, built from closures, reads every
record from a document, so reading generates no code either. A level
(an `Enum`) is spelled by its value.
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
    """Invalid input document, reference, or configuration. `path` is the
    chain of `.name` and `[i]` segments to the rejected value; the error
    reads `<path>: <problem>` without the first `.`, or the problem alone."""

    def __init__(self, problem: str, path: str = "") -> None:
        super().__init__(problem)
        self.path = path

    def __str__(self) -> str:
        path = self.path[1:] if len(self.path) > 1 and self.path[0] == "." else self.path
        return f"{path}: {self.args[0]}" if path else self.args[0]


class SimulationError(SmartBizError):
    """Failure raised while executing a simulation or pipeline step."""


class AuthDenied(SimulationError):
    """A command failed the S9 check; the world records the denial."""


class UnknownUser(SimulationError):
    """A command names a user S9 does not know; the world records the denial."""


# -- records ---------------------------------------------------------------

class Record:
    """A class of named fields: its own annotations, in order. A field's
    default is the class attribute of its name; a field without one is
    required, and a class attribute without an annotation is no field.

    A record is built from its fields, by keyword, runs its class's
    `__post_init__` once they are set, compares equal to a record of
    the same class with equal fields and has a repr. It is frozen and
    hashes by its fields.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))

    def __init__(self, **values) -> None:
        cls = type(self)
        for name in values:
            if name not in cls._fields:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
        missing = _fill(self, values)
        if missing is not None:
            raise TypeError(f"{cls.__name__} is missing field {missing!r}")

    def __post_init__(self) -> None:
        """Check the fields once they are set: a class with rules overrides it."""

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


# the words of the rule `value >= 0`, wherever it is checked
NON_NEGATIVE = "must be a non-negative integer, got {}"


class NonNegative(Record):
    """A record whose every field is a mapping or an `int` >= 0, whether
    read or built in code. The error's path is the field's, so `read`
    names the field in full."""

    def __post_init__(self) -> None:
        for name in self._fields:
            value = getattr(self, name)
            if not isinstance(value, abc.Mapping) and (type(value) is not int or value < 0):
                raise ConfigError(NON_NEGATIVE.format(reprlib.repr(value)), f".{name}")


_set_field = object.__setattr__


def _fill(record: Record, values) -> str | None:
    """Set the fields of a new `record`, in order, one `object.__setattr__`
    each, so the records of a class share one key table: each to its
    value in `values`, else the class default. Then run the class's
    `__post_init__` and return None; or return the first field with
    neither, leaving the record unfinished."""
    cls = type(record)
    defaults = cls.__dict__
    for name in cls._fields:
        if name in values:
            _set_field(record, name, values[name])
        elif name in defaults:
            _set_field(record, name, defaults[name])
        else:
            return name
    cls.__post_init__(record)
    return None


def replace(record: Record, **changes) -> Record:
    """A copy of `record` with `changes`, built by its class: so the copy
    runs `__post_init__`, and a record that validates itself validates
    the copy too."""
    values = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**values, **changes})


# -- input documents -------------------------------------------------------

def parse_iso_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise ConfigError(f"bad date {text!r}: {exc}") from exc


def parse_hhmm(text: str) -> dt.time:
    try:
        hh, mm = text.split(":")
        return dt.time(int(hh), int(mm))
    except (ValueError, AttributeError) as exc:
        raise ConfigError(f"bad time of day {text!r} (expected HH:MM)") from exc


def read_text(path, at: str = "") -> str:
    """The text of the UTF-8 file `path`, which the config key `at` names ("" at the
    top); an OS error or bytes that are not UTF-8 raise a ConfigError at `at`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}", at) from exc


def decode(text: str, at: str = ""):
    """The JSON value of `text`, from the file `at` names. Bad syntax, an integer past
    the digit limit or nesting past the recursion limit raise a ConfigError at `at`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"not valid JSON: {exc}", at) from exc


def read(kind, value, *, base=None, given=None, at: str = ""):
    """A decoded JSON `value` read as the type `kind`, never coerced.

    An `int` is a JSON integer (not a bool, not 2.7), a `Fraction` an
    integer or a rational string such as "1/2", a tuple an array, a
    `Mapping` an object, an `Enum` its value, a date or time its
    text. A `Record` is an object of its fields: an unknown key is an
    error, a missing one takes the field's default or, given `base`,
    the value in `base`, so `base` plus a partial document is an update.
    `given` maps field names to values already read, which take the
    place of `value`'s, so a record is built once from parts read apart.
    The reader of a type is built when a document first holds it.

    A bad value raises a ConfigError at its path, which reads e.g.
    `links[0].latency_ms: expected an integer, got 2.7`; `at`, the path
    of `value` itself, starts the path of every error.
    """
    reader = _reader(kind)
    try:
        if given is not None:
            return reader(value, base, given)
        return reader(value) if base is None else reader(value, base)
    except ConfigError as exc:
        _at(exc, at)
        raise


_READERS: dict = {}
_EXPECTED = {int: "an integer", str: "a string"}


def _reader(kind):
    reader = _READERS.get(kind)
    if reader is None:
        reader = _READERS[kind] = _compile(kind)
    return reader


def _compile(kind):
    """The reader function of one type, built once from its annotations."""
    origin, args = get_origin(kind), get_args(kind)
    if kind in _EXPECTED:
        return _exact(kind)
    if kind is Fraction:
        return _fraction
    if kind in (dt.date, dt.time):
        return _text(parse_iso_date if kind is dt.date else parse_hhmm)
    if isinstance(kind, type) and issubclass(kind, Enum):
        return _text(_member(kind))
    if origin is types.UnionType and type(None) in args:
        (inner,) = [_reader(arg) for arg in args if arg is not type(None)]
        return lambda value: None if value is None else inner(value)
    if origin is tuple and args[-1] is Ellipsis:
        return _array(_reader(args[0]))
    if origin is tuple:
        return _fixed_array(args)
    if origin is abc.Mapping and args[0] is str:
        return _mapping(_reader(args[1]))
    if isinstance(kind, type) and issubclass(kind, Record):
        return _object(kind)
    raise TypeError(f"no reader for type {kind!r}")


def _at(exc: ConfigError, segment: str) -> None:
    """Prefix the path of a failure: paths are only built on failure."""
    exc.path = segment + exc.path


def _mismatch(expected: str, value) -> ConfigError:
    return ConfigError(f"expected {expected}, got {reprlib.repr(value)}")


def _exact(kind):
    def read_exact(value):
        if type(value) is kind:
            return value
        raise _mismatch(_EXPECTED[kind], value)

    return read_exact


def _fraction(value):
    try:
        if type(value) in (int, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise _mismatch('an integer or a rational string such as "1/2"', value)


def _member(kind):
    def read_member(text):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(f"unknown label {text!r}") from None

    return read_member


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


def _fixed_array(args):
    readers = [_reader(arg) for arg in args]
    size = len(readers)
    kinds = tuple(arg if arg in _EXPECTED else None for arg in args)

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
    """The reader of a `Record` class, which may set `unknown_field_hint`.

    A value of exactly its field's type `int` or `str` is taken as it
    is; any other is read by its field's reader, built when a document
    first holds the field. The record is then built by `_fill`.
    """
    hints = get_type_hints(cls)
    fields = cls._fields
    names = frozenset(fields)
    exact = {name: hints[name] for name in fields if hints[name] in _EXPECTED}
    readers = {}
    nested = {
        name for name in names
        if isinstance(hints[name], type) and issubclass(hints[name], Record)
    }
    hint = getattr(cls, "unknown_field_hint", None)
    unknown_field = f"unknown field; {hint}" if hint else "unknown field"
    new = object.__new__

    def read_object(value, base=None, given=None):
        if type(value) is not dict:
            raise _mismatch("an object", value)
        if not value.keys() <= names:
            raise ConfigError(unknown_field, "." + next(k for k in value if k not in names))
        # only what the document and `given` hold: the rest is `base`'s or a default
        out = {}
        try:
            for key, item in value.items():
                if type(item) is exact.get(key):
                    out[key] = item
                    continue
                read_field = readers.get(key)
                if read_field is None:
                    read_field = readers[key] = _reader(hints[key])
                if base is None or key not in nested:
                    out[key] = read_field(item)
                else:
                    out[key] = read_field(item, getattr(base, key))
        except ConfigError as exc:
            _at(exc, f".{key}")
            raise
        if given is not None:
            out.update(given)
        if base is not None:
            return replace(base, **out)
        record = new(cls)
        missing = _fill(record, out)
        if missing is not None:
            raise ConfigError(f"missing field {missing!r}")
        return record

    return read_object


# -- output documents ------------------------------------------------------

def json_default(value):
    """The JSON spelling of one value the encoder cannot write itself, one
    level deep: the encoder writes what this returns, calling it again on
    what that holds.

    The spelling is the one `read` reads: a `Record` is an object of its
    fields in order, an `Enum` its value, a `Fraction` an integer when it is
    integral and "n/d" otherwise, a date its ISO text, a time "HH:MM", a
    `Mapping` an object. Anything else raises TypeError.
    """
    if isinstance(value, Record):
        return {name: getattr(value, name) for name in value._fields}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, dt.date):
        return value.isoformat()
    if isinstance(value, dt.time):
        return f"{value:%H:%M}"
    if isinstance(value, abc.Mapping):
        return dict(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_json(value) -> str:
    """Sorted keys, no whitespace: equal values give equal bytes. Values
    JSON has no type for are spelled by `json_default`."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=json_default)
