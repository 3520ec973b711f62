"""One codec for the frozen spec dataclasses, driven by their field types.

Scenario sections, fault plans and soak snapshots are frozen
dataclasses whose fields are scalars, tuples, nested specs and
``Optional`` versions of those. :func:`to_dict` and :func:`from_dict`
walk a class's fields by their declared types (resolved once per
class), so no spec writes its own serializer, and :func:`coerce` is
the constructor side of the same walk.

The decode policy, for parsed JSON or TOML:

- a ``float`` field takes a finite number that is not a bool (an
  integer only if a float holds it exactly);
- an ``int`` field takes an integer that is not a bool;
- a ``bool`` field takes ``true``/``false``; a ``str`` field a string;
- a tuple field takes an array, of exact length for ``Tuple[X, Y]``;
- a nested spec takes a table, which must carry every required key
  and no unknown one;
- ``null`` is accepted only for an ``Optional`` field.

Every failure is a :class:`~repro.errors.ConfigurationError` that
names the dotted path (``scenario.traffic.use_gen2_mac``) and, below a
top-level section, the section; it is chained to the error behind it.
Encoding omits ``None`` fields and writes tuples as lists.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from collections import abc
from typing import Any, Dict, Tuple, Type, TypeVar

from repro.errors import ConfigurationError

_T = TypeVar("_T")

#: What a malformed value raises while it is checked or a spec is
#: built from it; the decoder re-raises each as a ConfigurationError.
_DECODE_ERRORS = (TypeError, ValueError, ArithmeticError)


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Tuple[Tuple[dataclasses.Field[Any], Any], ...]:
    """``(field, declared type)`` for every field of the spec ``cls``."""
    hints = typing.get_type_hints(cls)
    return tuple((spec_field, hints[spec_field.name]) for spec_field in dataclasses.fields(cls))


def _optional_of(tp: Any) -> Any:
    """``X`` when ``tp`` is ``Optional[X]``, else ``None``."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is typing.Union and len(args) == 2 and type(None) in args:
        return args[0] if args[1] is type(None) else args[1]
    return None


def _item_types(tp: Any, length: int) -> Tuple[Any, ...]:
    """Element types of a ``length``-item value of the tuple type ``tp``."""
    args = typing.get_args(tp)
    if len(args) == 2 and args[1] is Ellipsis:
        return (args[0],) * length
    if length != len(args):
        raise ValueError(f"expected an array of {len(args)}, got {length} item(s)")
    return args


def to_dict(spec: Any) -> Dict[str, Any]:
    """JSON-ready mapping of a spec in field order, ``None`` fields omitted."""
    out: Dict[str, Any] = {}
    for spec_field in dataclasses.fields(spec):
        value = getattr(spec, spec_field.name)
        if value is not None:
            out[spec_field.name] = _encode(value)
    return out


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def from_dict(cls: Type[_T], data: Any, where: str) -> _T:
    """Decode ``data`` into the spec ``cls`` under the decode policy;
    ``where`` is the first part of every dotted path in an error."""
    return _decode(cls, data, (where,))


def _got(value: Any) -> str:
    """How an error message names an offending value."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, str)):
        return f"{type(value).__name__} {value!r}"
    return type(value).__name__


def _failure(path: Tuple[str, ...], reason: object) -> ConfigurationError:
    """The error for the value at ``path``, naming its top-level section."""
    section = f" (section {path[1]!r})" if len(path) > 2 else ""
    return ConfigurationError(f"{'.'.join(path)}: {reason}{section}")


def _decode(tp: Any, value: Any, path: Tuple[str, ...]) -> Any:
    """The value at ``path`` as its declared type ``tp``, or a typed failure."""
    try:
        return _decode_value(tp, value, path)
    except _DECODE_ERRORS as error:
        raise _failure(path, error) from error


def _decode_value(tp: Any, value: Any, path: Tuple[str, ...]) -> Any:
    inner = _optional_of(tp)
    if value is None:
        if inner is None:
            raise TypeError("null is accepted only for an optional field")
        return None
    if inner is not None:
        tp = inner
    if dataclasses.is_dataclass(tp):
        return _decode_spec(tp, value, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected an array, got {_got(value)}")
        last = path[-1]
        return tuple(
            _decode(item_tp, item, path[:-1] + (f"{last}[{index}]",))
            for index, (item_tp, item) in enumerate(zip(_item_types(tp, len(value)), value))
        )
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"expected a number, got {_got(value)}")
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"expected a finite number, got {_got(value)}")
        if number != value:
            raise ValueError("expected a number, got an integer no float holds exactly")
        return number
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"expected an integer, got {_got(value)}")
        return value
    if tp is bool:
        if not isinstance(value, bool):
            raise TypeError(f"expected true or false, got {_got(value)}")
        return value
    if tp is str:
        if not isinstance(value, str):
            raise TypeError(f"expected a string, got {_got(value)}")
        return value
    raise NotImplementedError(f"repro.codec has no rule for a {tp!r} field")


def _decode_spec(cls: type, data: Any, path: Tuple[str, ...]) -> Any:
    """Build ``cls`` from a table, reporting every bad key at once."""
    if not isinstance(data, abc.Mapping):
        raise TypeError(f"expected a table, got {_got(data)}")
    typed = _field_types(cls)
    names = sorted(spec_field.name for spec_field, _ in typed)
    failures = [
        _failure(path + (key,), f"unknown key; choices: {', '.join(names)}")
        for key in sorted(str(key) for key in data if key not in names)
    ]
    kwargs: Dict[str, Any] = {}
    for spec_field, tp in typed:
        name = spec_field.name
        if name in data:
            try:
                kwargs[name] = _decode(tp, data[name], path + (name,))
            except ConfigurationError as error:
                failures.append(error)
        elif (
            spec_field.default is dataclasses.MISSING
            and spec_field.default_factory is dataclasses.MISSING
        ):
            failures.append(_failure(path + (name,), "missing required key"))
    if len(failures) > 1:
        raise ConfigurationError("; ".join(map(str, failures))) from failures[0]
    if failures:
        raise failures[0]
    try:
        return cls(**kwargs)
    except ConfigurationError as error:
        raise _failure(path, error) from error


def coerce(spec: Any) -> None:
    """Coerce a spec's fields in place to their declared types.

    The ``__post_init__`` side of the codec: a ``float`` field becomes
    a finite float (canonical JSON and TOML cannot carry NaN or inf),
    an ``int`` an int, a ``bool`` a bool, a tuple field a tuple of its
    element type; strings, nested specs and ``None`` in an ``Optional``
    field pass through.
    """
    for spec_field, tp in _field_types(type(spec)):
        name = spec_field.name
        object.__setattr__(spec, name, _coerce(tp, getattr(spec, name), name))


def _coerce(tp: Any, value: Any, label: str) -> Any:
    inner = _optional_of(tp)
    if inner is not None:
        return None if value is None else _coerce(inner, value, label)
    try:
        if typing.get_origin(tp) is tuple:
            items = tuple(value)
            return tuple(
                _coerce(item_tp, item, label)
                for item_tp, item in zip(_item_types(tp, len(items)), items)
            )
        if tp in (int, bool):
            return tp(value)
        if tp is not float:
            return value
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"must be finite, got {number!r}")
        return number
    except _DECODE_ERRORS as error:
        raise ConfigurationError(f"{label}: {error}") from error
