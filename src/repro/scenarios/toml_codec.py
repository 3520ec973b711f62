"""Canonical TOML for scenario specs, dependency-free both ways.

The repo supports Python 3.9, where :mod:`tomllib` does not exist and
no third-party TOML package is a dependency, so this module carries
both directions itself:

* :func:`dumps` emits a *canonical* TOML document from a JSON-ready
  mapping (sorted keys, one table per section, arrays inline, floats
  in shortest round-trip ``repr`` form). Canonical means
  ``dumps(loads(dumps(d))) == dumps(d)`` byte for byte — the property
  suite pins it, and a 3.11+ test cross-checks :mod:`tomllib` parses
  every emitted document to the same mapping.
* :func:`loads` parses the TOML subset the emitter produces plus the
  obvious hand-edits: comments, blank lines, ``[table]`` /
  ``[[array-of-table]]`` headers, bare keys, strings with JSON-style
  escapes, booleans, integers, floats, and (nested) single-line
  arrays.

The subset is deliberately small — scenario files are flat, regular
documents — and every parse error carries a line number.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Tuple, Union

from repro.errors import ConfigurationError

_Scalar = Union[bool, int, float, str]


def _is_scalar(value: Any) -> bool:
    return isinstance(value, (bool, int, float, str))


def _format_float(value: float) -> str:
    """Shortest round-trip repr, forced to TOML float syntax."""
    text = repr(float(value))
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _format_scalar(value: _Scalar) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    # TOML basic strings accept the JSON escape repertoire.
    return json.dumps(value)


def _format_array(items: List[Any]) -> str:
    parts = []
    for item in items:
        if isinstance(item, list):
            parts.append(_format_array(item))
        elif _is_scalar(item):
            parts.append(_format_scalar(item))
        else:
            raise ConfigurationError(
                f"cannot emit {type(item).__name__} inside a TOML array"
            )
    return "[" + ", ".join(parts) + "]"


def _emit_table(
    data: Mapping[str, Any], path: Tuple[str, ...], lines: List[str]
) -> None:
    scalars = []
    tables = []
    table_arrays = []
    for key in sorted(data):
        value = data[key]
        if isinstance(value, Mapping):
            tables.append(key)
        elif isinstance(value, list) and any(
            isinstance(item, Mapping) for item in value
        ):
            table_arrays.append(key)
        else:
            scalars.append(key)
    if path:
        if lines:
            lines.append("")
        lines.append("[" + ".".join(path) + "]")
    for key in scalars:
        value = data[key]
        if isinstance(value, list):
            lines.append(f"{key} = {_format_array(value)}")
        elif _is_scalar(value):
            lines.append(f"{key} = {_format_scalar(value)}")
        elif value is None:
            raise ConfigurationError(
                f"TOML has no null: omit key {key!r} instead"
            )
        else:
            raise ConfigurationError(
                f"cannot emit {type(value).__name__} for key {key!r}"
            )
    for key in tables:
        _emit_table(data[key], path + (key,), lines)
    for key in table_arrays:
        for item in data[key]:
            if not isinstance(item, Mapping):
                raise ConfigurationError(
                    f"array {key!r} mixes tables and scalars"
                )
            if lines:
                lines.append("")
            lines.append("[[" + ".".join(path + (key,)) + "]]")
            _emit_inline_table_body(item, path + (key,), lines)


def _emit_inline_table_body(
    data: Mapping[str, Any], path: Tuple[str, ...], lines: List[str]
) -> None:
    scalars = []
    tables = []
    for key in sorted(data):
        value = data[key]
        if isinstance(value, Mapping):
            tables.append(key)
        elif isinstance(value, list) and any(
            isinstance(item, Mapping) for item in value
        ):
            raise ConfigurationError(
                f"array-of-table entries cannot nest table arrays; "
                f"key {key!r}"
            )
        else:
            scalars.append(key)
    for key in scalars:
        value = data[key]
        if isinstance(value, list):
            lines.append(f"{key} = {_format_array(value)}")
        elif _is_scalar(value):
            lines.append(f"{key} = {_format_scalar(value)}")
        elif value is None:
            raise ConfigurationError(
                f"TOML has no null: omit key {key!r} instead"
            )
        else:
            raise ConfigurationError(
                f"cannot emit {type(value).__name__} for key {key!r}"
            )
    # A sub-table header after an array-of-table entry attaches to the
    # *last* entry of that array (standard TOML; the parser's
    # ``_descend`` takes ``child[-1]``), so nested mappings emit as
    # ``[path.key]`` sections before the next ``[[path]]`` line.
    for key in tables:
        _emit_table(data[key], path + (key,), lines)


def dumps(data: Mapping[str, Any]) -> str:
    """Canonical TOML document for a JSON-ready mapping."""
    lines: List[str] = []
    _emit_table(data, (), lines)
    return "\n".join(lines) + "\n"


class _Parser:
    """Line-oriented parser for the emitted subset."""

    def __init__(self, text: str) -> None:
        self.root: Dict[str, Any] = {}
        self.current = self.root
        self.lineno = 0
        for raw in text.splitlines():
            self.lineno += 1
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[["):
                self._open_table_array(line)
            elif line.startswith("["):
                self._open_table(line)
            else:
                self._assign(line)

    def _fail(self, message: str) -> "ConfigurationError":
        return ConfigurationError(f"TOML line {self.lineno}: {message}")

    def _path(self, inner: str) -> List[str]:
        parts = [part.strip() for part in inner.split(".")]
        for part in parts:
            if not part or not all(
                ch.isalnum() or ch in "_-" for ch in part
            ):
                raise self._fail(f"bad table path component {part!r}")
        return parts

    def _descend(self, parts: List[str]) -> Dict[str, Any]:
        node = self.root
        for part in parts:
            child = node.setdefault(part, {})
            if isinstance(child, list):
                child = child[-1] if child else None
            if not isinstance(child, dict):
                raise self._fail(
                    f"key {part!r} is a value, not a table"
                )
            node = child
        return node

    def _open_table(self, line: str) -> None:
        if not line.endswith("]"):
            raise self._fail("unterminated table header")
        parts = self._path(line[1:-1])
        parent = self._descend(parts[:-1])
        child = parent.setdefault(parts[-1], {})
        if not isinstance(child, dict):
            raise self._fail(f"table {parts[-1]!r} conflicts with a value")
        self.current = child

    def _open_table_array(self, line: str) -> None:
        if not line.endswith("]]"):
            raise self._fail("unterminated array-of-table header")
        parts = self._path(line[2:-2])
        parent = self._descend(parts[:-1])
        array = parent.setdefault(parts[-1], [])
        if not isinstance(array, list):
            raise self._fail(
                f"array table {parts[-1]!r} conflicts with a value"
            )
        entry: Dict[str, Any] = {}
        array.append(entry)
        self.current = entry

    def _assign(self, line: str) -> None:
        if "=" not in line:
            raise self._fail(f"expected 'key = value', got {line!r}")
        key, _, rest = line.partition("=")
        key = key.strip()
        if not key or not all(ch.isalnum() or ch in "_-" for ch in key):
            raise self._fail(f"bad key {key!r}")
        if key in self.current:
            raise self._fail(f"duplicate key {key!r}")
        value, remainder = self._parse_value(rest.strip())
        if remainder and not remainder.startswith("#"):
            raise self._fail(f"trailing garbage {remainder!r}")
        self.current[key] = value

    def _parse_value(self, text: str) -> Tuple[Any, str]:
        if not text:
            raise self._fail("missing value")
        if text.startswith('"'):
            return self._parse_string(text)
        if text.startswith("["):
            return self._parse_array(text)
        # Bare token: boolean or number, ended by , ] or whitespace.
        end = len(text)
        for index, ch in enumerate(text):
            if ch in ",]# \t":
                end = index
                break
        token, remainder = text[:end], text[end:].strip()
        if token == "true":
            return True, remainder
        if token == "false":
            return False, remainder
        try:
            if any(ch in token for ch in ".eE") and not token.startswith(
                "0x"
            ):
                return float(token), remainder
            return int(token), remainder
        except ValueError:
            raise self._fail(f"cannot parse value token {token!r}")

    def _parse_string(self, text: str) -> Tuple[str, str]:
        escaped = False
        for index in range(1, len(text)):
            ch = text[index]
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                literal = text[: index + 1]
                try:
                    return json.loads(literal), text[index + 1 :].strip()
                except json.JSONDecodeError:
                    raise self._fail(f"bad string literal {literal!r}")
        raise self._fail("unterminated string")

    def _parse_array(self, text: str) -> Tuple[List[Any], str]:
        items: List[Any] = []
        rest = text[1:].strip()
        while True:
            if not rest:
                raise self._fail("unterminated array")
            if rest.startswith("]"):
                return items, rest[1:].strip()
            value, rest = self._parse_value(rest)
            items.append(value)
            if rest.startswith(","):
                rest = rest[1:].strip()
            elif not rest.startswith("]"):
                raise self._fail(f"expected ',' or ']' in array at {rest!r}")


def loads(text: str) -> Dict[str, Any]:
    """Parse the canonical/hand-edited TOML subset to a mapping."""
    return _Parser(text).root
