"""JSON documents in and out, and names that become paths.

Every JSON document the package reads is decoded by `json_document`, and
its values are checked by `objects`, `typed` and `typed_list`; a value
that becomes one path component is checked by `bare_name`. Each raises
the caller's error class, so every input keeps its own error and exit
code. Every JSON file the package writes is written by `write_json`.
"""

from __future__ import annotations

import json
import math
import pathlib


def json_document(raw: bytes | str, kind: type, error: type[Exception], where: str):
    """raw as strict UTF-8 JSON whose top level is a kind (dict or list).
    Bad UTF-8, bad JSON, a document nested too deep to decode or another
    top level raises error, naming where."""
    try:
        doc = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (ValueError, RecursionError) as exc:
        raise error(f"cannot parse {where}: {exc}") from exc
    if not isinstance(doc, kind):
        raise error(f"{where} must hold a JSON {'object' if kind is dict else 'array'}")
    return doc


def objects(value, error: type[Exception], where: str) -> list[dict]:
    """value if it is an array of objects."""
    if not isinstance(value, list) or not all(isinstance(e, dict) for e in value):
        raise error(f"{where} must be an array of objects")
    return value


def typed(value, kind: type, error: type[Exception], where: str):
    """value if it is a kind (int, float, str or bool): a bool is not an
    int, an int is also a float (as a float; one too large for a float is
    an error), and any other value must be exactly a kind."""
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise error(f"{where} must be a finite float, got an int too large for one") from None
    raise error(f"{where} must be {kind.__name__}, got {type(value).__name__} {value!r}")


def typed_list(values: list, kind: type, error: type[Exception], where: str) -> list:
    """values if each is a kind, as typed checks one: the first that is not
    raises typed's error, and an int among floats becomes a float."""
    if set(map(type, values)) <= {kind}:
        return values
    return [typed(value, kind, error, where) for value in values]


def bare_name(name: str, error: type[Exception], where: str) -> str:
    """name if it can be one path component: not empty, `.` or `..`, and
    holding no `/` or NUL."""
    if name in ("", ".", "..") or "/" in name or "\x00" in name:
        raise error(f"{where} must be a bare name, not a path, got {name!r}")
    return name


def write_json(path: str | pathlib.Path, doc, sort_keys: bool = True) -> pathlib.Path:
    """Write doc to path as UTF-8 JSON, indented by 2 and ending in a
    newline, creating parent directories; returns the path. The text is
    exactly json.dumps(doc, indent=2, sort_keys=sort_keys) + "\\n", with
    a Records written as the list of records it stands for."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_encode(doc, sort_keys, 0) + "\n", encoding="utf-8")
    return path


class Records:
    """A list of records given as its columns, str key -> list of values:
    record i maps each key to the i-th value of its column. A writer that
    holds columns hands them over as they are, without building records.
    Each column must be all str, all int or all finite floats, and the
    Records must be the document or the value of a str-keyed dict in it;
    json.dumps cannot encode one, so any other is a TypeError."""

    def __init__(self, columns: dict[str, list]):
        self.columns = columns


# how json encodes a record's str, int and finite float values
_SCALARS = {str: json.encoder.encode_basestring_ascii, int: int.__repr__, float: float.__repr__}


def _encode(value, sort_keys: bool, depth: int) -> str:
    """json.dumps(value, indent=2, sort_keys=sort_keys) with every line
    after the first indented by depth more levels. json.dumps runs its
    pure-Python encoder whenever it indents, so a dict with str keys is
    laid out here and a list of records through one template (_records).
    Any other value is json.dumps' own text, shifted line by line: every
    newline it writes is layout, since it escapes those inside strings."""
    if type(value) is dict and value and all(type(key) is str for key in value):
        inner = "\n" + "  " * (depth + 1)
        items = sorted(value.items()) if sort_keys else value.items()
        return "{" + inner + ("," + inner).join(
            f"{_SCALARS[str](key)}: {_encode(item, sort_keys, depth + 1)}" for key, item in items
        ) + "\n" + "  " * depth + "}"
    if type(value) in (list, Records) and (text := _records(value, sort_keys, depth)) is not None:
        return text
    text = json.dumps(value, indent=2, sort_keys=sort_keys)
    return text.replace("\n", "\n" + "  " * depth) if depth else text


def _records(rows: list | Records, sort_keys: bool, depth: int) -> str | None:
    """_encode's text for a list of records, as a list or as Records: a
    list must hold non-empty dicts with the first one's str keys in its
    order. Each key's values must be all str, all int or all finite floats
    (a bool is not an int), and a list at least one record. Each value is
    encoded as json does and every record is formatted through one
    template; Records without a record are "[]". None for anything else."""
    if type(rows) is Records:
        rows = rows.columns
        if not any(rows.values()):
            return "[]"
    elif not rows or type(rows[0]) is not dict or not rows[0]:
        return None
    else:
        keys = tuple(rows[0])
        if not (all(type(key) is str for key in keys)
                and set(map(type, rows)) == {dict} and set(map(tuple, rows)) == {keys}):
            return None
        rows = {key: [row[key] for row in rows] for key in keys}
    keys = sorted(rows) if sort_keys else list(rows)
    columns = []
    for key in keys:
        values = rows[key]
        kinds = set(map(type, values))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind not in _SCALARS or (kind is float and not all(map(math.isfinite, values))):
            return None
        columns.append(map(_SCALARS[kind], values))
    inner, outer = "\n" + "  " * (depth + 2), "\n" + "  " * (depth + 1)
    template = "{" + inner + ("," + inner).join(
        _SCALARS[str](key).replace("%", "%%") + ": %s" for key in keys) + outer + "}"
    return ("[" + outer + ("," + outer).join(template % row for row in zip(*columns))
            + "\n" + "  " * depth + "]")
