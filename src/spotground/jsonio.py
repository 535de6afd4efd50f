"""Readers for outside JSON documents and for names that become paths.

Every JSON document the package reads is decoded by `json_document`, and
its values are checked by `objects` and `typed`; a value that becomes one
path component is checked by `bare_name`. Each raises the caller's error
class, so every input keeps its own error and exit code.
"""

from __future__ import annotations

import json


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


def bare_name(name: str, error: type[Exception], where: str) -> str:
    """name if it can be one path component: not empty, `.` or `..`, and
    holding no `/` or NUL."""
    if name in ("", ".", "..") or "/" in name or "\x00" in name:
        raise error(f"{where} must be a bare name, not a path, got {name!r}")
    return name
