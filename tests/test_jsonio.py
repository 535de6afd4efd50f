import ast
from pathlib import Path

import pytest

import spotground
from spotground.errors import ParseError
from spotground.jsonio import bare_name, json_document, objects, typed

DEEP = "[" * 100_000 + "]" * 100_000
SRC = Path(spotground.__file__).parent


class TestJsonDocument:
    def test_decodes_strict_utf8_to_the_expected_kind(self):
        assert json_document(b'{"a": [1]}', dict, ParseError, "doc") == {"a": [1]}
        assert json_document('["x"]', list, ParseError, "doc") == ["x"]

    @pytest.mark.parametrize("raw, needle", [
        (b"{", "cannot parse doc"),
        (b"\xff{}", "cannot parse doc"),  # not UTF-8
        ('{"a": 1}'.encode("utf-16"), "cannot parse doc"),
        (b"\xef\xbb\xbf{}", "cannot parse doc"),  # a UTF-8 byte-order mark
        (DEEP, "cannot parse doc"),
        (b"[]", "doc must hold a JSON object"),
        (b"5", "doc must hold a JSON object"),
    ])
    def test_anything_else_raises_the_callers_error(self, raw, needle):
        with pytest.raises(ParseError, match=needle):
            json_document(raw, dict, ParseError, "doc")

    def test_kind_array(self):
        with pytest.raises(ParseError, match="must hold a JSON array"):
            json_document(b"{}", list, ParseError, "doc")


def test_objects():
    assert objects([{}, {"a": 1}], ParseError, "'k'") == [{}, {"a": 1}]
    for value in (None, {}, [1], [{}, []]):
        with pytest.raises(ParseError, match="'k' must be an array of objects"):
            objects(value, ParseError, "'k'")


class TestTyped:
    @pytest.mark.parametrize("value, kind", [
        (3, int), (-1, int), (0.5, float), ("s", str), (True, bool), (False, bool),
    ])
    def test_exact_types_pass(self, value, kind):
        got = typed(value, kind, ParseError, "v")
        assert got == value and type(got) is kind

    def test_an_int_is_a_float(self):
        got = typed(2, float, ParseError, "v")
        assert got == 2.0 and type(got) is float

    @pytest.mark.parametrize("value, kind", [
        (True, int), (False, float), (1, bool), (1.0, int), ("1", int), ("1.0", float),
        (1, str), (None, str), (None, int), ([], float),
    ])
    def test_other_types_fail_naming_where(self, value, kind):
        with pytest.raises(ParseError, match=f"^'k' must be {kind.__name__}, got "):
            typed(value, kind, ParseError, "'k'")

    def test_an_int_too_large_for_a_float(self):
        with pytest.raises(ParseError, match="^'k' must be a finite float"):
            typed(10**400, float, ParseError, "'k'")


@pytest.mark.parametrize("name", ["hist.svg", "a.b", "..a", "a..", "-x", "g 1", "a\\b"])
def test_bare_names_pass(name):
    assert bare_name(name, ParseError, "n") == name


@pytest.mark.parametrize("name", ["", ".", "..", "/", "a/b", "../x", "a/", "/abs", "a\x00b"])
def test_paths_are_not_bare_names(name):
    with pytest.raises(ParseError, match="^n must be a bare name"):
        bare_name(name, ParseError, "n")


def _json_reads(tree: ast.AST) -> list[int]:
    """Line numbers of json.load/json.loads calls and of load/loads
    imported from json."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            lines.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                alias.name in ("load", "loads") for alias in node.names):
            lines.append(node.lineno)
    return lines


def test_only_jsonio_decodes_json():
    """Every outside JSON document goes through jsonio.json_document: a
    decoder copied elsewhere drifts (one that missed RecursionError turned a
    deeply nested file into a traceback)."""
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "jsonio.py" in modules and len(modules) > 5
    found = {path.name: _json_reads(ast.parse(path.read_text(encoding="utf-8")))
             for path in modules if path.name != "jsonio.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _json_reads(ast.parse("import json\njson.loads('1')\nfrom json import load"))


def test_jsonio_imports_no_traced_module():
    """perfbench's tracer wraps every public function of the modules it
    traces. jsonio's helpers run once per prediction field, so jsonio is not
    one of those modules and imports none of them."""
    tree = ast.parse((SRC / "jsonio.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= {"__future__", "errors"}
