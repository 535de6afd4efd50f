import ast
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spotground
from spotground.errors import ParseError
from spotground.jsonio import (
    Records,
    _records,
    bare_name,
    json_document,
    objects,
    typed,
    typed_list,
    write_json,
)

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


def _names_read(node: ast.AST) -> set[str]:
    """Every identifier node reads, as a bare name or an attribute."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def _unreferenced(sources: dict[str, str]) -> dict[str, list[str]]:
    """module -> its top-level functions, classes and constants that no
    other top-level statement of any module reads. __init__.py only
    re-exports, so its reads do not count."""
    statements = {name: ast.parse(text).body for name, text in sources.items()}
    reads = [(name, i, _names_read(stmt)) for name, body in statements.items()
             if name != "__init__.py" for i, stmt in enumerate(body)]
    found = {}
    for name, body in statements.items():
        for i, stmt in enumerate(body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for symbol in defined:
                read_elsewhere = any(symbol in names for module, j, names in reads
                                     if (module, j) != (name, i))
                if not read_elsewhere and not symbol.startswith("__"):
                    found.setdefault(name, []).append(symbol)
    return found


def test_no_test_only_api():
    """Every top-level function, class and constant of the package is read
    by package code other than its own definition: a name that only tests
    reach lets a test pass on code that no command runs."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 5
    assert _unreferenced(sources) == {}
    assert _unreferenced({
        "a.py": "K = 1\ndef f(n):\n    return f(n - 1) if n else K\n",
        "b.py": "from .a import f\n",
        "__init__.py": "from .a import f\nf(2)\n",
    }) == {"a.py": ["f"]}


SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=10**30) | st.floats()
    | st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf])
    | st.text(max_size=8)
    | st.sampled_from(['"', "\\", "\n", "\x00\x1f\x7f", "é€😀\u2028", "%s", "%%"])
)
COLUMNS = (st.text(max_size=6), st.integers(), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def record_lists(draw):
    """Lists of records, or of near-records: a row with its keys in
    another order, an empty dict, or a value of another type or NaN."""
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    columns = [draw(st.sampled_from(COLUMNS)) for _ in keys]
    rows = [{key: draw(column) for key, column in zip(keys, columns)}
            for _ in range(draw(st.integers(1, 5)))]
    i = draw(st.integers(0, len(rows) - 1))
    change = draw(st.sampled_from([None, None, "order", "empty", "type", "nan"]))
    if change == "order":
        rows[i] = dict(reversed(rows[i].items()))
    elif change == "empty":
        rows.insert(i, {})
    elif change == "type":
        rows[i][keys[0]] = draw(SCALARS)
    elif change == "nan":
        rows[i][keys[0]] = math.nan
    return rows


DOCUMENTS = st.recursive(
    SCALARS | record_lists(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=3)),  # as EvalReport.to_dict
    max_leaves=16,
)


def _is_records(rows: list) -> bool:
    """Whether rows is a list of records in write_json's sense."""
    if not rows or type(rows[0]) is not dict or not rows[0]:
        return False
    keys = list(rows[0])
    if any(type(row) is not dict or list(row) != keys for row in rows):
        return False
    for key in keys:
        kinds = {type(row[key]) for row in rows}
        finite = all(type(row[key]) is float and math.isfinite(row[key]) for row in rows)
        if type(key) is not str or (kinds not in ({str}, {int}) and not finite):
            return False
    return True


def _assert_written_as_json_dumps(path, doc):
    for sort_keys in (True, False):
        write_json(path, doc, sort_keys=sort_keys)
        expected = json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(doc=DOCUMENTS)
def test_write_json_writes_exactly_what_json_dumps_does(doc, tmp_path_factory):
    _assert_written_as_json_dumps(tmp_path_factory.getbasetemp() / "doc.json", doc)


@settings(max_examples=150, deadline=None)
@given(rows=record_lists(), sort_keys=st.booleans())
def test_records_take_the_template_exactly_when_they_qualify(rows, sort_keys, tmp_path_factory):
    """Both the template and the json.dumps fallback write json.dumps' bytes,
    at the top level and nested."""
    assert (_records(rows, sort_keys, 0) is not None) == _is_records(rows)
    path = tmp_path_factory.getbasetemp() / "rows.json"
    for doc in (rows, {"version": 1, "predictions": rows}, [[{"x": rows}]]):
        _assert_written_as_json_dumps(path, doc)


def test_prediction_records_take_the_template(tmp_path):
    rows = [{"gameTime": "1 - 00:05", "label": "Goal", "half": 1, "position_s": 5,
             "confidence": 0.25}, {"gameTime": "2 - 45:00", "label": "Foul", "half": 2,
                                   "position_s": 2700, "confidence": 1e-7}]
    assert _records(rows, True, 0) is not None
    _assert_written_as_json_dumps(tmp_path / "p.json", {"r": [{"%s %": 1}, {"%s %": 2}]})
    for bad in ({**rows[1], "half": True}, {**rows[1], "confidence": math.inf},
                {**rows[1], "confidence": 1}, dict(reversed(rows[1].items())), {}):
        assert _records([rows[0], bad], True, 0) is None
        _assert_written_as_json_dumps(tmp_path / "p.json", {"predictions": [rows[0], bad]})


@settings(max_examples=150, deadline=None)
@given(rows=record_lists(), sort_keys=st.booleans())
def test_records_given_as_columns_write_as_their_rows(rows, sort_keys, tmp_path_factory):
    """Records, as the document or a dict's value, write json.dumps' bytes
    for the records they stand for where the template takes those records;
    any other Records is a TypeError."""
    keys = list(rows[0])
    assume(keys and all(type(row) is dict and list(row) == keys for row in rows))
    columns = Records({key: [row[key] for row in rows] for key in keys})
    path = tmp_path_factory.getbasetemp() / "columns.json"
    for doc, same in (({"version": 1, "predictions": columns}, {"version": 1, "predictions": rows}),
                      (columns, rows)):
        if _records(rows, sort_keys, 0) is None:
            with pytest.raises(TypeError):
                write_json(path, doc, sort_keys=sort_keys)
            continue
        write_json(path, doc, sort_keys=sort_keys)
        expected = json.dumps(same, indent=2, sort_keys=sort_keys) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")


def test_records_without_rows_or_out_of_place(tmp_path):
    """Records without a record write "[]"; a Records json.dumps would meet,
    in a list or under a dict with a key that is not a str, is a TypeError
    rather than a dict of columns."""
    path = tmp_path / "r.json"
    for empty in (Records({"a": []}), Records({})):
        write_json(path, {"p": empty})
        assert path.read_bytes() == b'{\n  "p": []\n}\n'
    one = Records({"a": [1]})
    for doc in ([one], {"p": [one]}, {1: one}, {"p": {1: one}}):
        with pytest.raises(TypeError):
            write_json(path, doc)


def test_typed_list_checks_each_value_as_typed_does():
    assert typed_list(["a", "b"], str, ParseError, "w") == ["a", "b"]
    assert typed_list([1, 2.5], float, ParseError, "w") == [1.0, 2.5]
    assert typed_list([], int, ParseError, "w") == []
    for values, kind in (([1, True], int), ([1.0, "x"], float), (["a", None], str)):
        with pytest.raises(ParseError, match="^w must be"):
            typed_list(values, kind, ParseError, "w")
