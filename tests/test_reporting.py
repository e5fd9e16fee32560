"""``reporting.pretty_dumps`` against the standard library's indented encoder.

``pretty_dumps(doc)`` must equal ``json.dumps(doc, sort_keys=True, indent=2,
ensure_ascii=True)`` byte for byte: on every scenario report, on the report
of every command in the README's CLI section, on generated JSON trees and on
hand cases (empty containers, non-string keys, subclasses of the plain
types), and it must raise the same TypeError where the standard library
does.  The generated examples are derandomized, so the module is
deterministic and quick.
"""

import enum
import json
import math
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedouble import cli
from coarsedouble.reporting import pretty_dumps
from coarsedouble.scenarios import SCENARIO_NAMES, run_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def stdlib(doc):
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)


def readme_commands():
    """The argument lists of the README's CLI block, continuation lines joined."""
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.strip().splitlines()]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_reports(name):
    doc = run_scenario(name).to_json()
    assert pretty_dumps(doc) == stdlib(doc)


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_reports(argv, tmp_path, monkeypatch, capsys):
    if argv[:2] == ["report", "--infile"]:
        saved = tmp_path / argv[2]
        assert cli.main(["--out", str(saved), "scenario", "run", "typeI"]) == 0
        argv = ["report", "--infile", str(saved), *argv[3:]]
    docs = []
    monkeypatch.setattr(cli, "pretty_dumps", lambda doc: docs.append(doc) or pretty_dumps(doc))
    capsys.readouterr()
    assert cli.main(argv) == 0
    [doc] = docs
    assert capsys.readouterr().out == stdlib(doc) + "\n"


class Color(enum.IntEnum):
    RED = 1
    BLUE = 7


class Name(str):
    pass


class Ratio(float):
    pass


class Row(list):
    pass


class Table(dict):
    pass


HAND_CASES = [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], {}, ()], [[[]]],
    "top", "", 0, -5, 10**40, 1.5, -0.0, math.nan, math.inf, -math.inf, None, True,
    False,
    {1: "one", 2: "two", 10: "ten", -3: "minus"},
    {1.5: 0, -2.0: 1, math.inf: 2, -math.inf: 3, 0.1: 4},
    {math.nan: 0},
    {True: 1, False: 0},
    {None: [None]},
    {False: 0, 2: 1, 1.5: 2},
    {"é": "ü", "\x00": "\n\t\"\\", "😀": "\ud800"},
    (1, (2, (3, [])), {"t": (4,)}),
    [Color.RED, {"c": Color.BLUE}],
    {Color.BLUE: 0, Color.RED: 1},
    [Name("x"), {Name("k"): Name("v")}],
    [Ratio(0.25), Ratio(math.nan), {Ratio(2.0): 1}],
    Row([1, Row([]), Table({"a": Row([2, 3])})]),
    Table({}),
    {"scalars": [1, "a", None, True, 2.5], "mixed": [1, [2], {"x": 3}]},
]


@pytest.mark.parametrize("doc", HAND_CASES, ids=repr)
def test_hand_cases(doc):
    assert pretty_dumps(doc) == stdlib(doc)


UNSERIALIZABLE = [
    object(), [1, {2, 3}], {"a": [1, 2j]}, {(1, 2): 0}, {"a": {b"k": 1}},
    {1: 0, "a": 1}, {None: 0, "a": 1}, {"x": {1.5: 0, "b": 1}},
]


@pytest.mark.parametrize("doc", UNSERIALIZABLE, ids=repr)
def test_same_type_error(doc):
    with pytest.raises(TypeError) as want:
        stdlib(doc)
    with pytest.raises(TypeError) as got:
        pretty_dumps(doc)
    assert str(got.value) == str(want.value)


text = st.text(st.characters(blacklist_categories=()))  # surrogates and controls too
floats = st.floats(allow_nan=True, allow_infinity=True)
scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(min_value=-2**200, max_value=2**200), floats, text)
# one kind of key per dict, since keys of different kinds do not sort
keys = (text, st.one_of(st.booleans(), st.integers()), floats)


def _containers(children):
    return st.one_of(st.lists(children, max_size=5),
                     st.lists(children, max_size=5).map(tuple),
                     *(st.dictionaries(k, children, max_size=5) for k in keys))


trees = st.recursive(scalars, _containers, max_leaves=40)


@given(doc=trees)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_generated_trees(doc):
    assert pretty_dumps(doc) == stdlib(doc)
