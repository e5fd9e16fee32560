"""Metamorphic relations, where no brute-force oracle exists.

On IntLine, translating every set and the window's basepoint by t, or
reflecting x -> -x, maps the space onto itself.  The verdicts must then keep
their status, value and witness, whose entries are levels and distances, not
points.  ``is_zero`` is the order test against ``zero_levels(space)``, whose
levels measure from the space's basepoint, which only the reflection fixes,
so it takes part in the reflection relation alone.

On the four built-in spaces, swapping the arguments of a symmetric
operation keeps the status, value, witness and reason: ``equivalent(e, f)``
and ``equivalent(f, e)``, ``classify_type`` of ``meet(e, f)`` and of
``meet(f, e)``, ``is_zero`` of ``join(e, f)`` and of ``join(f, e)``.
"""

from itertools import combinations

import pytest

from coarsedouble import classify_type, equivalent, is_zero, join, meet
from coarsedouble.serialize import parse_levels
from coarsedouble.space import Window, space_by_name

INTLINE = space_by_name("IntLine")
SHIFTS = (5, -12)


def _outcome(v):
    return v.status, v.value, v.witness.to_json() if v.witness else None


def _levels(spec):
    return parse_levels(INTLINE, spec)


# level specs as functions of the translation t
TRANSLATED_LEVELS = [
    lambda t: f"subset:multiples:3:{t}",
    lambda t: f"subset:halfline:+:{t}",
    lambda t: f"subset:halfline:-:{2 + t}",
    lambda t: f"subset:points:{t};{9 + t}",
    lambda t: f"~subset:multiples:4:{1 + t}",
    lambda t: f"~subset:halfline:-:{t}",
    lambda t: f"zero:{3 + t}",
    lambda t: "unit",
]

TRANSLATED_PAIRS = [
    (lambda t: f"subset:multiples:3:{t}", lambda t: f"subset:multiples:3:{1 + t}"),
    (lambda t: f"subset:halfline:+:{t}", lambda t: f"subset:halfline:+:{4 + t}"),
    (lambda t: f"subset:points:{t};{6 + t}", lambda t: f"zero:{t}"),
    (lambda t: f"~subset:multiples:4:{t}", lambda t: f"subset:multiples:2:{1 + t}"),
    (lambda t: f"subset:halfline:-:{t}", lambda t: f"subset:halfline:+:{t}"),
    (lambda t: "unit", lambda t: f"subset:multiples:5:{t}"),
]

# (spec, its mirror image under x -> -x)
REFLECTED_LEVELS = [
    ("zero:3", "zero:-3"),
    ("subset:points:-4;7", "subset:points:4;-7"),
    ("subset:halfline:+:5", "subset:halfline:-:-5"),
    ("subset:multiples:3:1", "subset:multiples:3:2"),
    ("~subset:halfline:-:2", "~subset:halfline:+:-2"),
    ("expr:log2", "expr:log2"),
]


@pytest.mark.parametrize("t", SHIFTS)
@pytest.mark.parametrize("spec", TRANSLATED_LEVELS, ids=[f(0) for f in TRANSLATED_LEVELS])
def test_classify_type_commutes_with_translation(spec, t):
    at_0 = classify_type(_levels(spec(0)), Window(64, (0,)))
    at_t = classify_type(_levels(spec(t)), Window(64, (t,)))
    assert _outcome(at_t) == _outcome(at_0)


@pytest.mark.parametrize("t", SHIFTS)
@pytest.mark.parametrize("mode", ["quasi", "coarse"])
@pytest.mark.parametrize("left, right", TRANSLATED_PAIRS,
                         ids=[f"{a(0)}|{b(0)}" for a, b in TRANSLATED_PAIRS])
def test_equivalent_commutes_with_translation(left, right, mode, t):
    at_0 = equivalent(_levels(left(0)), _levels(right(0)), mode, Window(64, (0,)))
    at_t = equivalent(_levels(left(t)), _levels(right(t)), mode, Window(64, (t,)))
    assert _outcome(at_t) == _outcome(at_0)


@pytest.mark.parametrize("spec, mirror", REFLECTED_LEVELS)
def test_classify_type_commutes_with_reflection(spec, mirror):
    v = classify_type(_levels(spec), Window(64, (6,)))
    assert _outcome(classify_type(_levels(mirror), Window(64, (-6,)))) == _outcome(v)


@pytest.mark.parametrize("mode", ["quasi", "coarse"])
@pytest.mark.parametrize("spec, mirror", REFLECTED_LEVELS)
def test_is_zero_commutes_with_reflection(spec, mirror, mode):
    v = is_zero(_levels(spec), mode, Window(64, (6,)))
    assert _outcome(is_zero(_levels(mirror), mode, Window(64, (-6,)))) == _outcome(v)


# level specs per built-in space, for the argument-symmetry relations
SYMMETRY_LEVELS = {
    "NatLine": ["subset:evens", "subset:squares", "subset:powers:2", "expr:log2", "zero",
                "unit", "subset:halfline:+:5"],
    "IntLine": ["subset:multiples:3:1", "subset:halfline:-:2", "expr:ceil-sqrt", "zero:3",
                "subset:points:-4;7", "unit", "~subset:evens"],
    "GeomLine": ["subset:powers:4", "subset:powers:2", "expr:log2", "zero", "unit",
                 "subset:points:8;32"],
    "TwoTails": ["subset:tailplus", "subset:tailminus", "zero", "unit",
                 "subset:points:4,2;9,1", "zero:16,-3"],
}
SYMMETRY_WINDOW = Window(64)


def _full_outcome(v):
    return _outcome(v) + (v.diagnostics.get("reason"),)


def _pairs(space_name):
    space = space_by_name(space_name)
    levels = [parse_levels(space, spec) for spec in SYMMETRY_LEVELS[space_name]]
    return list(combinations(levels, 2))


@pytest.mark.parametrize("space_name", sorted(SYMMETRY_LEVELS))
@pytest.mark.parametrize("mode", ["quasi", "coarse"])
def test_equivalent_is_symmetric(space_name, mode):
    for e, f in _pairs(space_name):
        assert _full_outcome(equivalent(e, f, mode, SYMMETRY_WINDOW)) == \
            _full_outcome(equivalent(f, e, mode, SYMMETRY_WINDOW)), (e.name, f.name)


@pytest.mark.parametrize("space_name", sorted(SYMMETRY_LEVELS))
def test_classify_type_of_meet_is_symmetric(space_name):
    for e, f in _pairs(space_name):
        assert _full_outcome(classify_type(meet(e, f), SYMMETRY_WINDOW)) == \
            _full_outcome(classify_type(meet(f, e), SYMMETRY_WINDOW)), (e.name, f.name)


@pytest.mark.parametrize("space_name", sorted(SYMMETRY_LEVELS))
@pytest.mark.parametrize("mode", ["quasi", "coarse"])
def test_is_zero_of_join_is_symmetric(space_name, mode):
    for e, f in _pairs(space_name):
        assert _full_outcome(is_zero(join(e, f), mode, SYMMETRY_WINDOW)) == \
            _full_outcome(is_zero(join(f, e), mode, SYMMETRY_WINDOW)), (e.name, f.name)
