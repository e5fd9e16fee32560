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

On the same four spaces, pointwise larger levels give sublevel sets that
are no larger: ``nu_hat``'s member masses of meet(e, f) are at most those of
e, and those of e at most those of join(e, f), at every radius and level.
Each comparison is made both ways between two views: ``nu_hat``'s masses,
on a schedule with or without radii between the compared ones, and a rescan that
counts each compared ball's sublevel points, so that a miscounted ring,
which would miscount both sides alike in one view, breaks the relation.

A certified answer holds at every larger window: on NatLine, IntLine and
GeomLine, each verdict producer (``is_zero``, ``equivalent`` in both modes
against a fixed partner, ``classify_type``, and ``atom_nonzero`` of one
generator with patterns "1" and "0") runs at windows 16, 32 and 64, and no
two of its certified values for one level spec differ.

The projection kernels p_e = ``metric_from_levels(e)`` form a lattice that
mirrors the level functions': on NatLine and IntLine, for seven level specs,
the levels of ``metric_join(p_e, p_f)`` are coarsely equivalent to
``join(e, f)`` and those of ``metric_meet(p_e, p_f)`` to ``meet(e, f)``,
certified, and the levels of ``compose(p_e, p_f)``, in both factor orders,
to ``meet(e, f)``, certified except on four IntLine pairs whose transfer
tables do not settle on ``Window(16)`` ("unstable transfer"), and never by
escape.  Each relation runs through the kernel evaluator, escalation, level
reading and the verdict engine, so a wrong min-glue delta, a ``meet`` that
takes the min or a composition that drops one factor's delta breaks it.
"""

from functools import cache
from itertools import combinations, permutations

import pytest

from coarsedouble import (DensityMeasure, classify_type, compose, equivalent, is_zero, join,
                          levels_from_metric, meet, metric_from_levels, metric_join,
                          metric_meet, nu_hat)
from coarsedouble.boolalg import AtomPattern, atom_nonzero
from coarsedouble.errors import DomainError
from coarsedouble.serialize import parse_levels
from coarsedouble.space import Window, space_by_name, window_points

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


# Masses are compared at the radii 8, 40, 64 and 100; nu_hat reads them from
# those radii alone or from a schedule that puts other radii between them, so
# rings of several widths are counted: slices of the ball on the lines, point
# by point on TwoTails.
SHARED_RADII = (8, 40, 64, 100)
MASS_SCHEDULES = {"shared": list(SHARED_RADII), "between": [3, 8, 17, 40, 64, 100]}


def _nu_hat_masses(schedule):
    """The view of nu_hat's member masses on a schedule: per level n <= 6,
    at the shared radii."""
    def masses(space, lf):
        rep = nu_hat(DensityMeasure(space), lf, 6, schedule)
        return [[row[schedule.index(r)] for r in SHARED_RADII] for row in rep.masses]

    return masses


def _rescanned_masses(space, lf):
    """The same masses by a count of each shared ball's sublevel points."""
    balls = [lf.levels(window_points(space, Window(r))) for r in SHARED_RADII]
    return [[sum(lv <= n for lv in ball) for ball in balls] for n in range(1, 7)]


@pytest.mark.parametrize("schedule", sorted(MASS_SCHEDULES))
@pytest.mark.parametrize("space_name", sorted(SYMMETRY_LEVELS))
def test_larger_levels_give_no_larger_masses(space_name, schedule):
    # meet(e, f) >= e >= join(e, f) pointwise, and e >= e; each side of a
    # comparison is computed in the other view, so e against itself checks
    # that the two views agree
    space = space_by_name(space_name)
    levels = [parse_levels(space, spec) for spec in SYMMETRY_LEVELS[space_name]]
    views = (_nu_hat_masses(MASS_SCHEDULES[schedule]), _rescanned_masses)
    for e, f in list(combinations(levels, 2)) + [(e, e) for e in levels]:
        for larger, smaller in ((meet(e, f), e), (e, join(e, f))):
            for big, small in (views, views[::-1]):
                assert all(a <= b for rows in zip(big(space, larger), small(space, smaller))
                           for a, b in zip(*rows)), (e.name, f.name)


CROSS_WINDOW_SPECS = ["expr:ceil-cbrt", "expr:ceil-sqrt", "expr:log2", "subset:points:0;5",
                      "zero:3", "subset:evens", "subset:powers:2", "subset:squares",
                      "subset:halfline:+:0", "unit"]
CROSS_WINDOW_PARTNER = "expr:ceil-sqrt"
PRODUCERS = {
    "is_zero": lambda e, f, w: is_zero(e, "coarse", w),
    "equivalent-quasi": lambda e, f, w: equivalent(e, f, "quasi", w),
    "equivalent-coarse": lambda e, f, w: equivalent(e, f, "coarse", w),
    "classify_type": lambda e, f, w: classify_type(e, w),
    "atom-1": lambda e, f, w: atom_nonzero(AtomPattern.from_bits("1"), [e], w),
    "atom-0": lambda e, f, w: atom_nonzero(AtomPattern.from_bits("0"), [e], w),
}
# certified "nonzero" at a small window and "zero" at the larger ones: the
# FOUND in CHANGES.md on atom_nonzero certifying from escape evidence
WINDOW_ARTEFACTS = {("NatLine", "expr:ceil-cbrt"), ("NatLine", "subset:points:0;5"),
                    ("IntLine", "expr:ceil-cbrt"), ("IntLine", "subset:points:0;5"),
                    ("IntLine", "zero:3"), ("GeomLine", "expr:ceil-sqrt"),
                    ("GeomLine", "expr:ceil-cbrt")}


def _holds(space_name, spec):
    """Whether the space holds the spec's levels (no point of it lies outside)."""
    try:
        parse_levels(space_by_name(space_name), spec).tabulate(Window(16))
    except DomainError:
        return False
    return True


def _cross_window_rows():
    for space_name in ("NatLine", "IntLine", "GeomLine"):
        for spec in filter(lambda spec: _holds(space_name, spec), CROSS_WINDOW_SPECS):
            for producer in PRODUCERS:
                marks = ()
                if producer == "atom-1" and (space_name, spec) in WINDOW_ARTEFACTS:
                    marks = pytest.mark.xfail(strict=True, reason="atom_nonzero certifies "
                                              "nonzero from escape evidence (CHANGES.md FOUND)")
                yield pytest.param(producer, space_name, spec, marks=marks,
                                   id=f"{producer}-{space_name}-{spec}")


@pytest.mark.parametrize("producer, space_name, spec", _cross_window_rows())
def test_certified_values_agree_across_windows(producer, space_name, spec):
    space = space_by_name(space_name)
    e = parse_levels(space, spec)
    partner = parse_levels(space, CROSS_WINDOW_PARTNER)
    verdicts = [PRODUCERS[producer](e, partner, Window(r)) for r in (16, 32, 64)]
    certified = {v.value for v in verdicts if v.certified}
    assert len(certified) <= 1, [(v.window.radius, v.value) for v in verdicts if v.certified]


LAW_SPECS = ["subset:evens", "subset:squares", "expr:log2", "subset:powers:2", "unit",
             "subset:halfline:+:0", "zero"]
LAW_WINDOWS = {"NatLine": Window(32), "IntLine": Window(16)}
# the composed pairs whose transfer tables do not settle on the window
UNSETTLED_COMPOSITIONS = {("IntLine", "subset:squares", "expr:log2"),
                          ("IntLine", "expr:log2", "subset:squares"),
                          ("IntLine", "expr:log2", "subset:powers:2"),
                          ("IntLine", "subset:powers:2", "expr:log2")}


@cache
def _projections(space_name):
    """The law specs' level functions and projection kernels on the space,
    built once per space, so that their caches serve every pair."""
    space = space_by_name(space_name)
    levels = {spec: parse_levels(space, spec) for spec in LAW_SPECS}
    return levels, {spec: metric_from_levels(e) for spec, e in levels.items()}


def _law_pairs():
    return [pytest.param(space_name, a, b, id=f"{space_name}-{a}-{b}")
            for space_name in LAW_WINDOWS for a, b in combinations(LAW_SPECS, 2)]


def _coarse(d, e, w):
    """The verdict of the levels of kernel d against the level function e."""
    return equivalent(levels_from_metric(d), e, "coarse", w)


@pytest.mark.parametrize("space_name, a, b", _law_pairs())
def test_join_and_meet_kernels_give_join_and_meet(space_name, a, b):
    levels, kernels = _projections(space_name)
    w = LAW_WINDOWS[space_name]
    e, f, pe, pf = levels[a], levels[b], kernels[a], kernels[b]
    for kernel, op in ((metric_join, join), (metric_meet, meet)):
        v = _coarse(kernel(pe, pf, w), op(e, f), w)
        assert v.certified, (op.__name__, v.diagnostics.get("reason"))


@pytest.mark.parametrize("space_name, a, b", _law_pairs())
def test_composed_projections_give_the_meet(space_name, a, b):
    levels, kernels = _projections(space_name)
    w = LAW_WINDOWS[space_name]
    for x, y in permutations((a, b)):
        v = _coarse(compose(kernels[x], kernels[y]), meet(levels[x], levels[y]), w)
        if (space_name, x, y) in UNSETTLED_COMPOSITIONS and not v.certified:
            assert v.diagnostics["reason"] == "unstable transfer", (x, y)
        else:
            assert v.certified, (x, y, v.diagnostics.get("reason"))
