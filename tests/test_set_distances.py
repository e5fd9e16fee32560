"""``set_distances`` and ``LevelFunction.levels`` against their per-point forms.

On NatLine and IntLine a run of consecutive points takes one
distance-transform sweep; every other list takes ``dist_to_set`` per point.
Both must give the same distances, and raise the same exception type for a
set with no member.  The sets are the named families, complements of depth
1 and 2, explicit sets, searched copies of them and sublevel sets of level
functions; the lists are runs (with or without the basepoint, of length 1
and up) and lists with gaps or out of order.  ``levels`` is compared with
``level`` on meet/join trees of depth at most 2, built twice so that the
two reads share no cache.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedouble import space as space_module
from coarsedouble.errors import DomainError, SearchInconclusive
from coarsedouble.projection import (join, levels_from_subset, meet, unit_levels,
                                     zero_levels)
from coarsedouble.serialize import expression_levels
from coarsedouble.space import (SEARCH_POINT_CAP, UNBOUNDED, PointSet, dist_to_set,
                                set_distances, set_family, set_from_json, space_by_name)
from test_set_distance import LINE_FAMILIES

SPACES = ("NatLine", "IntLine")


def _outcome(read):
    try:
        return read()
    except (DomainError, SearchInconclusive) as err:
        return type(err)


def _per_point(space, pts, A):
    return _outcome(lambda: [dist_to_set(space, p, A, UNBOUNDED).value for p in pts])


def _swept(space, pts, A):
    return _outcome(lambda: set_distances(space, pts, A))


def _doc(spec):
    return set_family(spec[0], **spec[1]).family


DEPTH_2 = LINE_FAMILIES.map(lambda spec: {"family": "complement", "of": {
    "family": "complement", "of": _doc(spec)}})
SET_DOCS = st.one_of(LINE_FAMILIES.map(_doc), DEPTH_2)


@st.composite
def point_lists(draw, name):
    """A run lo..hi, or a list with a gap or out of order."""
    lo = draw(st.integers(0 if name == "NatLine" else -400, 400))
    pts = [(i,) for i in range(lo, lo + draw(st.integers(1, 40)))]
    shape = draw(st.sampled_from(["run", "run", "gap", "shuffled"]))
    if shape == "gap" and len(pts) > 2:
        del pts[draw(st.integers(1, len(pts) - 2))]
    elif shape == "shuffled":
        pts = draw(st.permutations(pts))
    return pts


@given(name=st.sampled_from(SPACES), doc=SET_DOCS, searched=st.booleans(),
       data=st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_sweep_matches_per_point_search(name, doc, searched, data):
    space = space_by_name(name)
    A = set_from_json(doc)
    if searched:  # no family and no point list: the search path
        A = PointSet.from_predicate(A.name, A.contains)
    pts = data.draw(point_lists(name), label="pts")
    assert _swept(space, pts, A) == _per_point(space, pts, A)


@given(name=st.sampled_from(SPACES), doc=SET_DOCS, n=st.integers(1, 5),
       data=st.data())
@settings(max_examples=100, derandomize=True, deadline=None)
def test_sweep_matches_per_point_on_sublevel_sets(name, doc, n, data):
    space = space_by_name(name)
    core = levels_from_subset(space, set_from_json(doc)).sublevel(n)
    pts = data.draw(point_lists(name), label="pts")
    assert _swept(space, pts, core) == _per_point(space, pts, core)


@pytest.mark.parametrize("name, pts", [
    ("IntLine", [(-9,), (-8,), (-7,)]),     # a run that misses the basepoint
    ("NatLine", [(300,), (301,), (302,), (303,)]),
    ("IntLine", [(5,)]),
    ("IntLine", [(5,), (6,)]),
    ("IntLine", [(5,), (7,), (6,)]),
])
@pytest.mark.parametrize("doc", [
    {"family": "multiples", "k": 7, "r": 3},
    {"family": "complement", "of": {"family": "half_line", "sign": -1, "bound": 2}},
    {"family": "complement", "of": {"family": "complement", "of": {"family": "squares"}}},
    {"family": "explicit", "points": [[-30], [1], [260]]},
])
def test_sweep_examples(name, pts, doc):
    space = space_by_name(name)
    A = set_from_json(doc)
    assert set_distances(space, pts, A) == _per_point(space, pts, A)


@pytest.mark.parametrize("name, A", [
    ("NatLine", set_family("complement", of={"family": "half_line", "sign": 1, "bound": 0})),
    ("NatLine", PointSet.from_points([(-3,), (-7,)])),
    ("IntLine", set_family("complement", of={"family": "multiples", "k": 1, "r": 0})),
    ("NatLine", PointSet.from_predicate("none", lambda p: False)),
], ids=["empty-complement", "explicit-outside", "empty-multiples-complement", "searched"])
def test_set_without_members_raises_alike(name, A):
    space = space_by_name(name)
    pts = [(i,) for i in range(3, 12)]
    want = _per_point(space, pts, A)
    assert want in (DomainError, SearchInconclusive)
    assert _swept(space, pts, A) == want


@pytest.mark.parametrize("name", SPACES)
@pytest.mark.parametrize("pts, searches", [
    (tuple((i,) for i in range(3, 12)), 2),
    ([(0,), (0,), (1,)], 3),
], ids=["run-as-tuple", "repeated-point"])
@pytest.mark.parametrize("doc", [
    {"family": "multiples", "k": 3, "r": 1},
    {"family": "complement", "of": {"family": "squares"}},
    {"family": "explicit", "points": [[5], [40]]},
])
def test_run_test_on_a_tuple_and_a_repeated_point(monkeypatch, name, pts, searches, doc):
    # a run passed as a tuple is swept (two searches, at its ends); a list
    # that repeats a point is no run and is searched per point
    space = space_by_name(name)
    A = set_from_json(doc)
    want = _per_point(space, pts, A)
    calls = []
    search = space_module.dist_to_set
    monkeypatch.setattr(space_module, "dist_to_set",
                        lambda *args: calls.append(args[1]) or search(*args))
    assert _swept(space, pts, A) == want
    assert len(calls) == searches


def _tuple_run_test(pts):
    """The run test as one comparison with the run's tuples."""
    lo = pts[0][0]
    return type(lo) is int and list(pts) == list(zip(range(lo, lo + len(pts))))


RUN = [(i,) for i in range(3, 9)]


@pytest.mark.parametrize("name", SPACES)
@pytest.mark.parametrize("pts, searches", [
    (RUN[:2] + [(5, 1)] + RUN[3:], 3),                  # a point of two coordinates
    (RUN[:2] + [(Fraction(9, 2),)] + RUN[3:], 3),       # a Fraction coordinate
    ([(Fraction(3),)] + RUN[1:], 1),                    # ... at the start
    ([(False,), (1,), (2,), (3,)], 4),                  # a bool at the start
    ([(0,), (True,), (3,), (4,)], 4),                   # a bool off the run
    (RUN[:2] + [[5]] + RUN[3:], 3),                     # a list, not a tuple
], ids=["two-coordinates", "fraction", "fraction-first", "bool-first", "bool-off-run",
        "list-point"])
def test_lists_that_are_no_run_are_searched_per_point(monkeypatch, name, pts, searches):
    # each list is searched point by point, as the comparison with the
    # run's tuples decides, and fails or answers as the searches do
    space = space_by_name(name)
    A = set_family("multiples", k=3, r=1)
    assert not _tuple_run_test(pts)
    want = _per_point(space, pts, A)
    calls = []
    search = space_module.dist_to_set
    monkeypatch.setattr(space_module, "dist_to_set",
                        lambda *args: calls.append(args[1]) or search(*args))
    assert _swept(space, pts, A) == want
    assert len(calls) == searches


@st.composite
def near_runs(draw):
    """A run of 3 to 12 points with at most two points changed."""
    lo = draw(st.integers(-5, 5))
    pts = [(i,) for i in range(lo, lo + draw(st.integers(3, 12)))]
    other = st.one_of(
        st.integers(-6, 20).map(lambda v: (v,)),
        st.tuples(st.integers(-6, 20), st.integers(-2, 2)),
        st.just(()),
        st.integers(-6, 20).map(lambda v: [v]),
        st.integers(-12, 40).map(lambda v: (Fraction(v, 2),)),
        st.booleans().map(lambda v: (v,)))
    for _ in range(draw(st.integers(0, 2))):
        pts[draw(st.integers(0, len(pts) - 1))] = draw(other)
    return pts


@given(pts=near_runs())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_run_test_accepts_what_the_tuple_comparison_accepts(pts):
    # the run test builds no tuples, and decides as the comparison with the
    # run's tuples does: equal values, so a bool 1 or a Fraction 5 in place
    # of 1 or 5 still belongs to the run
    def decision(test):
        try:
            return test(pts)
        except IndexError as err:  # a first point with no coordinate, either way
            return type(err)

    assert decision(space_module._is_run) == decision(_tuple_run_test)


def test_sweep_answers_past_the_search_cap():
    # the middle point's nearest member is 35,000 away, so its own search
    # gives up at a ball of more than SEARCH_POINT_CAP points; the run's
    # ends are members, and the sweep reads its distance exactly
    space = space_by_name("IntLine")
    far = 70_000
    A = PointSet.from_predicate("ends", lambda p: p[0] <= 0 or p[0] >= far)
    assert far // 2 > SEARCH_POINT_CAP // 2
    with pytest.raises(SearchInconclusive):
        dist_to_set(space, (far // 2,), A, UNBOUNDED)
    pts = [(i,) for i in range(far + 1)]
    assert set_distances(space, pts, A) == [min(i, far - i) for i in range(far + 1)]


LEAVES = (
    lambda s: levels_from_subset(s, set_family("multiples", k=5, r=2)),
    lambda s: levels_from_subset(s, set_family("half_line", sign=1, bound=30)),
    lambda s: levels_from_subset(s, set_family("complement", of={"family": "squares"})),
    lambda s: levels_from_subset(s, PointSet.from_points([(4,), (90,)])),
    lambda s: zero_levels(s, (7,)),
    unit_levels,
    lambda s: expression_levels(s, "ceil-sqrt"),
)
LEAF = st.integers(0, len(LEAVES) - 1)
OP = st.sampled_from(["meet", "join"])
TREES = st.one_of(LEAF, st.tuples(OP, LEAF, LEAF),
                  st.tuples(OP, st.tuples(OP, LEAF, LEAF), LEAF),
                  st.tuples(OP, st.tuples(OP, LEAF, LEAF), st.tuples(OP, LEAF, LEAF)))


def _build(space, tree):
    if isinstance(tree, int):
        return LEAVES[tree](space)
    op, a, b = tree
    return {"meet": meet, "join": join}[op](_build(space, a), _build(space, b))


@given(name=st.sampled_from(SPACES), tree=TREES, data=st.data())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_levels_match_per_point_levels(name, tree, data):
    space = space_by_name(name)
    pts = data.draw(point_lists(name), label="pts")
    by_point = _build(space, tree)
    want = [by_point.level(x) for x in pts]
    lf = _build(space, tree)
    # points read before come from the cache; the rest is no longer a run
    for x in data.draw(st.lists(st.sampled_from(pts), max_size=3), label="cached"):
        lf.level(x)
    assert lf.levels(pts) == want
    assert lf.levels(pts[::-1]) == want[::-1]
