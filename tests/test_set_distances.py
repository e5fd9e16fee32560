"""``set_distances`` and ``LevelFunction.levels`` against their per-point forms.

On NatLine and IntLine a list of three or more points is split into its
maximal runs of consecutive points; a run of three or more takes one
distance-transform sweep, searched at its two ends, and a shorter run is
searched per point.  Other spaces and shorter lists take ``dist_to_set``
per point.  Both must give the same distances, and raise the same
exception type for a set with no member; a list that holds a point outside
the space raises DomainError before any search.  The sets are the named
families, complements of depth 1 and 2, explicit sets, searched copies of
them and sublevel sets of level functions; the lists are runs (with or
without the basepoint, of length 1 and up), lists with gaps, repeated
points or odd points (bool, Fraction, two coordinates), in any order, as
lists or tuples, and changed enumerations.  The lines' enumerations are
``_Run`` lists, which the sweep takes as one run from their ends and
length, with no check of their points.  ``levels`` is compared with
``level`` on meet/join trees of depth at most 2, built twice so that the
two reads share no cache.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coarsedouble import space as space_module
from coarsedouble.errors import DomainError, SearchInconclusive
from coarsedouble.scenarios import _far_set
from coarsedouble.projection import (join, levels_from_subset, meet, unit_levels,
                                     zero_levels)
from coarsedouble.serialize import expression_levels
from coarsedouble.reporting import canonical_dumps, pretty_dumps
from coarsedouble.space import (SEARCH_POINT_CAP, PointSet, Window, _Run,
                                dist_to_set, set_distances, set_family, set_from_json,
                                space_by_name, window_points)
from test_set_distance import LINE_FAMILIES

SPACES = ("NatLine", "IntLine")


def _outcome(read):
    try:
        return read()
    except (DomainError, SearchInconclusive) as err:
        return type(err)


def _per_point(space, pts, A):
    return _outcome(lambda: [dist_to_set(space, p, A).value for p in pts])


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
        A = PointSet(A.name, A.contains)
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
    ("NatLine", PointSet("none", lambda p: False)),
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


def _searched(monkeypatch, space):
    """(dist_to_set calls, space.check argument tuples) from now on."""
    searches, checks = [], []
    search = space_module.dist_to_set
    monkeypatch.setattr(space_module, "dist_to_set",
                        lambda *args: searches.append(args[1]) or search(*args))
    check = space.check
    monkeypatch.setattr(space, "check", lambda *pts: checks.append(pts) or check(*pts))
    return searches, checks


def _runs(pts):
    """The number of maximal runs of consecutive coordinates in pts."""
    return 1 + sum(b[0] != a[0] + 1 for a, b in zip(pts, pts[1:]))


def _expected(space, pts, A):
    """What ``set_distances`` answers: per-point search, except that a list
    of three or more points with a point outside the space raises
    DomainError before any search."""
    if len(pts) > 2 and not all(map(space.contains, pts)):
        return DomainError
    return _per_point(space, pts, A)


RUN = [(i,) for i in range(3, 9)]


@pytest.mark.parametrize("name", SPACES)
@pytest.mark.parametrize("pts, searches", [
    (RUN[:2] + [(5, 1)] + RUN[3:], 0),                  # a point of two coordinates
    (RUN[:2] + [(Fraction(9, 2),)] + RUN[3:], 0),       # a Fraction coordinate
    ([(Fraction(3),)] + RUN[1:], 0),                    # ... at the start
    ([(False,), (1,), (2,), (3,)], 2),                  # a bool at the start of a run
    ([(0,), (True,), (3,), (4,)], 4),                   # two runs of two points
    (RUN[:2] + [[5]] + RUN[3:], 0),                     # a list, not a tuple
], ids=["two-coordinates", "fraction", "fraction-first", "bool-first", "bool-off-run",
        "list-point"])
def test_lists_are_checked_once_then_split_into_runs(monkeypatch, name, pts, searches):
    # a list that is no enumeration is checked once, before any search, so
    # a point outside the space fails there; a bool is an int coordinate
    # and takes its place in a run, which is swept from its two ends
    space = space_by_name(name)
    A = set_family("multiples", k=3, r=1)
    want = _expected(space, pts, A)
    calls, checks = _searched(monkeypatch, space)
    assert _swept(space, pts, A) == want
    assert len(calls) == searches
    assert checks[0] == tuple(pts)


_MUTATIONS = ("append", "insert-first", "pop", "pop-first", "delete", "reverse",
              "set-first", "set-last", "extend")


@st.composite
def changed_runs(draw, name):
    """A line enumeration, a ``_Run``, changed in place with int (or bool)
    coordinates.  An enumeration must not be changed in place; the sweep
    sees a change that moves an end or the length.  A result whose length
    still fits its ends but which is no run (swapped inner points, or a
    deleted point made up for at an end) breaks that contract unseen and
    is not drawn."""
    space = space_by_name(name)
    lo = 0 if name == "NatLine" else -60
    pts = space.points_within((draw(st.integers(lo + 20, 120)),), draw(st.integers(0, 12)))
    coord = st.integers(lo, 140) | st.booleans()
    for _ in range(draw(st.integers(1, 3))):
        change = draw(st.sampled_from(_MUTATIONS))
        if change == "append":
            pts.append((draw(coord),))
        elif change == "insert-first":
            pts.insert(0, (draw(coord),))
        elif change in ("pop", "pop-first") and pts:
            pts.pop(-1 if change == "pop" else 0)
        elif change == "delete" and pts:
            del pts[draw(st.integers(0, len(pts) - 1))]
        elif change == "reverse":
            pts.reverse()
        elif change in ("set-first", "set-last") and pts:
            pts[0 if change == "set-first" else -1] = (draw(coord),)
        elif change == "extend":
            start = draw(coord)
            pts.extend((i,) for i in range(start, start + draw(st.integers(1, 8))))
    assume(len(pts) < 3 or pts[-1][0] - pts[0][0] != len(pts) - 1 or _runs(pts) == 1)
    return pts


ODD_POINTS = st.one_of(
    st.booleans().map(lambda v: (v,)),
    st.integers(-24, 40).map(lambda v: (Fraction(v, 2),)),
    st.integers(-12, 20).map(lambda v: (Fraction(v),)),
    st.tuples(st.integers(-6, 20), st.integers(-2, 2)),
)


@st.composite
def line_lists(draw, name):
    """Point lists of every shape: runs with gaps and repeated points, in
    ascending, descending or shuffled order, as lists or tuples, with bool,
    Fraction or two-coordinate points mixed in, and changed enumerations."""
    if draw(st.integers(0, 4)) == 0:
        return draw(changed_runs(name))
    lo = 0 if name == "NatLine" else -60
    pts = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(lo, 140))
        pts += [(i,) for i in range(start, start + draw(st.integers(1, 12)))]
    for _ in range(draw(st.integers(0, 2))):  # repeated points
        pts.insert(draw(st.integers(0, len(pts))), draw(st.sampled_from(pts)))
    order = draw(st.sampled_from(["ascending", "as drawn", "descending", "shuffled"]))
    if order == "ascending":
        pts.sort()
    elif order == "descending":
        pts.sort(reverse=True)
    elif order == "shuffled":
        pts = draw(st.permutations(pts))
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        pts[draw(st.integers(0, len(pts) - 1))] = draw(ODD_POINTS)
    return tuple(pts) if draw(st.booleans()) else list(pts)


@given(name=st.sampled_from(SPACES), doc=SET_DOCS, searched=st.booleans(),
       data=st.data())
@settings(max_examples=400, derandomize=True, deadline=None)
def test_any_line_list_matches_per_point_search(name, doc, searched, data):
    # answers as per-point dist_to_set, value for value or with the same
    # exception type, and searches at most twice per maximal run
    space = space_by_name(name)
    A = set_from_json(doc)
    if searched:
        A = PointSet(A.name, A.contains)
    pts = data.draw(line_lists(name), label="pts")
    want = _expected(space, pts, A)
    with pytest.MonkeyPatch.context() as mp:
        calls, _ = _searched(mp, space)
        assert _swept(space, pts, A) == want
    if len(pts) > 2 and not all(map(space.contains, pts)):
        assert calls == []
    else:
        assert len(calls) <= 2 * _runs(pts)


def test_sweep_answers_past_the_search_cap():
    # the middle point's nearest member is 35,000 away, so its own search
    # gives up at a ball of more than SEARCH_POINT_CAP points; the run's
    # ends are members, and the sweep reads its distance exactly
    space = space_by_name("IntLine")
    far = 70_000
    A = PointSet("ends", lambda p: p[0] <= 0 or p[0] >= far)
    assert far // 2 > SEARCH_POINT_CAP // 2
    with pytest.raises(SearchInconclusive):
        dist_to_set(space, (far // 2,), A)
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


@pytest.mark.parametrize("name", SPACES)
def test_line_enumerations_are_runs(name):
    space = space_by_name(name)
    for pts in (space.points_within((3,), 5), space.points_within((0,), 0),
                window_points(space, Window(Fraction(9, 2)))):
        assert type(pts) is _Run
        # any list made from it is a plain list
        made = (pts[1:], pts[:], [p for p in pts if p[0] % 2], list(pts), pts + [],
                pts.copy(), sorted(pts))
        assert all(type(other) is list for other in made)


@pytest.mark.parametrize("name", ["GeomLine", "TwoTails"])
def test_other_enumerations_are_plain_lists(name):
    space = space_by_name(name)
    assert type(space.points_within(space.basepoint, 100)) is list
    assert type(window_points(space, Window(100))) is list


@given(name=st.sampled_from(SPACES), doc=SET_DOCS, center=st.integers(0, 300),
       radius=st.integers(0, 40) | st.fractions(0, 40, max_denominator=3))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_sweep_of_an_enumeration_matches_per_point_search(name, doc, center, radius):
    # an enumeration of three or more points is swept as one run: two
    # searches, at its ends, and no check of its points
    space = space_by_name(name)
    pts = space.points_within((center,), radius)
    A = set_from_json(doc)
    want = _per_point(space, pts, A)
    with pytest.MonkeyPatch.context() as mp:
        calls, checks = _searched(mp, space)
        assert _swept(space, pts, A) == want
    if len(pts) > 2:
        assert calls[:2] == [pts[0], pts[-1]][:len(calls)] and len(calls) <= 2
        assert len(checks) == len(calls)  # the searches' own one-point checks
        assert all(len(args) == 1 for args in checks)


@pytest.mark.parametrize("name", SPACES)
@pytest.mark.parametrize("change, runs", [
    (lambda pts: pts.append((pts[-1][0] + 3,)), 2),
    (lambda pts: pts.pop() and pts.append((pts[-1][0] + 5,)), 2),
    (lambda pts: pts.pop(0) and pts.append((200,)), 2),
    (lambda pts: pts.append((pts[-1][0] + 1,)), 1),     # still a run
    (lambda pts: pts.pop(), 1),                          # still a run
], ids=["append-gap", "pop-append-gap", "pop-first-append-far", "append-next", "pop"])
def test_a_run_changed_at_its_ends_is_checked_and_split(monkeypatch, name, change, runs):
    # a run whose length no longer fits its ends is checked once and split
    # into its maximal runs; a run of one point is searched once
    space = space_by_name(name)
    A = set_family("multiples", k=3, r=1)
    pts = space.points_within((10,), 6)
    change(pts)
    want = _per_point(space, pts, A)
    calls, checks = _searched(monkeypatch, space)
    assert _swept(space, pts, A) == want
    assert _runs(pts) == runs
    whole = [args for args in checks if len(args) > 1]
    assert whole == ([] if runs == 1 else [tuple(pts)])
    assert len(calls) == (2 if runs == 1 else 3)


@pytest.mark.parametrize("name", SPACES)
def test_a_run_dumps_as_its_plain_list(name):
    pts = space_by_name(name).points_within((4,), 3)
    plain = list(pts)
    for doc, plain_doc in ((pts, plain), (_Run(), []),
                           ({"pts": pts, "nested": [pts]}, {"pts": plain, "nested": [plain]})):
        assert pretty_dumps(doc) == pretty_dumps(plain_doc)
        assert canonical_dumps(doc) == canonical_dumps(plain_doc)


def _sliced_sets(lo, n):
    """Half-lines of both signs bounded below, at each end of, inside and
    above the coordinates lo..lo + n - 1, and multiples with k = 1, 2 and 5
    and every residue class written as r = -6..6."""
    sets = [set_family("half_line", sign=sign, bound=b) for sign in (-1, 1)
            for b in (lo - 3, lo - 1, lo, lo + 1, lo + n // 2, lo + n - 2, lo + n - 1,
                      lo + n, lo + n + 4)]
    sets += [set_family("multiples", k=k, r=r) for k in (1, 2, 5) for r in range(-6, 7)]
    return sets


@pytest.mark.parametrize("lo", [-13, -5, -1, 0, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_sliced_member_flags_equal_the_predicate(lo, n):
    # half-line and multiples families, and their complements at depth 1, 2
    # and 3, take their flags from slice arithmetic; a negative lo is a run
    # of IntLine
    run = [(x,) for x in range(lo, lo + n)]
    for A in _sliced_sets(lo, n):
        for depth in range(4):
            got = space_module._line_members(A.family, lo, n)
            assert got == list(map(A._contains, run)), (A.family, lo, n)
            A = A.complement()


@pytest.mark.parametrize("name, lo", [("NatLine", 0), ("NatLine", 7), ("IntLine", -9)])
def test_sweep_of_a_sliced_family_calls_no_predicate(name, lo):
    space = space_by_name(name)
    pts = [(x,) for x in range(lo, lo + 20)]
    for A in _sliced_sets(lo, 20) + [s.complement() for s in _sliced_sets(lo, 20)]:
        want = _per_point(space, pts, A)
        A._contains = None  # the flags come from the family alone
        assert _swept(space, pts, A) == want, A.family
    # a set with no run reader, here a family-less copy of the squares, maps
    # its predicate over the run, after the searches at the run's two ends
    seen = []
    contains = set_family("squares")._contains
    squares = PointSet("squares", lambda p: seen.append(p) or contains(p))
    assert squares.run_flags is None
    for p in (pts[0], pts[-1]):
        dist_to_set(space, p, squares)
    ends, seen[:] = list(seen), []
    assert set_distances(space, pts, squares) == _per_point(space, pts, set_family("squares"))
    assert seen == ends + pts


# the sparse families, whose run flags are set at their members' offsets
_SPARSE = st.one_of(
    st.just(("squares", {})),
    st.builds(lambda b, s: ("powers", {"base": b, "scale": s}),
              st.integers(2, 5), st.integers(2, 6)),
    st.builds(lambda b, s, k0: ("powers_tail", {"base": b, "scale": s, "k0": k0}),
              st.integers(2, 5), st.integers(1, 4), st.integers(2, 5)))


@given(spec=_SPARSE, depth=st.integers(0, 2), name=st.sampled_from(SPACES),
       below=st.integers(1, 200), n=st.integers(1, 400))
@settings(max_examples=200, deadline=None)
def test_sparse_family_run_flags_equal_the_predicate(spec, depth, name, below, n):
    # NatLine runs start at 0; IntLine runs start below 0 and cross it
    space = space_by_name(name)
    lo = 0 if name == "NatLine" else -below
    run = [(x,) for x in range(lo, n)]
    A = set_family(spec[0], **spec[1])
    for _ in range(depth):
        A = A.complement()
    assert A.run_flags(run) == list(map(A.contains, run)), (A.family, lo)
    if depth % 2 == 0:  # the end searches take the closed form, so no predicate runs
        want = _per_point(space, run, A)
        A._contains = None
        assert _swept(space, run, A) == want


@given(name=st.sampled_from(SPACES), spec=LINE_FAMILIES, j=st.integers(0, 8),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_far_set_flags_equal_the_ball_predicate(name, spec, j, data):
    # X - N_j(A) flags a run, and reads a point, by d(p, A) > j; the
    # reference lists ball(p, j)
    space = space_by_name(name)
    lo = data.draw(st.integers(0 if name == "NatLine" else -80, 80))
    run = [(x,) for x in range(lo, lo + data.draw(st.integers(1, 40)))]
    A = set_family(spec[0], **spec[1])
    far = _far_set(space, A, j)
    try:
        flags = far.run_flags(run)
    except DomainError:  # A has no member in the space
        assume(False)
    ball = [not any(A.contains(q) for q in space.points_within(p, j)) for p in run]
    assert flags == list(map(far.contains, run)) == ball, (A.family, j)
