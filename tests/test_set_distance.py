"""Set distances against brute-force scans, per set family, and the line
closed forms against the search.

For each case a member of the set is built in closed form; the brute window
around x of radius d(x, member) then provably holds the nearest member, so
the brute minimum over that window is d_X(x, A).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coarsedouble.double import SubsetMetric
from coarsedouble.errors import DomainError, SearchInconclusive
from coarsedouble.projection import levels_from_subset
from coarsedouble.serialize import level_from_json
from coarsedouble import space as space_module
from coarsedouble.space import (UNBOUNDED, Evaluation, PointSet, Window, dist_to_set, ruler,
                                set_distances, set_family, set_from_json, space_by_name)
from conftest import BRUTE_WINDOWS, brute_set_distance


def _tail_point(n, sign):
    """The TwoTails point of the tail with the given sign over n^2."""
    return (n * n, sign * ruler(n))


def _member_from(doc, v):
    """Coordinate of some member of the line set ``doc``, derived from v
    without searching for the nearest one."""
    fam = doc["family"]
    if fam == "multiples":
        return v + (doc["r"] - v) % doc["k"]
    if fam == "squares":
        return (math.isqrt(max(v, 0)) + 1) ** 2
    if fam in ("powers", "powers_tail"):
        m = doc["scale"] * doc["base"] ** max(1, doc.get("k0", 1))
        while m < v:
            m *= doc["base"]
        return m
    if fam == "half_line":
        return max(v, doc["bound"]) if doc["sign"] > 0 else min(v, doc["bound"])
    if fam == "explicit":
        return max(p[0] for p in doc["points"])
    inner = doc["of"]  # complement
    if inner["family"] == "half_line":
        b = inner["bound"]
        return min(v, b - 1) if inner["sign"] > 0 else max(v, b + 1)
    inside = set_family(inner["family"], **{k: a for k, a in inner.items()
                                            if k != "family"})
    u = max(v, 0)
    while inside.contains((u,)):
        u += 1
    return u


def _assert_single_search(space, A, x, member):
    assert A.contains(member) and space.contains(member)
    pts = BRUTE_WINDOWS[space.name](x, space.distance(x, member))
    want = brute_set_distance(space, x, [p for p in pts if A.contains(p)])
    ev = dist_to_set(space, x, A, UNBOUNDED)
    assert ev.exact and ev.value == want
    assert A.contains(ev.witness) and space.distance(x, ev.witness) == want
    assert SubsetMetric(space, A).set_distance(x) == want
    assert levels_from_subset(space, A).level(x) == max(1, math.ceil(2 * want))


_multiples = st.builds(lambda k, r: ("multiples", {"k": k, "r": r % k}),
                       st.integers(1, 9), st.integers(0, 8))
_squares = st.just(("squares", {}))
_half_line = st.builds(lambda s, b: ("half_line", {"sign": s, "bound": b}),
                       st.sampled_from([-1, 1]), st.integers(-60, 60))
_powers = st.builds(lambda b, s: ("powers", {"base": b, "scale": s}),
                    st.integers(2, 5), st.integers(1, 3))


def _complements(inner):
    return st.builds(lambda spec: ("complement", {"of": set_family(spec[0], **spec[1]).family}),
                     inner)


CLOSED_FORM_FAMILIES = st.one_of(
    _multiples, st.just(("evens", {})), st.just(("odds", {})), _squares,
    _half_line, _powers,
    st.builds(lambda b, s, k0: ("powers_tail", {"base": b, "scale": s, "k0": k0}),
              st.integers(2, 5), st.integers(1, 3), st.integers(0, 4)),
    _complements(st.one_of(_multiples.filter(lambda s: s[1]["k"] > 1), _half_line)))
LINE_FAMILIES = st.one_of(
    CLOSED_FORM_FAMILIES,
    st.builds(lambda pts: ("explicit", {"points": [[p] for p in pts]}),
              st.lists(st.integers(-20, 400), min_size=1, max_size=6)),
    _complements(st.one_of(_squares, _powers)),
)


@given(name=st.sampled_from(["NatLine", "IntLine"]), spec=LINE_FAMILIES,
       v=st.integers(-1500, 1500))
@settings(max_examples=200, deadline=None)
def test_line_families_match_brute_force(name, spec, v):
    space = space_by_name(name)
    x = (abs(v),) if name == "NatLine" else (v,)
    A = set_family(spec[0], **spec[1])
    member = (_member_from(A.family, x[0]),)
    assume(space.contains(member))  # the family has members in this space
    _assert_single_search(space, A, x, member)


def _outcome(space, x, A, window):
    try:
        return dist_to_set(space, x, A, window)
    except SearchInconclusive as err:
        return "inconclusive", err.window_radius


@given(name=st.sampled_from(["NatLine", "IntLine"]), spec=CLOSED_FORM_FAMILIES,
       v=st.integers(-1500, 1500), radius=st.none() | st.integers(0, 64))
@example(name="IntLine", spec=("multiples", {"k": 4, "r": 0}), v=-2, radius=None)
@example(name="NatLine", spec=("multiples", {"k": 4, "r": 0}), v=6, radius=None)
@example(name="NatLine", spec=("multiples", {"k": 5, "r": 4}), v=1, radius=None)
@example(name="NatLine", spec=("powers_tail", {"base": 2, "scale": 1, "k0": 3}),
         v=3, radius=None)
@example(name="IntLine", spec=("powers", {"base": 5, "scale": 3}), v=200, radius=8)
@example(name="IntLine", spec=("complement", {"of": {"family": "multiples", "k": 2, "r": 0}}),
         v=-6, radius=None)
@example(name="NatLine", spec=("complement", {"of": {"family": "multiples", "k": 3, "r": 0}}),
         v=0, radius=None)
@example(name="IntLine", spec=("complement", {"of": {"family": "half_line", "sign": -1,
                                                     "bound": 9}}), v=-40, radius=16)
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_search(name, spec, v, radius):
    # the copy has no family, so it is searched; ties, lower candidates
    # below 0 on NatLine, a k0 above 1 and an inconclusive budget are
    # pinned by the examples
    space = space_by_name(name)
    x = (abs(v),) if name == "NatLine" else (v,)
    A = set_family(spec[0], **spec[1])
    assume(space.contains((_member_from(A.family, x[0]),)))
    searched = PointSet.from_predicate(A.name, A.contains)
    window = UNBOUNDED if radius is None else Window(radius)
    assert _outcome(space, x, A, window) == _outcome(space, x, searched, window)


@given(base_log=st.integers(1, 3), scale_log=st.integers(0, 2), n=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_powers_on_geometric_line(base_log, scale_log, n):
    space = space_by_name("GeomLine")
    A = set_family("powers", base=2 ** base_log, scale=2 ** scale_log)
    x = (2 ** n,)
    _assert_single_search(space, A, x, (_member_from(A.family, x[0]),))


@given(spec=st.one_of(CLOSED_FORM_FAMILIES, _complements(st.one_of(_squares, _powers)),
                      _complements(_multiples)),
       depth=st.sampled_from([0, 0, 2]), n=st.integers(1, 60))
@example(spec=("complement", {"of": {"family": "powers", "base": 2, "scale": 1}}),
         depth=0, n=5)  # every 2^j is a member, so the complement has none
@example(spec=("complement", {"of": {"family": "half_line", "sign": 1, "bound": 2}}),
         depth=0, n=5)  # {x <= 1} holds no 2^j
@settings(max_examples=200, deadline=None)
def test_geometric_line_families_match_brute_force(spec, depth, n):
    # membership of 2^j in the families drawn here is settled by j < 100;
    # a family without a member raises DomainError, whatever the budget
    space = space_by_name("GeomLine")
    doc = set_family(spec[0], **spec[1]).family
    for _ in range(depth):
        doc = {"family": "complement", "of": doc}
    A = set_from_json(doc)
    members = [2 ** j for j in range(1, 100) if A.contains((2 ** j,))]
    x = (2 ** n,)
    if not members:
        for window in (Window(64), UNBOUNDED):
            with pytest.raises(DomainError, match="no members in GeomLine"):
                dist_to_set(space, x, A, window)
        return
    want = min(abs(m - x[0]) for m in members)
    ev = dist_to_set(space, x, A, UNBOUNDED)
    assert ev.exact and ev.value == want
    assert A.contains(ev.witness) and space.distance(x, ev.witness) == want


@pytest.mark.parametrize("window", [Window(64), UNBOUNDED])
def test_member_beyond_the_budget_on_geometric_line_is_inconclusive(window):
    # 2^j = 84 (mod 101) first at j = 80: a member exists past the search cap
    geom = space_by_name("GeomLine")
    with pytest.raises(SearchInconclusive):
        dist_to_set(geom, (2,), set_family("multiples", k=101, r=84), window)


@given(n=st.integers(1, 300), sign=st.sampled_from([-1, 1]),
       family=st.sampled_from(["tail_plus", "tail_minus"]))
@settings(max_examples=60, deadline=None)
def test_tails_on_two_tails(n, sign, family):
    space = space_by_name("TwoTails")
    A = set_family(family)
    member = _tail_point(n, 1 if family == "tail_plus" else -1)
    _assert_single_search(space, A, _tail_point(n, sign), member)


@pytest.mark.parametrize("of", [{"family": "half_line", "sign": 1, "bound": 0},
                                {"family": "multiples", "k": 1, "r": 0}],
                         ids=["not-halfline-plus-0", "not-multiples-1"])
def test_empty_complement_raises(of):
    # an empty complement is a domain error, not a search that gives up
    nat = space_by_name("NatLine")
    A = set_family("complement", of=of)
    with pytest.raises(DomainError, match="no members in NatLine"):
        dist_to_set(nat, (3,), A, Window(64))


def test_double_complement_of_an_empty_set_raises():
    # ~~A has A's closed form, so an empty A raises instead of searching
    nat = space_by_name("NatLine")
    doc = {"family": "complement", "of": {"family": "complement", "of": {
        "family": "half_line", "sign": -1, "bound": -5}}}
    with pytest.raises(DomainError, match="no members in NatLine"):
        dist_to_set(nat, (3,), set_from_json(doc), Window(64))
    with pytest.raises(DomainError, match="no members in NatLine"):
        level_from_json(nat, {"kind": "subset", "set": doc})


@given(name=st.sampled_from(["NatLine", "IntLine"]), depth=st.integers(0, 5),
       k=st.integers(2, 9), r=st.integers(0, 8), v=st.integers(-300, 300))
@settings(max_examples=150, deadline=None)
def test_nested_complements_of_multiples_match_brute_force(name, depth, k, r, v):
    space = space_by_name(name)
    x = (abs(v),) if name == "NatLine" else (v,)
    doc = {"family": "multiples", "k": k, "r": r % k}
    for _ in range(depth):
        doc = {"family": "complement", "of": doc}
    A = set_from_json(doc)
    # the nearest member lies within k of x: k consecutive points hold a
    # multiple, and two consecutive points a non-multiple
    members = [p for p in BRUTE_WINDOWS[name](x, k) if A.contains(p)]
    want = brute_set_distance(space, x, members)
    ev = dist_to_set(space, x, A, UNBOUNDED)
    assert ev.exact and ev.value == want
    assert ev.witness == min(p for p in members if space.distance(x, p) == want)


@pytest.mark.parametrize("window", [Window(8), UNBOUNDED])
def test_explicit_set_outside_the_space_raises(window):
    nat = space_by_name("NatLine")
    A = PointSet.from_points([(-3,), (-7,)])
    with pytest.raises(DomainError, match="no members in NatLine"):
        dist_to_set(nat, (5,), A, window)


def _nearest_line_member(space, x, A):
    """d_X(x, A) on a line for an explicit A, from the one-coordinate int
    members of the space, ties to the smaller point; DomainError when none
    lies in the space."""
    members = sorted(p for p in A.points if space.contains(p))
    if not members:
        raise DomainError(f"set {A.name} has no members in {space.name}")
    d, best = min((abs(a[0] - x[0]), a) for a in members)
    return Evaluation(d, True, witness=best)


EXPLICIT_POINTS = st.lists(st.one_of(
    st.integers(-40, 40).map(lambda v: (v,)),
    st.tuples(st.integers(-40, 40), st.integers(-3, 3)),   # no line point
    st.integers(-80, 80).map(lambda v: (Fraction(2 * v + 1, 2),)),  # never a line point
    ), min_size=1, max_size=8)


@given(name=st.sampled_from(["NatLine", "IntLine"]), points=EXPLICIT_POINTS,
       v=st.integers(-50, 50), radius=st.none() | st.integers(0, 8))
@example(name="NatLine", points=[(-3,), (5, 1), (9,)], v=2, radius=None)
@example(name="IntLine", points=[(2,), (6,)], v=4, radius=None)            # a tie
@example(name="NatLine", points=[(-3,), (-1, 2)], v=2, radius=None)        # none in NatLine
@example(name="IntLine", points=[(Fraction(3, 2),), (4,)], v=2, radius=0)
@settings(max_examples=300, deadline=None)
def test_explicit_sets_on_the_lines_are_read_whatever_the_budget(name, points, v, radius):
    # members outside the space (negative on NatLine, two coordinates, a
    # Fraction coordinate) are passed over; any budget gives the nearest
    # member, and a set with none in the space raises DomainError
    space = space_by_name(name)
    x = (abs(v),) if name == "NatLine" else (v,)
    A = PointSet.from_points(points)
    window = UNBOUNDED if radius is None else Window(radius)

    def outcome(read):
        try:
            return read()
        except DomainError as err:
            return str(err)

    assert (outcome(lambda: dist_to_set(space, x, A, window))
            == outcome(lambda: _nearest_line_member(space, x, A)))


def _tail_members(A, top=400):
    """Whether some TwoTails point (n^2, +-phi(n)) with n < top lies in A."""
    tails = space_by_name("TwoTails")
    return any(A.contains(_tail_point(n, s)) for n in range(1, top) for s in (-1, 1))


TAIL_FAMILIES = st.one_of(
    _multiples, st.builds(lambda k, r: ("multiples", {"k": k, "r": r % k}),
                          st.integers(10, 40), st.integers(0, 39)),
    _squares, _half_line, _powers,
    st.builds(lambda b, s, k0: ("powers_tail", {"base": b, "scale": s, "k0": k0}),
              st.integers(2, 9), st.integers(1, 12), st.integers(0, 3)),
    st.sampled_from([("tail_plus", {}), ("tail_minus", {})]))


@given(spec=TAIL_FAMILIES, depth=st.integers(0, 2), n=st.integers(1, 30))
@settings(max_examples=250, deadline=None)
def test_two_tails_families_without_members_raise(spec, depth, n):
    # a member, when there is one, has n < 400 here (members of a powers
    # family come in every other k, and 12 * 9^4 < 400^2); a family without
    # one raises DomainError before any search, whatever the budget
    tails = space_by_name("TwoTails")
    doc = set_family(spec[0], **spec[1]).family
    for _ in range(depth):
        doc = {"family": "complement", "of": doc}
    A = set_from_json(doc)
    x = _tail_point(n, 1)
    if _tail_members(A):
        assert dist_to_set(tails, x, A, UNBOUNDED).exact
        return
    for window in (Window(4), UNBOUNDED):
        with pytest.raises(DomainError, match="no members in TwoTails"):
            dist_to_set(tails, x, A, window)


def test_two_tails_member_past_the_search_cap_is_inconclusive():
    # 4^20 = (2^20)^2 is a member, but beyond any ball of SEARCH_POINT_CAP points
    tails = space_by_name("TwoTails")
    A = set_family("powers_tail", base=4, scale=1, k0=20)
    with pytest.raises(SearchInconclusive, match="points searched"):
        dist_to_set(tails, (1, 1), A, UNBOUNDED)


def test_square_residues_are_computed_once_per_modulus():
    # the emptiness rule runs before every TwoTails search; over a ball the
    # squares mod k are computed once, not once per point
    tails = space_by_name("TwoTails")
    A = set_family("multiples", k=40_009, r=1)
    space_module._square_residues.cache_clear()
    pts = tails.points_within(_tail_point(1, 1), 64)
    searched = [p for p in pts if not A.contains(p)]
    assert len(searched) > 2
    assert set_distances(tails, pts, A) == [dist_to_set(tails, p, A, UNBOUNDED).value
                                            for p in pts]
    info = space_module._square_residues.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(searched) - 1)
