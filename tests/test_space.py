import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedouble.errors import DomainError, IncompleteEnumeration, SearchInconclusive
from coarsedouble.space import (CustomSpace, PointSet, PredicateSpace, Window,
                                dist_to_set, neighborhood, rational_to_json, ruler,
                                set_family, space_by_name, space_from_json, window_points)
from conftest import BRUTE_WINDOWS


def test_window_examples(natline, geomline, twotails):
    assert window_points(natline, Window(3)) == [(0,), (1,), (2,), (3,)]
    assert window_points(geomline, Window(10)) == [(2,), (4,), (8,)]
    # oracle-frozen: (4,-2) sits at Manhattan distance 6 > 5 from (1,1)
    assert window_points(twotails, Window(5)) == [(1, -1), (1, 1), (4, 2)]


@pytest.mark.parametrize("name,radius", [
    ("NatLine", 17), ("IntLine", 9), ("GeomLine", 100), ("TwoTails", 40)])
def test_window_oracle_equivalence(name, radius):
    space = space_by_name(name)
    got = window_points(space, Window(radius))
    assert got == BRUTE_WINDOWS[name](space.basepoint, radius)


@pytest.mark.parametrize("name", ["NatLine", "IntLine", "GeomLine", "TwoTails"])
def test_window_monotone_in_radius(name):
    space = space_by_name(name)
    prev = set()
    for r in (2, 5, 9, 20):
        cur = set(window_points(space, Window(r)))
        assert prev <= cur
        prev = cur


def test_distance_examples(natline, twotails):
    assert natline.distance((3,), (7,)) == 4
    assert twotails.distance((1, 1), (4, -2)) == 6
    assert twotails.distance((4, 2), (4, 2)) == 0
    with pytest.raises(DomainError):
        natline.distance((-1,), (0,))


@pytest.mark.parametrize("name,radius", [
    ("NatLine", 12), ("IntLine", 7), ("GeomLine", 60), ("TwoTails", 30)])
def test_triangle_inequality_on_windows(name, radius):
    space = space_by_name(name)
    pts = window_points(space, Window(radius))
    for x in pts:
        for y in pts:
            assert space.distance(x, y) == space.distance(y, x)
            assert (space.distance(x, y) == 0) == (x == y)
            for z in pts:
                assert space.distance(x, z) <= space.distance(x, y) + space.distance(y, z)


@pytest.mark.parametrize("value, want", [
    (7, 7), (-12, -12), (10**30, 10**30), (True, 1), (False, 0),
    (Fraction(6, 3), 2), (Fraction(-4, 1), -4), (Fraction(3, 4), "3/4"),
    (Fraction(-5, 2), "-5/2")])
def test_rational_to_json(value, want):
    # an integral value becomes a plain int (bools too), any other a "p/q" string
    got = rational_to_json(value)
    assert got == want and type(got) is type(want)


def test_ruler_function():
    assert [ruler(n) for n in range(1, 9)] == [1, 2, 1, 3, 1, 2, 1, 4]
    assert all(ruler(n) <= n for n in range(1, 200))
    # takes the value 3 over and over
    hits = [n for n in range(1, 100) if ruler(n) == 3]
    assert hits == [4, 12, 20, 28, 36, 44, 52, 60, 68, 76, 84, 92]


def test_dist_to_set_examples(natline, twotails):
    w = Window(32)
    assert dist_to_set(natline, (7,), set_family("evens"), w).value == 1
    assert dist_to_set(twotails, (4, 2), set_family("tail_plus"), w).value == 0
    # paper-checked: distance from (n^2, phi(n)) to the minus tail is 2 phi(n)
    assert dist_to_set(twotails, (4, 2), set_family("tail_minus"), w).value == 4


def test_dist_to_set_exactness_and_failure(natline):
    ev = dist_to_set(natline, (7,), set_family("evens"), Window(4))
    assert ev.exact and ev.witness in {(6,), (8,)}
    far = PointSet.from_predicate("far", lambda p: p[0] >= 10 ** 6)
    with pytest.raises(SearchInconclusive) as err:
        dist_to_set(natline, (0,), far, Window(64))
    assert err.value.window_radius == 64


def test_dist_to_set_zero_iff_member(natline):
    A = set_family("squares")
    w = Window(64)
    for x in window_points(natline, Window(20)):
        ev = dist_to_set(natline, x, A, w)
        assert (ev.value == 0) == A.contains(x)


def test_neighborhood_examples(natline, geomline):
    w = Window(16)
    n0 = neighborhood(natline, PointSet.from_points([(0,)]), 2, w)
    assert n0.points == frozenset({(0,), (1,), (2,)})
    n1 = neighborhood(geomline, PointSet.from_points([(4,)]), 3, Window(30))
    assert n1.points == frozenset({(2,), (4,)})
    A = set_family("evens")
    n2 = neighborhood(natline, A, 0, Window(6))
    assert n2.points == frozenset({(0,), (2,), (4,), (6,)})


@given(r1=st.integers(0, 6), r2=st.integers(0, 6))
@settings(max_examples=25, deadline=None)
def test_neighborhood_monotone(r1, r2):
    natline = space_by_name("NatLine")
    A = set_family("squares")
    w = Window(20)
    lo, hi = sorted((r1, r2))
    n_lo = neighborhood(natline, A, lo, w).points
    n_hi = neighborhood(natline, A, hi, w).points
    assert n_lo <= n_hi
    members = {x for x in window_points(natline, w) if A.contains(x)}
    assert members <= n_hi


def test_pointset_complement(natline):
    A = set_family("evens")
    C = A.complement()
    assert C.contains((3,)) and not C.contains((4,))
    w = Window(9)
    pts = set(window_points(natline, w))
    assert {p for p in pts if A.contains(p)} | {p for p in pts if C.contains(p)} == pts


def test_set_family_serialization_roundtrip():
    from coarsedouble.space import set_from_json
    for fam in (set_family("evens"), set_family("powers", base=4, scale=2),
                set_family("half_line", sign=-1), set_family("squares"),
                set_family("multiples", k=3, r=2).complement()):
        clone = set_from_json(fam.to_json())
        for x in range(0, 40):
            assert clone.contains((x,)) == fam.contains((x,))


def test_custom_space_table_validation():
    pts = [(0,), (1,), (2,)]
    good = CustomSpace(pts, metric="table",
                       table=[[0, 1, 2], [1, 0, 1], [2, 1, 0]], name="Path3")
    assert good.distance((0,), (2,)) == 2
    with pytest.raises(DomainError):
        CustomSpace(pts, metric="table",
                    table=[[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # triangle fails


def test_custom_space_euclidean_rounded_is_metric():
    pts = [(0, 0), (1, 0), (0, 1), (2, 2), (3, 1)]
    space = CustomSpace(pts, metric="euclidean-rounded", name="Grid5")
    for x in pts:
        for y in pts:
            assert space.distance(x, y) == space.distance(y, x)
            for z in pts:
                assert space.distance(x, z) <= space.distance(x, y) + space.distance(y, z)
    assert space.distance((0, 0), (2, 2)) == 3  # ceil(sqrt(8))


def test_custom_space_json_roundtrip():
    space = CustomSpace([(0,), (2,), (5,)], metric="manhattan", name="Tiny")
    doc = json.loads(json.dumps(space.to_json()))
    clone = space_from_json(doc)
    assert clone.distance((0,), (5,)) == 5
    assert window_points(clone, Window(3)) == [(0,), (2,)]


@pytest.mark.parametrize("metric", ["manhattan", "euclidean-rounded"])
def test_custom_space_points_have_one_length(metric):
    # zipped coordinates would let the shorter point decide: d((0,), (0, 5)) = 0
    with pytest.raises(DomainError, match="one number of coordinates"):
        CustomSpace([(0,), (0, 5), (3,)], metric=metric)
    with pytest.raises(DomainError):
        space_from_json({"points": [[0], [0, 5], [3]]})


def test_predicate_space_incomplete_enumeration():
    space = PredicateSpace(lambda p: p[0] % 3 == 0, dim=1, coverage_radius=30,
                           basepoint=(0,))
    assert window_points(space, Window(10)) == [(-9,), (-6,), (-3,), (0,), (3,), (6,), (9,)]
    with pytest.raises(IncompleteEnumeration):
        window_points(space, Window(100))


def test_predicate_space_rejects_dimension_at_construction():
    with pytest.raises(DomainError):
        PredicateSpace(lambda p: True, dim=3, coverage_radius=10, basepoint=(0, 0, 0))


@pytest.mark.parametrize("family, args", [
    ("multiples", {"k": 0}),
    ("multiples", {"k": -3}),
    ("powers", {"base": 1}),
    ("powers", {"base": 0}),
    ("powers", {"base": 4, "scale": 0}),
    ("powers_tail", {"base": 1, "k0": 2}),
    ("powers_tail", {"base": 4, "scale": 0, "k0": 2}),
    ("powers_tail", {"base": 4, "k0": -1}),
])
def test_set_family_rejects_degenerate_parameters(family, args):
    # base 1 would loop forever in the membership test, base, scale or k 0
    # would divide by zero
    with pytest.raises(DomainError):
        set_family(family, **args)


def test_fractional_radius_windows(natline):
    assert window_points(natline, Window(Fraction(5, 2))) == [(0,), (1,), (2,)]
    assert window_points(natline, Window(Fraction(1, 2), basepoint=(3,))) == [(3,)]
