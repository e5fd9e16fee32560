from fractions import Fraction

import pytest

from coarsedouble import levels_from_subset, unit_levels, zero_levels
from coarsedouble.ideals import (ApproximateUnit, check_au, recovered_levels,
                                 recovery_transfer)
from coarsedouble.errors import DomainError
from coarsedouble.projection import levels_from_expression
from coarsedouble.space import (CustomSpace, PredicateSpace, Window, set_family,
                                window_points)
from test_projection import _quarter_steps


def test_unit_value_examples(natline):
    e = levels_from_subset(natline, set_family("squares"))
    unit = ApproximateUnit(e)
    # x in A_2n gives 1
    assert unit.value(1, (4,)) == 1
    # d(7, N_1(squares)) = 1 so u_1(7) = 0
    assert unit.value(1, (7,)) == 0
    assert unit.value(2, (7,)) == 1  # 7 is within 3/2... level(7) = 4


def test_unit_value_on_a_2n_lists_no_ball():
    # u_n = 1 on A_2n needs only the point's own level; off A_2n the radius-1
    # ball of (10,), on the edge of the space [-10, 10], is listed once
    space = PredicateSpace(lambda p: True, 1, 10, (0,))
    listed = []
    space.points_within = lambda c, r: listed.append((c, r)) or PredicateSpace.points_within(
        space, c, r)
    e = levels_from_expression(space, "quarter", lambda p: 1 + abs(p[0]) // 4)
    unit = ApproximateUnit(e)
    assert e.level((10,)) == 3
    assert unit.value(2, (10,)) == 1 and listed == []
    assert unit.value(1, (10,)) == 0
    assert listed == [((10,), 1)]
    assert PredicateSpace.points_within(space, (10,), 1) == [(9,), (10,)]


def test_unit_fractional_value():
    space = CustomSpace([(0,), (1,), (2,)], metric="table",
                        table=[[0, Fraction(7, 4), Fraction(5, 2)],
                               [Fraction(7, 4), 0, Fraction(3, 4)],
                               [Fraction(5, 2), Fraction(3, 4), 0]],
                        name="FracGap")
    e = levels_from_subset(space, space_pointset([(0,)]))
    unit = ApproximateUnit(e)
    # levels: (0,) -> 1, (1,) -> 4, (2,) -> 5; so A_4 = {(0,), (1,)} and
    # d((2,), A_4) = 3/4 gives u_2 = 1/4
    assert e.level((1,)) == 4 and e.level((2,)) == 5
    assert unit.value(2, (2,)) == Fraction(1, 4)


def space_pointset(points):
    from coarsedouble.space import PointSet
    return PointSet.from_points(points)


def test_check_au(natline):
    w = Window(48)
    for fam in ("squares", "evens"):
        e = levels_from_subset(natline, set_family(fam))
        rep = check_au(ApproximateUnit(e), w)
        assert rep["au1_exact"]
        assert rep["au2_relaxed"]
    # integer gaps force pairs at distance exactly 1: strict failures listed
    e = levels_from_subset(natline, set_family("squares"))
    rep = check_au(ApproximateUnit(e), w)
    assert rep["au2_strict_failure_count"] >= 1
    # the constant unit never has zeros, so nothing to list
    rep_unit = check_au(ApproximateUnit(unit_levels(natline)), w)
    assert rep_unit["passed"] and rep_unit["au2_strict_failure_count"] == 0


def test_check_au_reports_an_au1_violation():
    # levels 1 at (0,) and 10 elsewhere do not expand: (1,) lies 1/4 from
    # A_2 = A_4 = {(0,)}, so u_1 and u_2 are 3/4 there, and u_2 is not 1
    e = levels_from_expression(_quarter_steps(), "spike", lambda p: 1 if p[0] == 0 else 10)
    rep = check_au(ApproximateUnit(e), Window(1))
    assert rep["au1_exact"] is False and rep["passed"] is False
    assert rep["au1_violation"] == {"n": 1, "x": [1], "u_n": "3/4", "u_n1": "3/4"}
    assert rep["au2_relaxed"]


class _StatedUnit(ApproximateUnit):
    """u_n = 1 at (0,) and 0 elsewhere, for every n."""

    def value(self, n, x):
        return 1 if x == (0,) else 0


def test_check_au_reports_an_au2_violation():
    # no unit of a level function fails (au2): u_n = 0 at y puts y at least 1
    # from A_2n, where u_n = 1.  A unit with stated values stands in; here
    # (1,) has u_n = 0 although it lies 1/4 from (0,), where u_n = 1.
    space = _quarter_steps()
    rep = check_au(_StatedUnit(unit_levels(space)), Window(1))
    assert rep["au2_relaxed"] is False and rep["passed"] is False
    assert rep["au2_violation"] == {"n": 1, "x": [0], "y": [1], "distance": "1/4"}
    assert rep["au1_exact"]


@pytest.mark.parametrize("n_max", [0, -3])
def test_check_au_needs_a_unit_pair(natline, n_max):
    # with no pair u_n, u_{n+1} to compare the check would pass vacuously
    unit = ApproximateUnit(levels_from_subset(natline, set_family("evens")))
    with pytest.raises(DomainError, match="n_max"):
        check_au(unit, Window(8), n_max)


def test_units_monotone(natline):
    e = zero_levels(natline)
    unit = ApproximateUnit(e)
    for x in window_points(natline, Window(16)):
        vals = [unit.value(n, x) for n in range(1, 6)]
        assert all(0 <= v <= 1 for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_recoverd_levels_and_transfer(natline):
    import math
    for fam in ("evens", "squares"):
        e = levels_from_subset(natline, set_family(fam))
        unit = ApproximateUnit(e)
        rec = recovered_levels(unit)
        for x in window_points(natline, Window(24)):
            assert rec.level(x) == max(1, math.ceil(e.level(x) / 2))
        rep = recovery_transfer(unit, Window(48))
        assert rep["passed"]


def test_recovery_transfer_reads_its_window_once(natline, counted):
    windows = counted("window_points")
    unit = ApproximateUnit(levels_from_subset(natline, set_family("squares")))
    rep = recovery_transfer(unit, Window(48))
    assert rep["passed"] and len(windows) == 1


def test_check_au_evaluates_each_unit_value_once(natline, monkeypatch):
    # u_1 .. u_{n_max + 1} on 65 window points, read by both (au1) and (au2)
    calls = []
    value = ApproximateUnit.value

    def counted_value(self, n, x):
        calls.append((n, x))
        return value(self, n, x)

    monkeypatch.setattr(ApproximateUnit, "value", counted_value)
    unit = ApproximateUnit(levels_from_subset(natline, set_family("squares")))
    rep = check_au(unit, Window(64), n_max=6)
    assert rep["au1_exact"] and rep["au2_relaxed"]
    assert len(calls) == len(set(calls)) == 7 * 65
