import ast
import functools
import hashlib
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coarsedouble import (AdjointMetric, ClosedFormMetric, DeltaMetric, MaxMetric,
                          MinGlueMetric, PointMetric, SubsetMetric, check_axioms, compose,
                          const_delta, evaluate, evaluate_exact, levels_from_subset,
                          metric_from_levels, metric_join, metric_meet,
                          projection_criterion, space_by_name, subset_metric, zero_levels)
from coarsedouble import double
from coarsedouble.double import (DeltaFunction, _coordinates, _distance_matrix,
                                 _exact_array, _line_columns, _line_delta_min,
                                 _line_transform, _min_plus)
from coarsedouble.errors import DomainError, IncompleteEnumeration, SearchInconclusive
from coarsedouble.space import (SEARCH_POINT_CAP, CustomSpace, IntLine, NatLine, PointSet,
                                PredicateSpace, TwoTails, Window, set_family, window_points)
from coarsedouble.serialize import parse_levels, parse_set
from conftest import BRUTE_WINDOWS, brute_delta_cross


def test_eval_examples(natline):
    w = Window(64)
    d1 = DeltaMetric(natline, const_delta(natline))
    assert evaluate(d1, (3,), (7,), w).value == 5
    z = PointMetric(natline, (0,))
    assert evaluate(z, (3,), (5,), w).value == 9
    # every midpoint of [3, 7] attains 5; ties go to the smallest
    assert evaluate(d1, (7,), (3,), w).witness == (3,)
    m0 = metric_from_levels(zero_levels(natline))
    # oracle-frozen: min over u of 2|4-u| + delta(u), delta = (1,2,4,6,8,...)
    assert evaluate(m0, (4,), (4,), w).value == 8


def test_eval_exactness_flag(natline):
    m0 = metric_from_levels(zero_levels(natline))
    small = Window(2, basepoint=(0,))
    ev = evaluate(m0, (2,), (2,), small)
    assert not ev.exact and ev.required_radius is not None
    big = Window(ev.required_radius)
    assert evaluate(m0, (2,), (2,), big).exact


def test_eval_pruned_equals_brute(natline, intline):
    rng = random.Random(5)
    for space in (natline, intline):
        w = Window(40)
        pts = window_points(space, w)
        for A in (set_family("evens"), set_family("squares"),
                  set_family("powers", base=2)):
            e = levels_from_subset(space, A)
            d = metric_from_levels(e)
            for _ in range(60):
                x, y = rng.choice(pts), rng.choice(pts)
                got = evaluate(d, x, y, w)
                want = brute_delta_cross(space, d.delta, x, y, pts)
                assert got.value == want


def test_adjoint_involution_and_symmetry(natline):
    z = PointMetric(natline, (0,))
    assert z.adjoint() is z
    d = metric_from_levels(levels_from_subset(natline, set_family("evens")))
    assert d.adjoint() is d
    asym = ClosedFormMetric(natline, lambda x, y: x[0] + 2 * y[0] + 1, "skew")
    a = asym.adjoint()
    w = Window(8)
    assert evaluate(a, (1,), (2,), w).value == evaluate(asym, (2,), (1,), w).value
    assert a.adjoint() is asym


def test_compose_examples(natline, twotails):
    w = Window(64)
    z = PointMetric(natline, (0,))
    c = compose(z, z)
    assert evaluate(c, (2,), (3,), w).value == 7
    bp = subset_metric(twotails, set_family("tail_plus"))
    bm = subset_metric(twotails, set_family("tail_minus"))
    prod = compose(bp, bm)
    # paper-checked closed form at x = (4, 2): 0 + 4 + 4
    assert evaluate(prod, (4, 2), (4, 2), Window(60)).value == 8


@pytest.mark.parametrize("name, left, right, radius, pts", [
    ("NatLine", "halfline:+:100", "halfline:+:100", 32, [(3,), (40,), (200,)]),
    ("NatLine", "evens", "squares", 8, [(0,), (5,), (50,)]),
    ("IntLine", "halfline:+:60", "halfline:+:40", 32, [(-80,), (5,), (90,)]),
    ("IntLine", "halfline:+:60", "halfline:-:-50", 32, [(-80,), (5,), (90,)]),
    ("TwoTails", "tailplus", "halfline:+:100", 40, [(4, 2), (81, 1), (144, -3)]),
    ("TwoTails", "tailplus", "tailminus", 40, [(4, 2), (81, 1), (144, -3)]),
])
def test_separable_composition_probes_x_and_z(name, left, right, radius, pts):
    # subset o subset: min over y in window + {x, z} of
    # d(x,A) + 1 + d(y,A) + d(y,B) + 1 + d(z,B), ties to the smaller y
    space = space_by_name(name)
    A, B = parse_set(space, left), parse_set(space, right)
    c = compose(subset_metric(space, A), subset_metric(space, B))
    w = Window(radius)
    universe = BRUTE_WINDOWS[name](space.basepoint, 1000)

    @functools.cache
    def dist(S, y):
        return min(space.distance(y, a) for a in universe if S.contains(a))

    for x in pts:
        for z in pts:
            mids = set(window_points(space, w)) | {x, z}
            glue, y = min((dist(A, y) + dist(B, y), y) for y in mids)
            ev = evaluate(c, x, z, w)
            assert (ev.value, ev.witness, ev.exact) == \
                (dist(A, x) + 2 + glue + dist(B, z), y, False), (x, z)


def test_compose_inexact_sub_evaluation(natline):
    # the candidate ball of (1, 2) lies in the window and both probes are
    # exact, but the candidate midpoint 3 needs m0(3, 2'), which this window
    # cannot certify, so the composition is not certified either
    m0 = metric_from_levels(zero_levels(natline))
    z = PointMetric(natline, (0,))
    w = Window(5)
    assert evaluate(m0, (1,), (2,), w).exact and evaluate(m0, (2,), (2,), w).exact
    assert not evaluate(m0, (3,), (2,), w).exact
    ev = evaluate(compose(z, m0), (1,), (2,), w)
    assert ev.value == 5 and ev.witness == (0,)
    assert not ev.exact and ev.required_radius is None


@pytest.mark.parametrize("order", ["subset-delta", "delta-subset"])
def test_noncoercive_composition_scans_the_window(natline, order):
    # with no coercive bound the midpoint y ranges over the window and the
    # probes x and z: the minimum of d(x, y') + rho(y, z'), ties to the
    # smaller y, never certified
    w = Window(12)
    pts = window_points(natline, w)
    A = set_family("squares")
    delta = metric_from_levels(levels_from_subset(natline, set_family("powers", base=2)))
    c = (compose(subset_metric(natline, A), delta) if order == "subset-delta"
         else compose(delta, subset_metric(natline, A)))
    squares = [k * k for k in range(40)]

    def b_A(x, y):
        return min(abs(x[0] - s) for s in squares) + 1 + min(abs(y[0] - s) for s in squares)

    def d_delta(x, y):
        return brute_delta_cross(natline, delta.delta, x, y, pts)

    first, second = (b_A, d_delta) if order == "subset-delta" else (d_delta, b_A)
    for x in [(0,), (5,), (12,), (30,)]:
        for z in [(2,), (7,), (12,), (50,)]:
            mids = sorted(set(pts) | {x, z})
            want = min((first(x, y) + second(y, z), y) for y in mids)
            ev = evaluate(c, x, z, w)
            assert (ev.value, ev.witness, ev.exact, ev.required_radius) == \
                (*want, False, None), (x, z)


@pytest.mark.parametrize("order", ["delta-delta", "subset-delta"])
def test_composition_evaluates_each_probe_once(natline, monkeypatch, order):
    # the probes y = x and y = z are evaluated once; the window scan, which
    # reaches both, skips them
    first = (metric_from_levels(levels_from_subset(natline, set_family("evens")))
             if order == "delta-delta" else subset_metric(natline, set_family("squares")))
    second = metric_from_levels(levels_from_subset(natline, set_family("squares")))
    calls = []
    for name, f in (("d", first), ("rho", second)):
        monkeypatch.setattr(f, "cross", lambda a, b, w, cross=f.cross, name=name:
                            calls.append((name, a, b)) or cross(a, b, w))
    x, z = (3,), (11,)
    evaluate(compose(first, second), x, z, Window(64))
    for y in (x, z):
        assert calls.count(("d", x, y)) == 1 and calls.count(("rho", y, z)) == 1, y


def test_delta_probe_ties_go_to_the_smaller_point(intline):
    # d(-6, -9') = 3 + 2 is attained at -9 (outside the window), at -6 and
    # at the window midpoints -8 and -7; the smallest of them is the witness
    d = DeltaMetric(intline, const_delta(intline, 2))
    ev = evaluate(d, (-6,), (-9,), Window(8))
    assert (ev.value, ev.exact, ev.witness) == (5, False, (-9,))


def _record_windows(d, monkeypatch):
    """(radius, required_radius) of every evaluation of d.cross."""
    seen, cross = [], d.cross

    def recording(x, y, window):
        ev = cross(x, y, window)
        seen.append((window.radius, ev.required_radius))
        return ev

    monkeypatch.setattr(d, "cross", recording)
    return seen


def test_escalation_of_a_noncoercive_kernel_names_its_one_window(natline, monkeypatch):
    # no coercive bound: one window is evaluated, and the error names it
    d = compose(subset_metric(natline, set_family("squares")),
                metric_from_levels(levels_from_subset(natline, set_family("evens"))))
    seen = _record_windows(d, monkeypatch)
    with pytest.raises(SearchInconclusive) as err:
        evaluate_exact(d, (3,), (5,))
    assert seen == [(8, None)]
    assert (err.value.window_radius, err.value.required_radius) == seen[-1]


def test_escalation_at_the_radius_cap_names_the_last_window(natline, monkeypatch):
    # a coercive kernel that certifies only at radius 70: with the radius
    # cap at 40 the windows are 9 and 35, the first's required radius, and
    # the error names the second, not the radius 70 after it, which would
    # pass the cap
    monkeypatch.setattr(double, "SEARCH_RADIUS_CAP", 40)
    m0 = metric_from_levels(zero_levels(natline))
    d = compose(m0, m0)
    seen = _record_windows(d, monkeypatch)
    with pytest.raises(SearchInconclusive) as err:
        evaluate_exact(d, (7,), (9,))
    assert [r for r, _ in seen] == [9, 35]
    assert (err.value.window_radius, err.value.required_radius) == seen[-1]


def test_compose_adjoint_law(natline):
    bA = subset_metric(natline, set_family("evens"))
    bB = subset_metric(natline, set_family("odds"))
    c = compose(bA, bB)
    w = Window(24)
    ca = c.adjoint()
    cb = compose(bB.adjoint(), bA.adjoint())
    for x in ((0,), (3,), (10,)):
        for y in ((1,), (7,)):
            assert evaluate(ca, x, y, w).value == evaluate(cb, x, y, w).value


def test_compose_associative_on_window(natline):
    w = Window(32)
    z = PointMetric(natline, (0,))
    d = metric_from_levels(levels_from_subset(natline, set_family("evens")))
    e = DeltaMetric(natline, const_delta(natline, 2))
    left = compose(compose(z, d), e)
    right = compose(z, compose(d, e))
    for x in ((0,), (3,), (9,)):
        for y in ((1,), (6,)):
            assert evaluate_exact(left, x, y).value == evaluate_exact(right, x, y).value


def test_self_composition_diagonal_bound(natline):
    # d o d at (x, x) never exceeds twice the distance to the other copy
    w = Window(48)
    for d in (PointMetric(natline, (0,)),
              metric_from_levels(levels_from_subset(natline, set_family("evens")))):
        c = compose(d, d)
        for x in window_points(natline, Window(12)):
            assert evaluate(c, x, x, w).value <= 2 * d.dist_to_copy(x, w).value


def test_dist_to_copy_examples(natline):
    w = Window(64)
    assert PointMetric(natline, (0,)).dist_to_copy((4,), w).value == 5
    assert DeltaMetric(natline, const_delta(natline)).dist_to_copy((9,), w).value == 1
    b = subset_metric(natline, set_family("evens"))
    assert b.dist_to_copy((3,), w).value == 2


def test_diagonal_vs_copy_bounds(natline):
    w = Window(64)
    for d in (PointMetric(natline, (0,)),
              metric_from_levels(levels_from_subset(natline, set_family("squares")))):
        for x in window_points(natline, Window(16)):
            diag = evaluate(d, x, x, w).value
            copy = d.dist_to_copy(x, w).value
            assert copy <= diag <= 2 * copy


def test_lower_bound_holds_on_window(natline):
    d = metric_from_levels(levels_from_subset(natline, set_family("powers", base=2)))
    w = Window(48)
    pts = window_points(natline, Window(20))
    for x in pts:
        for y in pts:
            assert evaluate(d, x, y, w).value >= natline.distance(x, y) + 1


def test_check_axioms_pass_and_fail(natline):
    d = metric_from_levels(zero_levels(natline))
    ok = check_axioms(d, Window(24))
    assert ok.passed and ok.first_violation() is None
    m = MaxMetric(d, DeltaMetric(natline, const_delta(natline)))
    assert check_axioms(m, Window(24)).passed
    bad = ClosedFormMetric(natline, lambda x, y: 1, "flat", symmetric=True)
    rep = check_axioms(bad, Window(3))
    assert not rep.passed
    v = rep.first_violation()
    assert v["x1"] == [0] and v["x2"] == [3] and v["y"] == [0]
    assert v["lhs"] == 3 and v["rhs"] == 2


def test_check_axioms_reports_a_cross_distance_of_zero(natline):
    # d(x, x') = 0 on the diagonal: positivity fails first at x = y = (0,)
    flat = ClosedFormMetric(natline, lambda x, y: abs(x[0] - y[0]), "dist", symmetric=True)
    rep = check_axioms(flat, Window(6))
    assert not rep.passed
    assert rep.checks["positivity"] == {"passed": False, "stat": 0,
                                        "violation": {"x": [0], "y": [0], "value": 0}}


def test_min_glue_diagonal_is_min(natline):
    d1 = metric_from_levels(levels_from_subset(natline, set_family("multiples", k=4)))
    d2 = metric_from_levels(levels_from_subset(natline, set_family("multiples", k=4, r=2)))
    g = MinGlueMetric(d1, d2)
    w = Window(48)
    for x in window_points(natline, Window(16)):
        want = min(evaluate(d1, x, x, w).value, evaluate(d2, x, x, w).value)
        assert evaluate(g, x, x, w).value == want


def test_subset_metric_is_not_coercive_but_positive(natline):
    b = subset_metric(natline, set_family("evens"))
    w = Window(32)
    assert b.coercive_c is None
    # the naive bound d_X + 1 genuinely fails for a spread-out set
    assert evaluate(b, (3,), (6,), w).value == 2 < natline.distance((3,), (6,)) + 1
    pts = window_points(natline, Window(12))
    assert min(evaluate(b, x, y, w).value for x in pts for y in pts) >= 1


def test_space_mismatch_rejected(natline, intline):
    with pytest.raises(DomainError):
        compose(PointMetric(natline, (0,)), PointMetric(intline, (0,)))
    with pytest.raises(DomainError):
        MaxMetric(PointMetric(natline, (0,)), PointMetric(intline, (0,)))


def test_delta_batch_does_not_certify_truncated_scan():
    # balls past radius 10 cannot be enumerated, so the batch scan falls back
    # to the window, where every midpoint costs 40; u = 8 gives 2 + 1 + 2 = 5
    sp = PredicateSpace(lambda p: True, 1, 10, (0,))
    d = DeltaMetric(sp, DeltaFunction(
        sp, lambda pts: [1 if abs(u[0]) >= 8 else 40 for u in pts], "far"))
    w = Window(6)
    single = evaluate(d, (6,), (6,), w)
    assert not single.exact and single.required_radius == 45
    pts = window_points(sp, w)
    mat, exact = d.cross_matrix(pts, w)
    assert mat[pts.index((6,))][pts.index((6,))] == 40
    assert not exact
    assert not check_axioms(d, Window(10)).exact


def test_uncertified_evaluation_on_a_predicate_space():
    # coverage radius 10: a candidate ball no wider than the window is listed
    # where the space can list it, and the window otherwise, so a window the
    # space cannot enumerate raises only when the ball is the wider one
    sp = PredicateSpace(lambda p: True, 1, 10, (0,))
    d3, d6 = (DeltaMetric(sp, const_delta(sp, v)) for v in (3, 6))
    assert evaluate(d3, (3,), (3,), Window(4, (4,))).exact
    for x, w, required in [((3,), Window(4, (9,)), 8), ((9,), Window(10), 11)]:
        ev = evaluate(d3, x, x, w)
        assert (ev.value, ev.exact, ev.required_radius, ev.witness) == (3, False, required, x)
    with pytest.raises(IncompleteEnumeration):
        evaluate(d6, (3,), (3,), Window(4, (9,)))


def _spied_searches(monkeypatch, space):
    """Check every ``_certified_min`` call from now on against the candidate
    rule, and give the list of their certificate outcomes.

    Each call's own ``points_within`` calls (those not made inside a nested
    search of its terms) must be one listing: ball(x, r_cand) when r_cand is
    at most the window radius, the window otherwise.  r_cand is the smaller
    probe value minus c, read from the call's first one or two terms.  The
    outcomes are "certified", "ball" (uncertified) and "window"."""
    stack, outcomes = [], []
    certified_min, listing = double._certified_min, type(space).points_within

    def listed(sp, center, radius):
        if stack:
            stack[-1].append((center, radius))
        return listing(sp, center, radius)

    def spy(sp, x, z, window, c, term):
        own, values = [], []

        def read(u, dist):
            value, exact = term(u, dist)
            values.append(value)
            return value, exact

        stack.append(own)
        try:
            ev = certified_min(sp, x, z, window, c, read)
        finally:
            stack.pop()
        r_cand = min(values[:1 if z is None or z == x else 2]) - c
        base = window.resolve_base(sp)
        certified = sp.distance(x, base) + r_cand <= window.radius
        ball = r_cand <= window.radius
        assert own == ([(x, r_cand)] if ball else [(base, window.radius)]), (x, z)
        assert ev.exact <= certified and (ev.required_radius is None) == certified
        outcomes.append("certified" if certified else "ball" if ball else "window")
        return ev

    monkeypatch.setattr(double, "_certified_min", spy)
    monkeypatch.setattr(type(space), "points_within", listed)
    return outcomes


def _search_kernels(space):
    """delta, point o delta and delta o delta kernels whose delta values are
    read without a search, so that every listing belongs to a kernel
    search."""
    def delta(k):
        return DeltaMetric(space, DeltaFunction(
            space, lambda pts: [1 + (3 * p[0] + k) % 5 + (p[0] % 4 == 0) * k for p in pts],
            f"mod5+{k}"))

    return {"delta": delta(2),
            "point-delta": compose(PointMetric(space, space.basepoint), delta(1)),
            "delta-delta": compose(delta(3), delta(6))}


@pytest.mark.parametrize("name", ["NatLine", "IntLine", "TwoTails"])
@pytest.mark.parametrize("kind", ["delta", "point-delta", "delta-delta"])
def test_certified_min_lists_the_smaller_of_its_ball_and_its_window(monkeypatch, name, kind):
    # on a grid of points in and around the window, evaluate and dist_to_copy
    # list only their candidate ball when it is no wider than the window and
    # only their window otherwise, at every level of a composition; values
    # and witnesses stay those of the unpruned minimum over the window for a
    # delta kernel
    space = space_by_name(name)
    w = Window(12 if name != "TwoTails" else 40)
    d = _search_kernels(space)[kind]
    pts = window_points(space, w)
    grid = pts[::3] + window_points(space, Window(w.radius + 8))[-3:]
    outcomes = _spied_searches(monkeypatch, space)
    for x in grid:
        for y in grid:
            ev = evaluate(d, x, y, w)
            if kind == "delta":
                assert ev.value == brute_delta_cross(space, d.delta, x, y, pts)
                cands = set(pts) | {x, y}
                assert ev.witness == min(u for u in cands if space.distance(x, u)
                                         + d.delta(u) + space.distance(u, y) == ev.value)
        d.dist_to_copy(x, w)
    assert set(outcomes) == {"certified", "ball", "window"}


def test_uncertified_evaluation_lists_only_its_window(intline):
    # delta = 10**5: the candidate ball has radius 100,004, the window 21
    # points; the answer is the parent's, found among the window's points
    listed = []
    listing = IntLine.points_within

    def spy(sp, center, radius):
        out = listing(sp, center, radius)
        listed.append(len(out))
        return out

    d = DeltaMetric(intline, const_delta(intline, 10 ** 5))
    w = Window(10)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntLine, "points_within", spy)
        ev = evaluate(d, (3,), (-2,), w)
    assert (ev.value, ev.exact, ev.required_radius, ev.witness) == (100005, False, 100007, (-2,))
    assert listed == [21]


@pytest.mark.parametrize("space", [NatLine(), IntLine()], ids=["NatLine", "IntLine"])
def test_far_points_list_balls_no_wider_than_their_candidates(monkeypatch, space):
    # delta = 2 at points near 10**6: each escalation starts at a window of
    # radius about 10**6, where the candidate balls of radius 1 do not
    # certify; they are listed and kept to the window, never the window
    far = 10 ** 6
    listing = type(space).points_within
    listed = []

    def bounded(sp, center, radius):
        assert radius <= 3, (center, radius)
        listed.append(len(listing(sp, center, radius)))
        return listing(sp, center, radius)

    d = DeltaMetric(space, const_delta(space, 2))
    monkeypatch.setattr(type(space), "points_within", bounded)
    verdict = projection_criterion(d, Window(3, (far,)))
    assert verdict.diagnostics["exact"]
    assert verdict.diagnostics["points"] == [[[far + k], 2, 2] for k in range(-3, 4)]
    ev = evaluate_exact(d, (far,), (far,))
    assert (ev.value, ev.exact, ev.witness) == (2, True, (far,))
    assert max(listed) == 7 and sum(listed) < 100


@pytest.mark.parametrize("space", [NatLine(), IntLine()], ids=["NatLine", "IntLine"])
def test_huge_delta_lists_no_universe(monkeypatch, space):
    # delta near 2**40 would make a universe of about 2**41 points; no
    # listing may exceed the window radius plus SEARCH_POINT_CAP, and the
    # batch and single-pair values are the window minima, uncertified (no
    # midpoint past the window beats them here)
    w = Window(10)
    listing = type(space).points_within

    def bounded(sp, center, radius):
        assert radius <= w.radius + SEARCH_POINT_CAP, radius
        return listing(sp, center, radius)

    monkeypatch.setattr(type(space), "points_within", bounded)
    big = 1 << 40
    d = DeltaMetric(space, DeltaFunction(space, lambda pts: [big + p[0] % 3 for p in pts],
                                         "huge"))
    pts = window_points(space, w)
    want = [[brute_delta_cross(space, d.delta, x, y, pts) for y in pts] for x in pts]
    mat, exact = d.cross_matrix(pts, w)
    assert mat.tolist() == want and not exact
    rep = check_axioms(d, w)
    assert not rep.exact and rep.n_points == len(pts)
    for i in (0, len(pts) // 2, len(pts) - 1):
        ev = evaluate(d, pts[i], pts[-1 - i], w)
        assert ev.value == want[i][-1 - i] and not ev.exact


@pytest.mark.parametrize("space", [NatLine(), IntLine()], ids=["NatLine", "IntLine"])
def test_huge_delta_batch_is_a_minimum_over_its_capped_universe(monkeypatch, space):
    # delta is 2**40 - 1000 on 20 < |u| <= 30 and far smaller past the window
    # radius plus SEARCH_POINT_CAP, 2**40 elsewhere: the batch takes u = +-21
    # from its capped universe, and does not certify, though the infimum lies
    # past the cap; a single pair lists its window and keeps its minimum
    big, w = 1 << 40, Window(10)
    cap = w.radius + SEARCH_POINT_CAP
    listing = type(space).points_within

    def bounded(sp, center, radius):
        assert radius <= cap, radius
        return listing(sp, center, radius)

    monkeypatch.setattr(type(space), "points_within", bounded)

    def delta(u):
        return (big - 1000 if 20 < abs(u) <= 30 else big - 10 ** 7 if abs(u) > cap
                else big)

    d = DeltaMetric(space, DeltaFunction(space, lambda pts: [delta(p[0]) for p in pts],
                                         "tiers"))
    pts = window_points(space, w)
    mat, exact = d.cross_matrix(pts, w)
    assert not exact
    assert mat.tolist() == [[big - 958 - abs(x + y) for (y,) in pts] for (x,) in pts]
    infimum = 2 * (cap + 1) + big - 10 ** 7  # at u = cap + 1, for x = y = 0
    assert infimum < mat[pts.index((0,))][pts.index((0,))]
    assert not check_axioms(d, w).exact
    ev = evaluate(d, (3,), (2,), w)
    assert (ev.value, ev.exact, ev.witness) == (big + 1, False, (2,))


def test_composed_batch_ranges_over_window(natline):
    # the best midpoint of (10, 20) is 0, which is not among the rows
    z = PointMetric(natline, (0,))
    c = compose(z, z)
    pts = [(10,), (20,)]
    w = Window(200)
    mat, exact = c.cross_matrix(pts, w)
    single = [[evaluate(c, x, y, w) for y in pts] for x in pts]
    want = [[ev.value for ev in row] for row in single]
    assert mat.tolist() == want == [[22, 32], [32, 42]]
    assert exact and all(ev.exact for row in single for ev in row)


def _assert_batch_matches(d, space, w, want):
    pts = window_points(space, w)
    mat, _ = d.cross_matrix(pts, w)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            assert mat[i][j] == want(x, y, pts), (x, y)


def test_fraction_kernel_batch(natline):
    # Fraction values take the object-dtype min-plus; on one point no
    # midpoint beats the probe, and the matrix is the probe's value
    d = DeltaMetric(natline, const_delta(natline, Fraction(3, 2)))
    for w in (Window(12), Window(0, (5,))):
        _assert_batch_matches(d, natline, w,
                              lambda x, y, pts: brute_delta_cross(natline, d.delta, x, y, pts))
        rep = check_axioms(d, w)
        assert rep.passed and rep.exact
        assert rep.checks["positivity"]["stat"] == Fraction(3, 2)


def test_kernel_above_int64_guard_batch():
    # each value exceeds the int64 guard (numpy infers float64 for 2**63 next
    # to small ints, and object for 2**70); a finite space keeps balls small
    sp = CustomSpace([(i,) for i in range(13)])
    w = Window(8)
    for value in (2 ** 61, 2 ** 63, 2 ** 70):
        d = DeltaMetric(sp, const_delta(sp, value))
        _assert_batch_matches(d, sp, w,
                              lambda x, y, pts: brute_delta_cross(sp, d.delta, x, y, pts))
        rep = check_axioms(d, w)
        assert rep.passed and rep.checks["positivity"]["stat"] == value


@pytest.mark.parametrize("value, dtype", [
    (2 ** 60, np.int64), (-2 ** 60, np.int64), (2 ** 60 + 1, object),
    (-2 ** 63, object), (2 ** 70, object), (Fraction(4, 1), object), (0.5, object),
])
def test_int64_guard(value, dtype):
    arr = _exact_array([[value, 1], [2, 3]])
    assert arr.dtype == dtype
    # object arrays hold the values themselves: no Fraction or float converted
    assert arr.item(0, 0) == value and type(arr.item(0, 0)) is type(value)


def _brute_min_plus(a, b):
    return [[min(a[i][k] + b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


@pytest.mark.parametrize("kinds", [("int", "int"), ("frac", "frac"),
                                   ("int", "frac"), ("frac", "int")],
                         ids=["int64", "object", "mixed", "mixed-rev"])
@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("one_step", [False, True])
def test_min_plus_matches_triple_loop(kinds, transposed, one_step):
    # transposed: b left out, which means the transpose of a; one_step: an
    # inner dimension of 1, where the first term is the whole product
    rng = random.Random(f"{kinds}:{transposed}:{one_step}")

    def draw(kind, shape):
        cell = ((lambda: rng.randint(-50, 50)) if kind == "int"
                else (lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 6))))
        return [[cell() for _ in range(shape[1])] for _ in range(shape[0])]

    inner = 1 if one_step else 5
    a = draw(kinds[0], (4, inner))
    b = [list(col) for col in zip(*a)] if transposed else draw(kinds[1], (inner, 3))
    b_kind = kinds[0] if transposed else kinds[1]
    typed = [_exact_array(m) for m in (a, b)]
    assert [t.dtype == np.int64 for t in typed] == [kinds[0] == "int", b_kind == "int"]
    got = _min_plus(typed[0]) if transposed else _min_plus(*typed)
    assert got.tolist() == _brute_min_plus(a, b)


def test_fraction_triangle_violation(natline):
    flat = ClosedFormMetric(natline, lambda x, y: Fraction(1, 2), "half", symmetric=True)
    rep = check_axioms(flat, Window(3))
    assert not rep.passed
    v = rep.first_violation()
    assert v["check"] == "lower_bound" and v["value"] == "1/2"
    tri = rep.checks["triangle_base_vs_cross"]["violation"]
    assert tri == {"x1": [0], "x2": [2], "y": [0], "lhs": 2, "rhs": 1}
    assert rep.checks["triangle_cross_vs_base"]["passed"]


@pytest.mark.parametrize("value", [2, Fraction(3, 2)])
def test_composed_batch_matches_single_pairs(natline, value):
    d = metric_from_levels(levels_from_subset(natline, set_family("evens")))
    c = compose(d, DeltaMetric(natline, const_delta(natline, value)))
    w = Window(10)
    _assert_batch_matches(c, natline, w, lambda x, y, pts: evaluate(c, x, y, w).value)


# -- the line path of delta kernels against the generic path -----------------

_LINE_PREDICATES = {"NatLine": lambda p: p[0] >= 0, "IntLine": lambda p: True,
                    "GeomLine": lambda p: p[0] >= 2 and p[0] & (p[0] - 1) == 0}


def _generic_copy(space):
    """space as a PredicateSpace: the same points and distances, but the
    delta kernels on it take the generic min-plus path."""
    return PredicateSpace(_LINE_PREDICATES[space.name], 1, 1 << 62, space.basepoint)


def _listed(d, pts, w):
    """d.cross_matrix(pts, w) with the matrix as nested lists, for equality."""
    mat, exact = d.cross_matrix(pts, w)
    return mat.tolist(), exact


def _on(sp, d):
    """The delta kernel d with the same delta values on the space sp."""
    return DeltaMetric(sp, DeltaFunction(sp, d.delta.values, d.delta.name))


def _line_deltas(space):
    return {
        "evens": metric_from_levels(levels_from_subset(space, set_family("evens"))),
        "squares": metric_from_levels(levels_from_subset(space, set_family("squares"))),
        "const2": DeltaMetric(space, const_delta(space, 2)),
        "const3/2": DeltaMetric(space, const_delta(space, Fraction(3, 2))),
        "frac": DeltaMetric(space, DeltaFunction(
            space, lambda pts: [1 + Fraction(u[0] % 3, 2) + 4 * (u[0] % 7 == 0) for u in pts],
            "frac")),
    }


_LINE_CASES = {
    "NatLine": ([Window(0), Window(1), Window(9, (5,))], [(40,), (23,)]),
    "IntLine": ([Window(0), Window(1), Window(9, (-6,))], [(30,), (-25,)]),
    "GeomLine": ([Window(0), Window(1), Window(40, (8,))], [(256,), (128,)]),
}


@pytest.mark.parametrize("space_name", sorted(_LINE_CASES))
def test_line_delta_batch_matches_generic_path(space_name, request):
    space = request.getfixturevalue(space_name.lower())
    generic = _generic_copy(space)
    windows, far = _LINE_CASES[space_name]
    rng = random.Random(space_name)
    for name, d in _line_deltas(space).items():
        g = _on(generic, d)
        for w in windows:
            pts = window_points(space, w)
            shuffled = rng.sample(pts, len(pts))
            outside = shuffled + [p for p in far if p not in pts]
            for label, sample in (("window", pts), ("shuffled", shuffled),
                                  ("outside", outside)):
                assert _listed(d, sample, w) == _listed(g, sample, w), (name, w, label)
            mat, exact = d.cross_matrix(outside, w)
            if exact:
                # certified cells are global minima: a ball that holds
                # every candidate ball gives the same minimum
                base = w.resolve_base(space)
                reach = max(space.distance(x, base) for x in outside) + max(map(max, mat))
                ball = space.points_within(base, reach)
                for i, x in enumerate(outside):
                    for j, y in enumerate(outside):
                        assert mat[i][j] == brute_delta_cross(space, d.delta, x, y, ball)
            assert check_axioms(d, w).to_json() == check_axioms(g, w).to_json()


@pytest.mark.parametrize("space_name", sorted(_LINE_CASES))
def test_line_delta_factor_in_composition_matches_generic_path(space_name, request):
    # ComposedMetric.cross_matrix hands its factors the window points and the
    # rows outside the window
    space = request.getfixturevalue(space_name.lower())
    generic = _generic_copy(space)
    windows, far = _LINE_CASES[space_name]
    deltas = _line_deltas(space)
    for first, second in (("evens", "const3/2"), ("frac", "squares")):
        d1, d2 = deltas[first], deltas[second]
        line = compose(d1, compose(PointMetric(space), d2))
        gen = compose(_on(generic, d1), compose(PointMetric(generic), _on(generic, d2)))
        for w in windows:
            pts = window_points(space, w) + [p for p in far if p not in window_points(space, w)]
            assert _listed(line, pts, w) == _listed(gen, pts, w), (first, w)


def test_line_delta_batch_beyond_int64_guard(intline, geomline):
    # coordinates past 2**60 take the object path, and so does a delta of
    # 2**61; on IntLine a delta that large would need a universe of 2**62
    # points on either path, so there the coordinates carry the test
    cases = [(intline, Window(4, (2 ** 60 - 2,)), const_delta(intline, 3)),
             (intline, Window(3, (-2 ** 60 + 1,)), const_delta(intline, Fraction(5, 2))),
             (geomline, Window(2 ** 60, (2 ** 60,)), const_delta(geomline, 2 ** 61))]
    for space, w, delta in cases:
        pts = window_points(space, w)
        assert _exact_array([p[0] for p in pts]).dtype == object
        d = DeltaMetric(space, delta)
        if space is geomline:
            # GeomLine as a finite Custom space: the generic path, same balls
            generic = CustomSpace([(2 ** k,) for k in range(1, 65)], basepoint=(2,))
        else:
            generic = _generic_copy(space)
        mat, exact = d.cross_matrix(pts, w)
        assert (mat.tolist(), exact) == _listed(_on(generic, d), pts, w)
        assert exact
        assert all(type(v) in (int, Fraction) for row in mat for v in row)
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                assert mat[i][j] == space.distance(x, y) + delta(x)
        rep = check_axioms(d, w)
        assert rep.passed and rep.exact
        assert rep.to_json() == check_axioms(_on(generic, d), w).to_json()


def test_coordinates_beyond_int64_stay_exact_objects(intline):
    # 2**70 overflows numpy's int64 conversion itself, so _coordinates
    # falls back to an object array of the ints; a float cast would round
    # neighbouring points together
    d = DeltaMetric(intline, const_delta(intline, 2))
    w = Window(3, (2 ** 70,))
    pts = window_points(intline, w)
    assert _coordinates(pts).dtype == object
    mat, exact = d.cross_matrix(pts, w)
    assert mat.dtype == object and exact
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            assert mat[i, j] == d.cross(x, y, w).value
    rep = check_axioms(d, w)
    assert rep.passed and rep.exact


def _count_min_plus(monkeypatch):
    """The (a, b) shapes of every _min_plus call from now on."""
    shapes = []
    min_plus = double._min_plus

    def counted(a, b=None):
        shapes.append((a.shape, None if b is None else b.shape))
        return min_plus(a, b)

    monkeypatch.setattr(double, "_min_plus", counted)
    return shapes


def test_check_axioms_on_a_line_makes_no_per_cell_calls(natline, monkeypatch):
    # a 251-point window has 63,001 cells; distances come from coordinate
    # arrays, so the distance method does not run once per cell, and a
    # passing delta kernel makes no min-plus product
    calls = []
    dist = NatLine._dist

    def counted(*args):
        calls.append(args)
        return dist(*args)

    monkeypatch.setattr(NatLine, "_dist", counted)
    shapes = _count_min_plus(monkeypatch)
    d = metric_from_levels(levels_from_subset(natline, set_family("evens")))
    rep = check_axioms(d, Window(250))
    assert rep.n_points == 251 and rep.passed and rep.exact
    assert len(calls) <= 4 * 251, len(calls)
    assert shapes == []


_DELTA_CELLS = {
    "int": lambda rng: rng.randint(1, 9),
    "frac": lambda rng: Fraction(rng.randint(2, 19), rng.randint(1, 3)),
    "ties": lambda rng: rng.choice([1, 2]),
    # values on both sides of the int64 guard
    "guard": lambda rng: rng.choice([1, 5, 2 ** 60, 2 ** 60 + 1]),
}


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
@pytest.mark.parametrize("kind", sorted(_DELTA_CELLS))
def test_line_delta_min_matches_triple_loop(kind, order):
    # repeated points; points past either end of the universe next to points
    # inside it, so a gap reaches the universe's last point and a point has
    # the start index m; one-point universes; window order and shuffled
    # order.  "guard" shifts coordinates next to 2**60, so int64 and object
    # arrays meet in one call, in every combination
    rng = random.Random(f"{kind}:{order}")
    cell = functools.partial(_DELTA_CELLS[kind], rng)
    dtypes = set()
    for t in range(90):
        off = rng.choice([0, 2 ** 60 - 6, -2 ** 60 + 6]) if kind == "guard" else 0
        u = sorted(off + v for v in rng.sample(range(-8, 9), rng.randint(1, 6)))
        past = [[], [u[0] - rng.randint(1, 4)], [u[-1] + rng.randint(1, 4)],
                [u[0] - rng.randint(1, 4), u[-1] + rng.randint(1, 4)]][t % 4]
        c = past + [rng.randint(u[0], u[-1]) for _ in range(rng.randint(not past, 5))]
        c += rng.choices(c, k=rng.randint(0, 3))
        c = sorted(c) if order == "sorted" else rng.sample(c, len(c))
        du, dc = [cell() for _ in u], [cell() for _ in c]
        dist = [[abs(x - y) for y in c] for x in c]
        seed = [[dxy + min(dx, dy) for dxy, dy in zip(row, dc)] for row, dx in zip(dist, dc)]
        want = [[min([seed[i][j]] + [abs(x - v) + w + abs(v - y) for v, w in zip(u, du)])
                 for j, y in enumerate(c)] for i, x in enumerate(c)]
        args = [_exact_array(a) for a in (c, dist, seed, u, du)]
        dtypes.add((args[0].dtype == object, args[4].dtype == object))
        got = _line_delta_min(*args)
        assert got.tolist() == want, (c, u, du, dc)
    if kind == "guard":
        assert dtypes == {(False, False), (False, True), (True, False), (True, True)}


def test_line_batch_certifies_by_the_row_rule(natline):
    # the row of 11 has largest probe 12, so its candidate ball reaches 22;
    # the enumerated ball around 0 has radius 10 + 12 - 1 = 21
    d = DeltaMetric(natline, const_delta(natline))
    w = Window(10)
    for pts, exact in (([(0,), (10,)], True), ([(0,), (11,)], False)):
        got = _listed(d, pts, w)
        assert got[1] is exact
        assert got == _listed(_on(_generic_copy(natline), d), pts, w)


# -- the line path of the triangle checks against the generic path ----------


def _triangle_failures(pts, one):
    """Closed-form bodies on a line window, each failing one triangle check
    and only at y = pts[len(pts) // 2], never the first window point.  one
    is the kernel's offset, 1 or a Fraction."""
    y0, x0 = pts[len(pts) // 2], pts[1]
    return {
        # column y0 is flat, so d_X(x1,x2) > d(x1,y0') + d(x2,y0') for far x1, x2
        "triangle_base_vs_cross": lambda x, y: one if y == y0 else abs(x[0] - y[0]) + one,
        # d(x0,y0') exceeds d_X(x0,y0) + d(y0,y0')
        "triangle_cross_vs_base": lambda x, y: abs(x[0] - y[0]) + one + 10 * (
            x == x0 and y == y0),
    }


@pytest.mark.parametrize("one", [1, Fraction(3, 2)], ids=["int", "fraction"])
@pytest.mark.parametrize("space_name", sorted(_LINE_CASES))
def test_line_triangle_failures_match_generic_path(space_name, one, request):
    space = request.getfixturevalue(space_name.lower())
    generic = _generic_copy(space)
    w = _LINE_CASES[space_name][0][-1]
    pts = window_points(space, w)
    for check, fn in _triangle_failures(pts, one).items():
        for symmetric in (False, True):
            line = ClosedFormMetric(space, fn, check, symmetric=symmetric)
            rep = check_axioms(line, w)
            assert rep.to_json() == check_axioms(
                ClosedFormMetric(generic, fn, check, symmetric=symmetric), w).to_json()
            failed = [name for name, c in rep.checks.items() if not c["passed"]]
            assert failed == [check], failed
            assert rep.checks[check]["violation"]["y"] == list(pts[len(pts) // 2])


def test_failing_line_kernel_hands_min_plus_its_failing_columns(natline, monkeypatch):
    # the flat kernel fails the column test at one column only
    shapes = _count_min_plus(monkeypatch)
    w = Window(30)
    flat = _triangle_failures(window_points(natline, w), 1)["triangle_base_vs_cross"]
    rep = check_axioms(ClosedFormMetric(natline, flat, "flat"), w)
    assert not rep.checks["triangle_base_vs_cross"]["passed"]
    assert shapes == [((31, 1), (1, 31))]


def test_passing_line_kernel_runs_no_transform_and_no_product(natline, monkeypatch):
    # one monotone pass decides both triangle checks of a passing kernel; a
    # kernel failing the cross-vs-base check takes the distance transform
    transforms = []
    line_transform = double._line_transform

    def counted(c, p, q):
        transforms.append(p.shape)
        return line_transform(c, p, q)

    monkeypatch.setattr(double, "_line_transform", counted)
    shapes = _count_min_plus(monkeypatch)
    d = metric_from_levels(levels_from_subset(natline, set_family("evens")))
    rep = check_axioms(d, Window(250))
    assert rep.n_points == 251 and rep.passed and rep.exact
    assert transforms == [] and shapes == []
    w = Window(30)
    bump = _triangle_failures(window_points(natline, w), 1)["triangle_cross_vs_base"]
    rep = check_axioms(ClosedFormMetric(natline, bump, "bump"), w)
    assert [name for name, c in rep.checks.items() if not c["passed"]] == [
        "triangle_cross_vs_base"]
    assert transforms == [(31, 31)] and shapes == []


def test_line_check_converts_the_window_once(natline, monkeypatch):
    # check_axioms on a delta kernel converts the window's coordinates once,
    # computes d_X once and does not check its enumerated points again;
    # points passed to cross_matrix are checked
    w = Window(250)
    pts = window_points(natline, w)
    converted, distances, checked = [], [], []
    coordinates, distance_matrix = double._coordinates, double._distance_matrix

    def counted_coordinates(points):
        converted.append(points == pts)
        return coordinates(points)

    def counted_distances(*args, **kwargs):
        out = distance_matrix(*args, **kwargs)
        distances.append(out.shape)
        return out

    monkeypatch.setattr(double, "_coordinates", counted_coordinates)
    monkeypatch.setattr(double, "_distance_matrix", counted_distances)
    monkeypatch.setattr(natline, "check", lambda *points: checked.append(len(points)))
    d = metric_from_levels(levels_from_subset(natline, set_family("evens")))
    rep = check_axioms(d, w)
    assert rep.n_points == 251 and rep.passed and rep.exact
    assert converted.count(True) == 1, converted
    assert distances.count((251, 251)) == 1, distances
    assert 251 not in checked, checked
    d.cross_matrix(pts, w)
    assert checked.count(251) == 1, checked


def _in_new_thread(fn):
    """fn() on a thread of its own, which starts with an empty workspace."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn).result(timeout=120)


def _workspace_arrays():
    return [(k, a.dtype, a.shape) for k, a in sorted(double._WORKSPACE.arrays.items())]


def test_batch_results_never_share_the_workspace(natline):
    # matrices returned by cross_matrix are fresh arrays: equal to the generic
    # path's, sharing no memory with the reused buffers, and unchanged by
    # later calls at the same n; the reports equal the generic path's too
    w = Window(130)
    pts = window_points(natline, w)
    assert len(pts) >= double._WORKSPACE_MIN_N
    generic = _generic_copy(natline)
    evens, squares = (metric_from_levels(levels_from_subset(natline, set_family(name)))
                      for name in ("evens", "squares"))
    g_evens, g_squares = _on(generic, evens), _on(generic, squares)
    small = Window(16)
    cases = [(evens, g_evens),
             (metric_meet(evens, squares, small), MaxMetric(g_evens, g_squares)),
             (metric_join(evens, squares, small), MinGlueMetric(g_evens, g_squares)),
             (compose(evens, squares), compose(g_evens, g_squares))]
    returned = []
    for d, g in cases:
        mat, exact = d.cross_matrix(pts, w)
        assert (mat.tolist(), exact) == _listed(g, pts, w), d.kind
        assert mat.dtype == np.int64
        returned.append((d.kind, mat, mat.copy()))
        rep = check_axioms(d, w)
        assert rep.passed, d.kind
        assert rep.to_json() == check_axioms(g, w).to_json(), d.kind
    assert len(_workspace_arrays()) == 3
    for kind, mat, copy in returned:
        assert np.array_equal(mat, copy), kind
        assert not any(np.shares_memory(mat, buf) for buf in double._WORKSPACE.arrays.values())


def test_threads_checking_at_once_give_the_serial_reports(natline, intline):
    # each thread has its own workspace: four threads on two cores, switching
    # often, check different kernels on 251-point windows at once
    kernels = [(metric_from_levels(parse_levels(space, spec)), Window(radius))
               for space, radius in ((natline, 250), (intline, 125))
               for spec in ("subset:evens", "subset:multiples:3")]
    serial = [check_axioms(d, w).to_json() for d, w in kernels]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(kernels)) as pool:
            runs = [pool.submit(lambda d=d, w=w: [check_axioms(d, w).to_json() for _ in range(5)])
                    for d, w in kernels]
            reports = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert reports == [[doc] * 5 for doc in serial]


def test_a_batch_inside_a_delta_reader_leaves_its_caller_intact(natline):
    # a delta reader that runs a check of its own on the same thread and n
    # gets no buffers, so the outer check's d_X and seed stay as they were
    w = Window(250)
    pts = window_points(natline, w)
    evens = metric_from_levels(levels_from_subset(natline, set_family("evens")))
    inner = metric_from_levels(levels_from_subset(natline, set_family("squares")))
    nested = []

    def nesting():
        def reader(points):
            nested.append(check_axioms(inner, w).passed)
            return evens.delta.values(points)

        return DeltaMetric(natline, DeltaFunction(natline, reader, "nesting"))

    assert check_axioms(nesting(), w).to_json() == check_axioms(evens, w).to_json()
    assert _listed(nesting(), pts, w) == _listed(evens, pts, w)
    assert len(nested) == 4 and all(nested)


def test_workspace_holds_at_most_three_arrays_of_the_last_n(natline, intline, twotails,
                                                            geomline):
    # checks at 251, 129, 44 (TwoTails) and 10 (GeomLine) points: the
    # workspace ends with three int64 arrays of the last n it took, 129; the
    # windows below _WORKSPACE_MIN_N points and off the lines use none
    def check(space, spec, radius):
        rep = check_axioms(metric_from_levels(parse_levels(space, spec)), Window(radius))
        assert rep.passed and rep.exact
        return rep.n_points, _workspace_arrays()

    def run():
        return [check(natline, "subset:evens", 250), check(intline, "subset:odds", 64),
                check(twotails, "subset:tailplus", 500), check(geomline, "subset:powers:2", 1024)]

    after = _in_new_thread(run)
    assert [n for n, _ in after] == [251, 129, 44, 10]
    assert after[0][1] == [(k, np.int64, (251, 251)) for k in range(3)]
    for _, arrays in after[1:]:
        assert arrays == [(k, np.int64, (129, 129)) for k in range(3)]


def test_fraction_kernels_put_nothing_in_the_workspace(natline, intline, geomline):
    # the Fraction and beyond-int64 kernels of test_fraction_kernel_batch and
    # test_line_delta_batch_beyond_int64_guard leave the workspace empty; on a
    # 130-point window a Fraction kernel's buffers hold only its int64 d_X and
    # bound, and its object matrix is a fresh array
    def run():
        half = DeltaMetric(natline, const_delta(natline, Fraction(3, 2)))
        for w in (Window(12), Window(0, (5,))):
            half.cross_matrix(window_points(natline, w), w)
            check_axioms(half, w)
        for space, w, delta in [(intline, Window(4, (2 ** 60 - 2,)), const_delta(intline, 3)),
                                (intline, Window(3, (-2 ** 60 + 1,)),
                                 const_delta(intline, Fraction(5, 2))),
                                (geomline, Window(2 ** 60, (2 ** 60,)),
                                 const_delta(geomline, 2 ** 61))]:
            DeltaMetric(space, delta).cross_matrix(window_points(space, w), w)
            check_axioms(DeltaMetric(space, delta), w)
        small = _workspace_arrays()
        w = Window(129)
        mat, _ = half.cross_matrix(window_points(natline, w), w)
        rep = check_axioms(half, w)
        return small, mat, rep.passed and rep.exact, double._WORKSPACE.arrays

    small, mat, passed, arrays = _in_new_thread(run)
    assert small == [] and passed
    assert mat.dtype == object and mat.item(0, 0) == Fraction(3, 2)
    assert sorted(arrays) == [0, 1]
    assert all(a.dtype == np.int64 and not np.shares_memory(mat, a) for a in arrays.values())


@pytest.mark.parametrize("kind", ["int", "frac"])
def test_line_triangle_forms_match_min_plus(kind):
    # c in increasing order with repeats; g near a line kernel, with an offset
    # per cell (odd t) or per column (even t, every column 1-Lipschitz), every
    # third time one flat column (1-Lipschitz, but it may fail the column
    # test), and some cells pushed down, so that the monotone test and the
    # column test each come out both ways
    rng = random.Random(f"triangle:{kind}")
    cell = ((lambda: rng.randint(0, 2)) if kind == "int"
            else (lambda: Fraction(rng.randint(0, 6), rng.randint(1, 3))))
    outcomes = set()
    for t in range(120):
        n = rng.randint(1, 7)
        c = sorted(rng.randint(-12, 12) for _ in range(n))
        offset = [cell() for _ in c]
        g = [[abs(x - y) + (cell() if t % 2 else offset[k]) for k, y in enumerate(c)]
             for x in c]
        if t % 3 == 0:
            k, v = rng.randrange(n), cell()
            for row in g:
                row[k] = v
        for _ in range(rng.randint(0, 3)):
            g[rng.randrange(n)][rng.randrange(n)] -= rng.randint(0, 6)
        ca, ga = _exact_array(c), _exact_array(g)
        assert ga.dtype == (np.int64 if kind == "int" else object)
        bmat = abs(ca[:, None] - ca[None, :])
        want = [k for k in range(n)
                if any(bmat[i, j] > g[i][k] + g[j][k] for i in range(n) for j in range(n))]
        monotone, cols, p, q = _line_columns(ca, ga)
        assert cols.tolist() == want, (c, g)
        assert (len(cols) == 0) == bool(np.all(bmat <= _min_plus(ga)))
        assert monotone == bool(np.all(ga <= _min_plus(bmat, ga))), (c, g)
        if monotone:
            # the end-rows rule (last row of P, first of Q) names the columns
            # the column minima do
            minima = np.min(ga - ca[:, None], axis=0) + np.min(ga + ca[:, None], axis=0)
            assert cols.tolist() == np.flatnonzero(minima < 0).tolist(), (c, g)
        outcomes.add((monotone, len(cols) == 0))
        got, ref = _line_transform(ca, p, q), _min_plus(bmat, ga)
        assert got.dtype == ref.dtype and got.tolist() == ref.tolist(), (c, g)
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


# -- golden check_axioms reports ---------------------------------------------

# the axiom-batch benchmark's table, AXIOM_JOBS in bench/workloads.py, written
# out: (space, radius, level specs)
_AXIOM_JOBS = (
    ("NatLine", 250, ("subset:evens", "subset:odds", "subset:multiples:3",
                      "subset:multiples:4:1")),
    ("NatLine", 250, ("subset:powers:2", "subset:powers:3", "expr:ceil-sqrt",
                      "subset:squares")),
    ("IntLine", 125, ("subset:evens", "subset:odds", "subset:multiples:3",
                      "subset:multiples:4:1", "subset:multiples:5:2")),
    ("IntLine", 125, ("subset:powers:2",)),
    ("IntLine", 125, ("expr:log2",)),
    ("GeomLine", 1024, ("subset:powers:2", "subset:powers:4")),
    ("TwoTails", 500, ("subset:tailplus", "subset:tailminus", "zero", "unit")),
)
_ROOT = Path(__file__).resolve().parent.parent
_AXIOM_DIGESTS = json.loads((_ROOT / "tests" / "axiom_digests.json").read_text(encoding="utf-8"))
# "<space> <kind>" -> the report digest of each kernel of _every_kind on each
# space of _CONTRACT_SPACES
_KIND_DIGESTS = _AXIOM_DIGESTS.pop("every_kind")


def _spec_kernel(space_name, radius, spec):
    space = space_by_name(space_name)
    return metric_from_levels(parse_levels(space, spec)), Window(radius)


def _failure_kernel(space_name, one, check, symmetric):
    space = space_by_name(space_name)
    w = _LINE_CASES[space_name][0][-1]
    fn = _triangle_failures(window_points(space, w), one)[check]
    return ClosedFormMetric(space, fn, check, symmetric=symmetric), w


# label -> a function giving its (kernel, window): every spec of _AXIOM_JOBS,
# and the closed-form kernels of _triangle_failures on each line space
_AXIOM_CASES = {
    **{f"{space_name} r={radius} {spec}": functools.partial(_spec_kernel, space_name, radius, spec)
       for space_name, radius, specs in _AXIOM_JOBS for spec in specs},
    **{f"{space_name} {check} {kind}{' symmetric' * symmetric}":
       functools.partial(_failure_kernel, space_name, one, check, symmetric)
       for space_name in sorted(_LINE_CASES)
       for kind, one in (("int", 1), ("fraction", Fraction(3, 2)))
       for check in ("triangle_base_vs_cross", "triangle_cross_vs_base")
       for symmetric in (False, True)},
}


def _sha256(doc):
    # sha256 of the compact JSON with sorted keys, as the golden CLI reports
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _matrix_digest(mat):
    """sha256 of a cross matrix's dtype and its exact values, each as str."""
    return _sha256({"dtype": str(mat.dtype), "values": [[str(v) for v in row]
                                                        for row in mat.tolist()]})


def test_axiom_cases_cover_the_benchmark_table():
    tree = ast.parse((_ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    jobs = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "AXIOM_JOBS")
    assert jobs == _AXIOM_JOBS
    assert sorted(_AXIOM_DIGESTS) == sorted(_AXIOM_CASES)


@pytest.mark.parametrize("label", sorted(_AXIOM_CASES))
def test_axiom_report_matches_its_recorded_digest(label):
    # the report and the cross matrix, each against its digest; the matrix is
    # taken first and hashed after the report, so a matrix sharing memory with
    # what check_axioms computes in reused buffers shows in its digest
    d, w = _AXIOM_CASES[label]()
    mat, _ = d.cross_matrix(window_points(d.space, w), w)
    got = {"report": _sha256(check_axioms(d, w).to_json()), "cross_matrix": _matrix_digest(mat)}
    want = _AXIOM_DIGESTS.get(label)
    assert got == want, f"{label}: digests {got} differ from the recorded {want}"


# -- the batch contract of every kernel kind ---------------------------------


def _path_table(weights):
    """Distance table of points on a path with the given edge lengths."""
    at = [sum(weights[:i]) for i in range(len(weights) + 1)]
    return [[abs(a - b) for b in at] for a in at]


_CONTRACT_SPACES = {
    "NatLine": (NatLine, Window(8)),
    "TwoTails": (lambda: space_by_name("TwoTails"), Window(30)),
    "table": (lambda: CustomSpace([(i,) for i in range(6)], metric="table",
                                  table=_path_table([2, Fraction(1, 2), 3, 1, 2])),
              Window(20)),
}


def _every_kind(space, pts):
    """A kernel of every kind on space, Fraction-valued ones among them."""
    delta = DeltaMetric(space, DeltaFunction(
        space, lambda pts: [1 + (sum(map(abs, u)) * 7) % 5 for u in pts], "vary"))
    half = DeltaMetric(space, const_delta(space, Fraction(3, 2)))
    point = PointMetric(space)
    subset = SubsetMetric(space, PointSet.from_points([pts[0], pts[-1]]))
    other = SubsetMetric(space, PointSet.from_points(pts[1:2]))
    skew = ClosedFormMetric(
        space, lambda x, y: 1 + sum(map(abs, x)) % 7 + Fraction(abs(sum(y)), 3), "skew")
    return {
        "delta": delta, "delta-fraction": half, "point": point, "subset": subset,
        "closed_form": skew, "adjoint": skew.adjoint(),
        "adjoint-delta": AdjointMetric(delta),
        "max": MaxMetric(point, half), "min_glue": MinGlueMetric(point, delta),
        "composed": compose(delta, point), "composed-fraction": compose(half, delta),
        "composed-noncoercive": compose(subset, point),
        "composed-separable": compose(subset, other),
    }


@pytest.mark.parametrize("space_name", sorted(_CONTRACT_SPACES))
def test_every_kinds_axiom_report_matches_its_recorded_digest(space_name):
    # the reports, failing checks and their bounds included, as recorded
    # before check_axioms read every kind's bound from the base rule
    make, w = _CONTRACT_SPACES[space_name]
    space = make()
    got = {f"{space_name} {name}": _sha256(check_axioms(d, w).to_json())
           for name, d in _every_kind(space, window_points(space, w)).items()}
    assert got == {label: digest for label, digest in _KIND_DIGESTS.items()
                   if label.split()[0] == space_name}


def _assert_exact_array(mat, n):
    assert isinstance(mat, np.ndarray) and mat.shape == (n, n)
    if mat.dtype == np.int64:
        assert -2 ** 60 <= mat.min() and mat.max() <= 2 ** 60
    else:
        assert mat.dtype == object
        assert all(type(v) in (int, Fraction) for v in mat.flat)


@pytest.mark.parametrize("space_name", sorted(_CONTRACT_SPACES))
def test_cross_matrix_is_an_exact_array(space_name):
    make, w = _CONTRACT_SPACES[space_name]
    space = make()
    pts = window_points(space, w)
    for name, d in _every_kind(space, pts).items():
        mat, exact = d.cross_matrix(pts, w)
        _assert_exact_array(mat, len(pts))
        assert type(exact) is bool, name


@pytest.mark.parametrize("space_name", sorted(_CONTRACT_SPACES))
def test_every_kind_meets_the_base_bound(space_name):
    # every kind's cross values are at least d_X + coercive_c, or eps for a
    # kind with no c: the bound the searches certify with and check_axioms
    # checks; a point kernel's are its closed form, cell by cell
    make, w = _CONTRACT_SPACES[space_name]
    space = make()
    pts = window_points(space, w)
    dist = space.distance
    for name, d in _every_kind(space, pts).items():
        mat, _ = d.cross_matrix(pts, w)
        c = d.coercive_c
        assert all(mat.item(i, j) >= (d.eps if c is None else dist(x, y) + c)
                   for i, x in enumerate(pts) for j, y in enumerate(pts)), name
        if isinstance(d, PointMetric):
            assert mat.tolist() == [[dist(x, d.x0) + 1 + dist(d.x0, y) for y in pts]
                                    for x in pts]


# -- distance matrices from l1 coordinates ------------------------------------

_BIG = 2 ** 60
_L1_SPACES = {
    "TwoTails": (lambda: space_by_name("TwoTails"), Window(200)),
    "predicate-dim1": (lambda: PredicateSpace(lambda p: p[0] % 3 != 1, 1, 200, (0,)),
                       Window(40)),
    "predicate-dim2": (lambda: PredicateSpace(lambda p: (p[0] + 2 * p[1]) % 3 == 0, 2,
                                              200, (0, 0)), Window(9)),
    # coordinates near 2**60: each difference fits int64, a sum of five
    # does not, so the coordinates take the object path
    "custom-dim5": (lambda: CustomSpace([(0, 0, 0, 0, 0), (1, -2, 3, 0, 5),
                                         (_BIG, -_BIG, _BIG - 1, 3, -_BIG),
                                         (-_BIG, _BIG, -_BIG, -_BIG, _BIG)]),
                    Window(10 * _BIG)),
    # within 2**60 / 5 a coordinate stays int64
    "custom-dim5-int64": (lambda: CustomSpace([(0, 0, 0, 0, 0), (2, 1, -1, 7, 3),
                                               (_BIG // 5, -(_BIG // 5), _BIG // 5,
                                                _BIG // 5, -(_BIG // 5))]),
                          Window(_BIG)),
}


@pytest.mark.parametrize("space_name", sorted(_L1_SPACES))
def test_distance_matrix_from_coordinates_is_the_distance(space_name, monkeypatch):
    make, w = _L1_SPACES[space_name]
    space = make()
    pts = window_points(space, w)
    want = [[space._dist(a, b) for b in pts[::2]] for a in pts]
    calls = []
    dist = type(space)._dist
    monkeypatch.setattr(type(space), "_dist", lambda *args: calls.append(args) or dist(*args))
    got = _distance_matrix(space, pts, pts[::2])
    assert space.metric == "manhattan" and calls == []
    assert got.tolist() == want
    big = max(max(map(abs, p)) for p in pts) > _BIG // len(pts[0])
    assert _coordinates(pts).dtype == (object if big else np.int64)
    assert got.dtype == (object if big else np.int64)
    if big:
        assert all(type(v) is int for v in got.flat)


@pytest.mark.parametrize("metric", ["table", "euclidean-rounded"])
def test_distance_matrix_of_other_metrics_is_per_cell(metric, monkeypatch):
    pts = [(0, 0), (3, 4), (1, 7), (6, 2)]
    table = [[0 if a == b else 1 + (i + j) % 3 for j, b in enumerate(pts)]
             for i, a in enumerate(pts)]
    space = CustomSpace(pts, metric=metric, table=table if metric == "table" else None)
    calls = []
    dist = CustomSpace._dist
    monkeypatch.setattr(CustomSpace, "_dist", lambda *args: calls.append(args) or dist(*args))
    got = _distance_matrix(space, pts, pts)
    assert len(calls) == len(pts) ** 2
    assert got.tolist() == [[dist(space, a, b) for b in pts] for a in pts]
    assert got.tolist() != [[sum(abs(x - y) for x, y in zip(a, b)) for b in pts] for a in pts]


def test_check_axioms_on_two_tails_makes_no_per_cell_calls(twotails, monkeypatch):
    # the distance matrices broadcast coordinates, so _dist runs only inside
    # the two enumerations, the window and the delta kernel's universe ball,
    # at most once per candidate point of each: at most 2n calls for the n
    # points of the larger ball, against 6,750 when the matrices were built
    # cell by cell
    d = metric_from_levels(levels_from_subset(twotails, parse_set(twotails, "tailplus")))
    w = Window(500)
    check_axioms(d, w)  # fills the delta cache, whose set distances call _dist
    calls, balls = [], []
    dist, within = TwoTails._dist, TwoTails.points_within
    monkeypatch.setattr(TwoTails, "_dist", lambda *args: calls.append(args) or dist(*args))
    monkeypatch.setattr(TwoTails, "points_within",
                        lambda *args: balls.append(within(*args)) or balls[-1])
    rep = check_axioms(d, w)
    assert rep.n_points == 44 and rep.passed and rep.exact
    assert len(balls) == 2 and len(calls) <= 2 * max(map(len, balls)), (len(calls), balls)
