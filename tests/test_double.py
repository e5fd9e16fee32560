import random
from fractions import Fraction

import numpy as np
import pytest

from coarsedouble import (ClosedFormMetric, DeltaMetric, MaxMetric,
                          MinGlueMetric, PointMetric, adjoint, check_axioms,
                          compose, const_delta, dist_to_copy, evaluate,
                          evaluate_exact, levels_from_subset, metric_from_levels,
                          subset_metric, zero_levels)
from coarsedouble.double import DeltaFunction, _exact_array, _min_plus
from coarsedouble.errors import DomainError
from coarsedouble.space import (CustomSpace, PredicateSpace, Window, set_family,
                                window_points)
from conftest import brute_delta_cross


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
    assert adjoint(z) is z
    d = metric_from_levels(levels_from_subset(natline, set_family("evens")))
    assert adjoint(d) is d
    asym = ClosedFormMetric(natline, lambda x, y: x[0] + 2 * y[0] + 1, "skew")
    a = adjoint(asym)
    w = Window(8)
    assert evaluate(a, (1,), (2,), w).value == evaluate(asym, (2,), (1,), w).value
    assert adjoint(a) is asym


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
            assert evaluate(c, x, x, w).value <= 2 * dist_to_copy(d, x, w).value


def test_dist_to_copy_examples(natline):
    w = Window(64)
    assert dist_to_copy(PointMetric(natline, (0,)), (4,), w).value == 5
    assert dist_to_copy(DeltaMetric(natline, const_delta(natline)), (9,), w).value == 1
    b = subset_metric(natline, set_family("evens"))
    assert dist_to_copy(b, (3,), w).value == 2


def test_diagonal_vs_copy_bounds(natline):
    w = Window(64)
    for d in (PointMetric(natline, (0,)),
              metric_from_levels(levels_from_subset(natline, set_family("squares")))):
        for x in window_points(natline, Window(16)):
            diag = evaluate(d, x, x, w).value
            copy = dist_to_copy(d, x, w).value
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
    assert check_axioms(d, Window(24)).passed
    m = MaxMetric(d, DeltaMetric(natline, const_delta(natline)))
    assert check_axioms(m, Window(24)).passed
    bad = ClosedFormMetric(natline, lambda x, y: 1, "flat", symmetric=True)
    rep = check_axioms(bad, Window(3))
    assert not rep.passed
    v = rep.first_violation()
    assert v["x1"] == [0] and v["x2"] == [3] and v["y"] == [0]
    assert v["lhs"] == 3 and v["rhs"] == 2


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
    d = DeltaMetric(sp, DeltaFunction(sp, lambda u: 1 if abs(u[0]) >= 8 else 40, "far"))
    w = Window(6)
    single = evaluate(d, (6,), (6,), w)
    assert not single.exact and single.required_radius == 45
    pts = window_points(sp, w)
    mat, exact = d.cross_matrix(pts, w)
    assert mat[pts.index((6,))][pts.index((6,))] == 40
    assert not exact
    assert not check_axioms(d, Window(10)).exact


def test_composed_batch_ranges_over_window(natline):
    # the best midpoint of (10, 20) is 0, which is not among the rows
    z = PointMetric(natline, (0,))
    c = compose(z, z)
    pts = [(10,), (20,)]
    w = Window(200)
    mat, exact = c.cross_matrix(pts, w)
    single = [[evaluate(c, x, y, w) for y in pts] for x in pts]
    assert mat == [[ev.value for ev in row] for row in single] == [[22, 32], [32, 42]]
    assert exact and all(ev.exact for row in single for ev in row)


def _assert_batch_matches(d, space, w, want):
    pts = window_points(space, w)
    mat, _ = d.cross_matrix(pts, w)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            assert mat[i][j] == want(x, y, pts), (x, y)


def test_fraction_kernel_batch(natline):
    # Fraction values take the object-dtype min-plus
    d = DeltaMetric(natline, const_delta(natline, Fraction(3, 2)))
    w = Window(12)
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


def _brute_min_plus(a, b, weights, init):
    return [[min([a[i][k] + (weights[k] if weights else 0) + b[k][j]
                  for k in range(len(b))] + ([init[i][j]] if init else []))
             for j in range(len(b[0]))] for i in range(len(a))]


@pytest.mark.parametrize("kinds", [("int", "int", "int", "int"),
                                   ("frac", "frac", "frac", "frac"),
                                   ("int", "frac", "int", "frac"),
                                   ("frac", "int", "frac", "int")],
                         ids=["int64", "object", "mixed", "mixed-rev"])
@pytest.mark.parametrize("with_weights", [False, True])
@pytest.mark.parametrize("with_init", [False, True])
def test_min_plus_matches_triple_loop(kinds, with_weights, with_init):
    rng = random.Random(f"{kinds}:{with_weights}:{with_init}")

    def draw(kind, shape):
        cell = ((lambda: rng.randint(-50, 50)) if kind == "int"
                else (lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 6))))
        return [[cell() for _ in range(shape[1])] for _ in range(shape[0])]

    a, b = draw(kinds[0], (4, 5)), draw(kinds[1], (5, 3))
    weights = draw(kinds[2], (1, 5))[0] if with_weights else None
    init = draw(kinds[3], (4, 3)) if with_init else None
    typed = [None if m is None else _exact_array(m) for m in (a, b, weights, init)]
    assert [t.dtype == np.int64 for t in typed if t is not None] == [
        k == "int" for k, m in zip(kinds, (a, b, weights, init)) if m is not None]
    got = _min_plus(typed[0], typed[1], weights=typed[2], init=typed[3])
    assert got.tolist() == _brute_min_plus(a, b, weights, init)
    # b left out is the transpose of a
    at = [list(col) for col in zip(*a)]
    assert _min_plus(typed[0], weights=typed[2]).tolist() == _brute_min_plus(
        a, at, weights, None)


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
