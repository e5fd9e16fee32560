import functools
import random
from fractions import Fraction

import numpy as np
import pytest

from coarsedouble import (AdjointMetric, ClosedFormMetric, ComposedMetric,
                          DeltaMetric, DoubleMetric, MaxMetric, MinGlueMetric,
                          PointMetric, SubsetMetric, check_axioms, compose,
                          const_delta, evaluate, evaluate_exact, levels_from_subset,
                          metric_from_levels, space_by_name, subset_metric,
                          zero_levels)
from coarsedouble import double
from coarsedouble.double import (DeltaFunction, _coordinates, _distance_matrix,
                                 _exact_array, _line_delta_min, _line_failing_columns,
                                 _line_transform, _min_plus)
from coarsedouble.errors import DomainError, SearchInconclusive
from coarsedouble.space import (CustomSpace, NatLine, PointSet, PredicateSpace,
                                TwoTails, Window, set_family, window_points)
from coarsedouble.serialize import parse_set
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


def test_escalation_out_of_budget_names_the_last_window(natline, monkeypatch):
    # a coercive kernel whose sub-evaluations stay inexact: with a budget of
    # two windows the error names the second, not the radius after it
    monkeypatch.setattr(double, "_MAX_DOUBLINGS", 2)
    m0 = metric_from_levels(zero_levels(natline))
    d = compose(m0, m0)
    seen = _record_windows(d, monkeypatch)
    with pytest.raises(SearchInconclusive) as err:
        evaluate_exact(d, (7,), (9,))
    assert len(seen) == 2 and seen[1][0] > seen[0][0] == 9
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


@pytest.mark.parametrize("kind", ["int", "frac"])
def test_line_triangle_forms_match_min_plus(kind):
    # c in increasing order with repeats; g near a line kernel with some
    # cells pushed down, so that columns both pass and fail
    rng = random.Random(f"triangle:{kind}")
    cell = ((lambda: rng.randint(0, 2)) if kind == "int"
            else (lambda: Fraction(rng.randint(0, 6), rng.randint(1, 3))))
    outcomes = set()
    for _ in range(80):
        n = rng.randint(1, 7)
        c = sorted(rng.randint(-12, 12) for _ in range(n))
        g = [[abs(x - y) + cell() for y in c] for x in c]
        for _ in range(rng.randint(0, 3)):
            g[rng.randrange(n)][rng.randrange(n)] -= rng.randint(0, 6)
        ca, ga = _exact_array(c), _exact_array(g)
        assert ga.dtype == (np.int64 if kind == "int" else object)
        bmat = abs(ca[:, None] - ca[None, :])
        want = [k for k in range(n)
                if any(bmat[i, j] > g[i][k] + g[j][k] for i in range(n) for j in range(n))]
        cols = _line_failing_columns(ca, ga)
        assert cols.tolist() == want, (c, g)
        assert (len(cols) == 0) == bool(np.all(bmat <= _min_plus(ga)))
        outcomes.add(len(cols) == 0)
        got, ref = _line_transform(ca, ga), _min_plus(bmat, ga)
        assert got.dtype == ref.dtype and got.tolist() == ref.tolist(), (c, g)
    assert outcomes == {True, False}


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


def _reference_bound(d, x, y):
    """Each kind's certified bound at one cell, written from its formula."""
    dist = d.space.distance
    if isinstance(d, DeltaMetric):  # MinGlueMetric too
        return dist(x, y) + 1
    if isinstance(d, PointMetric):
        return dist(x, d.x0) + 1 + dist(d.x0, y)
    if isinstance(d, SubsetMetric):
        return 1
    if isinstance(d, ClosedFormMetric):
        return d.eps
    if isinstance(d, AdjointMetric):
        return _reference_bound(d.inner, y, x)
    if isinstance(d, MaxMetric):
        return max(_reference_bound(d.d1, x, y), _reference_bound(d.d2, x, y))
    assert isinstance(d, ComposedMetric)
    return d.eps if d.coercive_c is None else dist(x, y) + d.coercive_c


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
def test_lower_bound_matrix_is_each_kinds_formula(space_name):
    make, w = _CONTRACT_SPACES[space_name]
    space = make()
    pts = window_points(space, w)
    bmat = _distance_matrix(space, pts, pts)
    # each kind states its bound once, as an array
    assert not hasattr(DoubleMetric, "lower_bound")
    for name, d in _every_kind(space, pts).items():
        lb = d.lower_bound_matrix(pts, bmat)
        _assert_exact_array(lb, len(pts))
        assert lb.tolist() == [[_reference_bound(d, x, y) for y in pts] for x in pts], name
        mat, _ = d.cross_matrix(pts, w)
        assert (lb <= mat).all(), name


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
