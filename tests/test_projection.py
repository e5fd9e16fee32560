import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedouble import (PointMetric, check_axioms, check_cm,
                          classify_type, cm_join, cm_meet, compose,
                          const_delta, delta_from_levels, evaluate,
                          evaluate_exact, f_map, join, levels_from_metric,
                          levels_from_subset, meet, metric_from_levels,
                          metric_join, metric_meet, projection_criterion,
                          source_projection, subset_metric, unit_levels,
                          zero_levels)
from coarsedouble.double import (ClosedFormMetric, DeltaFunction, DeltaMetric, MaxMetric,
                                 MinGlueMetric)
from coarsedouble.errors import DomainError
from coarsedouble.ideals import ApproximateUnit, recovered_levels
from coarsedouble.projection import LevelFunction, levels_from_expression
from coarsedouble.serialize import expression_levels
from coarsedouble.space import (CustomSpace, PointSet, Window, dist_to_set,
                                set_distances, set_family, space_by_name, window_points)
from coarsedouble.verdicts import revalidate


def test_levels_from_metric_examples(natline):
    z = PointMetric(natline, (0,))
    lz = levels_from_metric(z)
    assert [lz.level((x,)) for x in range(6)] == [1, 3, 5, 7, 9, 11]
    d1 = DeltaMetric(natline, const_delta(natline))
    assert all(levels_from_metric(d1).level((x,)) == 1 for x in range(8))
    b = subset_metric(natline, set_family("evens"))
    lb = levels_from_metric(b)
    assert [lb.level((x,)) for x in range(5)] == [1, 3, 1, 3, 1]


def test_levels_from_subset_examples(natline, geomline):
    e0 = zero_levels(natline)
    assert [e0.level((x,)) for x in range(5)] == [1, 2, 4, 6, 8]
    eg = levels_from_subset(geomline, set_family("powers", base=4))
    # oracle-frozen: d(2*4^k, {4^j}) = 4^k, so the level is 2*4^k
    assert eg.level((8,)) == 2 * dist_to_set(
        geomline, (8,), set_family("powers", base=4)).value
    assert eg.level((8,)) == 8
    assert eg.level((32,)) == 32
    # and the mirror computation the other way round
    eh = levels_from_subset(geomline, set_family("powers", base=4, scale=2))
    assert eh.level((16,)) == 16   # 2 * d(16, {8, 32, ...}) = 2 * 8


def test_levels_from_subset_rounds_fraction_distances_up():
    # a path at 0, 1/4, 3/4 and 2: 2 d(x, {0}) is 0, 1/2, 3/2 and 4, so the
    # levels are max(1, ceil(2 d)), not the int rule 2 d or 1
    at = [0, Fraction(1, 4), Fraction(3, 4), 2]
    space = CustomSpace([(i,) for i in range(4)], metric="table",
                        table=[[abs(a - b) for b in at] for a in at])
    A = PointSet.from_points([(0,)])
    e = levels_from_subset(space, A)
    pts = [(i,) for i in range(4)]
    want = [max(1, math.ceil(2 * dist_to_set(space, x, A).value)) for x in pts]
    assert want == [1, 1, 2, 4]
    assert e.levels(pts) == want and all(type(v) is int for v in e.levels(pts))


def test_delta_from_levels(natline):
    e = zero_levels(natline)
    delta = delta_from_levels(e)
    assert [delta((x,)) for x in range(5)] == [1, 2, 4, 6, 8]
    assert delta_from_levels(unit_levels(natline))((7,)) == 1


def test_level_validation(natline):
    e = levels_from_subset(natline, set_family("squares"))
    assert e.validate(Window(32))["passed"]


def test_sandwich_reconstruction(natline):
    # for points with n-1 < d(x,x') <= n the rebuilt kernel lands in [n-1, n]
    for d in (PointMetric(natline, (0,)),
              subset_metric(natline, set_family("squares")),
              metric_from_levels(levels_from_subset(natline, set_family("evens")))):
        e = levels_from_metric(d)
        da = metric_from_levels(e)
        for x in window_points(natline, Window(20)):
            n = e.level(x)
            v = evaluate_exact(da, x, x).value
            assert n - 1 <= v <= n


def test_projection_criterion(natline):
    w = Window(24)
    m0 = metric_from_levels(zero_levels(natline))
    v = projection_criterion(m0, w, grid=[(0, 2)])
    assert v.certified and v.witness.to_json() == {"kind": "affine", "alpha": 0, "beta": 2}
    z = PointMetric(natline, (0,))
    vz = projection_criterion(z, w, grid=[(0, 2)])
    assert vz.certified
    # Fraction kernel values reach the series as "p/q", ready for JSON
    vf = projection_criterion(DeltaMetric(natline, const_delta(natline, Fraction(3, 2))), w)
    doc = vf.to_json()
    assert doc["diagnostics"]["series"][0] == ["3/2", "3/2"]
    assert json.loads(json.dumps(doc)) == doc and revalidate(vf)
    asym = compose(subset_metric(natline, set_family("evens")),
                   PointMetric(natline, (0,)))
    with pytest.raises(DomainError):
        projection_criterion(asym, w)


def test_projection_criterion_takes_a_delta_with_no_serialized_form(natline):
    # a delta kernel is symmetric, so its own adjoint: no document is built
    # to say so, and a delta given by a callable alone is accepted
    w = Window(10)
    two = DeltaMetric(natline, DeltaFunction(natline, lambda pts: [2] * len(pts), "two"))
    with pytest.raises(DomainError, match="no serializable form"):
        two.to_json()
    assert two.is_selfadjoint()
    want = projection_criterion(DeltaMetric(natline, const_delta(natline, 2)), w).to_json()
    assert projection_criterion(two, w).to_json() == want
    # structure decides: compose(b_evens, zero_at 0)* is compose(zero_at 0,
    # b_evens), another kernel, so this one is not its own adjoint
    asym = compose(subset_metric(natline, set_family("evens")), PointMetric(natline, (0,)))
    assert not asym.is_selfadjoint()


def test_closed_form_is_its_own_adjoint_only_when_built_symmetric(natline):
    # a closed form not declared symmetric is not its own adjoint, even when
    # its expression is symmetric: structure decides, and neither the closed
    # form nor its adjoint has a document to compare
    d = ClosedFormMetric(natline, lambda x, y: abs(x[0] - y[0]) + 1, "gap+1")
    adj = d.adjoint()
    assert adj is not d and adj.adjoint() is d
    for k in (d, adj):
        with pytest.raises(DomainError, match=f"^{k.kind} kernel has no serializable form"):
            k.to_json()
    assert not d.is_selfadjoint() and not adj.is_selfadjoint()
    with pytest.raises(DomainError, match="selfadjoint"):
        projection_criterion(d, Window(4))
    sym = ClosedFormMetric(natline, d.fn, "gap+1", symmetric=True)
    assert sym.adjoint() is sym and sym.is_selfadjoint()


def test_projection_criterion_on_a_max_kernel_reads_its_adjoint(natline, monkeypatch):
    # the adjoint of a max is the max of the parts' adjoints: the kernel
    # itself when each part is its own adjoint (compose(d2, d2) is, as d2 is
    # its own), a new max when a part (here compose(d2, z)) builds a new one,
    # and the criterion refuses that max
    w = Window(8)
    d1 = DeltaMetric(natline, const_delta(natline, 2))
    d2 = metric_from_levels(levels_from_subset(natline, set_family("multiples", k=3)))
    z = PointMetric(natline, (0,))
    adjoint, calls = MaxMetric.adjoint, []
    monkeypatch.setattr(MaxMetric, "adjoint", lambda self: calls.append(self) or adjoint(self))
    pts = window_points(natline, w)
    for d, own in ((MaxMetric(d1, d2), True), (MaxMetric(d1, compose(d2, d2)), True),
                   (MaxMetric(d1, compose(d2, z)), False)):
        calls.clear()
        if own:
            v = projection_criterion(d, w)
            assert v.certified and revalidate(v)
        else:
            with pytest.raises(DomainError, match="selfadjoint"):
                projection_criterion(d, w)
        assert calls == [d]
        adj = adjoint(d)
        assert (adj is d) is own
        parts = (d.d1.adjoint(), d.d2.adjoint())
        for x in pts:
            for y in pts:
                assert adj.cross(x, y, w).value == max(p.cross(x, y, w).value for p in parts)


def test_f_map_and_check_cm(natline):
    w = Window(24)
    z = PointMetric(natline, (0,))
    f = f_map(z)
    assert [f((x,)) for x in range(4)] == [1, 3, 5, 7]
    assert check_cm(f, w)["passed"]
    d1 = DeltaMetric(natline, const_delta(natline))
    assert check_cm(f_map(d1), w)["passed"]
    steep = DeltaFunction(natline, lambda pts: [3 * p[0] + 1 for p in pts], "steep")
    rep = check_cm(steep, w)
    assert not rep["passed"]
    assert rep["violation"]["x"] in ([0], [1]) and rep["violation"]["gap"] == 3


def test_meet_join_examples(natline):
    l1 = levels_from_metric(subset_metric(natline, set_family("multiples", k=4)))
    l2 = levels_from_metric(subset_metric(natline, set_family("multiples", k=4, r=2)))
    assert meet(l1, l2).level((0,)) == 5
    assert meet(l1, l1).level((3,)) == l1.level((3,))
    assert join(l1, l1).level((3,)) == l1.level((3,))
    assert meet(l1, unit_levels(natline)).level((6,)) == l1.level((6,))


levels_pool = st.sampled_from([
    ("unit", None), ("zero", None), ("subset", "evens"), ("subset", "odds"),
    ("subset", "squares"), ("subset", "powers2"), ("multiples", 3)])


def _make_levels(space, spec):
    kind, arg = spec
    if kind == "unit":
        return unit_levels(space)
    if kind == "zero":
        return zero_levels(space)
    if kind == "multiples":
        return levels_from_subset(space, set_family("multiples", k=arg))
    fam = {"evens": set_family("evens"), "odds": set_family("odds"),
           "squares": set_family("squares"),
           "powers2": set_family("powers", base=2)}[arg]
    return levels_from_subset(space, fam)


@given(a=levels_pool, b=levels_pool, c=levels_pool, x=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_lattice_laws_pointwise(a, b, c, x):
    space = space_by_name("NatLine")
    e, f, g = (_make_levels(space, s) for s in (a, b, c))
    p = (x,)
    le, lf, lg = e.level(p), f.level(p), g.level(p)
    assert meet(e, f).level(p) == meet(f, e).level(p) == max(le, lf)
    assert join(e, f).level(p) == min(le, lf)
    assert meet(e, meet(f, g)).level(p) == meet(meet(e, f), g).level(p)
    assert join(e, join(f, g)).level(p) == join(join(e, f), g).level(p)
    assert meet(e, join(e, f)).level(p) == le
    assert join(e, meet(e, f)).level(p) == le
    assert meet(e, e).level(p) == le
    assert meet(e, join(f, g)).level(p) == join(meet(e, f), meet(e, g)).level(p)
    assert join(e, meet(f, g)).level(p) == meet(join(e, f), join(e, g)).level(p)


def test_order_compatibility(natline):
    e = levels_from_subset(natline, set_family("powers", base=2))
    f = unit_levels(natline)
    # e dominates f pointwise, so meet(e, f) = e pointwise
    for x in window_points(natline, Window(20)):
        assert e.level(x) >= f.level(x)
        assert meet(e, f).level(x) == e.level(x)


def test_metric_meet_join(natline):
    w = Window(48)
    d1 = metric_from_levels(levels_from_subset(natline, set_family("multiples", k=4)))
    d2 = metric_from_levels(levels_from_subset(natline, set_family("multiples", k=4, r=2)))
    dm = metric_meet(d1, d2, w)
    dj = metric_join(d1, d2, w)
    assert check_axioms(dm, Window(20)).passed
    assert check_axioms(dj, Window(20)).passed
    assert projection_criterion(dj, Window(20), grid=[(0, 2)]).certified
    # the closed-form subset kernels realize the worked diagonal value
    b1 = subset_metric(natline, set_family("multiples", k=4))
    b2 = subset_metric(natline, set_family("multiples", k=4, r=2))
    bmax = metric_meet(b1, b2, w)
    assert evaluate(bmax, (1,), (1,), w).value == 3
    f1, f2 = f_map(d1), f_map(d2)
    fm, fj = f_map(dm), f_map(dj)
    for x in window_points(natline, Window(16)):
        assert fm(x) == max(f1(x), f2(x))
        assert fj(x) == min(f1(x), f2(x))
    nonproj = compose(subset_metric(natline, set_family("evens")),
                      subset_metric(natline, set_family("odds")))
    with pytest.raises(DomainError):
        metric_meet(nonproj, d1, w)


def test_cm_lattice_closure(natline):
    w = Window(32)
    f = f_map(subset_metric(natline, set_family("evens")))
    g = f_map(PointMetric(natline, (0,)))
    assert check_cm(cm_meet(f, g), w)["passed"]
    assert check_cm(cm_join(f, g), w)["passed"]


def test_source_and_range(natline):
    w = Window(24)
    z = PointMetric(natline, (0,))
    src = source_projection(z)
    assert [src.level((x,)) for x in range(5)] == [1, 2, 3, 4, 5]
    # selfadjoint kernels have equal source and range
    rng_ = source_projection(z.adjoint())
    for x in window_points(natline, Window(10)):
        assert src.level(x) == rng_.level(x)
    bA = subset_metric(natline, set_family("evens"))
    bB = subset_metric(natline, set_family("odds"))
    c = compose(bA, bB)
    sl = source_projection(c, w)
    # oracle: d(x, X') for the composition via direct window minimization
    pts = window_points(natline, w)
    for x in window_points(natline, Window(8)):
        brute = min(evaluate(c, x, y, w).value for y in pts)
        assert sl.level(x) == max(1, math.ceil(brute))


def test_classify_type(natline):
    assert classify_type(levels_from_subset(natline, set_family("evens")),
                         Window(256)).value == "type-I"
    vu = classify_type(unit_levels(natline), Window(256))
    assert vu.value == "type-I" and vu.diagnostics["n"] == 1
    assert all(k == 0 for _, k in vu.witness.table)


@pytest.mark.parametrize("spec, n_cores", [("log2", 8), ("evens", 1)])
def test_classify_type_reads_its_window_once(natline, counted, spec, n_cores):
    # one sweep enumeration, handed to every core's equivalence check, and one
    # set_distances read of d_X(., A_n) per core level: on NatLine a window is
    # a run, so that read searches from its two ends only
    e = (expression_levels(natline, "log2") if spec == "log2"
         else levels_from_subset(natline, set_family("evens")))
    windows, searches = counted("window_points"), counted("dist_to_set")
    v = classify_type(e, Window(256))
    assert v.value == ("type-I" if spec == "evens" else "unclassified")
    cores = {f"[{e.name}<={n}]" for n in range(1, 9)}
    core_searches = [(A.name, x) for _, x, A in searches if A.name in cores]
    assert len(windows) == 1
    assert len(core_searches) == len(set(core_searches)) == 2 * n_cores


@pytest.mark.parametrize("radii", [[2, 8, 40], [4, 16, 48], [1, 4, 64]])
def test_classify_type_with_hand_radii_enumerates_once(natline, counted, radii):
    # the sweep and the k table's window come from one enumeration, the
    # window's own ball, which holds every sweep ball
    e = expression_levels(natline, "log2")
    windows = counted("window_points")
    v = classify_type(e, Window(64), radii=radii)
    assert len(windows) == 1
    assert windows[0][1].radius == 64
    assert revalidate(v)


def test_classify_type_rejects_radii_beyond_the_window(natline):
    # a verdict certified on Window(64) may not read the radius-100 ball
    with pytest.raises(DomainError, match=r"window's radius 64, got \[4, 16, 100\]"):
        classify_type(expression_levels(natline, "log2"), Window(64), radii=[4, 16, 100])


def test_classify_type_bad_radii_name_the_given_radii(natline):
    for radii in ([16, 8, 4], [-4, 8, 16], [8, 8]):
        with pytest.raises(DomainError, match=str(radii).replace("[", r"\[")
                           .replace("]", r"\]")):
            classify_type(expression_levels(natline, "log2"), Window(64), radii=radii)


def test_projection_criterion_of_a_separable_composition_is_window_limited(natline):
    # b_A o b_A with A the evens: d(x, x') = 2 d(x, A) + 2 + min_y 2 d(y, A) and
    # d(x, X') = d(x, A) + 2, but a window scan certifies neither
    bA = subset_metric(natline, set_family("evens"))
    v = projection_criterion(compose(bA, bA), Window(8))
    assert not v.certified
    assert v.diagnostics["reason"] == "window-limited evaluation"
    assert v.diagnostics["exact"] is False
    assert v.diagnostics["points"] == [[[x], 2 * (x % 2) + 2, x % 2 + 2] for x in range(9)]


def test_comparison_lemma(natline):
    # if b_B dominates d_A pointwise on the window then B sits in a sublevel
    e = levels_from_subset(natline, set_family("evens"))
    dA = metric_from_levels(e)
    B = PointSet.from_points([(0,), (4,), (10,)])
    dB = metric_from_levels(levels_from_subset(natline, B))
    w = Window(32)
    pts = window_points(natline, Window(12))
    dominated = all(evaluate(dB, x, y, w).value >= evaluate(dA, x, y, w).value
                    for x in pts for y in pts)
    assert dominated
    n_cap = max(e.level(x) for x in pts)
    assert all(e.level(b) <= n_cap for b in B.points)


def test_source_type_transfers_to_range(natline):
    # desk-scale Lemma: for compositions of subset kernels, if the source is
    # window-certified type I then so is the range
    bA = subset_metric(natline, set_family("evens"))
    bB = subset_metric(natline, set_family("multiples", k=3))
    c = compose(bA, bB)
    w = Window(256)
    src = source_projection(c, w)
    rng_ = source_projection(c.adjoint(), w)
    vs = classify_type(src, w)
    vr = classify_type(rng_, w)
    assert vs.value == "type-I" and vr.value == "type-I"


# one constructor per kind; the meet/join tree mixes a reader over point
# lists (subset levels) with per-point rules (expression, from-metric)
KINDS = {
    "unit": unit_levels,
    "zero": lambda s: zero_levels(s, (5,)),
    "subset": lambda s: levels_from_subset(s, set_family("squares")),
    "expression": lambda s: expression_levels(s, "ceil-sqrt"),
    "from-metric": lambda s: levels_from_metric(subset_metric(s, set_family("evens"))),
    "from-metric-window": lambda s: levels_from_metric(
        compose(subset_metric(s, set_family("evens")),
                subset_metric(s, set_family("multiples", k=3))), Window(24)),
    "source-projection": lambda s: source_projection(
        subset_metric(s, set_family("multiples", k=3))),
    "recovered": lambda s: recovered_levels(
        ApproximateUnit(levels_from_subset(s, set_family("powers", base=2)))),
    "meet-join": lambda s: join(meet(levels_from_subset(s, set_family("odds")),
                                     expression_levels(s, "log2")),
                                levels_from_metric(subset_metric(s, set_family("squares")))),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("order", ["run", "reversed"])
def test_levels_read_matches_per_point_reads(natline, kind, order):
    pts = window_points(natline, Window(20))
    if order == "reversed":
        pts = pts[::-1]
    by_point = KINDS[kind](natline)
    want = [by_point.level(x) for x in pts]
    assert KINDS[kind](natline).levels(pts) == want


def test_every_kind_has_a_constructor_case(natline):
    assert {make(natline).kind for make in KINDS.values()} == {
        "unit", "zero", "from-subset", "expression", "from-metric", "from-metric-window",
        "recovered", "combined"}


def test_level_below_one_is_a_domain_error(natline):
    bad = levels_from_expression(natline, "bad", lambda p: 0 if p[0] in (2, 4) else 1)
    with pytest.raises(DomainError, match=r"gave 0 < 1 at \(4,\)"):
        bad.levels([(3,), (4,), (6,)])
    with pytest.raises(DomainError, match=r"gave 0 < 1 at \(2,\)"):
        bad.level((2,))
    assert bad.level((3,)) == 1


def _mod4(space):
    return LevelFunction(space, lambda pts: [1 + p[0] % 4 for p in pts], "mod4", "expression")


# level and copy-gap functions share one cache-and-read class: ``values``
# (``levels`` for a level function) reads a list, the one-point read below
# reads a point
LIST_READERS = {
    "levels": _mod4,
    "const-int": lambda s: const_delta(s, 3),
    "const-fraction": lambda s: const_delta(s, Fraction(3, 2)),
    "delta-from-levels": lambda s: delta_from_levels(_mod4(s)),
    "min-glue": lambda s: MinGlueMetric(subset_metric(s, set_family("evens")),
                                        metric_from_levels(zero_levels(s))).delta,
    "fraction-reader": lambda s: DeltaFunction(
        s, lambda pts: [1 + Fraction(p[0] % 3, 2) for p in pts], "frac"),
}


def _one_point(f):
    return f.level if isinstance(f, LevelFunction) else f


def _recording(f):
    """The point lists that f's reader is handed from now on."""
    reads, fn = [], f.fn

    def recorded(pts):
        reads.append(list(pts))
        return fn(pts)

    f.fn = recorded
    return reads


@pytest.mark.parametrize("kind", sorted(LIST_READERS))
def test_levels_match_level_with_repeats_and_a_warm_cache(natline, kind):
    make = LIST_READERS[kind]
    pts = [(5,), (2,), (5,), (9,), (2,), (0,)]
    one = _one_point(make(natline))
    want = [one(x) for x in pts]
    assert make(natline).values(pts) == want
    assert make(natline).values(pts[::-1]) == want[::-1]
    assert LevelFunction.levels is LevelFunction.values
    warm = make(natline)
    _one_point(warm)((2,))
    _one_point(warm)((9,))
    reads = _recording(warm)
    assert warm.values(pts) == want
    # one read, of the points not yet cached, in list order
    assert reads == [[(5,), (5,), (0,)]]


@pytest.mark.parametrize("kind", sorted(LIST_READERS))
def test_cold_read_is_one_reader_call(natline, kind):
    # a list with no cached point goes to the reader whole, in one call, and
    # its values come back from that call; a warm list calls no reader, and a
    # partly warm one hands the reader only its missing points
    make = LIST_READERS[kind]
    pts = [(5,), (2,), (5,), (9,), (2,), (0,)]
    one = _one_point(make(natline))
    f = make(natline)
    reads = _recording(f)
    got = f.values(pts)
    assert got == [one(x) for x in pts]
    assert reads == [pts]
    got[0] = 0  # the caller's list: a later read still gives the values
    assert f.values(pts) == [one(x) for x in pts]
    assert reads == [pts]
    more = [(9,), (7,), (2,), (8,), (7,)]
    assert f.values(more) == [one(x) for x in more]
    assert reads == [pts, [(7,), (8,), (7,)]]
    # no point of the list is cached, though the cache is not empty
    fresh = [(11,), (12,), (11,)]
    assert f.values(fresh) == [one(x) for x in fresh]
    assert reads[-1] == fresh
    assert f.values([]) == [] and len(reads) == 3


LIST = [(5,), (2,), (5,), (9,)]

# (read, argument) steps, and the point lists the reader is handed: a
# whole-list read, equal and repeated lists, points in and outside the
# read, partly cached and uncached lists, and a function read first at a
# point; the same lists that a cache of one dict entry per point hands it
READ_SCRIPTS = {
    "whole-first": ([("values", LIST), ("values", list(LIST)), ("values", LIST),
                     ("point", (2,)), ("point", (7,)), ("point", (7,)),
                     ("values", [(9,), (7,), (3,), (4,), (3,)]),
                     ("values", [(11,), (12,)]), ("values", LIST), ("point", (12,))],
                    [LIST, [(7,)], [(3,), (4,), (3,)], [(11,), (12,)]]),
    "whole-then-overlap": ([("values", LIST), ("values", [(2,), (6,), (9,)]),
                            ("values", LIST), ("point", (6,)), ("values", [(6,), (2,)])],
                           [LIST, [(6,)]]),
    "whole-then-disjoint": ([("values", LIST), ("values", [(1,), (3,), (1,)]),
                             ("point", (1,)), ("point", (5,)), ("values", [])],
                            [LIST, [(1,), (3,), (1,)]]),
    "point-first": ([("point", (4,)), ("values", LIST), ("values", LIST),
                     ("point", (9,)), ("values", [(4,), (5,)])],
                    [[(4,)], LIST]),
}


def _run_script(f, steps):
    one = _one_point(f)
    return [f.values(arg) if how == "values" else one(arg) for how, arg in steps]


@pytest.mark.parametrize("script", sorted(READ_SCRIPTS))
@pytest.mark.parametrize("kind", sorted(LIST_READERS))
def test_reads_hand_the_reader_the_same_lists(natline, kind, script):
    # the first whole-list read is kept as one pending pair, not one cache
    # entry per point; any read that it does not answer moves it into the
    # cache first, so the reader sees exactly the lists listed above
    make = LIST_READERS[kind]
    steps, lists = READ_SCRIPTS[script]
    one = _one_point(make(natline))
    want = [[one(x) for x in arg] if how == "values" else one(arg) for how, arg in steps]
    f = make(natline)
    reads = _recording(f)
    assert _run_script(f, steps) == want
    assert reads == lists


def test_an_equal_list_is_answered_by_a_copy(natline):
    f = _mod4(natline)
    reads = _recording(f)
    pts = window_points(natline, Window(9))
    first = f.levels(pts)
    again = f.levels(list(pts))
    assert again == first and again is not first and len(reads) == 1
    again[0] = 0
    pts[0] = (3,)  # the caller's lists may change; the kept copy does not
    assert f.levels(window_points(natline, Window(9))) == first and len(reads) == 1


def test_threads_reading_one_function_at_once_get_the_serial_values(natline):
    # four threads on two cores, switching often, run every read script on
    # one shared function each: whichever thread keeps, settles or reads
    # past the pending pair, every read gives the serial values
    steps = [step for script in sorted(READ_SCRIPTS) for step in READ_SCRIPTS[script][0]]
    steps += [("values", window_points(natline, Window(300))), ("point", (299,))]
    serial = _run_script(_mod4(natline), steps)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            f = _mod4(natline)
            start = threading.Barrier(4, timeout=60)

            def read(order, f=f, start=start):
                start.wait()
                got = _run_script(f, [steps[i] for i in order])
                return [got[order.index(i)] for i in range(len(steps))]

            orders = [list(range(len(steps))), list(range(len(steps)))[::-1]] * 2
            with ThreadPoolExecutor(4) as pool:
                runs = [pool.submit(read, order) for order in orders]
                results = [run.result(timeout=60) for run in runs]
            assert results == [serial] * 4
            assert all(v == 1 + x[0] % 4 for x, v in f._cache.items())
    finally:
        sys.setswitchinterval(interval)


def test_cold_read_returns_the_readers_list(natline):
    # one pass: the validated list of a cold read is returned as the reader
    # gave it; a warm read builds a new list from the cache
    made = []

    def reader(pts):
        made.append([1 + p[0] % 4 for p in pts])
        return made[-1]

    f = LevelFunction(natline, reader, "mod4", "expression")
    pts = window_points(natline, Window(9))
    assert f.levels(pts) is made[0]
    warm = f.levels(pts)
    assert warm == made[0] and warm is not made[0] and len(made) == 1


def test_meet_and_join_pick_as_max_and_min_do(natline):
    # the combined readers compare as max and min do: on equal levels of
    # different types the first operand's level is kept
    e = LevelFunction(natline, lambda pts: [1 + p[0] % 3 for p in pts], "ints", "expression")
    f = LevelFunction(natline, lambda pts: [Fraction(1 + p[0] % 2) for p in pts], "fracs",
                      "expression")
    pts = window_points(natline, Window(6))
    for a, b in ((e, f), (f, e)):
        for op, pick in ((meet, max), (join, min)):
            got = op(a, b).levels(pts)
            want = list(map(pick, a.levels(pts), b.levels(pts)))
            assert [(v, type(v)) for v in got] == [(v, type(v)) for v in want]


def test_meet_and_join_need_one_space(natline, intline):
    e, f = unit_levels(natline), unit_levels(intline)
    for op in (meet, join):
        for a, b in ((e, f), (f, e)):
            with pytest.raises(DomainError, match="operands live on different spaces"):
                op(a, b)


def _bad_readers(space, bad):
    """A reader of each kind with the values of bad at its keys, 1 elsewhere."""
    def rule(p):
        return bad.get(p[0], 1)

    return {
        "levels": levels_from_expression(space, "bad", rule),
        "delta": DeltaFunction(space, lambda pts: list(map(rule, pts)), "bad"),
        "delta-from-levels": delta_from_levels(levels_from_expression(space, "bad", rule)),
    }


@pytest.mark.parametrize("kind, what", [("levels", "level function"), ("delta", "delta"),
                                        ("delta-from-levels", "level function")])
@pytest.mark.parametrize("bad, first, least", [
    ({4: -1, 7: 0}, "0", "-1"),
    ({4: Fraction(-1, 2), 7: Fraction(1, 2)}, "1/2", "-1/2"),
])
def test_failing_read_names_the_first_bad_point_in_list_order(natline, kind, what, bad,
                                                              first, least):
    f = _bad_readers(natline, bad)[kind]
    reads = _recording(f)
    # the smallest value is at (4,), but (7,) comes first in the list
    with pytest.raises(DomainError, match=rf"^{what} bad gave {first} < 1 at \(7,\)$"):
        f.values([(3,), (7,), (4,)])
    with pytest.raises(DomainError, match=rf"^{what} bad gave {least} < 1 at \(4,\)$"):
        f.values([(3,), (4,), (7,)])
    # each cold list went to the reader whole, and the failed calls cached
    # none of their values: (3,) is read again
    assert reads == [[(3,), (7,), (4,)], [(3,), (4,), (7,)]] and not f._cache
    reads.clear()
    assert f.values([(3,), (5,)]) == [1, 1]
    assert reads == [[(3,), (5,)]]


@pytest.mark.parametrize("reader", [lambda u: 2, lambda pts: [2] * (len(pts) - 1),
                                    lambda pts: [2] * (len(pts) + 1)],
                         ids=["one-point", "short", "long"])
@pytest.mark.parametrize("kind", ["levels", "delta"])
def test_reader_of_the_wrong_shape_is_a_domain_error(natline, kind, reader):
    # a reader maps a point list to a list of as many values; a one-point
    # reader, as ``DeltaFunction`` took before, is refused by name
    f = (LevelFunction(natline, reader, "odd", "expression") if kind == "levels"
         else DeltaFunction(natline, reader, "odd"))
    what = "level function" if kind == "levels" else "delta"
    message = rf"^{what} odd must give a list of one value per point$"
    with pytest.raises(DomainError, match=message):
        f.values([(3,), (4,)])
    with pytest.raises(DomainError, match=message):
        _one_point(f)((3,))
    assert not f._cache


def _quarter_steps():
    """Four points at distances |i - j| / 4, on a table metric."""
    return CustomSpace([(i,) for i in range(4)], metric="table",
                       table=[[Fraction(abs(i - j), 4) for j in range(4)] for i in range(4)])


def test_subset_levels_of_fraction_distances():
    # a table metric with distances 1/4, 1/2 and 3/4 from the member (0,)
    space = _quarter_steps()
    A = PointSet.from_points([(0,)])
    pts = window_points(space, Window(1))
    ds = set_distances(space, pts, A)
    assert ds == [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    want = [max(1, math.ceil(2 * d)) for d in ds]
    assert want == [1, 1, 1, 2]
    assert levels_from_subset(space, A).levels(pts) == want


def test_validate_reports_a_level_that_jumps_within_half_a_step():
    # (2,) lies 1/2 from (0,), so its level may exceed level 1 by at most one
    space = _quarter_steps()
    jump = levels_from_expression(space, "jump", lambda p: 1 if p[0] < 2 else 3)
    rep = jump.validate(Window(1))
    assert rep["e2_expanding"] is False and rep["passed"] is False
    assert rep["violation"] == {"x": [0], "y": [2]}
    assert levels_from_expression(space, "step", lambda p: 1 if p[0] < 2 else 2
                                  ).validate(Window(1))["passed"]
    # on the integer lines ball(x, 1/2) is {x}: no jump can fail e2 there
    natline = space_by_name("NatLine")
    assert levels_from_expression(natline, "jump", lambda p: 1 if p[0] < 2 else 4
                                  ).validate(Window(6))["passed"]
