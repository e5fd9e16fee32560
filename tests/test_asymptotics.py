import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarsedouble import (PointMetric, classify_type, equivalent, is_zero,
                          levels_from_metric, levels_from_subset, meet,
                          powers_tail_base, tau, transfer, unit_levels, zero_levels)
from coarsedouble.asymptotics import (TransferTable, _escapes, _merged_samples,
                                      sweep_radii, sweep_windows)
from coarsedouble.boolalg import _below
from coarsedouble.errors import DomainError
from coarsedouble.serialize import expression_levels, parse_levels
from coarsedouble.space import (CustomSpace, Window, set_family, space_by_name,
                                window_points)
from coarsedouble.verdicts import (AffineWitness, Status, TabulatedWitness,
                                   revalidate)
from conftest import BRUTE_WINDOWS


def test_transfer_examples(natline):
    e = levels_from_subset(natline, set_family("evens"))
    w = Window(32)
    t_self = transfer(e, e, w)
    assert all(n == v for n, v in t_self.entries)
    o = levels_from_subset(natline, set_family("odds"))
    t_eo = transfer(e, o, w)
    assert t_eo.value_at(1) == 2
    assert t_eo.value_at(5) == 2
    e0 = zero_levels(natline)
    t_unit = transfer(e0, unit_levels(natline), w)
    assert all(v == 1 for _, v in t_unit.entries)


def _value_by_scan(entries, n):
    """The last entry at or below n, by a linear scan over the entries."""
    out = None
    for nn, vv in entries:
        if nn > n:
            break
        out = vv
    return out


# (source level, target level) pairs of a transfer table
_level_pairs = st.lists(st.tuples(st.integers(1, 30), st.integers(1, 40)), max_size=12)


@given(pairs=_level_pairs)
@settings(max_examples=100, deadline=None)
def test_value_at_matches_linear_scan(pairs):
    table = TransferTable.from_levels(pairs)
    # below the first jump, at and between jumps, beyond the last, and Fractions
    probes = [Fraction(k, 2) for k in range(-2, 66)]
    jumps = [n for n, _ in table.entries]
    probes += jumps + [Fraction(2 * n - 1, 2) for n in jumps]
    for n in probes:
        assert table.value_at(n) == _value_by_scan(table.entries, n)


def _merged_by_scan(t12, t21):
    """max of both step tables at the union of their jumps, each value by a
    linear scan, with value runs compacted to their first sample."""
    ns = sorted({n for n, _ in t12.entries + t21.entries})
    out, prev = {}, None
    for n in ns:
        vals = [v for v in (_value_by_scan(t12.entries, n), _value_by_scan(t21.entries, n))
                if v is not None]
        if not vals:
            continue
        v = max(vals)
        if v != prev:
            out[n] = v
            prev = v
    return out


@given(pairs12=_level_pairs, pairs21=_level_pairs)
@settings(max_examples=100, deadline=None)
def test_merged_samples_match_scan(pairs12, pairs21):
    t12, t21 = TransferTable.from_levels(pairs12), TransferTable.from_levels(pairs21)
    merged = _merged_samples(t12, t21)
    expected = _merged_by_scan(t12, t21)
    assert merged == expected and list(merged) == list(expected)


def test_transfer_composition_dominance(natline):
    w = Window(48)
    e1 = levels_from_subset(natline, set_family("evens"))
    e2 = levels_from_subset(natline, set_family("squares"))
    e3 = zero_levels(natline)
    t12, t23, t13 = transfer(e1, e2, w), transfer(e2, e3, w), transfer(e1, e3, w)
    for n, v in t13.entries:
        mid = t12.value_at(n)
        if mid is None:
            continue
        top = t23.value_at(mid)
        if top is not None:
            assert v <= top


def test_equivalent_reflexive_and_symmetric(natline):
    e = levels_from_subset(natline, set_family("squares"))
    f = levels_from_subset(natline, set_family("evens"))
    w = Window(256)
    for mode in ("quasi", "coarse"):
        vr = equivalent(e, e, mode, w)
        assert vr.certified
        ab = equivalent(e, f, mode, w)
        ba = equivalent(f, e, mode, w)
        assert ab.status == ba.status


def test_equivalent_shift_pair(natline):
    e1 = levels_from_metric(PointMetric(natline, (0,)))
    e2 = zero_levels(natline)
    v = equivalent(e1, e2, "quasi", Window(256))
    assert v.certified
    assert v.witness.to_json() == {"kind": "affine", "alpha": 1, "beta": 1}


def test_equivalent_power_law_pair(natline):
    ea = expression_levels(natline, "ceil-sqrt")
    eb = expression_levels(natline, "ceil-cbrt")
    w = Window(1024)
    vq = equivalent(ea, eb, "quasi", w)
    vc = equivalent(ea, eb, "coarse", w)
    assert vq.status is Status.INCONCLUSIVE
    assert vq.diagnostics["minimal_witnesses"]  # diagnostics carry the trend
    assert vc.certified


def test_quasi_implies_coarse(natline):
    pairs = [
        (levels_from_metric(PointMetric(natline, (0,))), zero_levels(natline)),
        (levels_from_subset(natline, set_family("evens")),
         levels_from_subset(natline, set_family("odds"))),
        (unit_levels(natline), unit_levels(natline)),
    ]
    w = Window(256)
    for e, f in pairs:
        if equivalent(e, f, "quasi", w).certified:
            assert equivalent(e, f, "coarse", w).certified


def test_is_zero_examples(natline, geomline):
    v = is_zero(zero_levels(natline), "quasi", Window(256))
    assert v.certified and v.value == "zero"
    assert v.witness.to_json() == {"kind": "affine", "alpha": 0, "beta": 1}
    # the unit is not zero, but escape evidence proves no nonzero class
    vu = is_zero(unit_levels(natline), "coarse", Window(256))
    assert vu.status is Status.INCONCLUSIVE
    assert vu.value == "zero?"
    e1 = levels_from_subset(geomline, set_family("powers", base=4))
    e2 = levels_from_subset(geomline, set_family("powers", base=4, scale=2))
    vz = is_zero(meet(e1, e2), "coarse", Window(1024))
    assert vz.certified and vz.value == "zero"


def test_is_zero_json_ready_on_rational_distances():
    # a finite space is bounded, so its unit is zero; the levels of zero
    # round the rational distances up, and the sweep radii stay rational
    space = CustomSpace([(0,), (1,), (2,)], metric="table",
                        table=[[0, "1/2", "3/4"], ["1/2", 0, "1/2"], ["3/4", "1/2", 0]])
    v = is_zero(unit_levels(space), "coarse", Window(5))
    doc = v.to_json()
    assert v.certified and doc["diagnostics"]["series"] == [[1, 2]]
    assert doc["diagnostics"]["order_test"]["diagnostics"]["radii"] == [1, "5/4", 5]
    assert json.loads(json.dumps(doc)) == doc and revalidate(v)


def test_escape_evidence_lists(natline):
    # entries whose value grew strictly at each of the three sweep radii,
    # t12 direction before t21, each in increasing level order
    v = equivalent(expression_levels(natline, "ceil-sqrt"),
                   expression_levels(natline, "log2"), "quasi", Window(1024))
    assert v.diagnostics["escape"] == [
        {"n": 23, "growth": [7, 9, 10]}, {"n": 32, "growth": [7, 9, 11]},
        {"n": 9, "growth": [9, 17, 23]}, {"n": 10, "growth": [9, 17, 32]},
        {"n": 11, "growth": [9, 17, 33]}]
    vu = is_zero(unit_levels(natline), "coarse", Window(256))
    assert vu.diagnostics["order_test"]["diagnostics"]["escape"] == [
        {"n": 1, "growth": [32, 128, 512]}]


def _escapes_by_sampling(tables):
    """The escape rule as two passes: every table sampled at the union of
    all their jumps where it is defined, by ``value_at``, then the levels
    sampled by every table whose values grow strictly from table to table."""
    if len(tables) < 3:
        return []
    ns = sorted({n for t in tables for n, _ in t.entries})
    samples = [{n: v for n in ns if (v := t.value_at(n)) is not None} for t in tables]
    common = set(samples[0]).intersection(*samples[1:])
    out = []
    for n in sorted(common):
        vals = [s[n] for s in samples]
        if all(b > a for a, b in zip(vals, vals[1:])):
            out.append((n, vals))
    return out


_tables = st.lists(_level_pairs.map(TransferTable.from_levels), max_size=5)


@given(tables=_tables)
@example(tables=[TransferTable(((1, 5),)), TransferTable(((1, 5),)),
                 TransferTable(((1, 7),))])  # equal values at one step: no escape
@example(tables=[TransferTable(((1, 2), (4, 3))), TransferTable(((3, 4),)),
                 TransferTable(((2, 5), (Fraction(7, 2), 9)))])  # undefined below 3
@example(tables=[TransferTable(((1, 2), (5, 9))), TransferTable(((1, 3), (2, 4))),
                 TransferTable(((1, 4), (3, 5)))])  # not nested: 9 falls to 4
@settings(max_examples=300, deadline=None)
def test_escapes_equal_the_sampled_rule(tables):
    # tables of independent random pairs are not nested, and each is
    # undefined below its first jump
    assert _escapes(tables) == _escapes_by_sampling(tables)


# level specs with a hand-stated truth per space (NatLine, IntLine, GeomLine):
# are all their sublevel sets bounded, that is, is the class zero?  A subset's
# sublevels are neighbourhoods of the subset, so they are bounded exactly when
# the subset is; an expression's levels grow without bound, the unit's do not.
# None marks a spec whose set has no member in the space.
ZERO_TABLE = {
    "unit": (False, False, False),
    "zero": (True, True, True),
    "zero:3": (True, True, None),
    "expr:log2": (True, True, True),
    "expr:ceil-sqrt": (True, True, True),
    "expr:ceil-cbrt": (True, True, True),
    "subset:evens": (False, False, False),
    "~subset:evens": (False, False, None),
    "subset:powers:2": (False, False, False),
    "subset:halfline:+:10": (False, False, False),
    "subset:halfline:-:0": (True, False, None),
    "subset:multiples:3": (False, False, None),
    "subset:points:0;5": (True, True, None),
}
ZERO_SPACES = ("NatLine", "IntLine", "GeomLine")


@pytest.mark.parametrize("space_name, spec, bounded", [
    (name, spec, row[i]) for spec, row in ZERO_TABLE.items()
    for i, name in enumerate(ZERO_SPACES) if row[i] is not None])
def test_is_zero_matches_bounded_sublevels(space_name, spec, bounded):
    space = space_by_name(space_name)
    e = parse_levels(space, spec)
    for radius in (16, 64, 256, 1024):
        w = Window(radius)
        v, vq = is_zero(e, "coarse", w), is_zero(e, "quasi", w)
        # in coarse mode the zero test is the order test e <= 0
        below = _below(e, zero_levels(space), w)
        assert v.status is below.status and v.diagnostics["order_test"] == below.to_json()
        if not bounded:
            assert not v.certified and not vq.certified, (radius, v.value, vq.value)
        elif radius >= 64:
            assert v.certified, (radius, v.diagnostics["reason"])
        for u in (v, vq):
            assert u.value == ("zero" if u.certified else "zero?")
            assert revalidate(u)


@pytest.mark.parametrize("space_name, spec", [
    ("NatLine", "expr:ceil-cbrt"), ("NatLine", "subset:points:0;5"),
    ("IntLine", "zero:3"), ("IntLine", "expr:ceil-cbrt"),
    ("IntLine", "subset:points:0;5"), ("GeomLine", "expr:ceil-sqrt")])
def test_is_zero_is_inconclusive_on_small_windows_of_zero_classes(space_name, spec):
    # zero classes whose transfer tables still move at radius 16, some with
    # escaping entries: that is no proof of a nonzero class
    v = is_zero(parse_levels(space_by_name(space_name), spec), "coarse", Window(16))
    assert v.status is Status.INCONCLUSIVE and v.value == "zero?"


def test_zero_absorbing_for_meet(natline):
    z = zero_levels(natline)
    for e in (levels_from_subset(natline, set_family("evens")),
              unit_levels(natline), z):
        ve = is_zero(meet(e, z), "coarse", Window(256))
        assert ve.certified and ve.value == "zero"


def test_sweep_radii_factor_four():
    assert sweep_radii(Window(1024)) == [64, 256, 1024]
    assert sweep_radii(Window(8)) == [1, 2, 8]


@pytest.mark.parametrize("name,base,radii", [
    ("NatLine", None, [1, 4, 16]),
    ("NatLine", (10,), [Fraction(5, 2), 6, 20]),
    ("IntLine", None, [0, 3, Fraction(33, 4)]),
    ("IntLine", (-7,), [0, Fraction(7, 3), 9]),
    ("GeomLine", None, [4, 64, 1024]),
    ("GeomLine", (16,), [Fraction(1, 2), 12, Fraction(97, 2)]),
    ("TwoTails", None, [8, 30, 120]),
    ("TwoTails", (4, 2), [3, Fraction(21, 2), 40]),
])
def test_sweep_windows_match_window_points(name, base, radii):
    # only the window's basepoint matters, not its radius
    space = space_by_name(name)
    centre = base if base is not None else space.basepoint
    got = sweep_windows(space, Window(7, base), radii)
    assert got == [window_points(space, Window(r, base)) for r in radii]
    assert got == [BRUTE_WINDOWS[name](centre, r) for r in radii]


def test_sweep_windows_on_a_custom_space():
    space = CustomSpace([(i, j) for i in range(6) for j in range(3)], basepoint=(2, 1))
    radii = [1, Fraction(5, 2), 4]
    for base in (None, (0, 0)):
        centre = base or space.basepoint
        got = sweep_windows(space, Window(1, base), radii)
        assert got == [window_points(space, Window(r, base)) for r in radii]
        assert got == [[p for p in sorted(space._points)
                        if abs(p[0] - centre[0]) + abs(p[1] - centre[1]) <= r]
                       for r in radii]


@pytest.mark.parametrize("radii", [[], [8, 8, 8], [16, 8, 4], [-4, 8, 16], [2, 1]])
def test_sweep_windows_reject_bad_radii(natline, radii):
    with pytest.raises(DomainError, match="strictly increasing"):
        sweep_windows(natline, Window(16), radii)


def test_equivalent_rejects_repeated_radii(natline):
    # a window compared with itself would certify anything stable
    e = expression_levels(natline, "log2")
    with pytest.raises(DomainError, match="strictly increasing"):
        equivalent(e, e, "coarse", Window(8), radii=[8, 8, 8])


def test_equivalent_rejects_radii_beyond_the_window(natline):
    # a verdict certified on Window(8) may not read the radius-40 ball
    e = expression_levels(natline, "log2")
    with pytest.raises(DomainError, match=r"window's radius 8, got \[1, 2, 40\]"):
        equivalent(e, e, "coarse", Window(8), radii=[1, 2, 40])


@pytest.mark.parametrize("verdict", [
    lambda e, w: equivalent(e, e, "coarse", w),
    lambda e, w: is_zero(e, "coarse", w),
    lambda e, w: classify_type(e, w),
    lambda e, w: tau(powers_tail_base(2), e, w),
], ids=["equivalent", "is_zero", "classify_type", "tau"])
def test_sweep_verdicts_need_three_distinct_radii(natline, verdict):
    # the sweep of a radius-0 window would read the radius-1 ball outside it,
    # and up to radius 4 R/16 and R/4 are both raised to 1, which leaves one
    # or two radii, too few to read stability from
    for radius in (0, 1, 2, 4):
        with pytest.raises(DomainError, match="radius above 4"):
            verdict(expression_levels(natline, "log2"), Window(radius))
    assert sweep_radii(Window(5)) == [1, Fraction(5, 4), 5]


def test_witness_revalidation(natline, geomline):
    verdicts = [
        equivalent(levels_from_metric(PointMetric(natline, (0,))),
                   zero_levels(natline), "quasi", Window(256)),
        is_zero(zero_levels(natline), "coarse", Window(256)),
        equivalent(expression_levels(natline, "ceil-sqrt"),
                   expression_levels(natline, "ceil-cbrt"), "coarse", Window(1024)),
    ]
    for v in verdicts:
        assert v.certified
        assert revalidate(v)


def test_tabulated_witness_extension():
    t = TabulatedWitness(((1, 2), (3, 4), (5, 8)))
    assert t.bound(5) == 8
    assert t.bound(7) == 12  # extended by the last slope 2
    assert t.bound(0) == 2
    assert t.dominates([(1, 2), (4, 6)])
    assert not t.dominates([(1, 3)])
    with pytest.raises(DomainError):
        TabulatedWitness(((1, 5), (2, 3)))


def test_tabulated_witness_extends_short_and_vertical_tables_by_slope_one():
    # one entry, or two at the same n, give no slope: the extension is 1
    one = TabulatedWitness(((2, 3),))
    assert one.last_slope() == 1 and one.bound(2) == 3 and one.bound(6) == 7
    vertical = TabulatedWitness(((1, 2), (1, 5)))
    assert vertical.last_slope() == 1 and vertical.bound(4) == 8
    # a flat last step extends flat
    flat = TabulatedWitness(((1, 4), (3, 4)))
    assert flat.last_slope() == 0 and flat.bound(9) == 4
    assert TabulatedWitness(((1, 1), (4, 2))).bound(7) == 3


@given(alpha=st.integers(0, 8), beta=st.integers(1, 8),
       ns=st.lists(st.integers(0, 50), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_affine_witness_bound(alpha, beta, ns):
    wtn = AffineWitness(alpha, beta)
    assert wtn.dominates([(n, beta * n + alpha) for n in ns])
    assert not wtn.dominates([(0, alpha + 1)])
