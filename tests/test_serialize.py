import json

import pytest

from coarsedouble import (DeltaMetric, MaxMetric, MinGlueMetric, PointMetric, compose,
                          const_delta, evaluate, levels_from_subset, meet,
                          metric_from_levels, metric_join, subset_metric, unit_levels,
                          zero_levels)
from coarsedouble.errors import DomainError
from coarsedouble.serialize import (expression_levels, kernel_from_json,
                                    level_from_json, parse_filter_base, parse_kernel,
                                    parse_levels, parse_set)
from coarsedouble.space import Window, set_family, window_points


def _roundtrip_levels(space, lf, probe=24):
    clone = level_from_json(space, json.loads(json.dumps(lf.to_json())))
    for x in window_points(space, Window(probe)):
        assert clone.level(x) == lf.level(x)


def test_level_roundtrips(natline, geomline):
    _roundtrip_levels(natline, unit_levels(natline))
    _roundtrip_levels(natline, zero_levels(natline))
    _roundtrip_levels(natline, levels_from_subset(natline, set_family("squares")))
    _roundtrip_levels(natline, expression_levels(natline, "ceil-sqrt"))
    e = meet(levels_from_subset(natline, set_family("evens")),
             expression_levels(natline, "log2"))
    _roundtrip_levels(natline, e)
    _roundtrip_levels(geomline, levels_from_subset(
        geomline, set_family("powers", base=4)), probe=128)


def _roundtrip_kernel(space, d, probe=12):
    clone = kernel_from_json(space, json.loads(json.dumps(d.to_json())))
    w = Window(probe * 4)
    for x in window_points(space, Window(probe)):
        for y in window_points(space, Window(probe)):
            assert evaluate(clone, x, y, w).value == evaluate(d, x, y, w).value


def test_kernel_roundtrips(natline):
    _roundtrip_kernel(natline, PointMetric(natline, (2,)))
    _roundtrip_kernel(natline, subset_metric(natline, set_family("evens")))
    _roundtrip_kernel(natline, DeltaMetric(natline, const_delta(natline, 3)))
    _roundtrip_kernel(natline, metric_from_levels(zero_levels(natline)))
    d1 = metric_from_levels(levels_from_subset(natline, set_family("evens")))
    d2 = metric_from_levels(levels_from_subset(natline, set_family("odds")))
    _roundtrip_kernel(natline, MaxMetric(d1, d2), probe=8)
    _roundtrip_kernel(natline, compose(PointMetric(natline, (0,)),
                                       PointMetric(natline, (1,))), probe=6)


def test_min_glue_roundtrip(natline):
    w = Window(20)
    d1 = metric_from_levels(levels_from_subset(natline, set_family("multiples", k=4)))
    d2 = metric_from_levels(levels_from_subset(natline, set_family("multiples", k=4, r=2)))
    dj = metric_join(d1, d2, w)
    doc = dj.to_json()
    assert doc["kind"] == "min_glue" and doc["of"] == [d1.to_json(), d2.to_json()]
    clone = kernel_from_json(natline, json.loads(json.dumps(doc)))
    assert type(clone) is MinGlueMetric and clone.to_json() == doc
    pts = window_points(natline, Window(8))
    for x in pts:
        for y in pts:
            assert clone.cross(x, y, w).value == dj.cross(x, y, w).value


def test_deserialization_revalidates(natline):
    with pytest.raises(DomainError):
        kernel_from_json(natline, {"kind": "warp"})
    with pytest.raises(DomainError):
        level_from_json(natline, {"kind": "expression", "expr": "nope"})


@pytest.mark.parametrize("set_doc", [
    {"family": "tail_plus"},
    {"family": "complement", "of": {"family": "tail_minus"}},
], ids=["tail_plus", "complement-of-tail_minus"])
@pytest.mark.parametrize("from_json", [level_from_json, kernel_from_json])
def test_tail_sets_need_a_space_of_pairs(natline, intline, twotails, set_doc, from_json):
    def doc(space):
        # a kernel document states its space, a level document does not
        return {"kind": "subset", "set": set_doc, **(
            {"space": space.to_json()} if from_json is kernel_from_json else {})}

    for space in (natline, intline):
        with pytest.raises(DomainError, match="needs a space of pairs"):
            from_json(space, doc(space))
    from_json(twotails, doc(twotails))


def test_parse_shorthands(natline):
    assert parse_set(natline, "powers:4:2").contains((8,))
    assert not parse_set(natline, "powers:4:2").contains((4,))
    assert parse_set(natline, "halfline:-:0").contains((-3,))
    assert parse_set(natline, "points:1,0;2,0").contains((1, 0))
    lf = parse_levels(natline, "subset:evens")
    assert lf.level((3,)) == 2
    assert parse_levels(natline, "unit").level((9,)) == 1
    assert parse_levels(natline, "zero:4").level((4,)) == 1
    k = parse_kernel(natline, "zero:0")
    assert evaluate(k, (3,), (5,), Window(16)).value == 9
    assert parse_kernel(natline, "const:2").delta((7,)) == 2
    with pytest.raises(DomainError):
        parse_levels(natline, "wat:1")


@pytest.mark.parametrize("text, name, depth", [
    ("4", "tails(1*4^j)", 6), ("4,3", "tails(3*4^j)", 6), ("2,1,9", "tails(1*2^j)", 9)])
def test_filter_base_form(text, name, depth):
    # on the command line the depth defaults to 6, not powers_tail_base's 8
    F = parse_filter_base(text)
    assert (F.name, F.depth) == (name, depth)

