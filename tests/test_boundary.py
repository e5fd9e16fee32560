"""Points are checked where they enter.

The non-member (-3,) of NatLine must raise DomainError from every public
entry point that receives it, for every kernel kind, both as x and as y.
"""

import pytest

from coarsedouble import (ClosedFormMetric, DeltaMetric, MaxMetric,
                          MinGlueMetric, PointMetric, compose, const_delta,
                          dist_to_set, evaluate, evaluate_exact, subset_metric,
                          window_points)
from coarsedouble.errors import DomainError
from coarsedouble.space import (UNBOUNDED, CustomSpace, PointSet, Window, set_family,
                                space_by_name)

NATLINE = space_by_name("NatLine")
BAD, GOOD = (-3,), (2,)
W = Window(8)


def _delta():
    return DeltaMetric(NATLINE, const_delta(NATLINE, 2))


def _closed_form():
    return ClosedFormMetric(NATLINE, lambda x, y: abs(x[0] - y[0]) + 1, "gap+1")


KERNELS = {
    "delta": _delta,
    "point": lambda: PointMetric(NATLINE, (1,)),
    "subset": lambda: subset_metric(NATLINE, set_family("evens")),
    "closed_form": _closed_form,
    "adjoint": lambda: _closed_form().adjoint(),
    "max": lambda: MaxMetric(PointMetric(NATLINE), _delta()),
    "min_glue": lambda: MinGlueMetric(PointMetric(NATLINE), _delta()),
    "composed": lambda: compose(_delta(), PointMetric(NATLINE)),
    "separable_composed": lambda: compose(subset_metric(NATLINE, set_family("evens")),
                                          subset_metric(NATLINE, set_family("odds"))),
}

KERNEL_CALLS = {
    "cross_x": lambda d: d.cross(BAD, GOOD, W),
    "cross_y": lambda d: d.cross(GOOD, BAD, W),
    "dist_to_copy": lambda d: d.dist_to_copy(BAD, W),
    "cross_matrix": lambda d: d.cross_matrix([GOOD, BAD], W),
    "evaluate": lambda d: evaluate(d, BAD, GOOD, W),
    "evaluate_exact": lambda d: evaluate_exact(d, GOOD, BAD),
}

CASES = {
    "distance": lambda: NATLINE.distance(GOOD, BAD),
    "window_points": lambda: window_points(NATLINE, Window(3, (-1,))),
    "dist_to_set": lambda: dist_to_set(NATLINE, BAD, PointSet.from_points([(0,)]),
                                       UNBOUNDED),
    "point_metric": lambda: PointMetric(NATLINE, BAD),
    "custom_points_within": lambda: CustomSpace([(0, 0), (1, 0)]).points_within((5, 5), 2),
}
for _kind, _make in KERNELS.items():
    for _call, _run in KERNEL_CALLS.items():
        CASES[f"{_kind}-{_call}"] = lambda make=_make, run=_run: run(make())


@pytest.mark.parametrize("case", list(CASES))
def test_non_member_rejected(case):
    with pytest.raises(DomainError):
        CASES[case]()
