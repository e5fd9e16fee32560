"""Differential test of the double layer over random kernel trees.

Trees of depth at most 2 are built from delta, point and subset kernels with
adjoint, max, min-glue and composition nodes on the four built-in spaces,
and evaluated at points inside and outside the window.  Each ``evaluate`` is
compared, value and witness, with a brute reference that scans the window's
points (``conftest.BRUTE_WINDOWS``) and the probes directly, with no
candidate ball and no pruning, and so is its ``required_radius``, which the
reference takes from the probes and the coercive constant alone; each exact
value is compared with the value on a larger window (McKeeman 1998,
"Differential testing for software").  Some points are drawn within 2 of
the window's edge, where a certificate rule loosened by a unit or two
first answers differently.

A min-glue kernel reads the global value of each factor on the diagonal.
The reference finds it by growing its window until every point outside can
be seen not to improve, which needs a coercive factor; for a composition
with a non-coercive factor no window settles it, and there the library must
raise SearchInconclusive.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedouble import (AdjointMetric, DeltaMetric, MaxMetric, MinGlueMetric,
                          PointMetric, SubsetMetric, compose, evaluate, space_by_name)
from coarsedouble.errors import SearchInconclusive
from coarsedouble.serialize import parse_kernel
from coarsedouble.space import Window
from conftest import BRUTE_WINDOWS

LEAVES = {
    "NatLine": ("delta:subset:evens", "delta:expr:log2", "const:2", "zero", "zero:3",
                "subset:squares"),
    "IntLine": ("delta:subset:odds", "delta:subset:halfline:-:-3", "const:3/2", "zero:-2",
                "subset:evens", "subset:halfline:+:4"),
    "GeomLine": ("delta:subset:powers:4", "const:2", "zero", "zero:8", "subset:powers:4:2",
                 "subset:powers:8"),
    "TwoTails": ("delta:subset:tailplus", "delta:expr:log2", "const:2", "zero", "zero:4,2",
                 "subset:tailminus"),
}
# window radii; x and z come from a window of radius 2 r + 4, so some lie
# outside the window
RADII = {"NatLine": (0, 2, 5, 8), "IntLine": (0, 2, 5, 8), "GeomLine": (2, 7, 20, 40),
         "TwoTails": (3, 10, 20, 40)}


def _node(children):
    return st.sampled_from(("adjoint", "max", "min_glue", "compose")).flatmap(
        lambda op: (children.map(lambda c: (op, c)) if op == "adjoint"
                    else st.tuples(st.just(op), children, children)))


_LEAF = st.integers(0, 5).map(lambda i: ("leaf", i))
TREES = st.one_of(_LEAF, _node(_LEAF), _node(_node(_LEAF)),
                  _node(st.one_of(_LEAF, _node(_LEAF))))


def _build(space, tree):
    if tree[0] == "leaf":
        return parse_kernel(space, LEAVES[space.name][tree[1]])
    if tree[0] == "adjoint":
        return AdjointMetric(_build(space, tree[1]))
    a, b = (_build(space, t) for t in tree[1:])
    return {"max": MaxMetric, "min_glue": MinGlueMetric, "compose": compose}[tree[0]](a, b)


class _Open(Exception):
    """No window settles the global value: there is no coercive bound."""


def _coercive(k):
    """c with k(x, y') >= d_X(x, y) + c, or None."""
    if isinstance(k, (DeltaMetric, PointMetric)):  # a min-glue kernel is a delta kernel
        return 1
    if isinstance(k, SubsetMetric):
        return None
    if isinstance(k, AdjointMetric):
        return _coercive(k.inner)
    if isinstance(k, MaxMetric):
        cs = [c for c in (_coercive(k.d1), _coercive(k.d2)) if c is not None]
        return max(cs) if cs else None
    c1, c2 = _coercive(k.d), _coercive(k.rho)
    return None if c1 is None or c2 is None else c1 + c2


class Reference:
    """Kernel values by brute scans of the window points and the probes."""

    def __init__(self, space):
        self.space = space
        self.dist = space.distance
        self.window = functools.cache(
            lambda r: BRUTE_WINDOWS[space.name](space.basepoint, r))
        self._memo = {}

    def _memoized(self, fn, k, x, y):
        key = (fn.__name__, id(k), x, y)
        if key not in self._memo:
            self._memo[key] = fn(k, x, y)
        return self._memo[key]

    def glob(self, k, x, y):
        return self._memoized(self._glob, k, x, y)

    def set_distance(self, A, x):
        return self._memoized(self._set_distance, A, x, None)

    def _set_distance(self, A, x, _):
        r = 1
        while True:
            members = [a for a in BRUTE_WINDOWS[self.space.name](x, r) if A.contains(a)]
            if members:
                return min(self.dist(x, a) for a in members)
            r *= 2

    def _middle(self, k, u):
        if isinstance(k, MinGlueMetric):
            return min(self.glob(k.d1, u, u), self.glob(k.d2, u, u))
        return k.delta(u)

    def _term(self, k, x, y, part):
        """u -> the term of u in the infimum of k(x, y')."""
        if isinstance(k, DeltaMetric):
            return lambda u: self.dist(x, u) + self._middle(k, u) + self.dist(u, y)
        return lambda u: part(k.d, x, u) + part(k.rho, u, y)

    def _infimum(self, k, x, y, r, part):
        """min over u in the window of radius r and the probes x and y of
        the term of u, with the smaller u on ties."""
        term = self._term(k, x, y, part)
        return min((term(u), u) for u in set(self.window(r)) | {x, y})

    def required(self, k, x, y, r):
        """required_radius of k(x, y') on the window of radius r: for an
        infimum with coercive constant c, r_cand is the better probe's term
        less c, and the window must hold ball(x, r_cand), that is reach
        d(x, base) + r_cand; None where it does or nothing is certified."""
        if isinstance(k, (PointMetric, SubsetMetric)):
            return None
        if isinstance(k, AdjointMetric):
            return self.required(k.inner, y, x, r)
        if isinstance(k, MaxMetric):
            return max((q for q in (self.required(k.d1, x, y, r),
                                    self.required(k.d2, x, y, r)) if q is not None),
                       default=None)
        c = _coercive(k)
        if c is None:
            return None
        term = self._term(k, x, y, lambda f, a, b: self.value(f, a, b, r)[0])
        reach = self.dist(x, self.space.basepoint) + min(term(x), term(y)) - c
        return reach if reach > r else None

    def value(self, k, x, y, r):
        """(value, witness) of k(x, y') on the window of radius r."""
        if isinstance(k, PointMetric):
            return self.dist(x, k.x0) + 1 + self.dist(k.x0, y), k.x0
        if isinstance(k, SubsetMetric):
            return self.set_distance(k.A, x) + 1 + self.set_distance(k.A, y), None
        if isinstance(k, AdjointMetric):
            return self.value(k.inner, y, x, r)
        if isinstance(k, MaxMetric):
            return max(self.value(k.d1, x, y, r)[0], self.value(k.d2, x, y, r)[0]), None
        return self._infimum(k, x, y, r, lambda f, a, b: self.value(f, a, b, r)[0])

    def _glob(self, k, x, y):
        """The global value of k(x, y'), or _Open."""
        if isinstance(k, (PointMetric, SubsetMetric)):
            return self.value(k, x, y, 0)[0]
        if isinstance(k, AdjointMetric):
            return self.glob(k.inner, y, x)
        if isinstance(k, MaxMetric):
            return max(self.glob(k.d1, x, y), self.glob(k.d2, x, y))
        c = _coercive(k)
        if c is None:
            raise _Open
        base = self.space.basepoint
        r = max(8, self.dist(x, base), self.dist(y, base))
        while True:
            v, _ = self._infimum(k, x, y, r, self.glob)
            # a point u outside has d(x, u) > r - d(x, base), so its term
            # exceeds r - d(x, base) + c
            if v <= r - self.dist(x, base) + c:
                return v
            r *= 2


@settings(max_examples=700, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(LEAVES)), tree=TREES, data=st.data())
def test_evaluate_matches_the_window_reference(name, tree, data):
    space = space_by_name(name)
    r = data.draw(st.sampled_from(RADII[name]), label="radius")
    pts = BRUTE_WINDOWS[name](space.basepoint, 2 * r + 4)
    x = data.draw(st.sampled_from(pts), label="x")
    z = data.draw(st.sampled_from(pts), label="z")
    edge = [p for p in pts if abs(space.distance(p, space.basepoint) - r) <= 2]
    if edge and data.draw(st.booleans(), label="near the edge"):
        x = data.draw(st.sampled_from(edge), label="x near the edge")
    k = _build(space, tree)
    ref = Reference(space)
    try:
        want = ref.value(k, x, z, r)
    except _Open:
        with pytest.raises(SearchInconclusive):
            evaluate(k, x, z, Window(r))
        return
    ev = evaluate(k, x, z, Window(r))
    assert (ev.value, ev.witness) == want
    assert ev.required_radius == ref.required(k, x, z, r)
    assert not (ev.exact and ev.required_radius is not None)
    if ev.exact:
        assert evaluate(k, x, z, Window(4 * r + 16)).value == ev.value == ref.glob(k, x, z)
