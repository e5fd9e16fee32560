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

The same trees check kernel identity (Claessen & Hughes 2000, "QuickCheck").
A tree with no adjoint node round-trips through its document, value and
certificate alike; a tree with one has no document.  Whenever a tree is
self-adjoint by structure, its window values are symmetric, and that answer
reads no document.  One row per adjoint rule fixes the answers, and the
level and set documents inside the leaves round-trip too.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedouble import (AdjointMetric, ClosedFormMetric, DeltaMetric, MaxMetric,
                          MinGlueMetric, PointMetric, SubsetMetric, compose, double,
                          evaluate, join, meet, projection_criterion, space_by_name)
from coarsedouble.errors import DomainError, SearchInconclusive
from coarsedouble.serialize import (kernel_from_json, level_from_json, parse_kernel,
                                    parse_levels, parse_set)
from coarsedouble.space import Window, set_from_json
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


# -- kernel identity ----------------------------------------------------------


def _has_adjoint(tree):
    return tree[0] == "adjoint" or tree[0] != "leaf" and any(map(_has_adjoint, tree[1:]))


def _outcome(k, x, y, w):
    """(value, exact) of k(x, y') on w, or the search's refusal."""
    try:
        ev = evaluate(k, x, y, w)
    except SearchInconclusive:
        return "inconclusive"
    return ev.value, ev.exact


def _pairs(space, data, n=4):
    r = data.draw(st.sampled_from(RADII[space.name]), label="radius")
    pts = BRUTE_WINDOWS[space.name](space.basepoint, r)
    return Window(r), [(data.draw(st.sampled_from(pts), label="x"),
                        data.draw(st.sampled_from(pts), label="y")) for _ in range(n)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(LEAVES)), tree=TREES, data=st.data())
def test_a_kernel_document_rebuilds_the_kernel(name, tree, data):
    space = space_by_name(name)
    k = _build(space, tree)
    if _has_adjoint(tree):
        with pytest.raises(DomainError, match="adjoint kernel has no serializable form"):
            k.to_json()
        return
    doc = k.to_json()
    clone = kernel_from_json(space, doc, validate=False)
    assert clone.to_json() == doc
    w, pairs = _pairs(space, data)
    for x, y in pairs:
        assert _outcome(clone, x, y, w) == _outcome(k, x, y, w)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(name=st.sampled_from(sorted(LEAVES)), tree=TREES, data=st.data())
def test_a_selfadjoint_tree_has_symmetric_window_values(name, tree, data):
    space = space_by_name(name)
    k = _build(space, tree)
    if not k.is_selfadjoint():
        return
    w, pairs = _pairs(space, data)
    for x, y in pairs:
        try:
            value = k.cross(x, y, w).value
        except SearchInconclusive:
            with pytest.raises(SearchInconclusive):
                k.cross(y, x, w)
            continue
        assert k.cross(y, x, w).value == value


NAT = space_by_name("NatLine")


def _gap():
    """A closed form that is not its own adjoint: d(x, y') = 2 x + y + 1."""
    return ClosedFormMetric(NAT, lambda x, y: 2 * x[0] + y[0] + 1, "2x+y+1")


def _leaf(spec):
    return parse_kernel(NAT, spec)


def _compose_with_own_adjoint():
    c = _gap()
    return compose(c, c.adjoint())


def _compose_adjoint_first():
    c = _gap()
    return compose(c.adjoint(), c)


def _compose_with_itself():
    d = _leaf("delta:subset:evens")
    return compose(d, d)


# one row per adjoint rule: (kernel, self-adjoint by structure)
ADJOINT_RULES = {
    "delta": (lambda: _leaf("const:2"), True),
    "point": (lambda: _leaf("zero:3"), True),
    "subset": (lambda: _leaf("subset:squares"), True),
    "min_glue": (lambda: MinGlueMetric(_leaf("zero"), _leaf("const:2")), True),
    "closed_form_symmetric": (lambda: ClosedFormMetric(
        NAT, lambda x, y: x[0] + y[0] + 1, "x+y+1", symmetric=True), True),
    "closed_form": (_gap, False),
    "max_of_selfadjoint_parts": (lambda: MaxMetric(_leaf("zero"), _leaf("const:2")), True),
    "max_with_a_closed_form": (lambda: MaxMetric(_leaf("zero"), _gap()), False),
    "compose_with_itself": (_compose_with_itself, True),
    "compose_with_own_adjoint": (_compose_with_own_adjoint, True),
    "compose_adjoint_first": (_compose_adjoint_first, True),
    "compose_with_a_copy": (lambda: compose(_gap(), _gap()), False),
    "compose_symmetric_with_a_copy": (lambda: compose(_leaf("const:2"), _leaf("const:2")),
                                      False),
    "adjoint_of_selfadjoint": (lambda: AdjointMetric(_leaf("zero")), True),
    "adjoint_of_compose_with_own_adjoint": (
        lambda: AdjointMetric(_compose_with_own_adjoint()), True),
    "adjoint_of_closed_form": (lambda: AdjointMetric(_gap()), False),
    "adjoint_of_adjoint": (lambda: AdjointMetric(AdjointMetric(_gap())), False),
}


@pytest.mark.parametrize("rule", list(ADJOINT_RULES))
def test_adjoint_rule(rule):
    make, own = ADJOINT_RULES[rule]
    k = make()
    assert k.is_selfadjoint() is own
    # the adjoint's values are the transposed values, whichever object it is
    w = Window(3)
    pts = BRUTE_WINDOWS["NatLine"](NAT.basepoint, 3)
    adj = k.adjoint()
    for x in pts:
        for y in pts:
            assert adj.cross(x, y, w).value == k.cross(y, x, w).value


def _no_document(self):
    raise AssertionError(f"{type(self).__name__}.to_json read")


def test_selfadjointness_reads_no_document(monkeypatch):
    for cls in vars(double).values():
        if isinstance(cls, type) and issubclass(cls, double.DoubleMetric) \
                and "to_json" in vars(cls):
            monkeypatch.setattr(cls, "to_json", _no_document)
    for make, own in ADJOINT_RULES.values():
        assert make().is_selfadjoint() is own
    w = Window(6)
    assert projection_criterion(_compose_with_itself(), w).certified
    assert projection_criterion(MaxMetric(_leaf("zero"), _leaf("const:2")), w).certified
    with pytest.raises(DomainError, match="structure of this compose kernel"):
        projection_criterion(compose(_gap(), _gap()), w)


def _level_specs(name):
    """The levels specs inside the leaves' delta kernels, unit, zero, and a
    meet and a join of the first two."""
    specs = [leaf.split(":", 1)[1] for leaf in LEAVES[name] if leaf.startswith("delta:")]
    return specs + ["unit", "zero"]


@pytest.mark.parametrize("name", sorted(LEAVES))
def test_level_and_set_documents_round_trip(name):
    space = space_by_name(name)
    specs = _level_specs(name)
    levels = [parse_levels(space, spec) for spec in specs]
    levels += [meet(levels[0], levels[1]), join(levels[0], levels[1])]
    pts = BRUTE_WINDOWS[name](space.basepoint, RADII[name][-1])
    for L in levels:
        doc = L.to_json()
        clone = level_from_json(space, doc)
        assert clone.to_json() == doc
        assert clone.levels(pts) == L.levels(pts)
    sets = [parse_set(space, spec.split(":", 1)[1]) for spec in specs
            if spec.startswith("subset:")]
    assert sets
    for A in sets + [A.complement() for A in sets]:
        doc = A.to_json()
        clone = set_from_json(doc)
        assert clone.to_json() == doc
        assert [clone.contains(p) for p in pts] == [A.contains(p) for p in pts]
