"""Cross-copy metrics on the double of a discrete space.

A metric d on the two copies of X is determined by its cross-copy kernel
(x, y) -> d(x, y').  Kernels here are exact and carry certified lower
bounds, so infima over the infinite space become finite scans: a candidate
midpoint u can only improve on the probe value V0 if it lies in an explicit
ball, and the evaluation is certified exact when that ball sits inside the
window.  Values are exact ints or Fractions throughout.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from itertools import chain, compress
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, IncompleteEnumeration, SearchInconclusive
from .space import (SEARCH_POINT_CAP, SEARCH_RADIUS_CAP, Evaluation, LineSpace,
                    MetricSpace, Point, PointSet, Rational, Window, _PointFunction,
                    dist_to_set, rational_to_json, window_points)

_INT_SAFE = 1 << 60


class DeltaFunction(_PointFunction):
    """Exact copy-gap function delta: X -> [1, oo), read as a level function is."""

    what = "delta"
    __call__ = _PointFunction._value


def const_delta(space: MetricSpace, value: Rational = 1) -> DeltaFunction:
    if value < 1:
        raise DomainError("constant delta must be >= 1")
    return DeltaFunction(space, lambda pts: [value] * len(pts), f"const({value})",
                         payload={"kind": "const", "value": rational_to_json(value)})


class DoubleMetric:
    """Base kernel: exact cross values, adjoint, certified lower bound.

    Each kind states three facts once, as data, and the base class derives
    its bound and its adjoint from them:

    - ``coercive_c``: c with d(x, y') >= d_X(x, y) + c for all x, y, which
      turns each infimum into a finite scan; None if not coercive;
    - ``eps``: the positivity floor for cross values (axiom d2);
    - ``symmetric``: d(x, y') = d(y, x'), so the kernel is its own adjoint.

    The bound is d_X + coercive_c, or the floor eps for a kind with no c
    (``_base_bound``): the searches certify with it and ``check_axioms``
    checks it, for every kind alike.
    """

    kind = "abstract"
    coercive_c: Optional[Rational] = None
    eps: Rational = 1
    symmetric = False

    def __init__(self, space: MetricSpace):
        self.space = space

    # -- evaluation ---------------------------------------------------------

    def cross(self, x: Point, y: Point, window: Window) -> Evaluation:
        raise NotImplementedError

    # -- structure ----------------------------------------------------------

    def adjoint(self) -> "DoubleMetric":
        return self if self.symmetric else AdjointMetric(self)

    def is_selfadjoint(self) -> bool:
        """Structural: ``adjoint`` returns self exactly when the structure proves d* = d."""
        return self.adjoint() is self

    def dist_to_copy(self, x: Point, window: Window) -> Evaluation:
        """inf over y of d(x, y'), certified through the lower bound."""

        def term(y, _):
            ev = self.cross(x, y, window)
            return ev.value, ev.exact

        return _certified_min(self.space, x, None, window, self.coercive_c, term)

    def to_json(self):
        # a kind that serialize.kernel_from_json cannot rebuild has no document
        raise DomainError(f"{self.kind} kernel has no serializable form")

    # -- batch evaluation (reports) -----------------------------------------

    def cross_matrix(self, pts: list, window: Window):
        """Cross values on pts x pts; (matrix, all_exact).

        The matrix is an exact array typed by ``_exact_array``: int64 with
        every entry within +-2**60, or object holding ints and Fractions.
        A batch matrix certifies by the same candidate-ball rule as single
        evaluations: all_exact holds only when the candidate ball of every
        cell was enumerated completely and every sub-evaluation was exact.
        This default evaluates cell by cell; kinds with a batch form
        override it.
        """
        exact = True
        rows = []
        for x in pts:
            row = []
            for y in pts:
                ev = self.cross(x, y, window)
                exact = exact and ev.exact
                row.append(ev.value)
            rows.append(row)
        return _exact_array(rows), exact


def _base_bound(d: DoubleMetric, bmat: np.ndarray, out=None) -> np.ndarray:
    """A kernel's certified bound on points whose d_X matrix is bmat:
    bmat + coercive_c, written into out when given, or the floor eps for a
    kind with no c."""
    c = d.coercive_c
    return np.full(bmat.shape, d.eps) if c is None else np.add(bmat, c, out=out)


def _certified(dxb: Rational, r_cand: Rational, radius: Rational) -> bool:
    """The certificate rule.  A minimum found by scanning the candidate ball
    of radius r_cand around x is exact when that ball lies inside the
    completely enumerated ball of the given radius around the window base;
    dxb is d_X(x, base).
    """
    return dxb + r_cand <= radius


def _certified_min(space: MetricSpace, x: Point, z: Optional[Point], window: Window,
                   c: Optional[Rational],
                   term: Callable[[Point, Rational], tuple]) -> Evaluation:
    """The single-pair search: the minimum over midpoints u of a kernel's
    infimum, certified by the kind's coercive constant c.

    term(u, s) is (value, exact) for the midpoint u, with s = d_X(x, u) +
    d_X(u, z), or d_X(x, u) when z is None; a kind with constant c promises
    value >= s + c.  The probes u = x and u = z (only x when z is None) are
    evaluated first, inside the window or not, and their minimum best sets
    the candidate radius r_cand = best - c (never negative, since best >= c).
    The candidate rule lists the smaller of two balls: ball(x, r_cand) when
    r_cand is at most the window radius and ``space.enumerable(x, r_cand)``,
    kept to the window unless it passes the certificate rule; otherwise the
    window, as always with c None (no coercive bound: nothing is pruned or
    certified).  A candidate with s > r_cand cannot beat best, so it is
    skipped unevaluated: either way the candidates evaluated are the points
    of ball(x, r_cand) in the window.  The minimum is exact when the ball
    passes the rule and every evaluated term is exact; otherwise
    required_radius is the window radius that would hold the ball.  Ties go
    to the smaller point, probes included.  No point is checked here: x and
    z are checked where they enter, and candidates are enumerated members.
    """
    dist = space._dist
    best = arg = None
    exact = True
    for u in (x,) if z is None or z == x else (x, z):
        v, e = term(u, dist(x, u) if z is None else dist(x, u) + dist(u, z))
        exact = exact and e
        if best is None or v < best or (v == best and u < arg):
            best, arg = v, u
    base = window.resolve_base(space)
    dxb = dist(x, base)
    r_cand = None if c is None else best - c
    complete = r_cand is not None and _certified(dxb, r_cand, window.radius)
    ball = r_cand is not None and r_cand <= window.radius and space.enumerable(x, r_cand)
    cand = space.points_within(x, r_cand) if ball else window_points(space, window)
    if ball and not complete:
        cand = [u for u in cand if dist(u, base) <= window.radius]
    for u in cand:
        s = dist(x, u) if z is None else dist(x, u) + dist(u, z)
        if u == x or u == z or r_cand is not None and s > r_cand:
            continue
        v, e = term(u, s)
        exact = exact and e
        if v < best or (v == best and u < arg):
            best, arg = v, u
    required = None if complete or r_cand is None else dxb + r_cand
    return Evaluation(best, complete and exact, required, witness=arg)


class DeltaMetric(DoubleMetric):
    """d(x, y') = inf_u [d_X(x,u) + delta(u) + d_X(u,y)]."""

    kind = "delta"
    coercive_c = 1
    symmetric = True  # the infimum formula is symmetric in x, y

    def __init__(self, space: MetricSpace, delta: DeltaFunction):
        super().__init__(space)
        if delta.space is not space and delta.space != space:
            raise DomainError("delta defined on a different space")
        self.delta = delta

    def _term(self, u, s):
        return s + self.delta(u), True

    def cross(self, x, y, window):
        self.space.check(x, y)
        return _certified_min(self.space, x, y, window, self.coercive_c, self._term)

    def dist_to_copy(self, x, window):
        # inf_y d(x, y') = inf_u [d_X(x,u) + delta(u)], taking y = u
        self.space.check(x)
        return _certified_min(self.space, x, None, window, self.coercive_c, self._term)

    def to_json(self):
        return {"kind": "delta", "space": self.space.to_json(),
                "delta": self.delta.to_json()}

    def cross_matrix(self, pts, window):
        self.space.check(*pts)
        with _workspace(self.space, len(pts)) as buf:
            return _delta_cross_matrix(self, pts, window, buf)


class PointMetric(DoubleMetric):
    """Zero-class representative: d(x, y') = d_X(x, x0) + 1 + d_X(x0, y)."""

    kind = "zero_at"
    coercive_c = 1
    symmetric = True

    def __init__(self, space: MetricSpace, x0: Optional[Point] = None):
        super().__init__(space)
        self.x0 = tuple(x0) if x0 is not None else space.basepoint
        space.check(self.x0)

    def cross(self, x, y, window):
        d = self.space.distance
        return Evaluation(d(x, self.x0) + 1 + d(self.x0, y), True, witness=self.x0)

    def dist_to_copy(self, x, window):
        return Evaluation(self.space.distance(x, self.x0) + 1, True, witness=self.x0)

    def to_json(self):
        return {"kind": "zero_at", "space": self.space.to_json(), "x0": list(self.x0)}


class SubsetMetric(DoubleMetric):
    """b_A(x, y') = d_X(x, A) + 1 + d_X(y, A), the subset-neighborhood kernel.

    Not coercive: the bound d_X(x,y)+1 fails whenever A has two distant
    members, so only the positivity floor 1 is certified.
    """

    kind = "subset"
    symmetric = True

    def __init__(self, space: MetricSpace, A: PointSet):
        super().__init__(space)
        self.A = A
        self._dist_cache = {}

    def set_distance(self, x: Point) -> Rational:
        v = self._dist_cache.get(x)
        if v is None:
            v = dist_to_set(self.space, x, self.A).value
            self._dist_cache[x] = v
        return v

    def cross(self, x, y, window):
        return Evaluation(self.set_distance(x) + 1 + self.set_distance(y), True)

    def dist_to_copy(self, x, window):
        return Evaluation(self.set_distance(x) + 1, True)

    def to_json(self):
        return {"kind": "subset", "space": self.space.to_json(), "set": self.A.to_json()}

    def cross_matrix(self, pts, window):
        vals = _exact_array([self.set_distance(p) for p in pts])
        return _exact_array(vals[:, None] + 1 + vals[None, :]), True


class ClosedFormMetric(DoubleMetric):
    """Kernel given by an explicit exact expression (x, y) -> value."""

    kind = "closed_form"

    def __init__(self, space: MetricSpace, fn: Callable[[Point, Point], Rational],
                 name: str, symmetric: bool = False):
        super().__init__(space)
        self.fn = fn
        self.name = name
        self.symmetric = symmetric

    def cross(self, x, y, window):
        self.space.check(x, y)
        return Evaluation(self.fn(x, y), True)


class AdjointMetric(DoubleMetric):
    """d*(x, y') = d(y, x')."""

    kind = "adjoint"

    def __init__(self, inner: DoubleMetric):
        super().__init__(inner.space)
        self.inner = inner
        self.coercive_c, self.eps = inner.coercive_c, inner.eps

    def cross(self, x, y, window):
        return self.inner.cross(y, x, window)

    def adjoint(self):
        # k* is k itself when k is self-adjoint, so this kernel then is too
        return self if self.inner.is_selfadjoint() else self.inner


class MaxMetric(DoubleMetric):
    """Pointwise max of two kernels; the meet representative for projections."""

    kind = "max"

    def __init__(self, d1: DoubleMetric, d2: DoubleMetric):
        if d1.space != d2.space:
            raise DomainError("operands live on different spaces")
        super().__init__(d1.space)
        self.d1, self.d2 = d1, d2
        cs = [c for c in (d1.coercive_c, d2.coercive_c) if c is not None]
        self.coercive_c = max(cs) if cs else None
        self.eps = max(d1.eps, d2.eps)

    def cross(self, x, y, window):
        a = self.d1.cross(x, y, window)
        b = self.d2.cross(x, y, window)
        return Evaluation(max(a.value, b.value), a.exact and b.exact,
                          _max_required(a, b))

    def adjoint(self):
        a1, a2 = self.d1.adjoint(), self.d2.adjoint()
        return self if a1 is self.d1 and a2 is self.d2 else MaxMetric(a1, a2)

    def to_json(self):
        return {"kind": "max", "of": [self.d1.to_json(), self.d2.to_json()]}

    def cross_matrix(self, pts, window):
        m1, e1 = self.d1.cross_matrix(pts, window)
        m2, e2 = self.d2.cross_matrix(pts, window)
        return np.maximum(m1, m2), e1 and e2


class MinGlueMetric(DeltaMetric):
    """Join representative: the infimum kernel with middle term
    min(d1(u,u'), d2(u,u')).  On the diagonal this evaluates to
    min(d1(x,x'), d2(x,x')) exactly.
    """

    kind = "min_glue"

    def __init__(self, d1: DoubleMetric, d2: DoubleMetric):
        if d1.space != d2.space:
            raise DomainError("operands live on different spaces")
        self.d1, self.d2 = d1, d2

        def middle(pts):
            return [min(evaluate_exact(d1, u, u).value, evaluate_exact(d2, u, u).value)
                    for u in pts]

        super().__init__(d1.space, DeltaFunction(d1.space, middle, "min-diagonal"))

    def to_json(self):
        return {"kind": "min_glue", "of": [self.d1.to_json(), self.d2.to_json()]}


class ComposedMetric(DoubleMetric):
    """(rho after d)(x, z') = inf_y [d(x, y') + rho(y, z')]."""

    kind = "compose"

    def __init__(self, d: DoubleMetric, rho: DoubleMetric):
        if d.space != rho.space:
            raise DomainError("operands live on different spaces")
        super().__init__(d.space)
        self.d, self.rho = d, rho
        if d.coercive_c is not None and rho.coercive_c is not None:
            self.coercive_c = d.coercive_c + rho.coercive_c
        self.eps = d.eps + rho.eps
        self._separable = isinstance(d, SubsetMetric) and isinstance(rho, SubsetMetric)
        self._glue_cache = {}

    def _glue_constant(self, window):
        """min over window midpoints of d_X(y,A) + d_X(y,B) for separable
        (subset o subset) compositions; the y-infimum splits off."""
        key = (window.radius, window.basepoint)
        if key not in self._glue_cache:
            # (value, y) pairs: ties go to the smaller y
            self._glue_cache[key] = min((self.d.set_distance(y) + self.rho.set_distance(y), y)
                                        for y in window_points(self.space, window))
        return self._glue_cache[key]

    def cross(self, x, z, window):
        space, d, rho = self.space, self.d, self.rho
        space.check(x, z)
        if self._separable:
            # the window's glue, or the probes y = x and y = z as elsewhere
            glue, arg = min([self._glue_constant(window)]
                            + [(d.set_distance(y) + rho.set_distance(y), y) for y in (x, z)])
            value = d.set_distance(x) + rho.set_distance(z) + 2 + glue
            return Evaluation(value, False, witness=arg)

        def through(y, _):
            a = d.cross(x, y, window)
            b = rho.cross(y, z, window)
            return a.value + b.value, a.exact and b.exact

        return _certified_min(space, x, z, window, self.coercive_c, through)

    def adjoint(self):
        # compose(d, rho)* = compose(rho*, d*): this kernel when rho* is d or d* is rho
        rho_adj, d_adj = self.rho.adjoint(), self.d.adjoint()
        return self if rho_adj is self.d or d_adj is self.rho else ComposedMetric(rho_adj, d_adj)

    def to_json(self):
        return {"kind": "compose", "of": [self.d.to_json(), self.rho.to_json()]}

    def cross_matrix(self, pts, window):
        # midpoints range over the whole window; rows and columns are pts
        space = self.space
        mid = window_points(space, window)
        inside = set(mid)
        full = mid + [p for p in pts if p not in inside]
        md, ed = self.d.cross_matrix(full, window)
        mr, er = self.rho.cross_matrix(full, window)
        at = {p: i for i, p in enumerate(full)}
        rows = [at[p] for p in pts]
        n_mid = len(mid)
        out = _exact_array(_min_plus(md[rows, :n_mid], mr[:n_mid][:, rows]))
        c = self.coercive_c
        exact = (c is not None and ed and er
                 and _rows_certified(space, pts, window.resolve_base(space),
                                     out.max(axis=1) - c, window.radius))
        return out, exact


def _max_required(a: Evaluation, b: Evaluation):
    reqs = [r for r in (a.required_radius, b.required_radius) if r is not None]
    return max(reqs) if reqs else None


# ---------------------------------------------------------------------------
# Module-level operation surface


def evaluate(d: DoubleMetric, x: Point, y: Point, window: Window) -> Evaluation:
    """Exact cross value d(x, y') with certificate status."""
    return d.cross(x, y, window)


def evaluate_exact(d: DoubleMetric, x: Point, y: Point,
                   start_radius: Rational = 8) -> Evaluation:
    """Evaluate with expanding windows until the result is certified, by
    ``_escalate``: SearchInconclusive when the next window would pass
    SEARCH_RADIUS_CAP, and after the first window for a kernel with no
    coercive bound, which no window certifies.
    """
    return _escalate(d, x, y, start_radius)


def _escalate(d: DoubleMetric, x: Point, y: Optional[Point] = None,
              start_radius: Rational = 8) -> Evaluation:
    """d.cross(x, y, Window(r)), or d.dist_to_copy(x, Window(r)) when y is
    None, from the smallest r >= start_radius whose window holds the
    points, doubling r (or jumping to the required radius) until the result
    is certified.  The search stops where the next window's radius would
    pass SEARCH_RADIUS_CAP, the stopping radius of ``dist_to_set`` too, and
    a kernel without a coercive bound stops after its first window, since a
    larger window cannot certify it either.  The SearchInconclusive raised
    then names the "evaluation" (or "dist-to-copy") at the points, the
    radius of the last window evaluated and that evaluation's required
    radius.
    """
    points = (x,) if y is None else (x, y)
    base = d.space.basepoint
    r = max(start_radius, *(d.space.distance(p, base) for p in points))
    while True:
        ev = d.dist_to_copy(x, Window(r)) if y is None else d.cross(x, y, Window(r))
        if ev.exact:
            return ev
        grown = max(2 * r, ev.required_radius or 0)
        if d.coercive_c is None or grown > SEARCH_RADIUS_CAP:
            break
        r = grown
    where = ",".join(str(p) for p in points)
    what = "dist-to-copy" if y is None else "evaluation"
    raise SearchInconclusive(
        f"{what} of {d.kind} kernel at ({where}) not certifiable",
        window_radius=r, required_radius=ev.required_radius)


def compose(d: DoubleMetric, rho: DoubleMetric) -> DoubleMetric:
    """Kernel of (x, z) -> inf_y [d(x,y') + rho(y,z')]."""
    return ComposedMetric(d, rho)


# ---------------------------------------------------------------------------
# Axiom checking


class AxiomReport:
    """Exhaustive window verification of the double-metric axioms."""

    def __init__(self, metric: DoubleMetric, window: Window, n_points: int,
                 exact: bool, checks: dict):
        self.metric = metric
        self.window = window
        self.n_points = n_points
        self.exact = exact
        self.checks = checks
        self.passed = all(c["passed"] for c in checks.values())

    def first_violation(self):
        for name in sorted(self.checks):
            c = self.checks[name]
            if not c["passed"]:
                return dict(c["violation"], check=name)
        return None

    def to_json(self):
        return {
            "kind": self.metric.kind,
            "window": self.window.to_json(),
            "n_points": self.n_points,
            "exact": self.exact,
            "passed": self.passed,
            "restriction_structural": True,
            "checks": {k: _check_json(v) for k, v in sorted(self.checks.items())},
        }


def _check_json(c):
    out = {"passed": c["passed"]}
    if c.get("violation"):
        out["violation"] = c["violation"]
    if "stat" in c:
        out["stat"] = rational_to_json(c["stat"])
    return out


# ---------------------------------------------------------------------------
# Batch workspace


class _Workspace(threading.local):
    """The n x n int64 buffers that the line-space batch paths write their
    intermediates into, one set per thread: at most three arrays, keyed 0,
    1 and 2, all for the most recent n of at least ``_WORKSPACE_MIN_N``.

    A check on a 251-point line window needs about eleven n x n int64
    intermediates of 0.5 MB.  Allocated fresh on every call, their memory
    goes back to the OS when they are freed and the next call page-faults
    it in again, about a third of the check's time; kept here, it is
    faulted in once per change of n.  On fewer than 128 points such an
    array is under 128 KiB, malloc's default mmap threshold, and comes from
    malloc's free lists without faults, so a smaller call uses no buffers
    and leaves a larger n's in place: dropping them for a 10-point window
    between 251-point ones would fault them in again.  No array that a
    public function returns, and none that an ``AxiomReport`` keeps, is one
    of these buffers."""

    def __init__(self):
        self.arrays = {}
        self.held = False


_WORKSPACE_MIN_N = 128
_WORKSPACE = _Workspace()


class _Buffers:
    """A getter of workspace buffers: buf(k, *operands) is buffer k, an n x
    n int64 array made on first use, when every operand array is int64, so
    that a ufunc can write their result into it with out=; otherwise, and
    always for ``_NO_BUFFERS``, it is None, which makes the ufunc allocate
    as before."""

    def __init__(self, arrays: Optional[dict], n: int):
        self.arrays, self.n = arrays, n

    def __call__(self, k: int, *operands: np.ndarray) -> Optional[np.ndarray]:
        if self.arrays is None or any(x.dtype != np.int64 for x in operands):
            return None
        if k not in self.arrays:
            self.arrays[k] = np.empty((self.n, self.n), np.int64)
        return self.arrays[k]


_NO_BUFFERS = _Buffers(None, 0)


@contextmanager
def _workspace(space: MetricSpace, n: int):
    """The thread's workspace, held for one batch call on n points of
    space, as a ``_Buffers`` getter; buffers of another n are dropped
    first.  Off the line spaces, below ``_WORKSPACE_MIN_N`` points, and
    inside a call that already holds the workspace (a delta reader that
    runs a batch), the getter is ``_NO_BUFFERS``: the first two allocate as
    before, and a nested call never overwrites its caller's
    intermediates."""
    ws = _WORKSPACE
    if ws.held or n < _WORKSPACE_MIN_N or not isinstance(space, LineSpace):
        yield _NO_BUFFERS
        return
    if any(arr.shape[0] != n for arr in ws.arrays.values()):
        ws.arrays.clear()
    ws.held = True
    try:
        yield _Buffers(ws.arrays, n)
    finally:
        ws.held = False


def _frame(space: MetricSpace, pts: list, buf):
    """(coordinates, d_X) of pts: the coordinates as ``_coordinates`` gives
    them on an l1 space (None elsewhere), converted once, and d_X on pts x
    pts, written into buffer 0 of buf when it is int64."""
    if space.metric != "manhattan":
        return None, _distance_matrix(space, pts, pts)
    a = _coordinates(pts)
    return a, _distance_matrix(space, pts, pts, a, buf(0, a))


def _delta_cross_matrix(d: DeltaMetric, pts: list, window: Window, buf, frame=None):
    """Cross matrix of a delta kernel on checked or enumerated points,
    (matrix, exact).

    Each cell is the minimum of d_X(x,u) + delta(u) + d_X(u,y) over u in x,
    y and a universe: the ball around the window base enlarged by the
    largest probe value, which holds the candidate ball of every cell whose
    row point lies in the window.  It is listed to at most SEARCH_POINT_CAP
    past the window radius, further only where that listing holds at most
    SEARCH_POINT_CAP points (GeomLine), and is the window where the space
    cannot enumerate it.  Rows certify by the radius listed; the others
    hold minima over the universe, upper bounds of the infima.  delta is
    read by one ``values`` call over pts and one over the universe; a mask
    drops midpoints with delta(u) >= that value, which cannot beat u = x (if
    none is left, the matrix is a copy of the seed of the probes u = x, y).
    frame is (coordinates, d_X) of pts from ``_frame``, which
    ``check_axioms`` shares; without it they are computed here.  The
    distances come from ``_distance_matrix``, a coordinate broadcast on
    every l1 space.  The space type picks how the minimum is taken: on the
    line spaces by ``_line_delta_min``, a distance-transform sweep and one
    range-minimum table, in O(n^2 + m) memory for n points and m universe
    points and with no loop over rows or cells; elsewhere by the n x m
    min-plus product over the universe.  Both give the same minimum, and
    certification is the same: exact when every row's largest probe, as
    candidate radius, passes the certificate rule on the enumerated radius
    (``_rows_certified``).

    buf is the getter of ``_workspace``.  On a line window of at least 128
    points d_X, the seed and the sweep's table are written into its buffers
    0, 1 and 2 when they are int64: at most three n x n int64 arrays, all
    for the most recent such n, kept across calls so that their memory is
    not page-faulted in again on every call.  The returned matrix is always
    a fresh array.
    """
    space = d.space
    a, dist = frame or _frame(space, pts, buf)
    base = window.resolve_base(space)
    deltas = _exact_array(d.delta.values(pts))
    into = buf(1, dist, deltas)
    seed = np.add(dist, np.minimum(deltas[:, None], deltas[None, :], out=into), out=into)
    row_max = seed.max(axis=1)
    vmax = max(row_max.tolist())
    radius, cap = window.radius + vmax - 1, window.radius + SEARCH_POINT_CAP
    try:
        universe = space.points_within(base, min(radius, cap))
        if radius > cap and len(universe) > SEARCH_POINT_CAP:
            radius = cap
        elif radius > cap:
            universe = space.points_within(base, radius)
    except IncompleteEnumeration:
        universe, radius = window_points(space, window), window.radius
    weights = _exact_array(d.delta.values(universe))
    # midpoints with delta(u) >= vmax can never beat the u=x candidate
    keep = weights < vmax
    if not keep.any():
        out = seed.copy()
    elif isinstance(space, LineSpace):
        out = _line_delta_min(a[:, 0], dist, seed, _coordinates(universe)[keep, 0],
                              weights[keep], buf)
    else:
        dpu = _distance_matrix(space, pts, list(compress(universe, keep)), a)
        out = np.minimum(seed, _min_plus(dpu + weights[keep], dpu.T))
    # each row's largest probe bounds the radius of its candidate balls
    return _exact_array(out), _rows_certified(space, pts, base, row_max - 1, radius, a)


def _rows_certified(space: MetricSpace, pts: list, base: Point, r_cand: np.ndarray,
                    radius: Rational, a=None) -> bool:
    """The certificate rule on every row of a batch matrix: row i, whose
    candidate balls have radius at most r_cand[i] around pts[i], is exact
    when they lie inside the ball of the given radius around base.  a holds
    pts's coordinates when the caller has them."""
    dxb = _distance_matrix(space, pts, [base], a)[:, 0]
    return bool(np.all(_certified(dxb, r_cand, radius)))


def _line_delta_min(c, dist, seed, u, du, buf=_NO_BUFFERS):
    """min(seed, min over k of |c_i - u_k| + du_k + |u_k - c_j|) for points
    c of a line, universe coordinates u in increasing order and delta values
    du on them, without an n x m array and with no loop over rows or cells.

    With lo <= hi the two ends of the pair, a midpoint's term is
    |c_i - c_j| + du + 2 d(u, [lo, hi]).  Below lo that is 2 lo + (du - 2u),
    above hi it is (du + 2u) - 2 hi, and between them it is du.  So the
    minimum is |c_i - c_j| + min(D(lo), D(hi), I(lo, hi)), where D(x) = min
    over u of du + 2|u - x| is the distance transform of du, swept once as a
    prefix minimum and a suffix minimum, and I(lo, hi) is the minimum of du
    on [lo, hi].  Each D term is that minimum or larger (a midpoint inside
    [lo, hi] counts at least du), and together the D terms cover the
    midpoints outside, so the identity is exact.

    I is a range minimum (the gap-minimum identity).  With the points in
    increasing order, as ``window_points`` lists them (any other order is
    sorted here and put back at the end), and s_k the index of the first
    u >= c_k, the universe indices [s_i, s_j) split into the disjoint gaps
    [s_k, s_{k+1}), so for i < j, I(c_i, c_j) is the minimum of the gap
    minima G_i, ..., G_{j-1} and of du at c_j when c_j is a universe point.
    All gap minima come from one ``np.minimum.reduceat``; row i of one n x n
    table holds D(c_i) at column i and G_{j-1} at each column j > i, and one
    running minimum along the rows gives min(D(c_i), I) above the diagonal.
    An empty gap or interval stands in as big, the largest seed: dist + big
    is at least every seed, so the stand-in never wins, and no sentinel is
    needed.  du is padded with big, so that s_k = m, for a point past the
    universe's end, is a valid ``reduceat`` index; clipping it to m - 1
    would drop the last universe point from the gap before it.  Cells on
    and below the diagonal hold only real midpoint terms, never below the
    true minimum, and the true minimum is symmetric, so ``min(out, out.T)``
    makes every cell exact.  With c, u and du typed by ``_exact_array`` and
    seed = dist plus a delta value, as ``_delta_cross_matrix`` passes it, big
    is below 3 * 2**60 and every intermediate stays below 7 * 2**60, inside
    int64; any object input makes the table object.  The table is buffer 2
    of buf, the getter of ``_workspace``, when it is int64 and the points
    are in order: one of its at most three n x n int64 arrays, reused so
    that the table's memory is not page-faulted in again on every call.
    The returned minimum is a fresh array.
    """
    n, m = len(c), len(u)
    order = None if np.all(c[1:] >= c[:-1]) else np.argsort(c, kind="stable")
    if order is not None:
        c = c[order]
    below = np.searchsorted(u, c, "right")  # u[:below] <= c
    start = np.searchsorted(u, c, "left")   # u[start:] >= c
    # clamped indices are read only where the side is nonempty
    left = 2 * c + np.minimum.accumulate(du - 2 * u)[np.maximum(below - 1, 0)]
    right = np.minimum.accumulate((du + 2 * u)[::-1])[::-1][np.minimum(start, m - 1)] - 2 * c
    dt = np.where(below == 0, right, np.where(start == m, left, np.minimum(left, right)))
    big = seed.max()
    padded = np.append(du, big)
    gaps = np.where(start[:-1] < start[1:], np.minimum.reduceat(padded, start)[:-1], big)
    # one n x n buffer, updated in place
    table = buf(2, dist, seed, dt, gaps)
    if table is None:
        table = np.empty((n, n), np.result_type(dist, seed, dt, gaps))
    table[...] = np.append(big, gaps)
    table[np.tri(n, k=-1, dtype=bool)] = big
    np.fill_diagonal(table, dt)
    np.minimum.accumulate(table, axis=1, out=table)
    np.minimum(table, np.minimum(np.where(below > start, padded[start], big), dt), out=table)
    if order is not None:
        back = np.argsort(order)
        table = table[back[:, None], back]
    np.add(table, dist, out=table)
    np.minimum(table, seed, out=table)
    return np.minimum(table, table.T)


def _ints_safe(arr) -> bool:
    """The int64 guard: arr, the array numpy infers from exact values, may
    stay int64 only when its dtype is int64 and every entry lies within
    [-_INT_SAFE, _INT_SAFE], so no sum of three entries overflows.  The
    bounds are checked by min() and max(), not abs(), which overflows at
    -2**63."""
    return arr.dtype == np.int64 and arr.min() >= -_INT_SAFE and arr.max() <= _INT_SAFE


def _exact_array(values) -> np.ndarray:
    """values (a list, or a list of rows) as an array typed once by the
    guard: int64 when _ints_safe allows it, object otherwise, which keeps
    int and Fraction entries exact and never makes floats float64."""
    arr = np.asarray(values)
    return arr if _ints_safe(arr) else np.asarray(values, dtype=object)


def _min_plus(a, b=None):
    """Exact min-plus product of arrays typed by _exact_array:
    out[i, j] = min over k of a[i, k] + b[k, j], with b the transpose of a
    when left out.

    k runs one at a time, so each step costs one len(a) x len(b[0]) sum and
    one np.minimum into buffers kept across steps, whatever the dtypes;
    mixing int64 with object gives object, which stays exact.  On the line
    spaces delta kernels do not come here (see ``_line_delta_min``), the
    cross-vs-base triangle check never does, and the base-vs-cross check
    does only with the columns that fail its column test (see
    ``_triangle_minima``), so a passing kernel makes no product.  Elsewhere
    a delta kernel's n x m product over its universe and the two n^3
    triangle products of ``check_axioms`` do, and set its cost; on TwoTails
    and the other l1 spaces their distance operands are coordinate
    broadcasts.
    """
    # rows of b are read once per step, so they are made contiguous once
    b = np.ascontiguousarray(a.T if b is None else b)
    part = np.empty((a.shape[0], b.shape[1]), np.result_type(a, b))
    out = a[:, :1] + b[:1]
    for k in range(1, a.shape[1]):
        np.add(a[:, k, None], b[k], out=part)
        np.minimum(out, part, out=out)
    return out


def _distance_matrix(space: MetricSpace, pts_a: list, pts_b: list, a=None,
                     out=None) -> np.ndarray:
    """d_X on pts_a x pts_b as an exact array.  On a space whose ``metric``
    is "manhattan" (the lines, TwoTails, predicate spaces and Manhattan
    custom spaces) it is one broadcast of |a - b| summed over the
    coordinates, with no distance call; table and rounded-Euclidean metrics
    call ``_dist`` once per cell.  Callers pass checked points or enumerated
    ones; a caller that holds pts_a's coordinates passes them as a, and
    passing one list as both converts its coordinates at most once.  out,
    when given, is an int64 buffer of the result's shape, for a result that
    is int64."""
    if space.metric == "manhattan":
        a = _coordinates(pts_a) if a is None else a
        b = a if pts_b is pts_a else _coordinates(pts_b)
        out = np.abs(np.subtract(a[:, None, 0], b[None, :, 0], out=out), out=out)
        for k in range(1, a.shape[1]):
            out += abs(a[:, None, k] - b[None, :, k])
        return out
    return _exact_array([[space._dist(a, b) for b in pts_b] for a in pts_a])


def _coordinates(pts: list) -> np.ndarray:
    """The points, tuples of d integers, as an n x d array: int64 when every
    coordinate lies within 2**60 / d, so that an l1 distance, a sum of d
    differences, stays within 2 * 2**60 as on a line, and object otherwise."""
    d = len(pts[0])
    try:
        arr = np.fromiter(chain.from_iterable(pts), np.int64, len(pts) * d)
    except OverflowError:  # a coordinate beyond int64
        return np.asarray(pts, dtype=object)
    bound = _INT_SAFE // d
    if arr.min() >= -bound and arr.max() <= bound:
        return arr.reshape(-1, d)
    return np.asarray(pts, dtype=object)


def check_axioms(d: DoubleMetric, window: Window) -> AxiomReport:
    """Exhaustively verify positivity, the lower bound and both mixed
    triangle inequalities on the window.  Violations are report content.
    The lower bound is the one the searches certify with, for every kind:
    d(x, y') >= d_X(x, y) + coercive_c, or >= eps for a kind with no c
    (``_base_bound``).

    Everything is an exact array over the n window points: d_X, the cross
    matrix, the kernel's bound and the two triangle minima
    (``_triangle_minima``).  On every l1 space (``metric`` "manhattan": the
    lines, TwoTails, predicate and Manhattan custom spaces) d_X is a
    coordinate broadcast, with no distance call per cell; table and
    rounded-Euclidean spaces call ``_dist`` per cell.  The window
    points are enumerated, so they are not checked again, and their
    coordinates are converted once.  A delta kernel's matrix is
    ``_delta_cross_matrix`` on the same coordinates and d_X, which is
    computed once; other kinds give theirs through ``cross_matrix``.  Off
    the lines the two triangle minima are n^3 min-plus products, which set
    the cost.  On the line spaces a delta kernel's cross matrix comes from
    the distance-transform sweep and its range-minimum table, and both
    triangle checks from one monotone pass over the cross matrix's columns
    (``_line_columns``): a passing kernel runs no distance transform and no
    min-plus product, nothing runs once per row or cell in Python, and
    memory stays O(n^2) plus the universe; the space type picks that path.
    Violations are located only when a check fails.  Certification
    (``exact``) is the cross matrix's, unchanged.

    On a line window of at least 128 points the int64 n x n intermediates
    (d_X, the seed and the range-minimum table of a delta kernel, the
    base-rule bound, and P and Q of ``_line_columns``) are written into the
    thread's ``_workspace``: at most three n x n int64 arrays, all for the
    most recent such n, kept across calls so that their memory is not
    page-faulted in again on every call.  In steady state the cross matrix
    is the only fresh n x n int64 array of a passing delta kernel's check;
    neither it nor the report shares memory with the workspace.
    """
    space = d.space
    pts = window_points(space, window)
    n = len(pts)
    delta = isinstance(d, DeltaMetric)
    if not delta:
        # taken before the workspace is held, so a compound kernel's delta
        # parts reuse it too
        dmat, exact = d.cross_matrix(pts, window)
    with _workspace(space, n) as buf:
        a, bmat = _frame(space, pts, buf)
        if delta:
            dmat, exact = _delta_cross_matrix(d, pts, window, buf, (a, bmat))

        checks = {}
        # (d2) cross distances are strictly positive; argmin gives the first
        # minimum in row-major order
        at = int(np.argmin(dmat))
        min_v = dmat.item(at)
        i, j = divmod(at, n)
        ok = min_v > 0
        checks["positivity"] = {
            "passed": ok, "stat": min_v,
            "violation": None if ok else {"x": list(pts[i]), "y": list(pts[j]),
                                          "value": rational_to_json(min_v)}}

        # certified lower bound, the base rule, into buffer 1 when
        # coercive_c is an int64 (a Fraction or None makes an object array,
        # which takes none); argwhere lists hits in row-major order
        lb = _base_bound(d, bmat, buf(1, bmat, np.asarray(d.coercive_c)))
        bad = dmat < lb
        viol = None
        if bad.any():
            i, j = (int(v) for v in np.argwhere(bad)[0])
            viol = {"x": list(pts[i]), "y": list(pts[j]),
                    "value": rational_to_json(dmat.item(i, j)),
                    "bound": rational_to_json(lb.item(i, j))}
        checks["lower_bound"] = {"passed": viol is None, "violation": viol}

        base_mins, cross_mins = _triangle_minima(space, a, bmat, dmat, buf)
        # d_X(x1,x2) <= d(x1,y') + d(x2,y') for every y
        checks["triangle_base_vs_cross"] = _triangle(
            pts, bmat, base_mins, lambda i, j, k: dmat.item(i, k) + dmat.item(j, k),
            ("x1", "x2", "y"))
        # d(x1,y') <= d_X(x1,x2) + d(x2,y') for every x2
        checks["triangle_cross_vs_base"] = _triangle(
            pts, dmat, cross_mins, lambda i, j, k: bmat.item(i, k) + dmat.item(k, j),
            ("x1", "y", "x2"))
    return AxiomReport(d, window, n, exact, checks)


def _triangle_minima(space: MetricSpace, a, bmat, dmat, buf):
    """The arrays the two triangle checks compare bmat and dmat against, or
    None for a check already decided as passed.  Each array is below its
    left side at exactly the cells where the true minimum is: min over k of
    dmat[i, k] + dmat[j, k] for bmat, and min over k of bmat[i, k] +
    dmat[k, j] for dmat.

    Elsewhere these are the two min-plus products.  On the line spaces, with
    c = a[:, 0] the coordinates in increasing order, as ``window_points``
    lists them, one pass of ``_line_columns`` (P and Q in buffers 1 and 2 of
    buf) decides both.  When dmat is monotone the second check passes;
    otherwise its array is the distance transform ``_line_transform`` of
    that pass's P and Q, the same as the product.  The first is the product
    over only the failing columns: a column outside them holds no violation,
    so the restricted product is below bmat at the same cells, and
    ``_triangle``, whose k scan reads dmat, names the same first y.  With no
    failing column the first check passes, with no product.
    """
    if not isinstance(space, LineSpace):
        return _min_plus(dmat), _min_plus(bmat, dmat)
    c = a[:, 0]
    monotone, cols, p, q = _line_columns(c, dmat, buf)
    base_mins = _min_plus(dmat[:, cols], dmat[:, cols].T) if len(cols) else None
    return base_mins, None if monotone else _line_transform(c, p, q)


def _line_transform(c, p, q):
    """min over k of |c_i - c_k| + g[k, j], for coordinates c in increasing
    order, from P = g - c[:, None] and Q = g + c[:, None] as
    ``_line_columns`` returns them: a distance transform down each column
    of g, as a prefix minimum of P over k <= i plus c_i and a suffix minimum
    of Q over k >= i minus c_i, taken in place with no n x n temporary (the
    result is P; P and Q are spent).  Equal to ``_min_plus(abs(c[:, None] -
    c), g)``, cell for cell and in dtype; with entries typed by
    ``_exact_array``, every intermediate stays below 2**62.
    """
    np.minimum.accumulate(p, axis=0, out=p)
    p += c[:, None]
    np.minimum.accumulate(q[::-1], axis=0, out=q[::-1])
    q -= c[:, None]
    return np.minimum(p, q, out=p)


def _line_columns(c, g, buf=_NO_BUFFERS):
    """(monotone, failing columns, P, Q) of g over coordinates c in
    increasing order, with P = g - c[:, None] and Q = g + c[:, None].

    monotone: every column of P is non-increasing and every column of Q
    non-decreasing down the rows, that is |g[i+1, k] - g[i, k]| <= c[i+1] -
    c[i] on adjacent rows.  By telescoping this then holds on every pair of
    rows, so monotone is exactly g <= ``_line_transform(c, P, Q)``
    everywhere, an O(n^2) test with no running minimum.

    failing columns: the k where |c_i - c_j| <= g[i, k] + g[j, k] fails for
    some i, j, as an index array.  Since |c_i - c_j| is the larger of c_i -
    c_j and c_j - c_i, column k passes exactly when min over i of P[i, k]
    plus min over j of Q[j, k] is at least 0: one O(n^2) test in place of
    the n^3 product ``_min_plus(g)``.  On a monotone g those minima are the
    last row of P and the first row of Q, so the test is O(n).  P and Q are
    buffers 1 and 2 of buf, the getter of ``_workspace``, when int64, and
    are returned for ``_line_transform``.
    """
    p = np.subtract(g, c[:, None], out=buf(1, g, c))
    q = np.add(g, c[:, None], out=buf(2, g, c))
    monotone = bool(np.all(p[1:] <= p[:-1]) and np.all(q[1:] >= q[:-1]))
    low_p, low_q = (p[-1], q[0]) if monotone else (p.min(axis=0), q.min(axis=0))
    return monotone, np.flatnonzero(low_p + low_q < 0), p, q


def _triangle(pts, lhs, mins, rhs, names):
    """Check lhs[i, j] <= mins[i, j], where mins is below lhs at exactly the
    cells where the minimum over k of rhs(i, j, k) is; mins None is a check
    already decided as passed.

    A failure reports the first violating (i, j, k) in that order, naming
    pts[i], pts[j], pts[k] by names.
    """
    if mins is None or not (bad := lhs > mins).any():
        return {"passed": True, "violation": None}
    i, j = (int(v) for v in np.argwhere(bad)[0])
    k = next(k for k in range(len(pts)) if lhs.item(i, j) > rhs(i, j, k))
    at = dict(zip(names, (pts[i], pts[j], pts[k])))
    return {"passed": False,
            "violation": {"x1": list(at["x1"]), "x2": list(at["x2"]), "y": list(at["y"]),
                          "lhs": rational_to_json(lhs.item(i, j)),
                          "rhs": rational_to_json(rhs(i, j, k))}}
