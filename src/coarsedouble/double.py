"""Cross-copy metrics on the double of a discrete space.

A metric d on the two copies of X is determined by its cross-copy kernel
(x, y) -> d(x, y').  Kernels here are exact and carry certified lower
bounds, so infima over the infinite space become finite scans: a candidate
midpoint u can only improve on the probe value V0 if it lies in an explicit
ball, and the evaluation is certified exact when that ball sits inside the
window.  Values are exact ints or Fractions throughout.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .errors import DomainError, IncompleteEnumeration, SearchInconclusive
from .space import (UNBOUNDED, Evaluation, MetricSpace, Point, PointSet,
                    Rational, Window, dist_to_set, rational_to_json,
                    window_points)

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None

_INT_SAFE = 1 << 60


class DeltaFunction:
    """Exact copy-gap function delta: X -> [1, oo)."""

    def __init__(self, space: MetricSpace, fn: Callable[[Point], Rational],
                 name: str, payload: Optional[dict] = None):
        self.space = space
        self.fn = fn
        self.name = name
        self.payload = payload
        self._cache = {}

    def __call__(self, u: Point) -> Rational:
        v = self._cache.get(u)
        if v is None:
            v = self.fn(u)
            if v < 1:
                raise DomainError(f"delta {self.name} takes value {v} < 1 at {u}")
            self._cache[u] = v
        return v

    def to_json(self):
        if self.payload is not None:
            return dict(self.payload, name=self.name)
        raise DomainError(f"delta {self.name!r} carries no serializable description")

    def __repr__(self):
        return f"DeltaFunction({self.name})"


def const_delta(space: MetricSpace, value: Rational = 1, name: Optional[str] = None) -> DeltaFunction:
    if value < 1:
        raise DomainError("constant delta must be >= 1")
    return DeltaFunction(space, lambda u: value, name or f"const({value})",
                         payload={"kind": "const", "value": rational_to_json(value)})


class DoubleMetric:
    """Base kernel: exact cross values, adjoint, certified lower bound."""

    kind = "abstract"

    def __init__(self, space: MetricSpace):
        self.space = space

    # -- evaluation ---------------------------------------------------------

    def cross(self, x: Point, y: Point, window: Window) -> Evaluation:
        raise NotImplementedError

    def diagonal(self, x: Point, window: Window) -> Evaluation:
        return self.cross(x, x, window)

    def lower_bound(self, x: Point, y: Point) -> Rational:
        """Certified bound: lower_bound(x, y) <= d(x, y') always."""
        raise NotImplementedError

    @property
    def coercive_c(self) -> Optional[Rational]:
        """c with lower_bound(x,y) >= d_X(x,y) + c, or None if not coercive."""
        return None

    @property
    def eps(self) -> Rational:
        """Positivity floor for cross values (axiom d2)."""
        return 1

    # -- structure ----------------------------------------------------------

    def adjoint(self) -> "DoubleMetric":
        raise NotImplementedError

    def is_selfadjoint(self) -> bool:
        return self.to_json() == self.adjoint().to_json()

    def dist_to_copy(self, x: Point, window: Window) -> Evaluation:
        """inf over y of d(x, y'), certified through the lower bound."""
        return _generic_dist_to_copy(self, x, window)

    def to_json(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, DoubleMetric) and self.to_json() == other.to_json()

    def __hash__(self):
        import json
        return hash(json.dumps(self.to_json(), sort_keys=True))

    def __repr__(self):
        return f"<{self.kind} metric on {self.space.name}>"

    # -- batch evaluation (reports) -----------------------------------------

    def cross_matrix(self, pts: list, window: Window):
        """Matrix of cross values on pts x pts; (matrix, all_exact)."""
        exact = True
        rows = []
        for x in pts:
            row = []
            for y in pts:
                ev = self.cross(x, y, window)
                exact = exact and ev.exact
                row.append(ev.value)
            rows.append(row)
        return rows, exact


def _ball_candidates(space: MetricSpace, x: Point, radius: Rational, window: Window):
    """Points of ball(x, radius) that lie in the window.

    Returns (candidates, complete) where complete means the whole ball was
    enumerated (certified when the ball is inside the window ball).
    """
    if radius < 0:
        return [x], True
    base = window.resolve_base(space)
    inside = space.distance(x, base) + radius <= window.radius
    try:
        pts = space.points_within(x, radius)
    except IncompleteEnumeration:
        wpts = window_points(space, window)
        return [p for p in wpts if space.distance(x, p) <= radius], inside
    if inside:
        return pts, True
    return [p for p in pts if space.distance(p, base) <= window.radius], False


class DeltaMetric(DoubleMetric):
    """d(x, y') = inf_u [d_X(x,u) + delta(u) + d_X(u,y)]."""

    kind = "delta"

    def __init__(self, space: MetricSpace, delta: DeltaFunction):
        super().__init__(space)
        if delta.space is not space and delta.space != space:
            raise DomainError("delta defined on a different space")
        self.delta = delta

    def cross(self, x, y, window):
        space = self.space
        dxy = space.distance(x, y)
        v0 = dxy + min(self.delta(x), self.delta(y))
        r_cand = v0 - 1
        cand, complete = _ball_candidates(space, x, r_cand, window)
        best = v0
        arg = x if self.delta(x) <= self.delta(y) else y
        for u in cand:
            du = space.distance(x, u)
            duy = space.distance(u, y)
            if du + duy > r_cand:
                continue
            val = du + self.delta(u) + duy
            if val < best or (val == best and u < arg):
                best, arg = val, u
        base = window.resolve_base(space)
        required = space.distance(x, base) + r_cand
        return Evaluation(best, complete, None if complete else required, witness=arg)

    def lower_bound(self, x, y):
        return self.space.distance(x, y) + 1

    @property
    def coercive_c(self):
        return 1

    def adjoint(self):
        return self  # the infimum formula is symmetric in x, y

    def dist_to_copy(self, x, window):
        # inf_y d(x, y') = inf_u [d_X(x,u) + delta(u)], taking y = u
        space = self.space
        v0 = self.delta(x)
        r_cand = v0 - 1
        cand, complete = _ball_candidates(space, x, r_cand, window)
        best, arg = v0, x
        for u in cand:
            du = space.distance(x, u)
            if du > r_cand:
                continue
            val = du + self.delta(u)
            if val < best or (val == best and u < arg):
                best, arg = val, u
        base = window.resolve_base(space)
        required = space.distance(x, base) + r_cand
        return Evaluation(best, complete, None if complete else required, witness=arg)

    def to_json(self):
        return {"kind": "delta", "space": self.space.to_json(),
                "delta": self.delta.to_json()}

    def cross_matrix(self, pts, window):
        return _delta_cross_matrix(self, pts, window), True


class PointMetric(DoubleMetric):
    """Zero-class representative: d(x, y') = d_X(x, x0) + 1 + d_X(x0, y)."""

    kind = "zero_at"

    def __init__(self, space: MetricSpace, x0: Optional[Point] = None):
        super().__init__(space)
        self.x0 = tuple(x0) if x0 is not None else space.basepoint
        if not space.contains(self.x0):
            raise DomainError(f"{self.x0} is not a point of {space.name}")

    def cross(self, x, y, window):
        d = self.space.distance
        return Evaluation(d(x, self.x0) + 1 + d(self.x0, y), True, witness=self.x0)

    def lower_bound(self, x, y):
        d = self.space.distance
        return d(x, self.x0) + 1 + d(self.x0, y)

    @property
    def coercive_c(self):
        return 1

    def adjoint(self):
        return self

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

    def __init__(self, space: MetricSpace, A: PointSet):
        super().__init__(space)
        self.A = A
        self._dist_cache = {}

    def set_distance(self, x: Point) -> Rational:
        v = self._dist_cache.get(x)
        if v is None:
            v = dist_to_set(self.space, x, self.A, UNBOUNDED).value
            self._dist_cache[x] = v
        return v

    def cross(self, x, y, window):
        return Evaluation(self.set_distance(x) + 1 + self.set_distance(y), True)

    def lower_bound(self, x, y):
        return 1

    def adjoint(self):
        return self

    def dist_to_copy(self, x, window):
        return Evaluation(self.set_distance(x) + 1, True)

    def to_json(self):
        return {"kind": "subset", "space": self.space.to_json(), "set": self.A.to_json()}

    def cross_matrix(self, pts, window):
        vals = [self.set_distance(p) for p in pts]
        return [[vx + 1 + vy for vy in vals] for vx in vals], True


class ClosedFormMetric(DoubleMetric):
    """Kernel given by an explicit exact expression (x, y) -> value."""

    kind = "closed_form"

    def __init__(self, space: MetricSpace, fn: Callable[[Point, Point], Rational],
                 name: str, symmetric: bool = False,
                 coercive: Optional[Rational] = None, eps: Rational = 1):
        super().__init__(space)
        self.fn = fn
        self.name = name
        self.symmetric = symmetric
        self._coercive = coercive
        self._eps = eps

    def cross(self, x, y, window):
        return Evaluation(self.fn(x, y), True)

    def lower_bound(self, x, y):
        if self._coercive is not None:
            return self.space.distance(x, y) + self._coercive
        return self._eps

    @property
    def coercive_c(self):
        return self._coercive

    @property
    def eps(self):
        return self._eps

    def adjoint(self):
        if self.symmetric:
            return self
        return AdjointMetric(self)

    def to_json(self):
        return {"kind": "closed_form", "space": self.space.to_json(), "name": self.name}


class AdjointMetric(DoubleMetric):
    """d*(x, y') = d(y, x')."""

    kind = "adjoint"

    def __init__(self, inner: DoubleMetric):
        super().__init__(inner.space)
        self.inner = inner

    def cross(self, x, y, window):
        return self.inner.cross(y, x, window)

    def lower_bound(self, x, y):
        return self.inner.lower_bound(y, x)

    @property
    def coercive_c(self):
        return self.inner.coercive_c

    @property
    def eps(self):
        return self.inner.eps

    def adjoint(self):
        return self.inner

    def to_json(self):
        return {"kind": "adjoint", "of": self.inner.to_json()}


class MaxMetric(DoubleMetric):
    """Pointwise max of two kernels; the meet representative for projections."""

    kind = "max"

    def __init__(self, d1: DoubleMetric, d2: DoubleMetric):
        if d1.space != d2.space:
            raise DomainError("operands live on different spaces")
        super().__init__(d1.space)
        self.d1, self.d2 = d1, d2

    def cross(self, x, y, window):
        a = self.d1.cross(x, y, window)
        b = self.d2.cross(x, y, window)
        return Evaluation(max(a.value, b.value), a.exact and b.exact,
                          _max_required(a, b))

    def lower_bound(self, x, y):
        return max(self.d1.lower_bound(x, y), self.d2.lower_bound(x, y))

    @property
    def coercive_c(self):
        c1, c2 = self.d1.coercive_c, self.d2.coercive_c
        if c1 is None and c2 is None:
            return None
        return max(c for c in (c1, c2) if c is not None)

    @property
    def eps(self):
        return max(self.d1.eps, self.d2.eps)

    def adjoint(self):
        a1, a2 = self.d1.adjoint(), self.d2.adjoint()
        if a1 is self.d1 and a2 is self.d2:
            return self
        return MaxMetric(a1, a2)

    def to_json(self):
        return {"kind": "max", "of": [self.d1.to_json(), self.d2.to_json()]}

    def cross_matrix(self, pts, window):
        m1, e1 = self.d1.cross_matrix(pts, window)
        m2, e2 = self.d2.cross_matrix(pts, window)
        n = len(pts)
        return [[max(m1[i][j], m2[i][j]) for j in range(n)] for i in range(n)], e1 and e2


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

        def middle(u):
            a = evaluate_exact(d1, u, u)
            b = evaluate_exact(d2, u, u)
            return min(a.value, b.value)

        delta = DeltaFunction(d1.space, middle, "min-diagonal")
        super().__init__(d1.space, delta)

    def adjoint(self):
        return self

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
        self._separable = isinstance(d, SubsetMetric) and isinstance(rho, SubsetMetric)
        self._glue_cache = {}

    def _glue_constant(self, window):
        """min over window midpoints of d_X(y,A) + d_X(y,B) for separable
        (subset o subset) compositions; the y-infimum splits off."""
        key = (window.radius, window.basepoint)
        hit = self._glue_cache.get(key)
        if hit is None:
            best, arg = None, None
            for y in window_points(self.space, window):
                v = self.d.set_distance(y) + self.rho.set_distance(y)
                if best is None or v < best or (v == best and y < arg):
                    best, arg = v, y
            if best is None:
                raise DomainError("empty window")
            hit = (best, arg)
            self._glue_cache[key] = hit
        return hit

    def cross(self, x, z, window):
        space = self.space
        if self._separable:
            glue, arg = self._glue_constant(window)
            value = (self.d.set_distance(x) + self.rho.set_distance(z)
                     + 2 + glue)
            return Evaluation(value, False, witness=arg)
        probe_exact = True
        best, arg = None, None
        for y in ([x] if x == z else [x, z]):
            a = self.d.cross(x, y, window)
            b = self.rho.cross(y, z, window)
            probe_exact = probe_exact and a.exact and b.exact
            v = a.value + b.value
            if best is None or v < best or (v == best and y < arg):
                best, arg = v, y
        cd, cr = self.d.coercive_c, self.rho.coercive_c
        if cd is not None and cr is not None:
            # y can only improve if d_X(x,y)+cd + d_X(y,z)+cr <= best
            r_cand = best - cd - cr
            cand, complete = _ball_candidates(space, x, r_cand, window)
            sub_exact = probe_exact
            for y in cand:
                if space.distance(x, y) + space.distance(y, z) > r_cand:
                    continue
                a = self.d.cross(x, y, window)
                b = self.rho.cross(y, z, window)
                sub_exact = sub_exact and a.exact and b.exact
                v = a.value + b.value
                if v < best or (v == best and y < arg):
                    best, arg = v, y
            base = window.resolve_base(space)
            required = space.distance(x, base) + r_cand
            return Evaluation(best, complete and sub_exact,
                              None if complete else required, witness=arg)
        # no coercive pruning available: scan the window, never certified
        sub_exact = True
        for y in window_points(space, window):
            a = self.d.cross(x, y, window)
            b = self.rho.cross(y, z, window)
            sub_exact = sub_exact and a.exact and b.exact
            v = a.value + b.value
            if v < best or (v == best and y < arg):
                best, arg = v, y
        return Evaluation(best, False, witness=arg)

    def lower_bound(self, x, z):
        cd, cr = self.d.coercive_c, self.rho.coercive_c
        if cd is not None and cr is not None:
            return self.space.distance(x, z) + cd + cr
        return self.d.eps + self.rho.eps

    @property
    def coercive_c(self):
        cd, cr = self.d.coercive_c, self.rho.coercive_c
        if cd is not None and cr is not None:
            return cd + cr
        return None

    @property
    def eps(self):
        return self.d.eps + self.rho.eps

    def adjoint(self):
        return ComposedMetric(self.rho.adjoint(), self.d.adjoint())

    def to_json(self):
        return {"kind": "compose", "of": [self.d.to_json(), self.rho.to_json()]}

    def cross_matrix(self, pts, window):
        md, ed = self.d.cross_matrix(pts, window)
        mr, er = self.rho.cross_matrix(pts, window)
        n = len(pts)
        out = [[min(md[i][y] + mr[y][j] for y in range(n)) for j in range(n)]
               for i in range(n)]
        certified = self.coercive_c is not None and ed and er
        return out, certified and _composition_matrix_certified(self, pts, window, out)


def _composition_matrix_certified(comp, pts, window, out) -> bool:
    # certified when every pair's candidate ball stays inside the window
    space = comp.space
    base = window.resolve_base(space)
    c = comp.coercive_c
    for i, x in enumerate(pts):
        for j, _ in enumerate(pts):
            if space.distance(x, base) + out[i][j] - c > window.radius:
                return False
    return True


def _max_required(a: Evaluation, b: Evaluation):
    reqs = [r for r in (a.required_radius, b.required_radius) if r is not None]
    return max(reqs) if reqs else None


def _generic_dist_to_copy(d: DoubleMetric, x: Point, window: Window) -> Evaluation:
    space = d.space
    probe = d.cross(x, x, window)
    best, arg, sub_exact = probe.value, x, probe.exact
    c = d.coercive_c
    if c is not None:
        r_cand = best - c
        cand, complete = _ball_candidates(space, x, r_cand, window)
        for y in cand:
            ev = d.cross(x, y, window)
            sub_exact = sub_exact and ev.exact
            if ev.value < best or (ev.value == best and y < arg):
                best, arg = ev.value, y
        base = window.resolve_base(space)
        required = space.distance(x, base) + r_cand
        return Evaluation(best, complete and sub_exact,
                          None if complete else required, witness=arg)
    for y in window_points(space, window):
        ev = d.cross(x, y, window)
        if ev.value < best or (ev.value == best and y < arg):
            best, arg = ev.value, y
    return Evaluation(best, False, witness=arg)


# ---------------------------------------------------------------------------
# Module-level operation surface


def evaluate(d: DoubleMetric, x: Point, y: Point, window: Window) -> Evaluation:
    """Exact cross value d(x, y') with certificate status."""
    return d.cross(x, y, window)


def evaluate_exact(d: DoubleMetric, x: Point, y: Point,
                   start_radius: Rational = 8, max_doublings: int = 80) -> Evaluation:
    """Evaluate with expanding windows until the result is certified.

    Raises SearchInconclusive for kernels that cannot certify (no coercive
    lower bound) once the doubling budget is exhausted.
    """
    return _escalate(d, lambda w: d.cross(x, y, w), (x, y), "evaluation",
                     start_radius, max_doublings)


def _escalate(d: DoubleMetric, evaluate: Callable[[Window], Evaluation],
              points: tuple, what: str, start_radius: Rational = 8,
              max_doublings: int = 80) -> Evaluation:
    """evaluate(Window(r)) from the smallest r >= start_radius whose window
    holds the points, doubling r (or jumping to the required radius) until
    the result is certified.  A kernel without a coercive bound stops after
    its first window, since a larger window cannot certify it either.
    """
    base = d.space.basepoint
    r = max(start_radius, *(d.space.distance(p, base) for p in points))
    last = None
    for _ in range(max_doublings):
        ev = evaluate(Window(r))
        if ev.exact:
            return ev
        last = ev
        r = max(2 * r, ev.required_radius if ev.required_radius is not None else 0)
        if d.coercive_c is None:
            break
    where = ",".join(str(p) for p in points)
    raise SearchInconclusive(
        f"{what} of {d.kind} kernel at ({where}) not certifiable",
        window_radius=r, required_radius=last.required_radius if last else None)


def adjoint(d: DoubleMetric) -> DoubleMetric:
    return d.adjoint()


def compose(d: DoubleMetric, rho: DoubleMetric) -> DoubleMetric:
    """Kernel of (x, z) -> inf_y [d(x,y') + rho(y,z')]."""
    return ComposedMetric(d, rho)


def dist_to_copy(d: DoubleMetric, x: Point, window: Window) -> Evaluation:
    return d.dist_to_copy(x, window)


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


def _delta_cross_matrix(d: DeltaMetric, pts: list, window: Window):
    """Exact cross matrix for a delta kernel over an enlarged candidate ball."""
    space = d.space
    base = window.resolve_base(space)
    deltas = [d.delta(p) for p in pts]
    bmat = _distance_matrix(space, pts, pts)
    vmax = 0
    n = len(pts)
    for i in range(n):
        for j in range(n):
            v = bmat[i][j] + min(deltas[i], deltas[j])
            if v > vmax:
                vmax = v
    try:
        universe = space.points_within(base, window.radius + vmax - 1)
    except IncompleteEnumeration:
        universe = window_points(space, window)
    # midpoints with delta(u) >= vmax can never beat the u=x candidate
    universe = [u for u in universe if d.delta(u) < vmax]
    if not universe:
        universe = [pts[0]]
    udeltas = [d.delta(u) for u in universe]
    bxu = _distance_matrix(space, pts, universe)
    if _np is not None and _ints_safe(bmat) and _ints_safe(bxu) and _ints_safe([udeltas]):
        B = _np.asarray(bxu, dtype=_np.int64)
        dl = _np.asarray(udeltas, dtype=_np.int64)
        cols = B + dl[None, :]
        out = None
        for chunk in range(0, len(universe), 128):
            part = cols[:, chunk:chunk + 128, None] + B.T[None, chunk:chunk + 128, :]
            m = part.min(axis=1)
            out = m if out is None else _np.minimum(out, m)
        seed = _np.asarray([[bmat[i][j] + min(deltas[i], deltas[j]) for j in range(n)]
                            for i in range(n)], dtype=_np.int64)
        return _np.minimum(out, seed).tolist()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            best = bmat[i][j] + min(deltas[i], deltas[j])
            for k, u in enumerate(universe):
                v = bxu[i][k] + udeltas[k] + bxu[j][k]
                if v < best:
                    best = v
            row.append(best)
        rows.append(row)
    return rows


def _ints_safe(mat) -> bool:
    for row in mat:
        for v in row:
            if not isinstance(v, int) or abs(v) > _INT_SAFE:
                return False
    return True


def _distance_matrix(space: MetricSpace, pts_a: list, pts_b: list):
    return [[space.distance(a, b) for b in pts_b] for a in pts_a]


def check_axioms(d: DoubleMetric, window: Window) -> AxiomReport:
    """Exhaustively verify positivity, the lower bound and both mixed
    triangle inequalities on the window.  Violations are report content.
    """
    pts = window_points(d.space, window)
    n = len(pts)
    if n == 0:
        raise DomainError("empty window")
    bmat = _distance_matrix(d.space, pts, pts)
    dmat, exact = d.cross_matrix(pts, window)

    checks = {}
    # (d2) cross distances are strictly positive
    min_v, min_ij = None, None
    for i in range(n):
        for j in range(n):
            v = dmat[i][j]
            if min_v is None or v < min_v:
                min_v, min_ij = v, (i, j)
    ok = min_v > 0
    checks["positivity"] = {
        "passed": ok, "stat": min_v,
        "violation": None if ok else {"x": list(pts[min_ij[0]]), "y": list(pts[min_ij[1]]),
                                      "value": rational_to_json(min_v)}}

    # certified lower bound
    viol = None
    for i in range(n):
        for j in range(n):
            lb = d.lower_bound(pts[i], pts[j])
            if dmat[i][j] < lb:
                viol = {"x": list(pts[i]), "y": list(pts[j]),
                        "value": rational_to_json(dmat[i][j]),
                        "bound": rational_to_json(lb)}
                break
        if viol:
            break
    checks["lower_bound"] = {"passed": viol is None, "violation": viol}

    use_np = (_np is not None and _ints_safe(bmat) and _ints_safe(dmat))
    if use_np:
        B = _np.asarray(bmat, dtype=_np.int64)
        D = _np.asarray(dmat, dtype=_np.int64)
        # d_X(x1,x2) <= d(x1,y') + d(x2,y') for every y
        m1 = None
        for y in range(n):
            s = D[:, y][:, None] + D[:, y][None, :]
            m1 = s if m1 is None else _np.minimum(m1, s)
        ok1 = bool((B <= m1).all())
        # d(x1,y') <= d_X(x1,x2) + d(x2,y') for every x2
        m2 = None
        for j in range(n):
            s = B[:, j][:, None] + D[j, :][None, :]
            m2 = s if m2 is None else _np.minimum(m2, s)
        ok2 = bool((D <= m2).all())
    else:
        ok1 = ok2 = True
        for i in range(n):
            if not ok1:
                break
            for j in range(n):
                if any(bmat[i][j] > dmat[i][y] + dmat[j][y] for y in range(n)):
                    ok1 = False
                    break
        for i in range(n):
            if not ok2:
                break
            for y in range(n):
                if any(dmat[i][y] > bmat[i][j] + dmat[j][y] for j in range(n)):
                    ok2 = False
                    break

    checks["triangle_base_vs_cross"] = {
        "passed": ok1,
        "violation": None if ok1 else _first_triangle1_violation(pts, bmat, dmat)}
    checks["triangle_cross_vs_base"] = {
        "passed": ok2,
        "violation": None if ok2 else _first_triangle2_violation(pts, bmat, dmat)}
    return AxiomReport(d, window, n, exact, checks)


def _first_triangle1_violation(pts, bmat, dmat):
    n = len(pts)
    for i in range(n):
        for j in range(n):
            for y in range(n):
                if bmat[i][j] > dmat[i][y] + dmat[j][y]:
                    return {"x1": list(pts[i]), "x2": list(pts[j]), "y": list(pts[y]),
                            "lhs": rational_to_json(bmat[i][j]),
                            "rhs": rational_to_json(dmat[i][y] + dmat[j][y])}
    return None


def _first_triangle2_violation(pts, bmat, dmat):
    n = len(pts)
    for i in range(n):
        for y in range(n):
            for j in range(n):
                if dmat[i][y] > bmat[i][j] + dmat[j][y]:
                    return {"x1": list(pts[i]), "x2": list(pts[j]), "y": list(pts[y]),
                            "lhs": rational_to_json(dmat[i][y]),
                            "rhs": rational_to_json(bmat[i][j] + dmat[j][y])}
    return None
