"""Idempotents of the double-metric semigroup as expanding level functions.

An expanding sequence A_1 <= A_2 <= ... is stored as its level function
lambda(x) = min{n : x in A_n}; sublevel sets recover the sequence with O(1)
membership.  The module connects the three presentations: level functions,
delta-generated kernels, and the function lattice of copy-gap functions
x -> d(x, x').
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .asymptotics import (TransferTable, _common_space, _equivalent_on, _window_radii,
                          default_grid, sweep_windows)
from .double import (DeltaFunction, DeltaMetric, DoubleMetric, MaxMetric,
                     MinGlueMetric, SubsetMetric, _escalate, evaluate_exact)
from .errors import DomainError, SearchInconclusive
from .space import (IntLine, MetricSpace, NatLine, Point, PointSet, Rational, Window,
                    _PointFunction, rational_to_json, set_distances, window_points)
from .verdicts import (CHECK_DOMINATES, AffineWitness, Status, TabulatedWitness,
                       Verdict)


class LevelFunction(_PointFunction):
    """lambda: X -> {1, 2, ...} with lambda(x) = min{n : x in A_n}.

    ``fn`` is the kind's one reader: it maps a point list to the points'
    levels, in order.  ``levels``, the shared ``values`` read, hands it the
    points of a list not yet cached in one call, and ``level`` one point;
    both fill one cache.  Window readers read a window with one ``levels`` call.

    Invariants (checked by ``validate``): some window point has a finite
    level (e1); a half-step neighbor can raise the level by at most one
    (e2); every window point has a finite level, so the sublevels exhaust
    the space (e3).
    """

    what = "level function"

    def __init__(self, space: MetricSpace, fn: Callable[[Sequence[Point]], list],
                 name: str, kind: str, payload: Optional[dict] = None):
        super().__init__(space, fn, name, payload)
        self.kind = kind

    def level(self, x: Point) -> int:
        v = self._cache.get(x)
        if v is None:
            v = self._miss(x)
        return v

    levels = _PointFunction.values

    def sublevel(self, n: int) -> PointSet:
        """A_n = {x : level(x) <= n} as a decidable set."""
        return PointSet.from_predicate(
            f"[{self.name}<={n}]", lambda p, n=n: self.space.contains(p) and self.level(p) <= n)

    def validate(self, window: Window) -> dict:
        levels = self.tabulate(window)
        checks = {"e1_nonempty": bool(levels), "e3_all_finite": True}
        bad = None
        half = Fraction(1, 2)
        for x in levels:
            for y in self.space.points_within(x, half):
                if (levels[y] if y in levels else self.level(y)) > levels[x] + 1:
                    bad = {"x": list(x), "y": list(y)}
                    break
            if bad:
                break
        checks["e2_expanding"] = bad is None
        if bad:
            checks["violation"] = bad
        checks["passed"] = checks["e1_nonempty"] and checks["e2_expanding"]
        return checks

    def tabulate(self, window: Window) -> dict:
        pts = window_points(self.space, window)
        return dict(zip(pts, self.levels(pts)))

    def serialize_window(self, window: Window) -> dict:
        """Tabulated form: explicit window levels plus the kind as tail description."""
        return {"space": self.space.to_json(),
                "levels": [[list(x), v] for x, v in sorted(self.tabulate(window).items())],
                "tail": self.kind}


# -- constructors -----------------------------------------------------------


def unit_levels(space: MetricSpace) -> LevelFunction:
    return LevelFunction(space, lambda pts: [1] * len(pts), "1", "unit", {"kind": "unit"})


def zero_levels(space: MetricSpace, x0: Optional[Point] = None) -> LevelFunction:
    base = tuple(x0) if x0 is not None else space.basepoint
    single = PointSet.from_points([base])
    lf = levels_from_subset(space, single)
    lf.name = f"0@{base}"
    lf.kind = "zero"
    lf.payload = {"kind": "zero", "x0": list(base)}
    return lf


def levels_from_subset(space: MetricSpace, A: PointSet) -> LevelFunction:
    """Levels of the expanding sequence A_n = N_{n/2}(A): max(1, ceil(2 d(x,A))).
    A point list reads its distances through ``set_distances``.  On
    ``NatLine`` and ``IntLine`` every distance d is an int, which gives 2 d,
    or 1 at d = 0, with no type test per distance."""

    if type(space) in (NatLine, IntLine):
        def fn(pts):
            return [2 * d or 1 for d in set_distances(space, pts, A)]
    else:
        def fn(pts):
            return [max(1, math.ceil(2 * d)) for d in set_distances(space, pts, A)]

    payload = None
    try:
        payload = {"kind": "subset", "set": A.to_json()}
    except DomainError:
        pass
    return LevelFunction(space, fn, f"E[{A.name}]", "from-subset", payload)


def levels_from_expression(space: MetricSpace, name: str,
                           fn: Callable[[Point], int],
                           payload: Optional[dict] = None) -> LevelFunction:
    return LevelFunction(space, lambda pts: list(map(fn, pts)), name, "expression", payload)


def levels_from_metric(d: DoubleMetric, window: Optional[Window] = None) -> LevelFunction:
    """lambda(x) = min{n : d(x,x') <= n}.  Without a window the diagonal
    values are certified by escalation; with one they are the window's."""

    def fn(x):
        ev = evaluate_exact(d, x, x) if window is None else d.cross(x, x, window)
        return max(1, math.ceil(ev.value))

    kind = "from-metric" if window is None else "from-metric-window"
    return LevelFunction(d.space, lambda pts: list(map(fn, pts)), f"lv[{d.kind}]", kind)


def delta_from_levels(L: LevelFunction) -> DeltaFunction:
    """Copy-gap function of an expanding sequence, delta = lambda: read by ``L.levels``."""
    payload = None
    try:
        payload = {"kind": "levels", "levels": L.to_json()}
    except DomainError:
        pass
    return DeltaFunction(L.space, L.levels, f"delta[{L.name}]", payload)


def metric_from_levels(L: LevelFunction) -> DeltaMetric:
    return DeltaMetric(L.space, delta_from_levels(L))


def subset_metric(space: MetricSpace, A: PointSet) -> SubsetMetric:
    """The closed-form subset kernel d_X(x,A) + 1 + d_X(y,A)."""
    if A.points is not None and not any(space.contains(p) for p in A.points):
        raise DomainError(f"set {A.name} is empty in {space.name}")
    return SubsetMetric(space, A)


# -- projection criterion ----------------------------------------------------


def projection_criterion(d: DoubleMetric, window: Window,
                         grid: Optional[list] = None) -> Verdict:
    """Search for (alpha, beta) with -alpha + d(x,x')/beta <= d(x,X') on the window.

    The returned affine witness is in the normalized form
    d(x,x') <= beta*d(x,X') + c with c = alpha*beta, checked per point.
    """
    if not d.is_selfadjoint():
        raise DomainError("projection criterion needs a selfadjoint kernel")
    if grid is None:
        grid = default_grid()
    pts = window_points(d.space, window)
    rows = []
    certifiable = True
    for x in pts:
        try:
            diag = evaluate_exact(d, x, x)
            copy = _escalate(d, lambda w: d.dist_to_copy(x, w), (x,), "dist-to-copy")
        except SearchInconclusive:
            certifiable = False
            diag = d.cross(x, x, window)
            copy = d.dist_to_copy(x, window)
        rows.append((x, diag.value, copy.value))
    claim = f"projection-criterion({d.kind})"
    series = [[rational_to_json(copy), rational_to_json(diag)] for _, diag, copy in rows]
    diagnostics = {
        "points": [[list(x), rational_to_json(dg), rational_to_json(cp)]
                   for x, dg, cp in rows],
        "series": series,
        "exact": certifiable,
    }
    if certifiable:
        for alpha, beta in grid:
            if all(diag <= beta * copy + alpha * beta for _, diag, copy in rows):
                return Verdict(Status.CERTIFIED, claim, window=window,
                               value="projection",
                               witness=AffineWitness(alpha * beta, beta),
                               diagnostics=dict(diagnostics, grid_alpha=alpha,
                                                grid_beta=beta),
                               check_kind=CHECK_DOMINATES)
    reason = "no witness in grid" if certifiable else "window-limited evaluation"
    return Verdict(Status.INCONCLUSIVE, claim, window=window,
                   diagnostics=dict(diagnostics, reason=reason))


# -- the function lattice ----------------------------------------------------


class CmFunction:
    """Copy-gap style function: positive, with slope at most 2."""

    def __init__(self, space: MetricSpace, fn: Callable[[Point], Rational], name: str):
        self.space = space
        self.fn = fn
        self.name = name
        self._cache = {}

    def value(self, x: Point) -> Rational:
        v = self._cache.get(x)
        if v is None:
            v = self.fn(x)
            self._cache[x] = v
        return v

    def __repr__(self):
        return f"CmFunction({self.name})"


def f_map(d: DoubleMetric) -> CmFunction:
    """F(d): x -> d(x, x'), the copy-gap function of a kernel."""

    def fn(x):
        return evaluate_exact(d, x, x).value

    return CmFunction(d.space, fn, f"F({d.kind})")


def cm_meet(f: CmFunction, g: CmFunction) -> CmFunction:
    return CmFunction(f.space, lambda x: max(f.value(x), g.value(x)),
                      f"({f.name} ^ {g.name})")


def cm_join(f: CmFunction, g: CmFunction) -> CmFunction:
    return CmFunction(f.space, lambda x: min(f.value(x), g.value(x)),
                      f"({f.name} v {g.name})")


def check_cm(f: CmFunction, window: Window) -> dict:
    """Verify (f1) a positive floor and (f2) slope <= 2, exhaustively."""
    pts = window_points(f.space, window)
    vals = {x: f.value(x) for x in pts}
    floor = min(vals.values()) if vals else None
    report = {"f1_floor": rational_to_json(floor) if floor is not None else None,
              "f1_positive": floor is not None and floor > 0}
    bad = None
    for i, x in enumerate(pts):
        vx = vals[x]
        for y in pts[i + 1:]:
            gap = vx - vals[y]
            if gap < 0:
                gap = -gap
            allowed = 2 * f.space._dist(x, y)
            if gap > allowed:
                bad = {"x": list(x), "y": list(y),
                       "gap": rational_to_json(gap),
                       "allowed": rational_to_json(allowed)}
                break
        if bad:
            break
    report["f2_slope"] = bad is None
    if bad:
        report["violation"] = bad
    report["passed"] = report["f1_positive"] and report["f2_slope"]
    return report


# -- lattice operations ------------------------------------------------------


def meet(e: LevelFunction, f: LevelFunction) -> LevelFunction:
    """Intersection of expanding sequences: levels combine by max."""
    return _combined("meet", "^", e, f)


def join(e: LevelFunction, f: LevelFunction) -> LevelFunction:
    """Union of expanding sequences: levels combine by min."""
    return _combined("join", "v", e, f)


def _combine_levels(op: str, a: Sequence[int], b: Sequence[int]) -> list:
    """The level list of a meet ("meet": elementwise max) or a join
    ("join": elementwise min) of two level lists of the same points.  Each
    is written as the comparison max(x, y) or min(x, y) makes (y only when
    y > x, or y < x), which a list comprehension runs several times faster
    than ``map(max, ...)``."""
    if op == "meet":
        return [y if y > x else x for x, y in zip(a, b)]
    return [y if y < x else x for x, y in zip(a, b)]


def _combined(op, symbol, e, f):
    _common_space(e, f)
    try:
        payload = {"kind": op, "of": [e.to_json(), f.to_json()]}
    except DomainError:
        payload = None
    return LevelFunction(e.space, lambda pts: _combine_levels(op, e.levels(pts), f.levels(pts)),
                         f"({e.name} {symbol} {f.name})", "combined", payload)


def metric_meet(d1: DoubleMetric, d2: DoubleMetric, window: Window) -> MaxMetric:
    """Pointwise max kernel; operands must be certified projections."""
    _require_projection(d1, window)
    _require_projection(d2, window)
    return MaxMetric(d1, d2)


def metric_join(d1: DoubleMetric, d2: DoubleMetric, window: Window) -> MinGlueMetric:
    """Infimum glue kernel over min(d1(u,u'), d2(u,u'))."""
    _require_projection(d1, window)
    _require_projection(d2, window)
    return MinGlueMetric(d1, d2)


def _require_projection(d, window):
    v = projection_criterion(d, window)
    if not v.certified:
        raise DomainError(f"{d.kind} kernel is not a certified projection on this window")


def source_projection(d: DoubleMetric, window: Optional[Window] = None) -> LevelFunction:
    """Levels of A_n = {x : d(x, X') <= n}.  Without a window the values
    d(x, X') are certified by escalation; with one they are the window's."""

    def fn(x):
        if window is None:
            ev = _escalate(d, lambda w: d.dist_to_copy(x, w), (x,), "dist-to-copy")
        else:
            ev = d.dist_to_copy(x, window)
        return max(1, math.ceil(ev.value))

    return LevelFunction(d.space, lambda pts: list(map(fn, pts)), f"src[{d.kind}]", "from-metric")


# -- type classification ----------------------------------------------------


# search bounds of classify_type: cores A_n, table k(m) and its cap on k
TYPE_N_MAX = 8
TYPE_K_MAX = 64
TYPE_M_MAX = 24


def classify_type(e: LevelFunction, window: Window,
                  radii: Optional[list] = None) -> Verdict:
    """Type I: e is equivalent to the neighborhood sequence of one of its own
    sublevel sets A_n (stable across the radius sweep), reported with the
    containment table k(m) = ceil(max d_X(x, A_n) over window points of level
    <= m), read from the transfer table of level against that distance.
    Type II is never certified, only evidenced by required neighborhood radii
    that grow at every window enlargement.  Hand radii are checked by
    ``_window_radii``, as in ``equivalent``.  One enumeration serves the
    sweep and the k table's window: the window's radius joins the sweep when
    it is the larger, and otherwise it is the largest sweep radius.  That
    largest list is read with one ``levels`` call, and its distances to each
    core A_n with one ``set_distances`` call.
    """
    space = e.space
    radii = _window_radii(window, radii)
    extended = window.radius > radii[-1]
    windows = sweep_windows(space, window, [*radii, window.radius] if extended else radii)
    widest = windows[-1]
    levels = dict(zip(widest, e.levels(widest)))
    tabs = [{x: levels[x] for x in pts} for pts in windows]
    big_tab = tabs[-1]  # the window's own ball
    if extended:  # that ball joined the sweep only to be read
        windows.pop()
        tabs.pop()
    if not big_tab:
        return Verdict(Status.INCONCLUSIVE, f"classify({e.name})", window=window,
                       diagnostics={"reason": "empty window"})
    usable = [n for n in range(1, TYPE_N_MAX + 1)
              if any(v <= n for v in big_tab.values())]
    claim = f"classify({e.name})"
    growth = {}
    for n in usable:
        core = e.sublevel(n)
        # d_X(x, A_n) on the widest list, read once and shared by ecore (the
        # levels of levels_from_subset(space, core)), the k table and the growth
        core_dist = dict(zip(widest, set_distances(space, widest, core)))
        ecore = LevelFunction(space, lambda pts: [max(1, math.ceil(2 * core_dist[x]))
                                                  for x in pts],
                              f"E[{core.name}]", "from-subset")
        v = _equivalent_on(e, ecore, "coarse", window, radii, windows)

        def k_table_of(tab):  # m -> max of d_X(x, A_n) over levels <= m <= TYPE_M_MAX
            return TransferTable.from_levels((lv, core_dist[x]) for x, lv in tab.items()
                                             if lv <= TYPE_M_MAX)

        if v.certified:
            kt = k_table_of(big_tab)
            series = [(m, d) for m in range(1, TYPE_M_MAX + 1)
                      if (d := kt.value_at(m)) is not None]
            # value_at grows with m, so the last k is the largest
            if series and math.ceil(series[-1][1]) <= TYPE_K_MAX:
                k_table = [(m, math.ceil(d)) for m, d in series]
                return Verdict(
                    Status.CERTIFIED, claim, window=window, value="type-I",
                    witness=TabulatedWitness(tuple(k_table)),
                    diagnostics={"n": n, "k_table": [[m, k] for m, k in k_table],
                                 "series": [[m, rational_to_json(d)] for m, d in series],
                                 "equivalence": v.to_json()},
                    check_kind=CHECK_DOMINATES)
        # minimal k with A_m cap W inside N_k(A_n) per radius, at the deepest m
        growth[n] = [(r, math.ceil(t.entries[-1][1]))
                     for r, t in zip(radii, map(k_table_of, tabs)) if t.entries]
    all_grow = usable and all(
        len(g) >= 3 and all(b > a for a, b in zip(g, g[1:]))
        for g in (tuple(v for _, v in growth[n]) for n in usable))
    diagnostics = {"growth": {str(n): [[rational_to_json(r), rational_to_json(k)]
                                       for r, k in growth[n]]
                              for n in usable}}
    if all_grow:
        return Verdict(Status.INCONCLUSIVE, claim, window=window,
                       value="type-II-evidence",
                       diagnostics=dict(diagnostics,
                                        radii=[rational_to_json(r) for r in radii]))
    return Verdict(Status.INCONCLUSIVE, claim, window=window, value="unclassified",
                   diagnostics=diagnostics)
