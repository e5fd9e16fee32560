"""Approximate units presenting projections as function ideals.

u_n(x) = max(0, 1 - d_X(x, A_2n)) is 1 exactly on A_2n and supported on its
1-neighborhood, so u_n u_{n+1} = u_n reduces to a support implication.
Units are closures over exact set distances; only distances below 1 matter,
so every evaluation is a radius-1 scan.
"""

from __future__ import annotations

from typing import Callable

from .asymptotics import TransferTable, sweep_windows
from .errors import DomainError
from .projection import LevelFunction
from .space import Point, Rational, Window, rational_to_json, window_points


class ApproximateUnit:
    """The unit family of the expanding sequence behind a level function."""

    def __init__(self, levels: LevelFunction):
        self.levels = levels
        self.space = levels.space

    def set_distance_capped(self, x: Point, n: int) -> Rational:
        """d_X(x, A_2n), exact when < 1; returns 1 for anything >= 1."""
        cutoff = 2 * n
        if self.levels.level(x) <= cutoff:
            return 0
        # the scanned points lie within 1 of x, so the minimum needs no cap
        return min((self.space._dist(x, p) for p in self.space.points_within(x, 1)
                    if self.levels.level(p) <= cutoff), default=1)

    def value(self, n: int, x: Point) -> Rational:
        if n < 1:
            raise DomainError("unit index starts at 1")
        return max(0, 1 - self.set_distance_capped(x, n))


def unit_eval(unit: ApproximateUnit, n: int, x: Point) -> Rational:
    """Exact u_n(x), checked to be a point of the space; the scan radius is 1."""
    unit.space.check(x)
    return unit.value(n, x)


def check_au(unit: ApproximateUnit, window: Window, n_max: int = 6) -> dict:
    """(au1) u_n u_{n+1} = u_n pointwise-exactly, via the support implication
    u_n(x) > 0 => u_{n+1}(x) = 1 and by direct product evaluation.
    (au2) in the relaxed form d_X(x,y) >= 1, with pairs achieving exactly 1
    listed separately as strict violations (reported, not fatal).  The
    window widened by 1, whose levels u_n reads, is read in one ``levels`` call.
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    pts, wide = sweep_windows(unit.space, window, [window.radius, window.radius + 1])
    unit.levels.levels(wide)
    # u[n][i] = u_n(pts[i]), each evaluated once and read by both checks
    u = {n: [unit.value(n, x) for x in pts] for n in range(1, n_max + 2)}
    au1_violation = None
    for n in range(1, n_max + 1):
        for x, un, un1 in zip(pts, u[n], u[n + 1]):
            if un > 0 and un1 != 1:
                au1_violation = {"n": n, "x": list(x),
                                 "u_n": rational_to_json(un),
                                 "u_n1": rational_to_json(un1)}
                break
            if un * un1 != un:
                au1_violation = {"n": n, "x": list(x), "product": "mismatch"}
                break
        if au1_violation:
            break
    au2_violation = None
    strict_failures = []
    for n in range(1, n_max + 1):
        ones = [x for x, v in zip(pts, u[n]) if v == 1]
        zeros = [x for x, v in zip(pts, u[n]) if v == 0]
        for x in ones:
            for y in zeros:
                d = unit.space._dist(x, y)
                if d < 1:
                    au2_violation = {"n": n, "x": list(x), "y": list(y),
                                     "distance": rational_to_json(d)}
                    break
                if d == 1:
                    strict_failures.append({"n": n, "x": list(x), "y": list(y)})
            if au2_violation:
                break
        if au2_violation:
            break
    return {"au1_exact": au1_violation is None,
            "au1_violation": au1_violation,
            "au2_relaxed": au2_violation is None,
            "au2_violation": au2_violation,
            "au2_strict_failures": strict_failures[:16],
            "au2_strict_failure_count": len(strict_failures),
            "passed": au1_violation is None and au2_violation is None,
            "n_points": len(pts)}


def unit_meet(u: ApproximateUnit, v: ApproximateUnit, n: int) -> Callable[[Point], Rational]:
    """w_n = u_n v_n, the unit of the intersection ideal."""
    _same_space(u, v)
    return lambda x: u.value(n, x) * v.value(n, x)


def unit_join(u: ApproximateUnit, v: ApproximateUnit, n: int) -> Callable[[Point], Rational]:
    """t_n = min(u_n + v_n, 1), the unit of the sum ideal."""
    _same_space(u, v)
    return lambda x: min(u.value(n, x) + v.value(n, x), 1)


def _same_space(u, v):
    if u.space != v.space:
        raise DomainError("units live on different spaces")


def level_set_identities(u: ApproximateUnit, v: ApproximateUnit, n: int,
                         window: Window) -> dict:
    """{w_n=1} = A_2n cap B_2n, and the sandwich
    A_2n cup B_2n subset {t_n=1} subset A_{2n+1} cup B_{2n+1}, on the window.
    Both level functions read the window widened by 1 in one ``levels`` call."""
    _same_space(u, v)
    pts, wide = sweep_windows(u.space, window, [window.radius, window.radius + 1])
    la_of, lb_of = (dict(zip(wide, unit.levels.levels(wide))) for unit in (u, v))
    w_fn, t_fn = unit_meet(u, v, n), unit_join(u, v, n)
    meet_exact = True
    sandwich_lower = True
    sandwich_upper = True
    detail = None
    for x in pts:
        la, lb = la_of[x], lb_of[x]
        in_meet = la <= 2 * n and lb <= 2 * n
        if (w_fn(x) == 1) != in_meet:
            meet_exact = False
            detail = {"x": list(x), "check": "meet"}
            break
        in_union = la <= 2 * n or lb <= 2 * n
        t1 = t_fn(x) == 1
        if in_union and not t1:
            sandwich_lower = False
            detail = {"x": list(x), "check": "sandwich-lower"}
            break
        if t1 and not (la <= 2 * n + 1 or lb <= 2 * n + 1):
            sandwich_upper = False
            detail = {"x": list(x), "check": "sandwich-upper"}
            break
    passed = meet_exact and sandwich_lower and sandwich_upper
    out = {"meet_level_set_exact": meet_exact,
           "sandwich_lower": sandwich_lower,
           "sandwich_upper": sandwich_upper,
           "passed": passed, "n": n, "n_points": len(pts)}
    if detail:
        out["violation"] = detail
    return out


def recovered_levels(unit: ApproximateUnit) -> LevelFunction:
    """Reconstruct a level function from the unit family alone:
    lambda'(x) = min{n >= 1 : u_n(x) = 1}.  Recovers the sequence at half
    index: u_n(x) = 1 exactly when lambda(x) <= 2n, so lambda'(x) is
    ceil(lambda(x) / 2), which is at least 1 since lambda(x) >= 1."""
    return LevelFunction(unit.space, lambda pts: [-(-v // 2) for v in unit.levels.levels(pts)],
                         f"rec[{unit.levels.name}]", "recovered")


def recovery_transfer(unit: ApproximateUnit, window: Window) -> dict:
    """Transfer tables between the source levels and the recovered levels;
    the unit presentation loses at most a factor-2 reindexing."""
    pts = window_points(unit.space, window)
    pairs = list(zip(unit.levels.levels(pts), recovered_levels(unit).levels(pts)))
    t_fwd = TransferTable.from_levels(pairs)
    t_bwd = TransferTable.from_levels((v, n) for n, v in pairs)
    bound_ok = all(v <= 2 * n + 2 for n, v in t_fwd.entries) and \
        all(v <= 2 * n + 2 for n, v in t_bwd.entries)
    return {"forward": t_fwd.to_json(), "backward": t_bwd.to_json(),
            "bounded_by_2n_plus_2": bound_ok, "passed": bound_ok}
