"""Approximate units presenting projections as function ideals.

u_n(x) = max(0, 1 - d_X(x, A_2n)) is 1 exactly on A_2n and supported on its
1-neighborhood, so u_n u_{n+1} = u_n reduces to a support implication.
Units are closures over exact set distances; only distances below 1 matter,
so every evaluation is a radius-1 scan.
"""

from __future__ import annotations

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


def check_au(unit: ApproximateUnit, window: Window, n_max: int = 6) -> dict:
    """(au1) u_n u_{n+1} = u_n pointwise-exactly, via the support implication
    u_n(x) > 0 => u_{n+1}(x) = 1, which is the identity: where u_n(x) = 0
    both sides are 0, since u_{n+1} >= 0.
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
