"""Admissible measures as exact density functionals with interval answers.

A density measure reports, per radius R of a growing schedule, the exact
rational mass ratio of a set inside the ball B_R.  Limits are never taken:
an interval collects the tail of the schedule.  The admissibility axiom
"bounded sets have measure zero" is applied by a stall rule, not a proof:
when a set's member masses are equal at the last three schedule radii, the
set is reported as bounded and its per-radius value as exactly 0 (raw counts
stay in the report).

``nu_hat``, ``nu_bar`` and ``check_modularity`` read each level function
once, with one ``levels`` call on the largest schedule ball, and work on
level lists from there: the list of a meet is the elementwise max of its
operands' lists and that of a join the elementwise min (``_combine_levels``,
the rule of ``projection.meet`` and ``join``), and ``ratio_series`` scans
each distinct list once.  ``ratio_series`` returns masses only; a ratio is
built where it is reported (``density`` its one row, ``nu_hat`` the row of
its deepest sublevel, ``NuHatReport.per_n`` when read).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from .asymptotics import _check_radii, _common_space
from .boolalg import FormalSum
from .errors import DomainError
from .projection import LevelFunction, _combine_levels, unit_levels
from .space import (LineSpace, MetricSpace, Point, PointSet, Rational, Window,
                    rational_to_json, window_points)

DEFAULT_SCHEDULE_BASE = 32
DEFAULT_SCHEDULE_STEPS = 6


def default_schedule(base: int = DEFAULT_SCHEDULE_BASE,
                     steps: int = DEFAULT_SCHEDULE_STEPS) -> List[int]:
    """Geometric radius schedule R, 2R, ..., 2^(steps-1) R."""
    return [base * 2 ** i for i in range(steps)]


@dataclass(frozen=True)
class DensityInterval:
    """Finitary liminf/limsup surrogate: min and max over the schedule tail."""

    lo: Rational
    hi: Rational
    series: tuple  # ((radius, value), ...)

    @classmethod
    def from_series(cls, series: Sequence) -> "DensityInterval":
        if not series:
            raise DomainError("empty density series")
        tail = list(series)[-math.ceil(len(series) / 2):]
        vals = [v for _, v in tail]
        return cls(min(vals), max(vals), tuple(series))

    def to_json(self):
        return {"lo": rational_to_json(self.lo), "hi": rational_to_json(self.hi),
                "series": [[rational_to_json(r), rational_to_json(v)]
                           for r, v in self.series]}


class DensityMeasure:
    """Counting (or weighted) density within balls around the basepoint."""

    def __init__(self, space: MetricSpace,
                 weight: Optional[Callable[[Point], Rational]] = None,
                 name: str = "natural"):
        self.space = space
        self.weight = weight
        self.name = name
        self._ball_cache = {}

    @classmethod
    def natural(cls, space: MetricSpace) -> "DensityMeasure":
        return cls(space)

    def ball(self, radius: Rational) -> list:
        pts = self._ball_cache.get(radius)
        if pts is None:
            pts = window_points(self.space, Window(radius))
            self._ball_cache[radius] = pts
        return pts

    def _weight(self, p: Point) -> Rational:
        w = self.weight(p)
        if w <= 0:
            raise DomainError("weights must be positive")
        return w

    def ratio_series(self, levels: Callable[[Sequence[Point]], Sequence[int]],
                     schedule: Sequence[Rational], n_max: int) -> list:
        """Sublevel masses for every schedule radius and level, exact.

        levels maps a point list to the points' levels, as
        ``LevelFunction.levels`` does.  Row n - 1 (n = 1..n_max) holds, per
        radius r in schedule order, the tuple (r, member_mass, ball_mass):
        the mass of {p in B_r : level(p) <= n} and the mass of B_r.  No ratio
        is built here; each caller divides the masses it reports.

        The largest ball is read once: one ``levels`` call for all of its
        points (on the integer lines, subset levels take one
        distance-transform sweep of the ball, see ``set_distances``).  Each
        point goes to the bucket of the smallest schedule radius whose ball
        holds it and of min(level, n_max + 1).  On a ``LineSpace`` with the
        natural measure, B_r is the slice of the sorted ball between
        (b - r,) and (b + r,) for the basepoint b, so the ring of each radius
        is at most two slices of the level list, and a ``Counter`` per slice
        fills its buckets.  Elsewhere, and for a weighted measure, each point
        takes one distance to the basepoint (a point lies in B_r iff it is at
        most r, since balls are enumerated completely) and one weight.
        Prefix sums over radii and levels then give every row.  The schedule
        may be unsorted and may repeat radii.
        """
        radii = sorted(set(schedule))
        width = n_max + 1
        zero = 0 if self.weight is None else Fraction(0)
        buckets = [zero] * (len(radii) * width)
        ball = self.ball(radii[-1])
        lvs = levels(ball)
        if self.weight is None and isinstance(self.space, LineSpace):
            (b,) = self.space.basepoint
            lo = hi = bisect_left(ball, (b,))   # B_r is ball[lo:hi]
            for i, r in enumerate(radii):
                start, end = bisect_left(ball, (b - r,), 0, lo), bisect_right(ball, (b + r,), hi)
                ring = Counter(lvs[start:lo])
                ring.update(lvs[hi:end])
                lo, hi = start, end
                for lv, count in ring.items():
                    buckets[i * width + (lv if lv < width else width) - 1] += count
        else:
            base, dist = self.space.basepoint, self.space._dist
            weigh = self._weight if self.weight is not None else None
            for p, lv in zip(ball, lvs):
                i = bisect_left(radii, dist(p, base)) * width + (lv if lv < width else width) - 1
                buckets[i] += 1 if weigh is None else weigh(p)
        inner = [zero] * width     # per level, the mass of the balls so far
        member, total = {}, {}
        for i, r in enumerate(radii):
            inner = [a + b for a, b in zip(inner, buckets[i * width:(i + 1) * width])]
            member[r] = list(itertools.accumulate(inner[:n_max]))
            total[r] = sum(inner, zero)
        return [[(r, member[r][n], total[r]) for r in schedule] for n in range(n_max)]

    def to_json(self):
        return {"measure": self.name, "space": self.space.to_json()}


def _schedule(schedule: Optional[Sequence[Rational]]) -> Sequence[Rational]:
    """The schedule, or the default one for None.  DomainError unless it has
    at least 3 radii, nonnegative and strictly increasing: with equal radii
    every sublevel would look bounded, and the bounded-set rule would set it
    to 0."""
    if schedule is None:
        return default_schedule()
    if len(schedule) < 3:
        raise DomainError("schedule needs at least 3 radii")
    _check_radii(schedule)
    return schedule


def density(mu: DensityMeasure, A: PointSet,
            schedule: Optional[Sequence[Rational]] = None) -> DensityInterval:
    """Exact per-radius density of A with a tail interval."""
    schedule = _schedule(schedule)
    rows = mu.ratio_series(lambda pts: [1 if A.contains(p) else 2 for p in pts],
                           schedule, 1)[0]
    return DensityInterval.from_series([(r, Fraction(m, t)) for r, m, t in rows])


@dataclass
class NuHatReport:
    """Density limit surrogate of a projection along its sublevel sets."""

    interval: DensityInterval
    am2_applied: list            # levels whose last three masses are equal
    monotone_exact: bool
    masses: list                 # raw member masses per level n, per radius
    ball_masses: list            # ball mass per radius

    @property
    def per_n(self) -> list:
        """JSON rows per level n, derived from the masses when read."""
        radii = [r for r, _ in self.interval.series]
        return [{"n": n, "bounded": n in self.am2_applied,
                 "series": [[rational_to_json(r), rational_to_json(Fraction(m, t))]
                            for r, m, t in zip(radii, masses, self.ball_masses)],
                 "masses": [rational_to_json(m) for m in masses]}
                for n, masses in enumerate(self.masses, 1)]

    @property
    def bounded_masses(self) -> list:
        """The last masses that the bounded-set adjustment hid, per level."""
        return [self.masses[n - 1][-1] for n in self.am2_applied]

    def to_json(self):
        return {"interval": self.interval.to_json(),
                "per_n": self.per_n,
                "am2_applied": self.am2_applied,
                "monotone_exact": self.monotone_exact}


def nu_hat(mu: DensityMeasure, e: LevelFunction, n_max: int = 8,
           schedule: Optional[Sequence[Rational]] = None) -> NuHatReport:
    """sup over n <= n_max of the (admissibility-adjusted) density of A_n.

    Per fixed radius the raw ratios are exactly monotone in n, so the sup is
    realized by the deepest sublevel; its adjusted series is the value.
    ``monotone_exact`` states that monotonicity on the member masses (the
    ratios at one radius share its positive ball mass).  It holds by
    construction, since ``ratio_series`` accumulates nonnegative masses; it
    stays in the report because the density-sweep benchmark reads it.  The
    levels of the largest ball are read with one ``levels`` call, and all
    n_max sublevels come from one ``ratio_series`` pass over them; the report
    keeps the raw masses for ``check_modularity`` and derives ``per_n`` from
    them when read.
    """
    schedule = _schedule(schedule)
    _check_n_max(n_max)
    return _nu_hat(mu, e.levels(mu.ball(max(schedule))), n_max, schedule)


def _check_n_max(n_max: int) -> None:
    if n_max < 1:
        raise DomainError("n_max must be at least 1")


def _nu_hat(mu: DensityMeasure, levels: list, n_max: int,
            schedule: Sequence[Rational]) -> NuHatReport:
    """``nu_hat`` after validation, for the level list of
    ``mu.ball(max(schedule))``, which ``ratio_series`` then scans."""
    rows_by_n = mu.ratio_series(lambda ball: levels, schedule, n_max)
    masses_by_n = [[m for _, m, _ in rows] for rows in rows_by_n]
    # levels whose member mass stopped growing along the schedule tail
    am2 = [n for n, m in enumerate(masses_by_n, 1) if m[-3] == m[-2] == m[-1]]
    monotone = all(a <= b for prev, masses in zip(masses_by_n, masses_by_n[1:])
                   for a, b in zip(prev, masses))
    # only the deepest sublevel's ratios are reported
    series = [(r, 0 if n_max in am2 else Fraction(m, t)) for r, m, t in rows_by_n[-1]]
    return NuHatReport(DensityInterval.from_series(series), am2, monotone,
                       masses_by_n, [t for _, _, t in rows_by_n[0]])


def _reports(mu: DensityMeasure, n_max: int,
             schedule: Sequence[Rational]) -> Callable[[list], NuHatReport]:
    """``_nu_hat`` of level lists of ``mu.ball(max(schedule))``, computed
    once per distinct list: equal lists have equal reports, so a duplicated
    generator, or a meet equal to one of its operands, is not scanned again."""
    memo = {}

    def report(levels):
        key = tuple(levels)
        rep = memo.get(key)
        if rep is None:
            rep = memo[key] = _nu_hat(mu, levels, n_max, schedule)
        return rep

    return report


def nu_bar(mu: DensityMeasure, s: FormalSum, n_max: int = 8,
           schedule: Optional[Sequence[Rational]] = None) -> dict:
    """Inclusion-exclusion extension to mod-2 sums of projections.

    nu_bar(e_1 + ... + e_n) = sum_i (-2)^(i-1) sigma_i, where sigma_i sums
    nu_hat over the meets of all properly monotone i-tuples.  Everything is
    computed per radius as an exact rational before the interval is taken.
    Each distinct generator's levels are read once, with one ``levels``
    call on the largest ball; the level list of a meet is the elementwise
    max of its operands' lists, so no meet is read, and each distinct list
    is scanned once (duplicated generators, or a meet equal to an operand,
    share one ``nu_hat`` report).
    """
    schedule = _schedule(schedule)
    if not s.terms:
        zero = [(r, 0) for r in schedule]
        return {"interval": DensityInterval.from_series(zero).to_json(),
                "sigma": [], "sum": s.label(),
                "series": [[rational_to_json(r), 0] for r in schedule]}
    _check_n_max(n_max)
    ball = mu.ball(max(schedule))
    read = {}

    def levels(k):
        g = s.generators[k]
        if g not in read:
            read[g] = g.levels(ball)
        return read[g]

    return _nu_bar(s, levels, _reports(mu, n_max, schedule), schedule)


def _nu_bar(s: FormalSum, levels: Callable[[int], list],
            report: Callable[[list], NuHatReport], schedule: Sequence[Rational]) -> dict:
    """``nu_bar`` of a nonempty sum after validation; levels(k) is the level
    list of generator k on the largest ball, and report gives a level list's
    ``nu_hat`` report."""
    gens = s.generators
    totals = [Fraction(0)] * len(schedule)
    sigma_report = []
    for size in range(1, len(s.terms) + 1):
        coeff = (-2) ** (size - 1)
        sigma_vals = [Fraction(0)] * len(schedule)
        for combo in itertools.combinations(s.terms, size):
            lv = levels(combo[0])
            for k in combo[1:]:
                _common_space(gens[combo[0]], gens[k])
                lv = _combine_levels("meet", lv, levels(k))
            vals = [v for _, v in report(lv).interval.series]
            sigma_vals = [a + b for a, b in zip(sigma_vals, vals)]
        totals = [t + coeff * sv for t, sv in zip(totals, sigma_vals)]
        sigma_report.append({"i": size,
                             "sigma": [rational_to_json(v) for v in sigma_vals]})
    series = list(zip(schedule, totals))
    return {"interval": DensityInterval.from_series(series).to_json(),
            "sigma": sigma_report, "sum": s.label(),
            "series": [[rational_to_json(r), rational_to_json(v)]
                       for r, v in series]}


def check_modularity(mu: DensityMeasure, e: LevelFunction, f: LevelFunction,
                     n_max: int = 8,
                     schedule: Optional[Sequence[Rational]] = None) -> dict:
    """(n3) modular law plus the (m2) complement law.

    Raw counts satisfy |meet| + |join| = |A| + |B| exactly per radius and
    level whenever meets and joins take the pointwise max and min of levels,
    so ``raw_exact_per_radius`` is a self-test of that rule, not evidence
    about nu.  The adjusted identity holds within the admissibility slack;
    (m2) is exact per radius through the mod-2 complement 1 + e.  e and f
    are each read once, with one ``levels`` call on the largest ball; the
    level lists of their meet and join are the elementwise max and min of
    those two lists, and (m2) takes its meet(unit, e) from e's list and the
    unit's.  The raw masses and ball masses come from the ``nu_hat`` reports
    of the four lists; each distinct list is scanned once, so (m2) scans
    only the unit's (meet(unit, e) has e's levels).
    """
    schedule = _schedule(schedule)
    _check_n_max(n_max)
    ball = mu.ball(max(schedule))
    report = _reports(mu, n_max, schedule)
    le = e.levels(ball)
    he = report(le)
    lf = f.levels(ball)
    hf = report(lf)
    _common_space(e, f)
    hm, hj = (report(_combine_levels(op, le, lf)) for op in ("meet", "join"))
    raw_exact = all(m + j == a + b
                    for rows in zip(he.masses, hf.masses, hm.masses, hj.masses)
                    for a, b, m, j in zip(*rows))
    hidden = sum(m for rep in (he, hf, hm, hj) for m in rep.bounded_masses[-1:])
    worst = Fraction(0)
    adjusted_ok = True
    slack = Fraction(0)
    for i, total in enumerate(he.ball_masses):
        lhs = hm.interval.series[i][1] + hj.interval.series[i][1]
        rhs = he.interval.series[i][1] + hf.interval.series[i][1]
        gap = abs(lhs - rhs)
        slack_r = Fraction(hidden, total) if total else Fraction(0)
        slack = max(slack, slack_r)
        worst = max(worst, gap)
        adjusted_ok = adjusted_ok and gap <= slack_r
    unit = unit_levels(mu.space)
    m2 = _nu_bar(FormalSum((unit, e), (0, 1)), [unit.levels(ball), le].__getitem__,
                 report, schedule)
    m2_expected = [[rational_to_json(r), rational_to_json(1 - v)]
                   for r, v in he.interval.series]
    m2_ok = m2_expected == m2["series"]
    return {"raw_exact_per_radius": raw_exact,
            "adjusted_within_slack": adjusted_ok,
            "slack": rational_to_json(slack),
            "worst_gap": rational_to_json(worst),
            "m2_complement_exact": m2_ok,
            "passed": raw_exact and adjusted_ok and m2_ok}
