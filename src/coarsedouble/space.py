"""Discrete proper metric spaces with exact windows.

Points are small integer tuples.  Every space knows how to enumerate the
points of any ball exactly, so all minimizations over "the whole space"
reduce to certified finite scans.  All distances are exact (int or
Fraction); nothing here touches floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import filterfalse
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import DomainError, SearchInconclusive, _malformed

Point = tuple
Rational = Union[int, Fraction]


def parse_int(text: str) -> int:
    """text as an int; DomainError naming the text when it is not one."""
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"not an integer: {text!r}") from None


def as_rational(v) -> Rational:
    if isinstance(v, (int, Fraction)):
        return v
    if isinstance(v, str):
        if "/" in v:
            num, den = (parse_int(t) for t in v.split("/", 1))
            if den == 0:
                raise DomainError(f"zero denominator in {v!r}")
            return Fraction(num, den)
        return parse_int(v)
    raise DomainError(f"not an exact rational: {v!r}")


def rational_to_json(v: Rational):
    if type(v) is int:  # most values; skips the ABC check isinstance(v, Fraction) pays
        return v
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return f"{v.numerator}/{v.denominator}"
    return int(v)


def ruler(n: int) -> int:
    """1 + (2-adic valuation of n); takes each value infinitely often, <= n."""
    if n <= 0:
        raise DomainError("ruler function is defined on positive integers")
    return 1 + (n & -n).bit_length() - 1


@dataclass(frozen=True)
class Window:
    """Ball of a given radius around a basepoint (space basepoint if None)."""

    radius: Rational
    basepoint: Optional[Point] = None

    def __post_init__(self):
        if self.radius < 0:
            raise DomainError("window radius must be nonnegative")

    def resolve_base(self, space: "MetricSpace") -> Point:
        if self.basepoint is None:
            return space.basepoint
        space.check(self.basepoint)
        return self.basepoint

    def to_json(self):
        doc = {"radius": rational_to_json(self.radius)}
        if self.basepoint is not None:
            doc["basepoint"] = list(self.basepoint)
        return doc


# The listing budget of ``MetricSpace.points_within``, and the radius at
# which the doubling searches (``dist_to_set``, ``_escalate`` in double.py)
# stop where balls grow too slowly to meet it (GeomLine: 62 points within
# 2^62 of 2).
SEARCH_POINT_CAP = 1 << 16
SEARCH_RADIUS_CAP = 1 << 62


def _within_budget(center: Point, radius: Rational, size: int) -> None:
    """SearchInconclusive naming the ball and the budget if size > SEARCH_POINT_CAP."""
    if size > SEARCH_POINT_CAP:
        raise SearchInconclusive(
            f"the ball of radius {radius} around {center} may hold {size} points, "
            f"over the listing budget of {SEARCH_POINT_CAP}", window_radius=radius)


class MetricSpace:
    """Base class: exact distance plus certified ball enumeration.  Public
    entry points pass the points their callers supply to ``check``, once;
    enumerated or already-checked points use the unchecked ``_dist``.

    ``metric`` names the distance: "manhattan" states that it is the l1
    distance of the point tuples, the sum over coordinates of |a - b|, so
    the batch paths of the double layer compute it from coordinate arrays;
    None, the default, promises nothing.
    """

    name: str = "abstract"
    basepoint: Point = ()
    metric: Optional[str] = None

    def contains(self, p: Point) -> bool:
        raise NotImplementedError

    def check(self, *points: Point) -> None:
        """Raise DomainError unless every point lies in the space."""
        for p in points:
            if not self.contains(p):
                raise DomainError(f"{p} is not a point of {self.name}")

    def distance(self, x: Point, y: Point) -> Rational:
        """Exact distance; raises DomainError off the space."""
        self.check(x, y)
        return self._dist(x, y)

    def _dist(self, x: Point, y: Point) -> Rational:
        raise NotImplementedError

    def points_within(self, center: Point, radius: Rational) -> list:
        """All points at distance <= radius from center, sorted lexicographically.

        The enumeration is complete: no point of the space outside the
        returned list lies within the radius.  A ball over the listing
        budget, one that may hold more than SEARCH_POINT_CAP points, is not
        listed: ``NatLine``, ``IntLine`` and ``TwoTails`` raise
        SearchInconclusive naming centre, radius and size before building
        any point (GeomLine balls below radius 2^63 hold under 64 points;
        custom and predicate spaces list their own finite sets).  ``NatLine``
        and ``IntLine`` return a ``_Run``; no enumeration may be changed in
        place (see ``window_points``).
        """
        raise NotImplementedError

    def to_json(self):
        return {"space": self.name}

    def __eq__(self, other):
        return isinstance(other, MetricSpace) and self.to_json() == other.to_json()

    def __hash__(self):
        return hash(json.dumps(self.to_json(), sort_keys=True))


class LineSpace(MetricSpace):
    """Base of the spaces whose points are one integer coordinate at
    distance |x - y|.  The batch paths of the double layer work on their
    coordinate arrays."""

    metric = "manhattan"

    def _dist(self, x, y):
        return abs(x[0] - y[0])


class _Run(list):
    """A list of consecutive line points [(lo,), (lo + 1,), ..., (hi,)], as
    ``NatLine`` and ``IntLine`` enumerate a ball.  It marks the list for
    ``set_distances``, which sweeps it as one run, unchecked and unsplit,
    when its length fits its ends; any other list made from it (a slice, a
    copy, a filtered list) is a plain list."""

    __slots__ = ()


def _run(center: Point, radius: Rational, lo: int) -> _Run:
    """The line ball [lo, center + radius] as a ``_Run``, within the listing budget."""
    hi = math.floor(center[0] + radius)
    _within_budget(center, radius, hi - lo + 1)
    return _Run(zip(range(lo, hi + 1)))


class NatLine(LineSpace):
    """{0, 1, 2, ...} with |x - y|."""

    name = "NatLine"
    basepoint = (0,)

    def contains(self, p):
        return isinstance(p, tuple) and len(p) == 1 and isinstance(p[0], int) and p[0] >= 0

    def points_within(self, center, radius):
        """The ball as a ``_Run``."""
        return _run(center, radius, max(0, math.ceil(center[0] - radius)))


class IntLine(LineSpace):
    """All integers with |x - y|."""

    name = "IntLine"
    basepoint = (0,)

    def contains(self, p):
        return isinstance(p, tuple) and len(p) == 1 and isinstance(p[0], int)

    def points_within(self, center, radius):
        """The ball as a ``_Run``."""
        return _run(center, radius, math.ceil(center[0] - radius))


class GeomLine(LineSpace):
    """{2^n : n >= 1} with |x - y|.  Windows are small even at huge radii."""

    name = "GeomLine"
    basepoint = (2,)

    def contains(self, p):
        if not (isinstance(p, tuple) and len(p) == 1 and isinstance(p[0], int)):
            return False
        v = p[0]
        return v >= 2 and (v & (v - 1)) == 0

    def points_within(self, center, radius):
        c = center[0]
        out = []
        v = 2
        hi = c + radius
        while v <= hi:
            if abs(v - c) <= radius:
                out.append((v,))
            v *= 2
        return out


class TwoTails(MetricSpace):
    """{(n^2, +phi(n)), (n^2, -phi(n)) : n >= 1} with the Manhattan metric.

    phi is the ruler function, which takes each value infinitely many times
    and satisfies phi(n) <= n.
    """

    name = "TwoTails"
    basepoint = (1, 1)
    metric = "manhattan"

    def contains(self, p):
        if not (isinstance(p, tuple) and len(p) == 2 and all(isinstance(c, int) for c in p)):
            return False
        a, b = p
        if a < 1:
            return False
        n = math.isqrt(a)
        if n * n != a:
            return False
        return abs(b) == ruler(n) and b != 0

    def _dist(self, x, y):
        return abs(x[0] - y[0]) + abs(x[1] - y[1])

    def points_within(self, center, radius):
        a0 = center[0]
        # |n^2 - a0| <= radius is necessary since the second coordinate
        # contributes nonnegatively to the Manhattan distance: n runs from
        # the least n >= 1 with n^2 >= a0 - radius to the greatest with
        # n^2 <= a0 + radius, two points each at most, which come out sorted
        # (n^2 rises with n, and -phi(n) < phi(n))
        lo = math.isqrt(max(math.ceil(a0 - radius) - 1, 0)) + 1
        hi = math.isqrt(max(math.floor(a0 + radius), 0))
        _within_budget(center, radius, 2 * (hi - lo + 1))
        return [p for n in range(lo, hi + 1) for p in ((n * n, -ruler(n)), (n * n, ruler(n)))
                if self._dist(p, center) <= radius]

    def to_json(self):
        return {"space": self.name, "phi": "ruler"}


class CustomSpace(MetricSpace):
    """Explicit finite point list with a Manhattan, rounded-Euclidean or table metric.

    The table metric is validated exhaustively (symmetry, zero diagonal,
    triangle inequality) at construction.  Enumeration is complete for any
    radius since the point list is exhaustive.
    """

    name = "Custom"

    def __init__(self, points: Sequence[Point], metric: str = "manhattan",
                 table=None, name: str = "Custom", basepoint: Optional[Point] = None):
        pts = sorted(tuple(p) for p in points)
        if any(type(c) is not int for p in pts for c in p):
            raise DomainError("custom space points have integer coordinates")
        if len({len(p) for p in pts}) > 1:
            raise DomainError("custom space points have one number of coordinates")
        if len(set(pts)) != len(pts):
            raise DomainError("duplicate points in custom space")
        if not pts:
            raise DomainError("custom space needs at least one point")
        self._points = pts
        self._index = {p: i for i, p in enumerate(pts)}
        self.metric = metric
        self.name = name
        self.basepoint = tuple(basepoint) if basepoint is not None else pts[0]
        if metric == "table":
            if table is None:
                raise DomainError("table metric requires a table")
            self._table = [[as_rational(v) for v in row] for row in table]
            self._validate_table()
        elif metric not in ("manhattan", "euclidean-rounded"):
            raise DomainError(f"unknown custom metric {metric!r}")

    def _validate_table(self):
        n = len(self._points)
        t = self._table
        if len(t) != n or any(len(row) != n for row in t):
            raise DomainError("distance table has wrong shape")
        for i in range(n):
            if t[i][i] != 0:
                raise DomainError("distance table: nonzero diagonal")
            for j in range(n):
                if t[i][j] != t[j][i]:
                    raise DomainError("distance table: not symmetric")
                if i != j and t[i][j] <= 0:
                    raise DomainError("distance table: nonpositive off-diagonal entry")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[i][j] > t[i][k] + t[k][j]:
                        raise DomainError("distance table: triangle inequality fails")

    def contains(self, p):
        return tuple(p) in self._index

    def _dist(self, x, y):
        if self.metric == "manhattan":
            return sum(abs(a - b) for a, b in zip(x, y))
        if self.metric == "euclidean-rounded":
            if x == y:
                return 0
            sq = sum((a - b) ** 2 for a, b in zip(x, y))
            r = math.isqrt(sq)
            return r if r * r == sq else r + 1
        return self._table[self._index[tuple(x)]][self._index[tuple(y)]]

    def points_within(self, center, radius):
        self.check(center)
        return [p for p in self._points if self._dist(center, p) <= radius]

    def to_json(self):
        doc = {"space": self.name, "points": [list(p) for p in self._points],
               "metric": self.metric}
        if self.metric == "table":
            doc["table"] = [[rational_to_json(v) for v in row] for row in self._table]
        return doc


class PredicateSpace(MetricSpace):
    """Finite custom space: the points of one or two integer coordinates
    that satisfy a predicate and lie within ``coverage_radius`` of the
    basepoint, with the Manhattan metric.  A ball is listed by scanning only
    its part inside the box of that radius around the basepoint.  A
    predicate has no document, so two predicate spaces are equal only when
    they are one object.
    """

    name = "CustomPredicate"
    metric = "manhattan"
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, predicate: Callable[[Point], bool], dim: int,
                 coverage_radius: int, basepoint: Point):
        if dim not in (1, 2):
            raise DomainError("predicate spaces support 1 or 2 coordinates")
        self.predicate = predicate
        self.dim = dim
        self.coverage_radius = coverage_radius
        self.basepoint = tuple(basepoint)
        if not predicate(self.basepoint):
            raise DomainError("basepoint fails the predicate")

    def contains(self, p):
        return (isinstance(p, tuple) and len(p) == self.dim
                and all(isinstance(c, int) for c in p) and self._inside(p))

    def _inside(self, p):
        return self._dist(p, self.basepoint) <= self.coverage_radius and self.predicate(p)

    def _dist(self, x, y):
        return sum(abs(a - b) for a, b in zip(x, y))

    def points_within(self, center, radius):
        r, cover, base = math.floor(radius), self.coverage_radius, self.basepoint
        # each coordinate's range is clipped to the box, in lexicographic order
        lo, hi = max(center[0] - r, base[0] - cover), min(center[0] + r, base[0] + cover)
        if self.dim == 1:
            scan = zip(range(lo, hi + 1))
        else:
            scan = ((a, b) for a in range(lo, hi + 1)
                    for b in range(max(center[1] - r + abs(a - center[0]), base[1] - cover),
                                   min(center[1] + r - abs(a - center[0]), base[1] + cover) + 1))
        return list(filter(self._inside, scan))


_BUILTINS = None


def builtin_spaces() -> dict:
    global _BUILTINS
    if _BUILTINS is None:
        _BUILTINS = {
            "NatLine": NatLine(),
            "IntLine": IntLine(),
            "GeomLine": GeomLine(),
            "TwoTails": TwoTails(),
        }
    return _BUILTINS


def space_by_name(name: str) -> MetricSpace:
    spaces = builtin_spaces()
    if name not in spaces:
        raise DomainError(f"unknown space {name!r} (builtins: {sorted(spaces)})")
    return spaces[name]


def space_from_json(doc) -> MetricSpace:
    """A built-in space by name, or a CustomSpace from its document; a
    malformed document raises DomainError."""
    if isinstance(doc, str):
        return space_by_name(doc)
    with _malformed("space"):
        name = doc.get("space", "Custom")
        if name in builtin_spaces():
            return space_by_name(name)
        return CustomSpace(points=[tuple(p) for p in doc["points"]],
                           metric=doc.get("metric", "manhattan"),
                           table=doc.get("table"), name=name,
                           basepoint=tuple(doc["basepoint"]) if "basepoint" in doc else None)


# ---------------------------------------------------------------------------
# Point sets


class PointSet:
    """A decidable subset of a space: explicit points or a named predicate.

    ``run_flags``, when not None, is the set's run reader: it maps a run of
    consecutive line points [(lo,), (lo + 1,), ..., (lo + n - 1,)] to their
    membership flags, and ``set_distances`` reads it instead of mapping
    ``contains`` over the run.  A named line family, or a complement of
    one, gets it from ``_line_members``."""

    def __init__(self, name: str, contains: Callable[[Point], bool],
                 points: Optional[frozenset] = None, family: Optional[dict] = None,
                 run_flags: Optional[Callable[[Sequence[Point]], list]] = None):
        self.name = name
        self._contains = contains
        self.points = points
        self.family = family  # serializable description, when available
        if run_flags is None and family is not None and _line_members(family, 0, 0) is not None:
            run_flags = lambda run: _line_members(family, run[0][0], len(run))
        self.run_flags = run_flags

    @classmethod
    def from_points(cls, points: Iterable[Point], name: Optional[str] = None) -> "PointSet":
        pts = frozenset(tuple(p) for p in points)
        label = name or ("{" + ",".join(str(p) for p in sorted(pts)[:4])
                         + (",..." if len(pts) > 4 else "") + "}")
        return cls(label, pts.__contains__, points=pts,
                   family={"family": "explicit", "points": [list(p) for p in sorted(pts)]})

    def contains(self, p: Point) -> bool:
        return self._contains(tuple(p))

    def complement(self) -> "PointSet":
        fam = None
        if self.family is not None:
            fam = {"family": "complement", "of": self.family}
        return PointSet(f"~{self.name}", lambda p: not self._contains(p), family=fam)

    def to_json(self):
        if self.family is not None:
            return self.family
        raise DomainError(f"point set {self.name!r} carries no serializable description")


class _PointFunction:
    """An exact function >= 1 on points with its cache, shared by level and copy-gap
    functions; ``fn`` maps a point list to a value list, ``what`` names the kind.
    ``values`` reads a point list and ``_value`` one point; the subclasses
    bind them under their own names (``LevelFunction.levels`` and ``level``,
    ``DeltaFunction.__call__``).

    The cache is a dict from points to values plus at most one pending pair:
    a copy of the list of the first whole-list read and a tuple of its
    values.  Many level functions are read once, as one list, so that read
    builds no dict entry per point; any other read first moves the pair
    into the dict (``_settle``)."""

    def __init__(self, space: MetricSpace, fn: Callable[[Sequence[Point]], list],
                 name: str, payload: Optional[dict] = None):
        self.space = space
        self.fn = fn
        self.name = name
        self.payload = payload
        self._cache = {}
        self._pending = None

    def values(self, pts: Sequence[Point]) -> list:
        """The values at pts.  A list with no cached point (always, when the
        cache is empty) is one ``_read``: one ``fn`` call with the whole list,
        whose validated list is returned.  When nothing was cached before,
        that read is kept as the pending pair, and a later read of an equal
        list returns a copy of its values with no ``fn`` call.  Any other
        read settles the pair into the dict first; then the uncached points
        go to ``fn`` in one call and every value is read from the dict.  A
        value below 1 raises DomainError naming the first one; none is cached."""
        pending = self._pending
        if pending is not None:
            if pending[0] == pts:
                return list(pending[1])
            self._settle()
        cache = self._cache
        missing = list(filterfalse(cache.__contains__, pts)) if cache else pts
        if len(missing) == len(pts) and missing:
            return self._read(pts, pend=not cache)
        if missing:
            self._read(missing)
        return list(map(cache.__getitem__, pts))

    def _value(self, x: Point):
        """The value at one point: from the dict, else from the dict once the
        pending pair is settled, else from one ``fn`` call."""
        v = self._cache.get(x)
        if v is None:
            self._settle()
            v = self._cache.get(x)
            if v is None:
                (v,) = self._read((x,))
        return v

    def _settle(self) -> None:
        # from a local snapshot: a concurrent reader may settle the same
        # pair, and every pair holds the function's values
        pending = self._pending
        if pending is not None:
            self._cache.update(zip(*pending))
            self._pending = None

    def _read(self, pts: Sequence[Point], pend: bool = False) -> list:
        vals = self.fn(pts)
        if not isinstance(vals, list) or len(vals) != len(pts):
            raise DomainError(f"{self.what} {self.name} must give a list of one value per point")
        if vals and min(vals) < 1:
            x, v = next((x, v) for x, v in zip(pts, vals) if v < 1)
            raise DomainError(f"{self.what} {self.name} gave {v} < 1 at {x}")
        if pend:
            self._pending = (list(pts), tuple(vals))
        else:
            self._cache.update(zip(pts, vals))
        return vals

    def to_json(self):
        if self.payload is not None:
            return dict(self.payload, name=self.name)
        raise DomainError(f"{self.what} {self.name!r} has no serializable form")


def _combine_levels(op: str, a: Sequence, b: Sequence) -> list:
    """The value list of a meet ("meet": elementwise max) or a join
    ("join": elementwise min) of two value lists of the same points, as
    level and copy-gap functions combine.  Each is written as the
    comparison max(x, y) or min(x, y) makes (y only when y > x, or y < x),
    which a list comprehension runs several times faster than
    ``map(max, ...)``."""
    if op == "meet":
        return [y if y > x else x for x, y in zip(a, b)]
    return [y if y < x else x for x, y in zip(a, b)]


def _common_space(a, b) -> MetricSpace:
    """The space of two operands (kernels, level or copy-gap functions), or
    DomainError when they live on different spaces."""
    if a.space is not b.space and a.space != b.space:
        raise DomainError("operands live on different spaces")
    return a.space


def _is_square(v: int) -> bool:
    if v < 0:
        return False
    r = math.isqrt(v)
    return r * r == v


def _is_scaled_power(v: int, base: int, scale: int) -> bool:
    if v < scale * base or v % scale:
        return False
    q = v // scale
    while q % base == 0:
        q //= base
    return q == 1


def set_family(family: str, **args) -> PointSet:
    """Named one-dimensional set families used throughout the reports."""
    if family == "multiples":
        k, r = args["k"], args.get("r", 0)
        if k < 1:
            raise DomainError("multiples need k >= 1")
        return PointSet(
            f"{k}Z+{r}" if r else f"{k}Z",
            lambda p: (p[0] - r) % k == 0,
            family={"family": "multiples", "k": k, "r": r})
    if family == "evens":
        return set_family("multiples", k=2, r=0)
    if family == "odds":
        return set_family("multiples", k=2, r=1)
    if family == "squares":
        return PointSet("squares", lambda p: _is_square(p[0]), family={"family": "squares"})
    if family in ("powers", "powers_tail"):
        base, scale = args["base"], args.get("scale", 1)
        if base < 2 or scale < 1 or args.get("k0", 0) < 0:
            raise DomainError("powers need base >= 2, scale >= 1 and k0 >= 0")
    if family == "powers":
        label = f"{{{scale}*{base}^k}}" if scale != 1 else f"{{{base}^k}}"
        return PointSet(
            label, lambda p: _is_scaled_power(p[0], base, scale),
            family={"family": "powers", "base": base, "scale": scale})
    if family == "powers_tail":
        k0 = args["k0"]
        label = f"{{{scale}*{base}^k : k>={k0}}}"
        return PointSet(
            label,
            lambda p: _is_scaled_power(p[0], base, scale) and p[0] >= scale * base ** k0,
            family={"family": "powers_tail", "base": base, "scale": scale, "k0": k0})
    if family == "half_line":
        # {x <= bound} for sign=-1, {x >= bound} for sign=+1
        sign, bound = args["sign"], args.get("bound", 0)
        if sign not in (-1, 1):
            raise DomainError("half_line sign must be +-1")
        label = f"{{x{'<=' if sign < 0 else '>='}{bound}}}"
        return PointSet(
            label,
            (lambda p: p[0] <= bound) if sign < 0 else (lambda p: p[0] >= bound),
            family={"family": "half_line", "sign": sign, "bound": bound})
    if family == "tail_plus":
        return PointSet("A+", lambda p: p[1] > 0, family={"family": "tail_plus"})
    if family == "tail_minus":
        return PointSet("A-", lambda p: p[1] < 0, family={"family": "tail_minus"})
    if family == "explicit":
        return PointSet.from_points([tuple(p) for p in args["points"]])
    if family == "complement":
        return set_from_json(args["of"]).complement()
    raise DomainError(f"unknown set family {family!r}")


def set_from_json(doc) -> PointSet:
    with _malformed("set"):
        args = {k: v for k, v in doc.items() if k != "family"}
        return set_family(doc["family"], **args)


def _named_family(family: dict) -> tuple:
    """(name, parameters, complemented) of the named set ``family``, with
    nested complements cancelled in pairs; parameters is None unless every
    one is an integer (sets with other parameters are searched).  A
    complemented half-line is the flipped half-line, not complemented: the
    complement of {x >= b} is {x <= b - 1}, that of {x <= b} is {x >= b + 1}."""
    complement = False
    while family["family"] == "complement":
        family, complement = family["of"], not complement
    args = {k: v for k, v in family.items() if k != "family"}
    if not all(isinstance(v, int) for v in args.values()):
        args = None
    elif complement and family["family"] == "half_line":
        sign = args["sign"]
        args, complement = {"sign": -sign, "bound": args["bound"] - sign}, False
    return family["family"], args, complement


def _set_on(space: MetricSpace, A: PointSet) -> PointSet:
    """A, once its family is known to fit the space: the tail families,
    also inside complements, need a space whose points have two
    coordinates, and raise DomainError on any other."""
    if A.family is not None and len(space.basepoint) != 2:
        fam = _named_family(A.family)[0]
        if fam in ("tail_plus", "tail_minus"):
            raise DomainError(f"set {fam} needs a space of pairs, not {space.name}")
    return A


def _line_candidates(family: dict, c: int) -> Optional[tuple]:
    """Coordinates among which lie the nearest members of the named set
    ``family`` at or below and at or above c on the integer line, or None
    when the family has no closed form.  Integer arithmetic only."""
    fam, args, complement = _named_family(family)
    if args is None:
        return None
    if fam == "half_line":
        sign, b = args["sign"], args["bound"]
        return (max(b, c),) if sign > 0 else (min(b, c),)
    if fam == "multiples":
        k, r = args["k"], args["r"]
        if complement:
            if k == 1:
                return ()  # every integer is a multiple of 1
            return (c,) if (c - r) % k else (c - 1, c + 1)
        lo = c - (c - r) % k
        return lo, lo + k
    if complement:
        return None  # the other complements are searched
    if fam == "squares":
        s = math.isqrt(max(c, 0))
        return s * s, (s + 1) ** 2
    if fam in ("powers", "powers_tail"):
        # members are scale * base^k for k >= max(1, k0)
        base = args["base"]
        v = args["scale"] * base ** max(1, args.get("k0", 1))
        while v * base <= c:
            v *= base
        return v, v * base
    return None


def _line_members(family: dict, lo: int, n: int) -> Optional[list]:
    """Membership flags of the coordinates lo, lo + 1, ..., lo + n - 1 in
    the named set ``family``, by integer arithmetic, when it is a
    ``half_line``, ``multiples``, ``squares``, ``powers`` or ``powers_tail``
    family with integer parameters or a complement of one (at any depth);
    None for every other set.  A half-line fills two constant slices and
    ``multiples`` one strided slice; the sparse families set a flag only at
    the offset of each member in the run, stepping from member to member as
    ``_line_candidates`` does."""
    fam, args, complement = _named_family(family)
    if args is None:
        return None
    if fam == "half_line":
        sign, b = args["sign"], args["bound"]
        if sign > 0:  # the first b - lo coordinates lie below b
            cut = min(max(b - lo, 0), n)
            return [False] * cut + [True] * (n - cut)
        cut = min(max(b - lo + 1, 0), n)  # the first b - lo + 1 lie at or below b
        return [True] * cut + [False] * (n - cut)
    flags = [complement] * n
    if fam == "multiples":
        k, first = args["k"], (args["r"] - lo) % args["k"]
        flags[first::k] = [not complement] * len(range(first, n, k))
    elif fam == "squares":
        s = math.isqrt(lo - 1) + 1 if lo > 0 else 0  # the least s >= 0 with s^2 >= lo
        while s * s < lo + n:
            flags[s * s - lo] = not complement
            s += 1
    elif fam in ("powers", "powers_tail"):  # scale * base^k for k >= max(1, k0)
        base = args["base"]
        v = args["scale"] * base ** max(1, args.get("k0", 1))
        while v < lo + n:
            if v >= lo:
                flags[v - lo] = not complement
            v *= base
    else:
        return None
    return flags


def _geom_has_member(family: dict) -> Optional[bool]:
    """Whether the named set ``family`` has a member 2^j (j >= 1) on
    GeomLine, or None when the family has no rule here.  Exact and finite:
    membership of 2^j is eventually periodic in j.  A half-line {x <= b}
    holds 2 iff b >= 2, and {x >= b} is never empty.  For k = 2^a m with
    m odd, the residues of 2^j mod k run round one cycle, of length below
    k, from j = a on, so from j = bit length of k on; ``multiples`` reads
    the residues up to the cycle's close, or gives None when the cycle is
    longer than SEARCH_POINT_CAP.  4 is a square and 2 is not.  scale *
    base^k is a power of 2 iff base and scale are; then the members are
    2^(s + c k) for base 2^c, scale 2^s and k >= max(1, k0), which leave
    out some 2^j unless c = 1 and s + max(1, k0) = 1."""
    fam, args, complement = _named_family(family)
    if args is None:
        return None
    if fam == "half_line":
        return args["sign"] > 0 or args["bound"] >= 2
    if fam == "multiples":
        k, r = args["k"], args["r"] % args["k"]
        j0 = k.bit_length()
        v = start = pow(2, j0, k)
        residues = [pow(2, j, k) for j in range(1, j0)]
        for _ in range(SEARCH_POINT_CAP):
            residues.append(v)
            v = 2 * v % k
            if v == start:
                return any(x != r for x in residues) if complement else r in residues
        return None  # a cycle this long is left to the search
    if fam == "squares":
        return True
    if fam in ("powers", "powers_tail"):
        base, scale = args["base"], args["scale"]
        if base & (base - 1) or scale & (scale - 1):
            return complement  # no member is a power of 2
        if not complement:
            return True
        first = scale.bit_length() - 1 + max(1, args.get("k0", 1))
        return base != 2 or first != 1
    return None


@lru_cache(maxsize=64)
def _square_residues(k: int) -> frozenset:
    """The residues of n^2 mod k, n >= 1; cached, since ``dist_to_set``
    asks on every TwoTails search."""
    return frozenset(n * n % k for n in range(k))


def _tails_has_member(family: dict) -> Optional[bool]:
    """Whether the named set ``family`` has a member on TwoTails, or None
    when the family has no rule here.  The first coordinates there are the
    squares n^2 (n >= 1), each with both signs of the second.  A half-line
    {x <= b} holds 1 iff b >= 1, and {x >= b} is never empty.  n^2 mod k
    takes the residues of n^2 for n < k (``_square_residues``); a k above
    SEARCH_POINT_CAP is left to the search.  Every first coordinate is a
    square, so ~squares is empty.  scale * base^k = scale * base^(k mod 2) * (base^(k // 2))^2, and
    k >= max(1, k0) takes both parities, so some member is a square iff
    scale or scale * base is; no member is 1, so a complement holds
    (1, +-1).  A+ and A- and their complements are never empty."""
    fam, args, complement = _named_family(family)
    if args is None:
        return None
    if fam == "half_line":
        return args["sign"] > 0 or args["bound"] >= 1
    if fam == "multiples":
        k, r = args["k"], args["r"] % args["k"]
        if k > SEARCH_POINT_CAP:
            return None
        residues = _square_residues(k)
        return bool(residues - {r}) if complement else r in residues
    if fam == "squares":
        return not complement
    if fam in ("powers", "powers_tail"):
        return complement or _is_square(args["scale"]) or _is_square(args["scale"] * args["base"])
    if fam in ("tail_plus", "tail_minus"):
        return True
    return None


# ---------------------------------------------------------------------------
# Operations


def window_points(space: MetricSpace, window: Window) -> list:
    """All space points of the window, lexicographically sorted, within the
    listing budget of ``MetricSpace.points_within``.

    On ``NatLine`` and ``IntLine`` the list is a ``_Run``, which
    ``set_distances`` sweeps as one run from its ends and length alone, and
    callers such as ``DensityMeasure.ball`` cache it: an enumeration must
    not be changed in place.  Copy it first (``list(pts)``, a slice)."""
    return space.points_within(window.resolve_base(space), window.radius)


@dataclass(frozen=True)
class Evaluation:
    """An exact value plus the certificate status of the bounded search."""

    value: Rational
    exact: bool
    required_radius: Optional[Rational] = None
    witness: Optional[Point] = None

    def to_json(self):
        doc = {"value": rational_to_json(self.value), "exact": self.exact}
        if self.required_radius is not None:
            doc["required_radius"] = rational_to_json(self.required_radius)
        if self.witness is not None:
            doc["witness"] = list(self.witness)
        return doc


def dist_to_set(space: MetricSpace, x: Point, A: PointSet) -> Evaluation:
    """Exact d_X(x, A).

    This is the library's only set-distance search.  Balls around x double
    in radius from 1 until one holds a member; once a member is found at
    distance D <= r with the ball of radius r fully enumerated, no point
    outside the ball can be closer, so the minimum is certified.  The search
    has one stopping rule: it stops at the first ball that holds a member,
    and otherwise at the last member-free ball it lists, before a ball over
    the listing budget or at radius SEARCH_RADIUS_CAP, raising
    SearchInconclusive that names its radius and size.  Explicit sets are
    scanned directly.

    On ``NatLine`` and ``IntLine`` the named families ``half_line``,
    ``multiples`` (so ``evens`` and ``odds``), ``squares``, ``powers`` and
    ``powers_tail`` with integer parameters, and the complements of
    ``half_line`` and ``multiples`` (at any depth), are not searched: integer
    arithmetic gives the nearest members below and above x, at any distance.
    Other complements, sublevel sets, the tail families and the other
    spaces are searched.  Each route yields members (``_members_near``),
    and one finish picks the nearest, ties going to the smaller point, so a
    closed form's value and witness are the search's.  A set that yields no
    member raises DomainError: an explicit set or a line family with none in
    the space, on ``TwoTails`` a named family that ``_tails_has_member``
    proves empty, before the search, and on ``GeomLine`` a named family whose
    search finds no member when ``_geom_has_member`` proves it has none (in
    place of SearchInconclusive).  ``set_distances`` answers for a whole
    point list, with two calls per maximal run of at least three
    consecutive points on these lines.
    """
    space.check(x)
    members = _members_near(space, x, A)
    if not members:
        raise DomainError(f"set {A.name} has no members in {space.name}")
    d, best = min((space._dist(x, a), a) for a in members)
    return Evaluation(d, True, witness=best)


def _members_near(space: MetricSpace, x: Point, A: PointSet) -> list:
    """Members of A in the space among which lie its nearest to x: every
    member of an explicit set, the closed form's candidates on the lines, x
    itself, or the members in the first searched ball that holds one; []
    when a rule proves that A has no member in the space."""
    if A.points is not None:
        return [p for p in A.points if space.contains(p)]
    if type(space) in (NatLine, IntLine) and A.family is not None:
        near = _line_candidates(A.family, x[0])
        if near is not None:
            return [p for p in zip(near) if space.contains(p)]
    _set_on(space, A)
    if A.contains(x):
        return [tuple(x)]
    if (type(space) is TwoTails and A.family is not None
            and _tails_has_member(A.family) is False):
        return []
    r = 1
    while True:
        try:
            ball = space.points_within(x, r)
        except SearchInconclusive:  # over the listing budget: the last ball listed
            r //= 2
            break
        members = [p for p in ball if A.contains(p)]
        if members:
            return members
        if r >= SEARCH_RADIUS_CAP:
            break
        r *= 2
    if (type(space) is GeomLine and A.family is not None
            and _geom_has_member(A.family) is False):
        return []
    raise SearchInconclusive(
        f"no member of {A.name} within {r} of {x} ({len(ball)} points searched)",
        window_radius=r)


def set_distances(space: MetricSpace, pts: Sequence[Point], A: PointSet) -> list:
    """[dist_to_set(space, p, A).value for p in pts] for a point list pts.

    On ``NatLine`` and ``IntLine`` a list of three or more points is split
    into its maximal runs of consecutive coordinates, lo, lo + 1, ..., hi,
    and each run of at least three points takes one distance-transform
    sweep (Felzenszwalb & Huttenlocher 2012): ``dist_to_set`` at lo and at
    hi, the run's membership flags, then a running distance forward from
    lo and one backward from hi, restarting at 0 on each member; each
    point takes the smaller.  Both are upper bounds, since d(., A) is
    1-Lipschitz, and the smaller is exact: the nearest member of a point
    either lies in the run, where a running distance restarted, or beyond
    an end, and then the way to it passes that end.  The flags come from
    the set's run reader, ``A.run_flags``, when it has one: a named line
    family or a complement of one builds them by integer arithmetic from lo
    and the run's length alone (``_line_members``), and a set defined by
    distances, such as the scenarios' far sets X - N_j(A), reads them from
    a sweep of its own.  Only a set with no run reader maps its membership
    predicate over the run.  A run of one or two points is searched per
    point, so a list of k maximal runs makes at most 2k searches.  A
    ``_Run`` (a ball's enumeration on these lines) whose length fits its
    ends is one run, with no split and no check of its points; any other
    list is checked once by ``space.check`` before any search, so a point
    outside the space raises DomainError there.  A set with no member
    raises as ``dist_to_set`` at a run's first point does.  The sweep also
    answers where a point's own search would stop at the listing budget.
    Other spaces and shorter lists take ``dist_to_set`` per point, and stop
    where it does.
    """
    n = len(pts)
    if type(space) not in (NatLine, IntLine) or n < 3:
        return [dist_to_set(space, p, A).value for p in pts]
    if type(pts) is _Run and pts[-1][0] - pts[0][0] == n - 1:
        runs = [pts]
    else:
        space.check(*pts)
        cuts = [0, *(i for i in range(1, n) if pts[i][0] != pts[i - 1][0] + 1), n]
        runs = [pts[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    out = []
    for run in runs:
        if len(run) < 3:
            out += [dist_to_set(space, p, A).value for p in run]
            continue
        first, last = (dist_to_set(space, p, A).value for p in (run[0], run[-1]))
        member = list(map(A._contains, run)) if A.run_flags is None else A.run_flags(run)
        d = first - 1
        swept = [d := 0 if m else d + 1 for m in member]
        d = last - 1
        for i in range(len(run) - 1, -1, -1):
            d = 0 if member[i] else d + 1
            if d < swept[i]:
                swept[i] = d
        out += swept
    return out


def neighborhood(space: MetricSpace, A: PointSet, r: Rational, window: Window) -> PointSet:
    """N_r(A) restricted to the window, as an explicit set.

    Exact: a window point x belongs iff some member lies in ball(x, r), and
    that ball is enumerated completely, within the listing budget.
    """
    if r < 0:
        raise DomainError("neighborhood radius must be nonnegative")
    _set_on(space, A)
    out = []
    for x in window_points(space, window):
        if any(A.contains(p) for p in space.points_within(x, r)):
            out.append(x)
    return PointSet.from_points(out, name=f"N_{rational_to_json(r)}({A.name})")
