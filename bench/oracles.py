"""Reference computations owned by the benchmark.

Nothing here calls the library's search code.  Set distances on the line
spaces use closed forms, window minima scan every window point, and
densities count ball points one by one.  The output checks compare the
library's answers against these values.
"""

import math
from fractions import Fraction

import numpy as np


def line_points(space_name, radius, center=0):
    """Points of the ball of integer radius around center, sorted."""
    lo = center - radius
    if space_name == "NatLine":
        lo = max(0, lo)
    elif space_name != "IntLine":
        raise ValueError(f"no oracle enumeration for {space_name}")
    return [(i,) for i in range(lo, center + radius + 1)]


def geom_points(radius, center=2):
    out, v = [], 2
    while v <= center + radius:
        if abs(v - center) <= radius:
            out.append((v,))
        v *= 2
    return out


def _ruler(n):
    return (n & -n).bit_length()


def tails_points(radius, center=(1, 1)):
    out, n = [], 1
    while n * n - center[0] <= radius:
        for sign in (-1, 1):
            p = (n * n, sign * _ruler(n))
            if abs(p[0] - center[0]) + abs(p[1] - center[1]) <= radius:
                out.append(p)
        n += 1
    return sorted(out)


def window_points(space_name, radius):
    """The window of the given radius around the space's basepoint."""
    if space_name == "GeomLine":
        return geom_points(radius)
    if space_name == "TwoTails":
        return tails_points(radius)
    return line_points(space_name, radius)


# -- set distances on NatLine / IntLine ---------------------------------------


def _multiples_dist(x, k, r, natline):
    below = x - (x - r) % k
    above = below + k
    return above - x if natline and below < 0 else min(x - below, above - x)


def _squares_dist(x):
    if x <= 0:
        return -x
    s = math.isqrt(x)
    return min(x - s * s, (s + 1) * (s + 1) - x)


def _powers_dist(x, base, scale):
    lo = scale * base
    if x <= lo:
        return lo - x
    while lo * base <= x:
        lo *= base
    return min(x - lo, lo * base - x)


def set_distance(spec, space_name):
    """x -> d(x, A) for the set shorthand of the command-line grammar.

    On NatLine a member below 0 does not exist; the other families here
    have no negative members, or none that could be nearer.
    """
    parts = spec.split(":")
    fam = parts[0]
    natline = space_name == "NatLine"
    if fam in ("evens", "odds"):
        r = 0 if fam == "evens" else 1
        return lambda x: _multiples_dist(x, 2, r, natline)
    if fam == "multiples":
        k, r = int(parts[1]), int(parts[2]) if len(parts) > 2 else 0
        return lambda x: _multiples_dist(x, k, r, natline)
    if fam == "squares":
        return _squares_dist
    if fam == "powers":
        base, scale = int(parts[1]), int(parts[2]) if len(parts) > 2 else 1
        return lambda x: _powers_dist(x, base, scale)
    if fam == "halfline":
        bound = int(parts[2]) if len(parts) > 2 else 0
        if parts[1] == "-":
            return lambda x: max(0, x - bound)
        return lambda x: max(0, bound - x)
    raise ValueError(f"no oracle for set {spec!r}")


def level_function(spec, space_name):
    """x -> level for the level shorthand, on NatLine / IntLine (1-D ints)."""
    if spec == "unit":
        return lambda x: 1
    if spec == "zero":
        return lambda x: max(1, 2 * abs(x))
    if spec == "expr:ceil-sqrt":
        def sqrt_level(x):
            v = abs(x) + 1
            s = math.isqrt(v)
            return s if s * s == v else s + 1
        return sqrt_level
    if spec == "expr:log2":
        return lambda x: (abs(x) + 1).bit_length()
    if spec.startswith("subset:"):
        dist = set_distance(spec.split(":", 1)[1], space_name)
        return lambda x: max(1, 2 * dist(x))
    raise ValueError(f"no oracle for levels {spec!r}")


# -- kernels -----------------------------------------------------------------


def delta_window_matrix(coords, level):
    """Unpruned window minimum of |x-u| + delta(u) + |u-y| over all window u.

    coords are the window's integer coordinates; delta(u) = level(u).
    """
    c = np.asarray(coords, dtype=np.int64)
    dist = np.abs(c[:, None] - c[None, :])
    deltas = np.asarray([level(u) for u in coords], dtype=np.int64)
    return compose_matrix(dist + deltas[None, :], dist)


def point_window_matrix(coords, x0):
    c = np.asarray(coords, dtype=np.int64)
    return np.abs(c - x0)[:, None] + 1 + np.abs(c - x0)[None, :]


def compose_matrix(a, b):
    """min over window midpoints y of a[x, y] + b[y, z]."""
    return (a[:, :, None] + b[None, :, :]).min(axis=1)


def delta_global_value(x, y, level, value, natline):
    """Global minimum of |x-u| + delta(u) + |u-y|, scanning every u that
    could reach value (a candidate u needs |x-u| + 1 <= value)."""
    lo, hi = x - value, x + value
    if natline:
        lo = max(0, lo)
    return min(abs(x - u) + level(u) + abs(u - y) for u in range(lo, hi + 1))


def factor_values(factor, xs, ys, us):
    """Matrix of d(x, y') over xs x ys for a delta or point factor, with the
    delta midpoints u restricted to us.

    factor is ("delta", level) or ("point", x0).  Restricting u can only
    raise a value, never lower it.
    """
    x = np.asarray(xs, dtype=np.int64)[:, None]
    y = np.asarray(ys, dtype=np.int64)[None, :]
    if factor[0] == "point":
        return np.abs(x - factor[1]) + 1 + np.abs(factor[1] - y)
    u = np.asarray(us, dtype=np.int64)
    lv = np.asarray([factor[1](v) for v in us], dtype=np.int64)
    return (np.abs(x[:, :, None] - u) + lv + np.abs(u - y[:, :, None])).min(axis=2)


def composed_global(x, z, first, second, value, natline):
    """(global minimum, per-midpoint sums) of d1(x, y') + d2(y, z') for a
    composition claimed to equal value.

    Every midpoint y and every delta midpoint that could reach value lies
    within value of x, so scanning that range finds the global minimum if
    it is at most value, and otherwise returns something above value.
    """
    lo, hi = x - value, x + value
    if natline:
        lo = max(0, lo)
    mids = list(range(lo, hi + 1))
    sums = factor_values(first, [x], mids, mids)[0] + factor_values(second, mids, [z], mids)[:, 0]
    return int(sums.min()), dict(zip(mids, sums.tolist()))


def _factor_certified(factor, x, y, radius):
    """The certificate rule for one factor evaluated on the window of the
    given radius around 0: a point kernel always certifies; a delta kernel
    certifies when its candidate ball, of radius |x-y| + min(delta(x),
    delta(y)) - 1 around x, sits inside the window."""
    if factor[0] == "point":
        return True
    level = factor[1]
    return abs(x) + abs(x - y) + min(level(x), level(y)) - 1 <= radius


def _factor_value(factor, x, y, natline):
    if factor[0] == "point":
        return abs(x - factor[1]) + 1 + abs(factor[1] - y)
    level = factor[1]
    bound = abs(x - y) + min(level(x), level(y))
    return delta_global_value(x, y, level, bound, natline)


def certifiable(factors, x, z, radius, natline):
    """Whether the certificate rule certifies the evaluation of the kernel
    at (x, z) on the window of the given radius around 0 as exact.

    factors holds one factor, or two for a composition d2 o d1 whose
    factors each have coercive constant 1.  A composition certifies when
    its probes through y = x and y = z certify, its candidate ball (radius:
    the best probe minus 2, around x) sits inside the window, and every
    factor evaluation through a midpoint of that ball certifies.
    """
    if len(factors) == 1:
        return _factor_certified(factors[0], x, z, radius)
    first, second = factors
    best = None
    for y in {x, z}:
        if not (_factor_certified(first, x, y, radius)
                and _factor_certified(second, y, z, radius)):
            return False
        v = _factor_value(first, x, y, natline) + _factor_value(second, y, z, natline)
        best = v if best is None else min(best, v)
    r = best - 2
    if abs(x) + r > radius:
        return False
    lo = max(0, x - r) if natline else x - r
    return all(_factor_certified(first, x, y, radius)
               and _factor_certified(second, y, z, radius)
               for y in range(lo, x + r + 1) if abs(x - y) + abs(y - z) <= r)


# -- densities ---------------------------------------------------------------


def _bounded(masses):
    return len(masses) >= 3 and masses[-3] == masses[-2] == masses[-1]


def nu_hat(space_name, level, n_max, schedule):
    """Per-n counts, ratios and the admissibility-adjusted final series of
    nu_hat for the natural counting measure, by direct counting."""
    per_n = []
    final = None
    levels = {r: [level(p[0]) for p in line_points(space_name, r)] for r in schedule}
    for n in range(1, n_max + 1):
        masses = [sum(1 for v in levels[r] if v <= n) for r in schedule]
        ratios = [Fraction(m, len(levels[r])) for m, r in zip(masses, schedule)]
        bounded = _bounded(masses)
        per_n.append({"n": n, "bounded": bounded, "masses": masses, "ratios": ratios})
        final = [Fraction(0) if bounded else v for v in ratios]
    return {"per_n": per_n, "series": final}


def nu_bar_pair(space_name, la, lb, n_max, schedule):
    """nu_bar(a + b) = nu_hat(a) + nu_hat(b) - 2 nu_hat(a meet b), per radius."""
    ha = nu_hat(space_name, la, n_max, schedule)["series"]
    hb = nu_hat(space_name, lb, n_max, schedule)["series"]
    hm = nu_hat(space_name, lambda x: max(la(x), lb(x)), n_max, schedule)["series"]
    return [a + b - 2 * m for a, b, m in zip(ha, hb, hm)]


def modularity(space_name, le, lf, n_max, schedule):
    """The fields of a modularity check for levels e, f, by direct counting.

    Raw law: |meet| + |join| = |e| + |f| per radius and level.  Adjusted
    law: the gap between the adjusted nu_hat series of meet + join and of
    e + f, against a slack of the last mass that admissibility hid in any
    of the four, over the ball's size.  (m2): nu_bar(1 + e) = 1 - nu_hat(e).
    """
    meet = lambda x: max(le(x), lf(x))  # noqa: E731
    join = lambda x: min(le(x), lf(x))  # noqa: E731
    reps = [nu_hat(space_name, lv, n_max, schedule) for lv in (le, lf, meet, join)]
    he, hf, hm, hj = reps
    raw_exact = all(m + j == e + f for e, f, m, j in zip(
        *[[m for row in rep["per_n"] for m in row["masses"]] for rep in reps]))
    hidden = sum(rows[-1]["masses"][-1] for rows in
                 ([row for row in rep["per_n"] if row["bounded"]] for rep in reps) if rows)
    gaps = [abs(m + j - e - f) for e, f, m, j in
            zip(he["series"], hf["series"], hm["series"], hj["series"])]
    slacks = [Fraction(hidden, len(line_points(space_name, r))) for r in schedule]
    unit = lambda x: 1  # noqa: E731
    m2_exact = nu_bar_pair(space_name, unit, le, n_max, schedule) == [1 - v for v in he["series"]]
    adjusted = all(g <= s for g, s in zip(gaps, slacks))
    return {"raw_exact_per_radius": raw_exact, "adjusted_within_slack": adjusted,
            "slack": max(slacks), "worst_gap": max(gaps), "m2_complement_exact": m2_exact,
            "passed": raw_exact and adjusted and m2_exact}
