from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsedouble import join, levels_from_subset, meet, unit_levels, zero_levels
from coarsedouble.boolalg import FormalSum
from coarsedouble.errors import DomainError
from coarsedouble.measure import (DensityInterval, DensityMeasure, NuHatReport,
                                  check_modularity, default_schedule, density,
                                  nu_bar, nu_hat)
from coarsedouble.serialize import parse_levels
from coarsedouble.space import (LineSpace, PointSet, Window, rational_to_json,
                                set_family, space_by_name, window_points)


@pytest.fixture
def nat_mu(natline):
    return DensityMeasure.natural(natline)


@pytest.fixture
def int_mu(intline):
    return DensityMeasure.natural(intline)


def test_density_evens(nat_mu):
    iv = density(nat_mu, set_family("evens"))
    # density reads the default schedule, R = 32 doubled five times
    assert [r for r, _ in iv.series] == default_schedule() == [32, 64, 128, 256, 512, 1024]
    # |evens in [0,R]| / (R+1) = (R/2 + 1)/(R + 1) for even R
    for r, v in iv.series:
        assert v == Fraction(r // 2 + 1, r + 1)
    assert iv.lo >= Fraction(1, 2) and iv.hi <= Fraction(1, 2) + Fraction(1, 256)


def test_density_squares_thin(nat_mu):
    import math
    iv = density(nat_mu, set_family("squares"))
    for r, v in iv.series:
        assert v == Fraction(math.isqrt(r) + 1, r + 1)
    assert iv.hi == Fraction(17, 257)
    assert iv.hi <= Fraction(1, 8)


def test_density_bounded_set(nat_mu):
    iv = density(nat_mu, PointSet.from_points([(0,), (5,)]))
    assert iv.hi <= Fraction(2, 257)


@pytest.mark.parametrize("schedule", [[8, 16], [8, 8, 8], [8, 16, 16, 32], [32, 16, 64]])
def test_schedules_must_grow(nat_mu, natline, schedule):
    # the bounded-set rule reads three radii; equal radii would make every
    # sublevel look bounded, and so of mass 0
    with pytest.raises(DomainError):
        nu_hat(nat_mu, unit_levels(natline), 2, schedule)


def test_nu_hat_unit_and_zero(nat_mu, natline):
    unit = nu_hat(nat_mu, unit_levels(natline))
    assert all(v == 1 for _, v in unit.interval.series)
    assert not any(row["bounded"] for row in unit.per_n)
    iv0 = nu_hat(nat_mu, zero_levels(natline)).interval
    assert all(v == 0 for _, v in iv0.series)
    rep = nu_hat(nat_mu, zero_levels(natline))
    assert rep.am2_applied  # every sublevel trace is bounded-evidenced
    assert all(row["bounded"] for row in rep.per_n)


def test_nu_hat_needs_a_sublevel(nat_mu, natline):
    with pytest.raises(DomainError, match="n_max"):
        nu_hat(nat_mu, unit_levels(natline), n_max=0)


def test_nu_hat_half_line(int_mu, intline):
    e = levels_from_subset(intline, set_family("half_line", sign=-1))
    rep = nu_hat(int_mu, e)
    half = Fraction(1, 2)
    assert half - Fraction(1, 32) <= rep.interval.lo
    assert rep.interval.hi <= half + Fraction(1, 32)
    assert rep.monotone_exact
    # the deepest sublevel is unbounded, so its raw row is the series
    assert rep.per_n[-1]["series"] == rep.interval.to_json()["series"]


def test_nu_hat_monotone_under_order(nat_mu, natline):
    e = levels_from_subset(natline, set_family("powers", base=2))
    f = levels_from_subset(natline, set_family("evens"))
    # e >= f pointwise means e is the smaller projection: nu_hat(e) <= nu_hat(f)
    assert all(e.level((x,)) >= f.level((x,)) for x in range(64))
    he, hf = nu_hat(nat_mu, e), nu_hat(nat_mu, f)
    for (_, ve), (_, vf) in zip(he.interval.series, hf.interval.series):
        assert ve <= vf


def test_nu_bar_duplicate_cancels(int_mu, intline):
    e = levels_from_subset(intline, set_family("half_line", sign=-1))
    rep = nu_bar(int_mu, FormalSum((e, e), (0, 1)))
    assert all(v == 0 for _, v in rep["series"])


def test_nu_bar_single_and_unit(int_mu, intline):
    e = levels_from_subset(intline, set_family("half_line", sign=-1))
    single = nu_bar(int_mu, FormalSum((e,), (0,)))
    hat = nu_hat(int_mu, e)
    assert single["series"] == [[r, _json_val(v)] for r, v in hat.interval.series]
    unit_rep = nu_bar(int_mu, FormalSum((unit_levels(intline),), (0,)))
    assert all(v == 1 for _, v in unit_rep["series"])


def _json_val(v):
    from coarsedouble.space import rational_to_json
    return rational_to_json(v)


def test_nu_bar_complementary_pair(int_mu, intline):
    a = levels_from_subset(intline, set_family("half_line", sign=-1))
    b = levels_from_subset(intline, set_family("half_line", sign=1))
    rep = nu_bar(int_mu, FormalSum((a, b), (0, 1)))
    lo, hi = Fraction(str(rep["interval"]["lo"])), Fraction(str(rep["interval"]["hi"]))
    assert 1 - Fraction(1, 32) <= lo and hi <= 1 + Fraction(1, 32)


def test_modularity(int_mu, intline):
    a = levels_from_subset(intline, set_family("half_line", sign=-1))
    b = levels_from_subset(intline, set_family("half_line", sign=1))
    rep = check_modularity(int_mu, a, b)
    assert rep["raw_exact_per_radius"]
    assert rep["m2_complement_exact"]
    assert rep["passed"]
    same = check_modularity(int_mu, a, a)
    assert same["passed"]


def _counted_reader(lf, calls):
    """Count the calls of lf's reader ``fn`` under lf's name."""
    fn = lf.fn

    def reader(pts):
        calls[lf.name] += 1
        return fn(pts)

    lf.fn = reader
    return lf


def test_each_level_function_is_read_once(monkeypatch, intline):
    # check_modularity reads e and f once each; nu_bar reads each distinct
    # generator once, whatever its number of terms and meets.  No meet or
    # join level function is built.
    from coarsedouble import projection
    monkeypatch.setattr(projection, "_combined", None)
    mu = DensityMeasure.natural(intline)
    schedule = [16, 32, 64, 128]
    calls = Counter()

    def fresh(name):
        sets = {"h": set_family("half_line", sign=1, bound=40),
                "m": set_family("multiples", k=3, r=1),
                "e": set_family("evens")}
        return _counted_reader(levels_from_subset(intline, sets[name]), calls)

    e, f = fresh("h"), fresh("m")
    assert check_modularity(mu, e, f, 6, schedule)["passed"]
    assert calls == {e.name: 1, f.name: 1}
    for terms in [(0,), (0, 1), (0, 1, 2), (0, 0, 1), (2, 1, 0, 1)]:
        calls.clear()
        gens = tuple(fresh(name) for name in "hme")
        nu_bar(mu, FormalSum(gens, terms), 6, schedule)
        assert calls == {gens[k].name: 1 for k in set(terms)}, terms


def test_interval_from_series():
    iv = DensityInterval.from_series([(8, Fraction(1, 2)), (16, Fraction(1, 3)),
                                      (32, Fraction(1, 4)), (64, Fraction(1, 5))])
    assert iv.lo == Fraction(1, 5) and iv.hi == Fraction(1, 4)


# schedules of four radii, short enough for the differential tests: the
# default schedule's doubling, uneven integer steps, and fractional radii
SCHEDULES = {
    "doubling": [8, 16, 32, 64],
    "uneven": [5, 12, 40, 90],
    "fraction": [Fraction(7, 2), Fraction(33, 4), 20, Fraction(129, 2)],
}


def _rescanned_rows(space, level, schedule, n_max):
    """Rows of ratio_series by a rescan of every ball once per sublevel n."""
    rows = []
    for n in range(1, n_max + 1):
        row = []
        for r in schedule:
            ball = window_points(space, Window(r))
            row.append((r, sum(level(p) <= n for p in ball), len(ball)))
        rows.append(row)
    return rows


@given(name=st.sampled_from(["NatLine", "IntLine", "GeomLine", "TwoTails"]),
       schedule=st.lists(st.integers(0, 150) | st.fractions(0, 150, max_denominator=4),
                         min_size=1, max_size=5),
       table=st.lists(st.integers(1, 9), min_size=1, max_size=13),
       n_max=st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_ratio_series_matches_rescan(name, schedule, table, n_max):
    # unsorted and repeated radii come from the list strategy; TwoTails
    # takes the per-point path, the lines the ring slices
    space = space_by_name(name)
    mu = DensityMeasure(space)

    def level(p):
        return table[sum(abs(c) for c in p) % len(table)]

    got = mu.ratio_series(lambda pts: [level(p) for p in pts], schedule, n_max)
    assert got == _rescanned_rows(space, level, schedule, n_max)


@pytest.mark.parametrize("name", ["NatLine", "IntLine", "GeomLine"])
def test_ratio_series_on_a_line_reads_slices(monkeypatch, name):
    # each ring is read as slices of the ball's level list: no distance to
    # the basepoint per point, one levels call
    calls = Counter()
    dist = LineSpace._dist

    def counting_dist(space, x, y):
        calls["_dist"] += 1
        return dist(space, x, y)

    def level(p):
        return 1 + abs(p[0]) % 5

    def levels(pts):
        calls["levels"] += 1
        return [level(p) for p in pts]

    monkeypatch.setattr(LineSpace, "_dist", counting_dist)
    space = space_by_name(name)
    schedule = [40, 3, Fraction(17, 2), 40, 0, 130]
    rows = DensityMeasure.natural(space).ratio_series(levels, schedule, 3)
    assert calls == {"levels": 1}
    assert rows == _rescanned_rows(space, level, schedule, 3)


def _reference_nu_hat(mu, e, n_max, schedule):
    """nu_hat with monotonicity tested on the Fraction ratios of each row."""
    rows_by_n = mu.ratio_series(e.levels, schedule, n_max)
    am2, masses_by_n, monotone, prev, final = [], [], True, None, None
    for n, rows in enumerate(rows_by_n, 1):
        raws = [Fraction(m, t) for _, m, t in rows]
        masses = [m for _, m, _ in rows]
        masses_by_n.append(masses)
        bounded = masses[-3] == masses[-2] == masses[-1]
        if bounded:
            am2.append(n)
        if prev is not None and any(a < b for a, b in zip(raws, prev)):
            monotone = False
        prev = raws
        final = [0 if bounded else v for v in raws]
    return NuHatReport(DensityInterval.from_series(list(zip(schedule, final))), am2,
                       monotone, masses_by_n, [t for _, _, t in rows_by_n[0]])


NU_HAT_SPECS = ("subset:evens", "subset:halfline:+:40", "subset:multiples:5:2",
                "subset:squares", "zero", "unit", "expr:ceil-sqrt")


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("name", ["NatLine", "IntLine", "GeomLine", "TwoTails"])
def test_nu_hat_orders_masses_as_the_ratios(name, schedule):
    # monotone_exact reads the member masses; the ratios at one radius share
    # its positive ball mass, so the report equals one built from the ratios
    space = space_by_name(name)
    mu = DensityMeasure(space)
    schedule = SCHEDULES[schedule]
    for spec in NU_HAT_SPECS:
        if name == "TwoTails" and spec.startswith(("subset:evens", "subset:multiples")):
            spec = "subset:tailplus"
        e = parse_levels(space, spec)
        got = nu_hat(mu, e, 5, schedule)
        want = _reference_nu_hat(mu, parse_levels(space, spec), 5, schedule)
        assert got.monotone_exact is want.monotone_exact is True
        assert got.to_json() == want.to_json()
        assert got.masses == want.masses and got.ball_masses == want.ball_masses


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_nu_hat_sees_masses_that_fall_with_n(monkeypatch, natline, schedule):
    # sublevel masses cannot fall with n, so rows that fall are planted: the
    # mass test and the ratio test both see them, at any radius
    mu = DensityMeasure(natline)
    schedule = SCHEDULES[schedule]
    e = levels_from_subset(natline, set_family("evens"))
    rows = mu.ratio_series(e.levels, schedule, 4)
    for i in range(len(schedule)):
        planted = [list(row) for row in rows]
        r, m, t = planted[2][i]
        planted[2][i] = (r, m - 1, t)
        monkeypatch.setattr(mu, "ratio_series", lambda *args, rows=planted: rows)
        got = nu_hat(mu, e, 4, schedule)
        want = _reference_nu_hat(mu, e, 4, schedule)
        assert got.monotone_exact is want.monotone_exact is False
        assert got.to_json() == want.to_json()


def _composed_nu_bar(mu, s, n_max, schedule):
    """nu_bar composed from ``meet`` level functions and public ``nu_hat``."""
    entries = list(s.terms)
    if not entries:
        zero = [(r, 0) for r in schedule]
        return {"interval": DensityInterval.from_series(zero).to_json(),
                "sigma": [], "sum": s.label(),
                "series": [[rational_to_json(r), 0] for r in schedule]}
    totals = [Fraction(0)] * len(schedule)
    sigma_report = []
    for size in range(1, len(entries) + 1):
        sigma_vals = [Fraction(0)] * len(schedule)
        for combo in combinations(entries, size):
            m = s.generators[combo[0]]
            for k in combo[1:]:
                m = meet(m, s.generators[k])
            vals = [v for _, v in nu_hat(mu, m, n_max, schedule).interval.series]
            sigma_vals = [a + b for a, b in zip(sigma_vals, vals)]
        totals = [t + (-2) ** (size - 1) * v for t, v in zip(totals, sigma_vals)]
        sigma_report.append({"i": size, "sigma": [rational_to_json(v) for v in sigma_vals]})
    series = list(zip(schedule, totals))
    return {"interval": DensityInterval.from_series(series).to_json(),
            "sigma": sigma_report, "sum": s.label(),
            "series": [[rational_to_json(r), rational_to_json(v)] for r, v in series]}


def _composed_modularity(mu, e, f, n_max, schedule):
    """check_modularity composed from ``meet``/``join`` level functions,
    public ``nu_hat`` and ``_composed_nu_bar``."""
    he, hf, hm, hj = (nu_hat(mu, lf, n_max, schedule)
                      for lf in (e, f, meet(e, f), join(e, f)))
    raw_exact = all(m + j == a + b
                    for rows in zip(he.masses, hf.masses, hm.masses, hj.masses)
                    for a, b, m, j in zip(*rows))
    hidden = sum(m for rep in (he, hf, hm, hj) for m in rep.bounded_masses[-1:])
    worst = slack = Fraction(0)
    adjusted_ok = True
    for i, total in enumerate(he.ball_masses):
        gap = abs(hm.interval.series[i][1] + hj.interval.series[i][1]
                  - he.interval.series[i][1] - hf.interval.series[i][1])
        slack_r = Fraction(hidden, total) if total else Fraction(0)
        slack, worst = max(slack, slack_r), max(worst, gap)
        adjusted_ok = adjusted_ok and gap <= slack_r
    m2 = _composed_nu_bar(mu, FormalSum((unit_levels(mu.space), e), (0, 1)), n_max, schedule)
    m2_ok = m2["series"] == [[rational_to_json(r), rational_to_json(1 - v)]
                             for r, v in he.interval.series]
    return {"raw_exact_per_radius": raw_exact, "adjusted_within_slack": adjusted_ok,
            "slack": rational_to_json(slack), "worst_gap": rational_to_json(worst),
            "m2_complement_exact": m2_ok, "passed": raw_exact and adjusted_ok and m2_ok}


DIFFERENTIAL_LEVELS = {
    "NatLine": ["subset:evens", "subset:halfline:+:40", "zero", "expr:ceil-sqrt"],
    "IntLine": ["subset:multiples:3:1", "subset:halfline:-:-20", "zero:3", "~subset:evens"],
    "GeomLine": ["subset:powers:4", "expr:log2", "zero", "subset:points:8;32"],
    "TwoTails": ["subset:tailplus", "subset:tailminus", "zero", "unit"],
}
DIFFERENTIAL_TERMS = [(), (0,), (1,), (0, 0), (0, 1), (1, 0, 1), (0, 1, 2), (2, 3, 0)]


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_LEVELS))
def test_nu_bar_and_modularity_match_the_composition(name, schedule):
    # the level lists of meets and joins give what meet/join level
    # functions read through nu_hat give, field for field; each side reads
    # level functions of its own, so no cache is shared
    space = space_by_name(name)
    mu = DensityMeasure(space)
    schedule = SCHEDULES[schedule]

    def gens():
        return tuple(parse_levels(space, spec) for spec in DIFFERENTIAL_LEVELS[name])

    for terms in DIFFERENTIAL_TERMS:
        assert nu_bar(mu, FormalSum(gens(), terms), 5, schedule) == \
            _composed_nu_bar(mu, FormalSum(gens(), terms), 5, schedule), terms
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)]:
        got, want = gens(), gens()
        assert check_modularity(mu, got[i], got[j], 5, schedule) == \
            _composed_modularity(mu, want[i], want[j], 5, schedule), (i, j)
    e = gens()[0]
    assert check_modularity(mu, e, e, 5, schedule) == \
        _composed_modularity(mu, e, e, 5, schedule)
