"""Scenario corpus: the worked examples, law sweeps, and measure demos.

Expected-verdict tables are data (data/scenarios.json), not code; a run
compares its computed summary against the table and fails loudly on drift.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from importlib import resources
from . import boolalg, measure
from .asymptotics import sweep_radii, sweep_windows
from .boolalg import FilterBase, _below, powers_tail_base, tau
from .double import compose
from .errors import DomainError
from .projection import (classify_type, f_map, check_cm, cm_join, cm_meet,
                         join, levels_from_metric, levels_from_subset, meet,
                         metric_join, metric_meet, subset_metric, unit_levels,
                         zero_levels)
from .reporting import RunReport, diff_against
from .serialize import expression_levels
from .space import (PointSet, Window, neighborhood, set_distances, set_family,
                    space_by_name, window_points)

SCENARIO_NAMES = ("typeI", "ex1", "ex2", "lattice-laws", "measure-demo")


def expected_tables() -> dict:
    text = resources.files("coarsedouble.data").joinpath("scenarios.json").read_text()
    return json.loads(text)


def scenario_typeI() -> dict:
    radii = [30, 110, 420]
    space = space_by_name("TwoTails")
    a_plus = set_family("tail_plus")
    a_minus = set_family("tail_minus")
    b_plus = subset_metric(space, a_plus)
    b_minus = subset_metric(space, a_minus)
    window = Window(radii[-1])
    e_plus = levels_from_metric(b_plus)
    e_minus = levels_from_metric(b_minus)
    v_plus = classify_type(e_plus, window, radii=radii)
    v_minus = classify_type(e_minus, window, radii=radii)
    product = compose(b_plus, b_minus)
    rows, matches = [], True
    for x in window_points(space, window):
        got = product.cross(x, x, window).value
        want = b_plus.set_distance(x) + b_minus.set_distance(x) + 4
        rows.append([list(x), got, want])
        matches = matches and got == want
    e_prod = levels_from_metric(product, window)
    e_prod.name = "lv[b+ o b-]"
    v_prod = classify_type(e_prod, window, radii=radii)
    summary = {"b_plus": v_plus.value, "b_minus": v_minus.value,
               "closed_form_matches": matches, "product": v_prod.value}
    return {"summary": summary,
            "details": {"b_plus": v_plus.to_json(), "b_minus": v_minus.to_json(),
                        "product": v_prod.to_json(),
                        "closed_form_rows": rows[:12],
                        "radii": radii},
            "verdicts": [v_plus, v_minus, v_prod]}


def _far_set(space, A: PointSet, j: int) -> PointSet:
    """X - N_j(A), the points with no member of A within j.  For A with a
    member in the space that is d(p, A) > j, so a run's flags come from one
    ``set_distances`` sweep of A over the run, not from a ball listed per
    point."""
    return PointSet(
        f"X-N_{j}({A.name})",
        lambda p: not any(A.contains(q) for q in space.points_within(p, j)),
        run_flags=lambda run: [d > j for d in set_distances(space, run, A)])


def scenario_ex1() -> dict:
    radius = 512
    space = space_by_name("NatLine")
    A = set_family("powers", base=2)
    b = levels_from_subset(space, A)
    window = Window(radius)
    unit = unit_levels(space)
    zero = zero_levels(space)
    candidates = [(f"complement-N{j}", levels_from_subset(space, _far_set(space, A, j)))
                  for j in (0, 1, 2, 4)]
    candidates += [("expr:ceil-sqrt", expression_levels(space, "ceil-sqrt")),
                   ("expr:log2", expression_levels(space, "log2"))]
    rows = []
    verdicts = []
    both_count = 0
    for name, e in candidates:
        join_one = _below(unit, join(e, b), window)
        meet_zero = _below(meet(e, b), zero, window)
        both = join_one.certified and meet_zero.certified
        both_count += both
        rows.append({"candidate": name,
                     "join_is_one": join_one.certified,
                     "meet_is_zero": meet_zero.certified,
                     "complementable": both})
        verdicts += [join_one, meet_zero]
    summary = {"family_certified_noncomplement": both_count == 0,
               "candidates_with_both": both_count}
    return {"summary": summary,
            "details": {"candidates": rows, "radius": radius},
            "verdicts": verdicts}


def _direct_omega(space, F: FilterBase, S: PointSet, window: Window) -> int:
    """Ultrafilter-style decision on a set straight from the base: 1 iff some
    F_k sits inside S up to a remainder that is stable along the sweep, which
    is enumerated once."""
    windows = sweep_windows(space, window, sweep_radii(window))
    for k in range(1, F.depth + 1):
        fk = F.level_set(k)
        members = [x for x in windows[-1] if fk.contains(x)]
        outside = {x for x in members if not S.contains(x)}
        if members and len({sum(x in outside for x in pts) for pts in windows}) == 1:
            return 1
    return 0


def scenario_ex2() -> dict:
    radius = 4096
    space = space_by_name("GeomLine")
    A = set_family("powers", base=4)
    B = set_family("powers", base=4, scale=2)
    window = Window(radius)
    check_radii = [radius // 4, radius // 2, radius]
    stable_max_k = 0
    neigh_rows = []
    for k in range(1, 9):
        counts = []
        for r in check_radii:
            w = Window(r)
            nk = neighborhood(space, A, k, w)
            extra = [p for p in nk.points if not A.contains(p)]
            counts.append(len(extra))
        neigh_rows.append({"k": k, "extra_counts": counts})
        if len(set(counts)) == 1:
            stable_max_k = k
    eA = levels_from_subset(space, A)
    eB = levels_from_subset(space, B)
    eC = levels_from_subset(space, A.complement())
    meet_zero = _below(meet(eA, eC), zero_levels(space), window)
    join_one = _below(unit_levels(space), join(eA, eC), window)
    F = powers_tail_base(4, depth=6)
    t_plus = tau(F, eA, window)
    t_minus = tau(F, eB, window)
    verdicts = [meet_zero, join_one, t_plus, t_minus]
    restriction_ok = True
    restriction_rows = []
    for S in (A, B, A.complement()):
        direct = _direct_omega(space, F, S, window)
        via_tau = tau(F, levels_from_subset(space, S), window)
        verdicts.append(via_tau)
        agree = via_tau.value == direct
        restriction_ok = restriction_ok and agree
        restriction_rows.append({"set": S.name, "direct": direct,
                                 "tau": via_tau.value, "agree": agree})
    summary = {"neighborhood_stable_max_k": stable_max_k,
               "complement_meet_zero": meet_zero.certified,
               "complement_join_one": join_one.certified,
               "tau_plus": t_plus.value, "tau_minus": t_minus.value,
               "tau_restriction_matches": restriction_ok}
    return {"summary": summary,
            "details": {"neighborhoods": neigh_rows,
                        "meet_zero": meet_zero.to_json(),
                        "join_one": join_one.to_json(),
                        "tau_plus": t_plus.to_json(),
                        "tau_minus": t_minus.to_json(),
                        "restriction": restriction_rows},
            "verdicts": verdicts}


def _sample_levels(space, rng):
    pool = [
        lambda: unit_levels(space),
        lambda: zero_levels(space),
        lambda: levels_from_subset(space, set_family("evens")),
        lambda: levels_from_subset(space, set_family("odds")),
        lambda: levels_from_subset(space, set_family("squares")),
        lambda: levels_from_subset(space, set_family("powers", base=2)),
        lambda: expression_levels(space, "ceil-sqrt"),
        lambda: expression_levels(space, "log2"),
        lambda: levels_from_subset(space, set_family("multiples", k=3, r=rng.randrange(3))),
    ]
    return rng.choice(pool)()


def scenario_lattice_laws() -> dict:
    seed, triples, radius = 7, 60, 24
    rng = random.Random(seed)
    spaces = [space_by_name(n) for n in ("NatLine", "IntLine")]
    laws_pass = True
    checked = 0
    for _ in range(triples):
        space = rng.choice(spaces)
        window = Window(radius)
        pts = window_points(space, window)
        e, f, g = (_sample_levels(space, rng) for _ in range(3))
        # the composites are built once per triple, and each reads the window
        # in one levels call, its operands' from their caches
        ef, jef = meet(e, f), join(e, f)
        equal = ((meet(f, e), ef),  # commutative
                 (meet(e, meet(f, g)), meet(ef, g)),  # associative
                 (meet(e, join(f, g)), join(ef, meet(e, g))))  # distributive
        to_e = (meet(e, jef), join(e, ef), meet(e, e))  # absorptive, idempotent
        le, lf = e.levels(pts), f.levels(pts)
        ok = (ef.levels(pts) == list(map(max, le, lf))
              and jef.levels(pts) == list(map(min, le, lf))
              and all(a.levels(pts) == b.levels(pts) for a, b in equal)
              and all(h.levels(pts) == le for h in to_e))
        laws_pass = laws_pass and ok
        checked += len(pts)
    space = space_by_name("NatLine")
    window = Window(48)
    d1 = subset_metric(space, set_family("evens"))
    d2 = subset_metric(space, set_family("powers", base=2))
    f1, f2 = f_map(d1), f_map(d2)
    cm_pass = (check_cm(f1, window)["passed"] and check_cm(f2, window)["passed"]
               and check_cm(cm_meet(f1, f2), window)["passed"]
               and check_cm(cm_join(f1, f2), window)["passed"])
    dm = metric_meet(d1, d2, window)
    dj = metric_join(d1, d2, window)
    fm, fj = f_map(dm), f_map(dj)
    f_compat = True
    for x in window_points(space, window):
        f_compat = f_compat and fm.value(x) == max(f1.value(x), f2.value(x))
        f_compat = f_compat and fj.value(x) == min(f1.value(x), f2.value(x))
    summary = {"laws_pass": laws_pass, "cm_closure_pass": cm_pass,
               "f_compat_pass": f_compat}
    return {"summary": summary,
            "details": {"pointwise_law_checks": checked, "seed": seed},
            "verdicts": []}


def scenario_measure_demo() -> dict:
    n_max = 8
    space = space_by_name("IntLine")
    mu = measure.DensityMeasure.natural(space)
    schedule = measure.default_schedule()
    a = levels_from_subset(space, set_family("half_line", sign=-1))
    b = levels_from_subset(space, set_family("half_line", sign=1))
    ha = measure.nu_hat(mu, a, n_max, schedule)
    hb = measure.nu_hat(mu, b, n_max, schedule)
    half = Fraction(1, 2)
    tol = Fraction(1, 32)
    in_bounds = (half - tol <= ha.interval.lo and ha.interval.hi <= half + tol
                 and half - tol <= hb.interval.lo and hb.interval.hi <= half + tol)
    pair = measure.nu_bar(mu, boolalg.FormalSum((a, b), (0, 1)), n_max, schedule)
    vals = [Fraction(str(v)) if isinstance(v, str) else Fraction(v)
            for _, v in pair["series"]][-3:]
    pair_ok = all(1 - tol <= v <= 1 + tol for v in vals)
    modular = measure.check_modularity(mu, a, b, n_max, schedule)
    dup = measure.nu_bar(mu, boolalg.FormalSum((a, a), (0, 1)), n_max, schedule)
    dup_ok = all(v == 0 for _, v in dup["series"])
    summary = {"half_line_in_bounds": in_bounds,
               "pair_nu_bar_in_bounds": pair_ok,
               "modularity_passed": modular["passed"],
               "duplicate_cancels": dup_ok}
    return {"summary": summary,
            "details": {"nu_hat_half_line": ha.to_json(),
                        "pair_nu_bar": pair, "modularity": modular,
                        "duplicate_nu_bar": dup},
            "verdicts": []}


_RUNNERS = {
    "typeI": scenario_typeI,
    "ex1": scenario_ex1,
    "ex2": scenario_ex2,
    "lattice-laws": scenario_lattice_laws,
    "measure-demo": scenario_measure_demo,
}


def run_scenario(name: str) -> RunReport:
    if name not in _RUNNERS:
        raise DomainError(f"unknown scenario {name!r} (known: {sorted(_RUNNERS)})")
    t0 = time.perf_counter()
    out = _RUNNERS[name]()
    elapsed = time.perf_counter() - t0
    expected = expected_tables()[name]
    mismatches = diff_against(expected, out["summary"])
    from . import __version__
    return RunReport(command=f"scenario run {name}",
                     results={"summary": out["summary"], "details": out["details"]},
                     expected=expected, mismatches=mismatches,
                     verdicts=out["verdicts"],
                     meta={"elapsed_s": round(elapsed, 3),
                           "version": __version__})
