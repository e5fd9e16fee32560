"""Command-line front end: batch commands, JSON/CSV reports, scenario runs.

Exit codes: 0 ok, 1 expected-vs-actual mismatch, 2 usage error,
3 inconclusive search (always), or an inconclusive verdict or inexact
evaluation under --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__, ideals, measure
from .asymptotics import equivalent
from .boolalg import FormalSum, enumerate_atoms, check_hom, homs, powers_tail_base, tau
from .double import compose, evaluate
from .errors import DomainError, SearchInconclusive
from .projection import classify_type, join, meet
from .reporting import RunReport, pretty_dumps, report_to_csv, canonical_reload
from .scenarios import SCENARIO_NAMES, run_scenario
from .serialize import parse_kernel, parse_levels, parse_ints
from .space import (Window, builtin_spaces, space_by_name, space_from_json,
                    window_points)
from .verdicts import Status


def _read_json(path: str):
    """The JSON document in the file at path; DomainError if there is none."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read a JSON document from {path}: {exc}") from None


def _window(args) -> Window:
    base = parse_ints(args.base) if getattr(args, "base", None) else None
    return Window(args.radius, base)


# how a levels spec begins (see serialize.parse_levels)
_SPEC_STARTS = ("unit", "zero", "subset:", "~subset:", "expr:")


def _split_specs(text: str, sep: str) -> list:
    """A list of levels specs joined by sep, split only where the next piece
    begins a spec.  The separators also occur inside one spec, between the
    coordinates of ``zero:4,2`` and the points of ``subset:points:1;5``, so a
    piece that begins no spec belongs to the one before it."""
    specs = []
    for piece in text.split(sep):
        if specs and not piece.startswith(_SPEC_STARTS):
            specs[-1] += sep + piece
        else:
            specs.append(piece)
    return specs


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="coarse-double",
        description="Exact window-certified computations on metrics of doubles "
                    "of discrete spaces.")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any verdict is inconclusive or an "
                        "evaluation is inexact")
    p.add_argument("--csv", action="store_true", help="emit CSV series")
    p.add_argument("--out", help="also write the report to this file")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("space", help="inspect spaces and windows")
    spsub = sp.add_subparsers(dest="space_cmd", required=True)
    spsub.add_parser("list")
    show = spsub.add_parser("show")
    show.add_argument("--space", help="builtin space name")
    show.add_argument("--space-file", help="JSON document for a custom space")
    show.add_argument("--radius", type=int, required=True)
    show.add_argument("--base")

    proj = sub.add_parser("proj", help="define a projection from levels")
    projsub = proj.add_subparsers(dest="proj_cmd", required=True)
    define = projsub.add_parser("define")
    define.add_argument("--space", required=True)
    define.add_argument("--levels", required=True,
                        help="unit | zero[:pt] | subset:<set> | expr:<name>")
    define.add_argument("--radius", type=int, default=32)

    ev = sub.add_parser("eval", help="evaluate a cross-copy kernel")
    ev.add_argument("--space", required=True)
    ev.add_argument("--metric", required=True,
                    help="zero[:pt] | subset:<set> | delta:<levels> | const:<v>")
    ev.add_argument("--x", required=True)
    ev.add_argument("--y", required=True)
    ev.add_argument("--radius", type=int, default=64)
    ev.add_argument("--base")

    cmp_ = sub.add_parser("compare", help="equivalence of two level functions")
    cmp_.add_argument("--space", required=True)
    cmp_.add_argument("--left", required=True)
    cmp_.add_argument("--right", required=True)
    cmp_.add_argument("--mode", choices=["quasi", "coarse"], required=True)
    cmp_.add_argument("--radius", type=int, default=256)

    prod = sub.add_parser("product", help="compose two kernels and evaluate")
    prod.add_argument("--space", required=True)
    prod.add_argument("--left", required=True)
    prod.add_argument("--right", required=True)
    prod.add_argument("--x", required=True)
    prod.add_argument("--y", required=True)
    prod.add_argument("--radius", type=int, default=64)

    for opname in ("meet", "join"):
        mp = sub.add_parser(opname, help=f"{opname} of two level functions")
        mp.add_argument("--space", required=True)
        mp.add_argument("--left", required=True)
        mp.add_argument("--right", required=True)
        mp.add_argument("--radius", type=int, default=16)

    cl = sub.add_parser("classify", help="type I / type II classification")
    cl.add_argument("--space", required=True)
    cl.add_argument("--levels", required=True)
    cl.add_argument("--radius", type=int, default=256)
    cl.add_argument("--radii", help="comma-separated, strictly increasing sweep radii")

    alg = sub.add_parser("algebra", help="atoms and homs of a generated algebra")
    alg.add_argument("what", choices=["atoms", "homs"])
    alg.add_argument("--space", required=True)
    alg.add_argument("--generators", required=True,
                     help="semicolon-separated level specs")
    alg.add_argument("--radius", type=int, default=256)

    tp = sub.add_parser("tau", help="filter-base limit along a projection")
    tp.add_argument("--space", required=True)
    tp.add_argument("--filter-base", required=True,
                    help="base[,scale[,depth]] for scaled power tails")
    tp.add_argument("--levels", required=True)
    tp.add_argument("--radius", type=int, default=1024)

    ms = sub.add_parser("measure", help="density functionals")
    ms.add_argument("what", choices=["nu-hat", "nu-bar", "laws"])
    ms.add_argument("--space", required=True)
    ms.add_argument("--levels", required=True,
                    help="comma-separated level specs: one (nu-hat), "
                         "two (laws) or more (nu-bar)")
    ms.add_argument("--n-max", type=int, default=8)
    ms.add_argument("--schedule-base", type=int, default=32)

    idl = sub.add_parser("ideal", help="approximate-unit checks")
    idlsub = idl.add_subparsers(dest="ideal_cmd", required=True)
    ic = idlsub.add_parser("check")
    ic.add_argument("--space", required=True)
    ic.add_argument("--levels", required=True)
    ic.add_argument("--radius", type=int, default=64)
    ic.add_argument("--n-max", type=int, default=6)

    sc = sub.add_parser("scenario", help="run a scenario against its expected table")
    scsub = sc.add_subparsers(dest="scenario_cmd", required=True)
    run = scsub.add_parser("run")
    run.add_argument("name", choices=list(SCENARIO_NAMES))

    rp = sub.add_parser("report", help="re-render a saved JSON report")
    rp.add_argument("--infile", required=True)
    rp.add_argument("--format", choices=["json", "csv"], default="json")
    return p


def _dispatch(args) -> RunReport:
    if args.command == "space":
        if args.space_cmd == "list":
            return RunReport("space list",
                             {"spaces": sorted(builtin_spaces())})
        if args.space_file:
            space = space_from_json(_read_json(args.space_file))
        elif args.space:
            space = space_by_name(args.space)
        else:
            raise DomainError("space show needs --space or --space-file")
        w = _window(args)
        pts = window_points(space, w)
        return RunReport(
            f"space show {space.name}",
            {"space": space.to_json(), "window": w.to_json(),
             "count": len(pts), "points": [list(p) for p in pts]})

    if args.command == "proj":
        space = space_by_name(args.space)
        lf = parse_levels(space, args.levels)
        w = Window(args.radius)
        return RunReport(
            f"proj define {args.levels}",
            {"levels": lf.serialize_window(w),
             "validation": lf.validate(w)})

    if args.command == "eval":
        space = space_by_name(args.space)
        d = parse_kernel(space, args.metric)
        w = _window(args)
        ev = evaluate(d, parse_ints(args.x), parse_ints(args.y), w)
        return RunReport(f"eval {args.metric}",
                         {"evaluation": ev.to_json(), "kernel": d.to_json()})

    if args.command == "compare":
        space = space_by_name(args.space)
        e1 = parse_levels(space, args.left)
        e2 = parse_levels(space, args.right)
        v = equivalent(e1, e2, args.mode, Window(args.radius))
        return RunReport(f"compare {args.mode}", {"verdict": v.to_json()},
                         verdicts=[v])

    if args.command == "product":
        space = space_by_name(args.space)
        d = compose(parse_kernel(space, args.left), parse_kernel(space, args.right))
        w = Window(args.radius)
        ev = evaluate(d, parse_ints(args.x), parse_ints(args.y), w)
        return RunReport("product", {"evaluation": ev.to_json(),
                                     "kernel": d.to_json()})

    if args.command in ("meet", "join"):
        space = space_by_name(args.space)
        e1 = parse_levels(space, args.left)
        e2 = parse_levels(space, args.right)
        op = meet if args.command == "meet" else join
        lf = op(e1, e2)
        w = Window(args.radius)
        return RunReport(args.command,
                         {"levels": lf.serialize_window(w)})

    if args.command == "classify":
        space = space_by_name(args.space)
        lf = parse_levels(space, args.levels)
        radii = list(parse_ints(args.radii)) if args.radii else None
        v = classify_type(lf, Window(args.radius), radii=radii)
        return RunReport("classify", {"verdict": v.to_json()}, verdicts=[v])

    if args.command == "algebra":
        space = space_by_name(args.space)
        gens = [parse_levels(space, s) for s in _split_specs(args.generators, ";")]
        w = Window(args.radius)
        if args.what == "atoms":
            atoms = enumerate_atoms(gens, w)
            return RunReport(
                "algebra atoms",
                {"generators": [g.name for g in gens],
                 "atoms": [{"pattern": p.bits(), "verdict": v.to_json()}
                           for p, v in atoms]},
                verdicts=[v for _, v in atoms])
        hs = homs(gens, w)
        return RunReport(
            "algebra homs",
            {"generators": [g.name for g in gens],
             "homs": [dict(h.to_json(),
                           check=check_hom(h, gens, w)) for h in hs]})

    if args.command == "tau":
        space = space_by_name(args.space)
        parts = parse_ints(args.filter_base)
        if len(parts) > 3:
            raise DomainError(f"--filter-base {args.filter_base!r} takes at most "
                              "three values: base[,scale[,depth]]")
        base = parts[0]
        scale = parts[1] if len(parts) > 1 else 1
        depth = parts[2] if len(parts) > 2 else 6
        F = powers_tail_base(base, scale=scale, depth=depth)
        lf = parse_levels(space, args.levels)
        v = tau(F, lf, Window(args.radius))
        return RunReport("tau", {"verdict": v.to_json()}, verdicts=[v])

    if args.command == "measure":
        space = space_by_name(args.space)
        mu = measure.DensityMeasure.natural(space)
        schedule = measure.default_schedule(args.schedule_base)
        specs = _split_specs(args.levels, ",")
        wanted = {"nu-hat": 1, "laws": 2}.get(args.what)
        if wanted is not None and len(specs) != wanted:
            raise DomainError(f"measure {args.what} takes {wanted} level spec(s), "
                              f"not {len(specs)}: {specs}")
        gens = tuple(parse_levels(space, s) for s in specs)
        if args.what == "nu-hat":
            rep = measure.nu_hat(mu, gens[0], args.n_max, schedule)
            return RunReport("measure nu-hat", {"nu_hat": rep.to_json()})
        if args.what == "nu-bar":
            s = FormalSum(gens, tuple(range(len(gens))))
            return RunReport("measure nu-bar",
                             {"nu_bar": measure.nu_bar(mu, s, args.n_max, schedule)})
        rep = measure.check_modularity(mu, gens[0], gens[1], args.n_max, schedule)
        return RunReport("measure laws", {"modularity": rep})

    if args.command == "ideal":
        space = space_by_name(args.space)
        lf = parse_levels(space, args.levels)
        unit = ideals.ApproximateUnit(lf)
        w = Window(args.radius)
        return RunReport("ideal check",
                         {"au": ideals.check_au(unit, w, args.n_max),
                          "recovery": ideals.recovery_transfer(unit, w)})

    if args.command == "scenario":
        return run_scenario(args.name)

    if args.command == "report":
        doc = _read_json(args.infile)
        if not isinstance(doc, dict):
            raise DomainError(f"{args.infile} holds no report object")
        if args.format == "csv":
            return RunReport("report csv", {"csv": report_to_csv(doc)})
        return RunReport("report json", {"canonical": canonical_reload(doc)})

    raise DomainError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _dispatch(args)
        report.meta.setdefault("version", __version__)
        doc = report.to_json()
        text = report_to_csv(doc) if args.csv else pretty_dumps(doc) + "\n"
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise DomainError(f"cannot write {args.out}: {exc}") from None
    except (DomainError, SearchInconclusive) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3 if isinstance(exc, SearchInconclusive) else 2
    sys.stdout.write(text)
    if not report.passed:
        return 1
    inexact = report.results.get("evaluation", {}).get("exact") is False
    if args.strict and (inexact or any(v.status is Status.INCONCLUSIVE
                                       for v in report.verdicts)):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
