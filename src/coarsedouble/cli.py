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
from typing import Optional

from . import __version__, ideals, measure
from .asymptotics import equivalent
from .boolalg import FormalSum, enumerate_atoms, check_hom, homs, tau
from .double import compose, evaluate
from .errors import DomainError, SearchInconclusive
from .projection import classify_type, join, meet
from .reporting import RunReport, pretty_dumps, report_to_csv, canonical_reload
from .scenarios import SCENARIO_NAMES, run_scenario
from .serialize import (parse_filter_base, parse_ints, parse_kernel, parse_levels,
                        split_specs)
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


def _window(args) -> Optional[Window]:
    """The ball of --radius about --base (the space's basepoint without it);
    None for a command without --radius."""
    if getattr(args, "radius", None) is None:
        return None
    base = parse_ints(args.base) if getattr(args, "base", None) else None
    return Window(args.radius, base)


def _command(sub, name: str, help_: Optional[str], *arguments):
    """The subcommand name, with its arguments declared in order.  A bare
    flag is a required option, ``(flag, n)`` an int option defaulting to n,
    ``(flag, "text")`` a required option with that help, and
    ``(flag, {...})`` passes its keywords to ``add_argument``."""
    p = sub.add_parser(name, help=help_) if help_ else sub.add_parser(name)
    for arg in arguments:
        flag, spec = (arg, None) if isinstance(arg, str) else arg
        if spec is None:
            p.add_argument(flag, required=True)
        elif isinstance(spec, int):
            p.add_argument(flag, type=int, default=spec)
        elif isinstance(spec, str):
            p.add_argument(flag, required=True, help=spec)
        else:
            p.add_argument(flag, **spec)
    return p


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

    def group(name, help_):
        return sub.add_parser(name, help=help_).add_subparsers(
            dest=f"{name}_cmd", required=True)

    space = group("space", "inspect spaces and windows")
    space.add_parser("list")
    _command(space, "show", None, ("--space", {"help": "builtin space name"}),
             ("--space-file", {"help": "JSON document for a custom space"}),
             ("--radius", {"type": int, "required": True}), ("--base", {}))
    _command(group("proj", "define a projection from levels"), "define", None, "--space",
             ("--levels", "unit | zero[:pt] | subset:<set> | expr:<name>"), ("--radius", 32))
    _command(sub, "eval", "evaluate a cross-copy kernel", "--space",
             ("--metric", "zero[:pt] | subset:<set> | delta:<levels> | const:<v>"),
             "--x", "--y", ("--radius", 64), ("--base", {}))
    _command(sub, "compare", "equivalence of two level functions", "--space", "--left",
             "--right", ("--mode", {"choices": ["quasi", "coarse"], "required": True}),
             ("--radius", 256))
    _command(sub, "product", "compose two kernels and evaluate", "--space", "--left",
             "--right", "--x", "--y", ("--radius", 64))
    for opname in ("meet", "join"):
        _command(sub, opname, f"{opname} of two level functions", "--space", "--left",
                 "--right", ("--radius", 16))
    _command(sub, "classify", "type I / type II classification", "--space", "--levels",
             ("--radius", 256),
             ("--radii", {"help": "comma-separated, strictly increasing sweep radii"}))
    _command(sub, "algebra", "atoms and homs of a generated algebra",
             ("what", {"choices": ["atoms", "homs"]}), "--space",
             ("--generators", "semicolon-separated level specs"), ("--radius", 256))
    _command(sub, "tau", "filter-base limit along a projection", "--space",
             ("--filter-base", "base[,scale[,depth]] for scaled power tails"), "--levels",
             ("--radius", 1024))
    _command(sub, "measure", "density functionals",
             ("what", {"choices": ["nu-hat", "nu-bar", "laws"]}), "--space",
             ("--levels", "comma-separated level specs: one (nu-hat), "
                          "two (laws) or more (nu-bar)"),
             ("--n-max", 8), ("--schedule-base", 32))
    _command(group("ideal", "approximate-unit checks"), "check", None, "--space",
             "--levels", ("--radius", 64), ("--n-max", 6))
    _command(group("scenario", "run a scenario against its expected table"), "run", None,
             ("name", {"choices": list(SCENARIO_NAMES)}))
    _command(sub, "report", "re-render a saved JSON report", "--infile",
             ("--format", {"choices": ["json", "csv"], "default": "json"}))
    return p


def _dispatch(args) -> RunReport:
    """The report of one parsed command line.  Commands without a space are
    answered first; every other command has its space, window and level-spec
    reader resolved here once, before its own branch."""
    if args.command == "scenario":
        return run_scenario(args.name)
    if args.command == "report":
        doc = _read_json(args.infile)
        if not isinstance(doc, dict):
            raise DomainError(f"{args.infile} holds no report object")
        if args.format == "csv":
            return RunReport("report csv", {"csv": report_to_csv(doc)})
        return RunReport("report json", {"canonical": canonical_reload(doc)})
    if args.command == "space" and args.space_cmd == "list":
        return RunReport("space list", {"spaces": sorted(builtin_spaces())})

    # only space show may name its space by --space-file instead of --space
    if getattr(args, "space_file", None):
        space = space_from_json(_read_json(args.space_file))
    elif args.space or args.command != "space":
        space = space_by_name(args.space)
    else:
        raise DomainError("space show needs --space or --space-file")
    w = _window(args)
    read_levels = functools.partial(parse_levels, space)

    if args.command == "space":
        pts = window_points(space, w)
        return RunReport(
            f"space show {space.name}",
            {"space": space.to_json(), "window": w.to_json(),
             "count": len(pts), "points": [list(p) for p in pts]})

    if args.command == "proj":
        lf = read_levels(args.levels)
        return RunReport(
            f"proj define {args.levels}",
            {"levels": lf.serialize_window(w),
             "validation": lf.validate(w)})

    if args.command in ("eval", "product"):
        if args.command == "eval":
            d = parse_kernel(space, args.metric)
        else:
            d = compose(parse_kernel(space, args.left), parse_kernel(space, args.right))
        ev = evaluate(d, parse_ints(args.x), parse_ints(args.y), w)
        return RunReport(f"eval {args.metric}" if args.command == "eval" else "product",
                         {"evaluation": ev.to_json(), "kernel": d.to_json()})

    if args.command in ("compare", "classify", "tau"):
        if args.command == "compare":
            v = equivalent(read_levels(args.left), read_levels(args.right), args.mode, w)
        elif args.command == "classify":
            lf = read_levels(args.levels)
            v = classify_type(lf, w, radii=list(parse_ints(args.radii)) if args.radii else None)
        else:
            v = tau(parse_filter_base(args.filter_base), read_levels(args.levels), w)
        title = f"compare {args.mode}" if args.command == "compare" else args.command
        return RunReport(title, {"verdict": v.to_json()}, verdicts=[v])

    if args.command in ("meet", "join"):
        op = meet if args.command == "meet" else join
        lf = op(read_levels(args.left), read_levels(args.right))
        return RunReport(args.command, {"levels": lf.serialize_window(w)})

    if args.command == "algebra":
        gens = [read_levels(s) for s in split_specs(args.generators, ";")]
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

    if args.command == "measure":
        mu = measure.DensityMeasure.natural(space)
        schedule = measure.default_schedule(args.schedule_base)
        specs = split_specs(args.levels, ",")
        wanted = {"nu-hat": 1, "laws": 2}.get(args.what)
        if wanted is not None and len(specs) != wanted:
            raise DomainError(f"measure {args.what} takes {wanted} level spec(s), "
                              f"not {len(specs)}: {specs}")
        gens = tuple(map(read_levels, specs))
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
        unit = ideals.ApproximateUnit(read_levels(args.levels))
        return RunReport("ideal check",
                         {"au": ideals.check_au(unit, w, args.n_max),
                          "recovery": ideals.recovery_transfer(unit, w)})

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
