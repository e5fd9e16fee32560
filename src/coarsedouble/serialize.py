"""JSON (de)serialization for kernels and level functions, and the
command-line grammar of their compact specs.

Only kernels that ``kernel_from_json`` rebuilds have a document.  Readers
raise DomainError on a malformed document or a kernel of another space, and
revalidate what they read on a probe window: kernels rerun the axiom
checks, level functions the expanding-sequence checks.
"""

from __future__ import annotations

import math
from functools import reduce

from .boolalg import FilterBase, powers_tail_base
from .double import (DeltaMetric, DoubleMetric, MaxMetric, MinGlueMetric,
                     PointMetric, check_axioms, compose, const_delta)
from .errors import DomainError, _malformed
from .projection import (LevelFunction, join, levels_from_expression,
                         levels_from_subset, meet, metric_from_levels,
                         subset_metric, unit_levels, zero_levels)
from .space import (MetricSpace, PointSet, Window, _set_on, as_rational, parse_int,
                    set_family, set_from_json)

PROBE_RADIUS = 8
_PAIRS = {"max": MaxMetric, "min_glue": MinGlueMetric, "compose": compose}


def _expr_sqrt(p) -> int:
    v = abs(p[0]) + 1
    s = math.isqrt(v)
    return s if s * s == v else s + 1


def _expr_cbrt(p) -> int:
    """The least r with r**3 >= |x| + 1, by bisection: exact for any int."""
    v = abs(p[0]) + 1
    lo, hi = 0, 1
    while hi ** 3 < v:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** 3 >= v:
            hi = mid
        else:
            lo = mid + 1
    return hi


def _expr_log2(p) -> int:
    return (abs(p[0]) + 1).bit_length()


EXPRESSIONS = {
    "ceil-sqrt": _expr_sqrt,
    "ceil-cbrt": _expr_cbrt,
    "log2": _expr_log2,
}


def expression_levels(space: MetricSpace, name: str) -> LevelFunction:
    if name not in EXPRESSIONS:
        raise DomainError(f"unknown expression {name!r} (known: {sorted(EXPRESSIONS)})")
    return levels_from_expression(space, name, EXPRESSIONS[name],
                                  payload={"kind": "expression", "expr": name})


def level_from_json(space: MetricSpace, doc, validate: bool = True) -> LevelFunction:
    with _malformed("level"):
        kind = doc["kind"]
        if kind == "unit":
            lf = unit_levels(space)
        elif kind == "zero":
            lf = zero_levels(space, tuple(doc["x0"]) if "x0" in doc else None)
        elif kind == "subset":
            lf = levels_from_subset(space, _set_on(space, set_from_json(doc["set"])))
        elif kind == "expression":
            lf = expression_levels(space, doc["expr"])
        elif kind in ("meet", "join"):
            lf = reduce(meet if kind == "meet" else join,
                        [level_from_json(space, d, validate=False) for d in doc["of"]])
        else:
            raise DomainError(f"unknown level-function kind {kind!r}")
    if validate:
        report = lf.validate(Window(PROBE_RADIUS))
        if not report["passed"]:
            raise DomainError(f"deserialized levels fail validation: {report}")
    return lf


def kernel_from_json(space: MetricSpace, doc, validate: bool = True) -> DoubleMetric:
    with _malformed("kernel"):
        kind = doc["kind"]
        if "space" in doc and doc["space"] != space.to_json():
            raise DomainError(f"{kind} kernel document of {doc['space']} read on {space.name}")
        if kind == "zero_at":
            d = PointMetric(space, tuple(doc["x0"]))
        elif kind == "subset":
            d = subset_metric(space, _set_on(space, set_from_json(doc["set"])))
        elif kind == "delta":
            payload = doc["delta"]
            if payload.get("kind") == "const":
                d = DeltaMetric(space, const_delta(space, as_rational(payload["value"])))
            elif payload.get("kind") == "levels":
                d = metric_from_levels(level_from_json(space, payload["levels"], validate=False))
            else:
                raise DomainError(f"unknown delta payload {payload!r}")
        elif kind in _PAIRS:
            a, b = doc["of"]  # exactly two kernel documents, or a malformed one
            d = _PAIRS[kind](kernel_from_json(space, a, validate=False),
                             kernel_from_json(space, b, validate=False))
        else:
            raise DomainError(f"unknown kernel kind {kind!r}")
    if validate:
        report = check_axioms(d, Window(PROBE_RADIUS))
        required = ["positivity", "lower_bound", "triangle_cross_vs_base"]
        if d.coercive_c is not None:
            # non-coercive kinds (subset closed forms and their compositions)
            # do not promise the base-versus-cross triangle; everything else does
            required.append("triangle_base_vs_cross")
        bad = [name for name in required if not report.checks[name]["passed"]]
        if bad:
            raise DomainError(
                f"deserialized kernel fails axioms {bad}: {report.first_violation()}")
    return d


# -- compact command-line forms ----------------------------------------------


def parse_ints(text: str) -> tuple:
    """Comma-separated integers, such as the coordinates of a point: 3 or 4,-2."""
    return tuple(parse_int(c) for c in text.split(","))


def parse_set(space: MetricSpace, spec: str):
    """family[:arg[:arg]] shorthand, e.g. evens, powers:4, powers:4:2,
    halfline:-:0, multiples:3:1, points:1;5, tailplus.  The tail families
    need a space whose points have two coordinates."""
    fam, *args = spec.split(":")
    arity = {"evens": 0, "odds": 0, "squares": 0, "tailplus": 0, "tailminus": 0,
             "points": 1, "powers": 2, "multiples": 2, "halfline": 2}
    if fam not in arity:
        raise DomainError(f"unknown set spec {spec!r}")
    if arity[fam] and not args:
        raise DomainError(f"set spec {spec!r} needs an argument after {fam}")
    if len(args) > arity[fam]:
        raise DomainError(f"set spec {spec!r}: {fam} takes at most "
                          f"{arity[fam]} field(s), not {len(args)}")
    if fam in ("evens", "odds", "squares"):
        return set_family(fam)
    if fam == "powers":
        base = parse_int(args[0])
        scale = parse_int(args[1]) if len(args) > 1 else 1
        return set_family("powers", base=base, scale=scale)
    if fam == "multiples":
        return set_family("multiples", k=parse_int(args[0]),
                          r=parse_int(args[1]) if len(args) > 1 else 0)
    if fam == "halfline":
        if args[0] not in ("+", "-"):
            raise DomainError(f"half-line sign in {spec!r} must be + or -")
        bound = parse_int(args[1]) if len(args) > 1 else 0
        return set_family("half_line", sign=-1 if args[0] == "-" else 1, bound=bound)
    if fam in ("tailplus", "tailminus"):
        return _set_on(space, set_family("tail_plus" if fam == "tailplus" else "tail_minus"))
    # points, the one family left
    return PointSet.from_points([parse_ints(chunk) for chunk in args[0].split(";")])


def parse_levels(space: MetricSpace, spec: str) -> LevelFunction:
    """unit | zero[:coords] | subset:<set spec> | expr:<name> | ~subset for
    the complement of a set."""
    if spec == "unit":
        return unit_levels(space)
    if spec == "zero" or spec.startswith("zero:"):
        return zero_levels(space, parse_ints(spec[5:]) if ":" in spec else None)
    if spec.startswith("expr:"):
        return expression_levels(space, spec.split(":", 1)[1])
    if spec.startswith("subset:"):
        return levels_from_subset(space, parse_set(space, spec.split(":", 1)[1]))
    if spec.startswith("~subset:"):
        return levels_from_subset(space, parse_set(space, spec.split(":", 1)[1]).complement())
    raise DomainError(f"unknown levels spec {spec!r}")


# how a levels spec begins (see parse_levels)
_SPEC_STARTS = ("unit", "zero", "subset:", "~subset:", "expr:")


def split_specs(text: str, sep: str) -> list:
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


def parse_filter_base(text: str) -> FilterBase:
    """base[,scale[,depth]]: the scaled power tails of ``powers_tail_base``,
    with scale 1 and depth 6 when left out (the function's own default
    depth is 8)."""
    parts = parse_ints(text)
    if len(parts) > 3:
        raise DomainError(f"--filter-base {text!r} takes at most "
                          "three values: base[,scale[,depth]]")
    base, scale, depth = parts + (1, 6)[len(parts) - 1:]
    return powers_tail_base(base, scale=scale, depth=depth)


def parse_kernel(space: MetricSpace, spec: str) -> DoubleMetric:
    """zero[:coords] | subset:<set spec> | delta:<levels spec> | const:<v>."""
    if spec == "zero" or spec.startswith("zero:"):
        return PointMetric(space, parse_ints(spec[5:]) if ":" in spec else None)
    if spec.startswith("const:"):
        return DeltaMetric(space, const_delta(space, as_rational(spec.split(":", 1)[1])))
    if spec.startswith("subset:"):
        return subset_metric(space, parse_set(space, spec.split(":", 1)[1]))
    if spec.startswith("delta:"):
        return metric_from_levels(parse_levels(space, spec.split(":", 1)[1]))
    raise DomainError(f"unknown kernel spec {spec!r}")
