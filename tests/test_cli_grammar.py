"""Generated command lines over the shorthand grammar, through ``cli.main``.

Every verdict command, on every built-in space, with any set family,
complement, expression, ``unit`` or ``zero`` level spec, must end in exit 0,
2 (usage error) or 3 (inconclusive search): never exit 1 and never an
uncaught exception.  Every certified verdict a command prints re-validates
from its JSON.  Spec lists (``measure laws --levels a,b``, ``algebra atoms
--generators a;b``) hold the same separators inside one spec, between the
coordinates of a TwoTails point and between the points of a point list.
``measure nu-hat`` is checked against ``nu_hat`` called directly, so a spec
the command line misreads cannot pass as a usage error.  Radii stay at or
below 32 and the examples are derandomized, so the module is deterministic
and quick.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coarsedouble import measure
from coarsedouble.cli import main
from coarsedouble.errors import DomainError, SearchInconclusive
from coarsedouble.serialize import parse_levels
from coarsedouble.space import space_by_name
from conftest import assert_revalidates

SPACES = ("NatLine", "IntLine", "GeomLine", "TwoTails")
RADII = st.integers(1, 32)


def _coords(space):
    """Coordinates as the CLI takes them; pairs on TwoTails, not always members."""
    one = st.integers(-4, 40)
    if space == "TwoTails":
        return st.tuples(one, one).map(lambda p: f"{p[0]},{p[1]}")
    return one.map(str)


def _optional(field):
    return st.none() | field


def _with(head, *fields):
    return ":".join([head] + [str(f) for f in fields if f is not None])


def _sets(space):
    return st.one_of(
        st.sampled_from(["evens", "odds", "squares", "tailplus", "tailminus"]),
        st.builds(lambda b, s: _with(f"powers:{b}", s), st.integers(0, 5),
                  _optional(st.integers(0, 3))),
        st.builds(lambda k, r: _with(f"multiples:{k}", r), st.integers(0, 5),
                  _optional(st.integers(-6, 6))),
        st.builds(lambda sign, b: _with(f"halfline:{sign}", b), st.sampled_from("+-"),
                  _optional(st.integers(-40, 40))),
        st.lists(_coords(space), min_size=1, max_size=3).map(
            lambda pts: "points:" + ";".join(pts)),
    )


def _levels(space):
    return st.one_of(
        st.sampled_from(["unit", "zero", "expr:ceil-sqrt", "expr:ceil-cbrt", "expr:log2"]),
        _coords(space).map(lambda p: f"zero:{p}"),
        _sets(space).map(lambda s: f"subset:{s}"),
        _sets(space).map(lambda s: f"~subset:{s}"),
    )


def _kernels(space):
    return st.one_of(
        st.just("zero"),
        _coords(space).map(lambda p: f"zero:{p}"),
        st.sampled_from(["const:1", "const:2", "const:5/2"]),
        _sets(space).map(lambda s: f"subset:{s}"),
        _levels(space).map(lambda s: f"delta:{s}"),
    )


def _argv(space):
    sp = ["--space", space]
    lv = _levels(space)
    radius = RADII.map(lambda r: ["--radius", str(r)])
    return st.one_of(
        st.tuples(lv, radius).map(lambda a: ["classify", *sp, "--levels", a[0], *a[1]]),
        st.tuples(lv, lv, st.sampled_from(["quasi", "coarse"]), radius).map(
            lambda a: ["compare", *sp, "--left", a[0], "--right", a[1], "--mode", a[2],
                       *a[3]]),
        st.tuples(st.lists(st.integers(1, 4), min_size=1, max_size=3), lv, radius).map(
            lambda a: ["tau", *sp, "--filter-base", ",".join(map(str, a[0])),
                       "--levels", a[1], *a[2]]),
        st.tuples(lv, radius, st.integers(1, 4)).map(
            lambda a: ["ideal", "check", *sp, "--levels", a[0], *a[1],
                       "--n-max", str(a[2])]),
        st.tuples(lv, st.integers(1, 4)).map(
            lambda a: ["measure", "nu-hat", *sp, "--levels", a[0],
                       "--schedule-base", "1", "--n-max", str(a[1])]),
        st.tuples(_kernels(space), _coords(space), _coords(space), radius).map(
            lambda a: ["eval", *sp, "--metric", a[0], "--x", a[1], "--y", a[2], *a[3]]),
        st.tuples(lv, lv, st.integers(1, 3)).map(
            lambda a: ["measure", "laws", *sp, "--levels", f"{a[0]},{a[1]}",
                       "--schedule-base", "1", "--n-max", str(a[2])]),
        st.tuples(st.lists(lv, min_size=1, max_size=2), radius).map(
            lambda a: ["algebra", "atoms", *sp, "--generators", ";".join(a[0]), *a[1]]),
    )


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(argv=st.sampled_from(SPACES).flatmap(_argv))
@example(argv=["measure", "laws", "--space", "TwoTails", "--levels",
               "zero:4,2,subset:points:4,2;9,1", "--schedule-base", "1", "--n-max", "2"])
@example(argv=["algebra", "atoms", "--space", "TwoTails", "--generators",
               "subset:points:4,2;9,1;zero:4,-2", "--radius", "16"])
@example(argv=["algebra", "atoms", "--space", "NatLine", "--generators",
               "subset:points:1;5;subset:evens", "--radius", "16"])
@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_verdict_commands_exit_cleanly(argv):
    code, out, err = _run(argv)
    assert code in (0, 2, 3), (argv, err)
    if code == 0:
        doc = json.loads(out)
        assert doc["passed"]
        assert_revalidates(doc)
    elif code == 3:
        assert "error" in json.loads(err)


@given(space_spec=st.sampled_from(SPACES).flatmap(
    lambda space: st.tuples(st.just(space), _levels(space))), n_max=st.integers(1, 3))
@example(space_spec=("TwoTails", "subset:points:4,2;9,1"), n_max=2)
@example(space_spec=("TwoTails", "zero:9,-1"), n_max=1)
@example(space_spec=("NatLine", "subset:points:1,2"), n_max=1)
@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_nu_hat_command_matches_the_library(space_spec, n_max):
    space, spec = space_spec
    code, out, _ = _run(["measure", "nu-hat", "--space", space, "--levels", spec,
                         "--schedule-base", "1", "--n-max", str(n_max)])
    sp = space_by_name(space)
    try:
        rep = measure.nu_hat(measure.DensityMeasure.natural(sp), parse_levels(sp, spec),
                             n_max, measure.default_schedule(1))
    except DomainError:
        assert code == 2, spec
    except SearchInconclusive:
        assert code == 3, spec
    else:
        assert code == 0, spec
        assert json.loads(out)["results"]["nu_hat"] == json.loads(json.dumps(rep.to_json()))
