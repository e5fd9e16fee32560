"""One listing budget, kept where balls are listed.

``MetricSpace.points_within`` lists no ball of more than SEARCH_POINT_CAP
points: on NatLine, IntLine and TwoTails a ball over the budget raises
SearchInconclusive before any point is built.  So a huge copy gap makes
every search, window and escalation return or raise SearchInconclusive in
bounded memory, which a child process checks under an address-space limit.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from coarsedouble import space as space_module
from coarsedouble.errors import SearchInconclusive
from coarsedouble.space import (SEARCH_POINT_CAP, IntLine, NatLine, TwoTails, Window,
                                window_points)

SRC = Path(__file__).resolve().parent.parent / "src"

# (space, centre, a radius whose ball lists, the next radius, which is
# refused, and the size listed): a ball of exactly the budget's size, and
# the next larger ball, which holds one point more (two on IntLine: a ball
# around an integer holds an odd number of integers).  On TwoTails the ball
# of radius N^2 + phi(N) = 2^30 + 16 about (1, 1), N = 2^15, holds both
# points of every n <= N; the next radius, (N + 1)^2 - 1, adds
# ((N + 1)^2, 1).
EDGES = {
    "NatLine": (NatLine(), (0,), SEARCH_POINT_CAP - 1, SEARCH_POINT_CAP, SEARCH_POINT_CAP),
    "NatLine-off-0": (NatLine(), (1,), SEARCH_POINT_CAP - 2, SEARCH_POINT_CAP - 1,
                      SEARCH_POINT_CAP),
    "IntLine": (IntLine(), (0,), Fraction(SEARCH_POINT_CAP - 1, 2), SEARCH_POINT_CAP // 2,
                SEARCH_POINT_CAP - 1),
    "TwoTails": (TwoTails(), (1, 1), (1 << 30) + 16, (1 << 30) + (1 << 16), SEARCH_POINT_CAP),
}


@pytest.mark.parametrize("case", list(EDGES))
def test_a_ball_within_the_budget_lists_and_one_point_more_raises_unbuilt(case):
    space, centre, listed, refused, size = EDGES[case]
    ball = space.points_within(centre, listed)
    assert len(ball) == size <= SEARCH_POINT_CAP
    assert ball == sorted(ball) and all(space._dist(centre, p) <= listed for p in ball)
    tracemalloc.start()
    try:
        with pytest.raises(SearchInconclusive, match="over the listing budget of 65536") as err:
            space.points_within(centre, refused)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert err.value.window_radius == refused
    assert f"radius {refused} around {centre}" in str(err.value)


@pytest.mark.parametrize("radius", [0, Fraction(1, 2), 1, 2, 3, 5, 8, Fraction(27, 2), 40, 100])
def test_two_tails_size_bound_covers_the_ball(monkeypatch, twotails, radius):
    # with the budget one below a ball's size, the ball is refused: the
    # bound the listing checks is at least the size of what it lists
    for centre in window_points(twotails, Window(70)):
        ball = twotails.points_within(centre, radius)
        monkeypatch.setattr(space_module, "SEARCH_POINT_CAP", len(ball) - 1)
        with pytest.raises(SearchInconclusive, match="listing budget"):
            twotails.points_within(centre, radius)
        monkeypatch.undo()


# Each case runs in a child process whose address space is limited to 512
# MiB; a copy gap of 2^40 would make balls of about 2^41 line points, or 2^21
# TwoTails points, if they were listed.
CHILD = r"""
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, resource.getrlimit(resource.RLIMIT_AS)[1]))
from coarsedouble import (DeltaMetric, SearchInconclusive, Window, check_axioms,
                          const_delta, evaluate_exact, levels_from_metric,
                          projection_criterion, source_projection, space_by_name,
                          window_points)
from coarsedouble.cli import main

BIG = 1 << 40
for name, x, y in [("NatLine", (0,), (3,)), ("IntLine", (0,), (-2,)),
                   ("TwoTails", (1, 1), (4, 2))]:
    s = space_by_name(name)
    d = DeltaMetric(s, const_delta(s, BIG))
    w = Window(8)
    point = ",".join(map(str, x)), ",".join(map(str, y))
    cases = {
        "evaluate_exact": lambda: evaluate_exact(d, x, y),
        "source_projection": lambda: source_projection(d).level(x),
        "projection_criterion": lambda: projection_criterion(d, w),
        "levels_from_metric": lambda: levels_from_metric(d).level(x),
        "cross_matrix": lambda: d.cross_matrix(window_points(s, w), w),
        "check_axioms": lambda: check_axioms(d, w),
        "cli eval": lambda: main(["eval", "--space", name, "--metric", f"const:{BIG}",
                                  "--x", point[0], "--y", point[1]]),
        "cli space show": lambda: main(["space", "show", "--space", name,
                                        "--radius", "10000000000"]),
    }
    for case, run in cases.items():
        try:
            got = run()
            outcome = f"exit {got}" if case.startswith("cli") else "returned"
        except SearchInconclusive:
            outcome = "inconclusive"
        except Exception as exc:
            outcome = repr(exc)[:200]
        print(json.dumps([name, case, outcome]), file=sys.stderr, flush=True)
"""


def test_a_huge_copy_gap_stays_inside_512_mib():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    rows = [json.loads(line) for line in proc.stderr.splitlines() if line.startswith("[")]
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert len(rows) == 3 * 8, proc.stderr[-2000:]
    bad = [row for row in rows if row[2] not in ("returned", "inconclusive", "exit 0", "exit 3")]
    assert not bad, bad
    # the window over the budget is refused, not listed
    assert all(row[2] == "exit 3" for row in rows if row[1] == "cli space show")
