"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's pruned search paths: they scan
coordinates or window points directly, so agreement is meaningful.
"""

import math
import sys

import pytest

from coarsedouble import space as space_module
from coarsedouble.space import space_by_name
from coarsedouble.verdicts import Status, Verdict, revalidate, witness_from_json


def brute_window_nat(base, radius):
    c = base[0]
    return [(i,) for i in range(0, c + math.floor(radius) + 1)
            if abs(i - c) <= radius]


def brute_window_int(base, radius):
    c = base[0]
    lo, hi = c - math.ceil(radius), c + math.ceil(radius)
    return [(i,) for i in range(lo, hi + 1) if abs(i - c) <= radius]


def brute_window_geom(base, radius):
    c = base[0]
    out = []
    n = 1
    while 2 ** n <= c + radius:
        if abs(2 ** n - c) <= radius:
            out.append((2 ** n,))
        n += 1
    return sorted(out)


def ruler_phi(n):
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v + 1


def brute_window_tails(base, radius):
    out = []
    n = 1
    while n * n <= base[0] + radius:
        for sign in (1, -1):
            p = (n * n, sign * ruler_phi(n))
            if abs(p[0] - base[0]) + abs(p[1] - base[1]) <= radius:
                out.append(p)
        n += 1
    return sorted(out)


BRUTE_WINDOWS = {
    "NatLine": brute_window_nat,
    "IntLine": brute_window_int,
    "GeomLine": brute_window_geom,
    "TwoTails": brute_window_tails,
}


def brute_delta_cross(space, delta_vals, x, y, pts):
    """Unpruned minimization of d(x,u) + delta(u) + d(u,y) over the window."""
    cands = list(pts)
    if x not in cands:
        cands.append(x)
    if y not in cands:
        cands.append(y)
    return min(space.distance(x, u) + delta_vals(u) + space.distance(u, y)
               for u in cands)


def brute_set_distance(space, x, members):
    return min(space.distance(x, a) for a in members)


@pytest.fixture
def natline():
    return space_by_name("NatLine")


@pytest.fixture
def intline():
    return space_by_name("IntLine")


@pytest.fixture
def geomline():
    return space_by_name("GeomLine")


@pytest.fixture
def twotails():
    return space_by_name("TwoTails")


@pytest.fixture
def counted(monkeypatch):
    """counted(name) records the argument tuple of every call of the space
    function ``name``, also where a library module imported it by name."""

    def install(name):
        fn, calls = getattr(space_module, name), []

        def wrapper(*args):
            calls.append(args)
            return fn(*args)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("coarsedouble") \
                    and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
        return calls

    return install


def certified_verdict_docs(doc):
    """Every certified verdict document inside a JSON report."""
    if isinstance(doc, dict):
        if doc.get("status") == Status.CERTIFIED.value and "check" in doc:
            yield doc
        for v in doc.values():
            yield from certified_verdict_docs(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from certified_verdict_docs(v)


def assert_revalidates(doc):
    """Each certified verdict in a JSON report, rebuilt from its JSON alone,
    passes ``revalidate``."""
    for v in certified_verdict_docs(doc):
        back = Verdict(Status.CERTIFIED, v["claim"], witness=witness_from_json(v["witness"]),
                       diagnostics={"series": v["diagnostics"]["series"]},
                       check_kind=v["check"])
        assert revalidate(back), v
