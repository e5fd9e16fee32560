"""Window verdicts, certified-on-window or inconclusive, and their witness
families.

A CERTIFIED verdict always carries a witness together with the data series
it must dominate, so it can be re-validated by direct substitution without
rerunning the search.  Everything else is INCONCLUSIVE, with trend
diagnostics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import DomainError
from .space import Rational, Window, as_rational, rational_to_json


class Status(enum.Enum):
    CERTIFIED = "certified-on-window"
    INCONCLUSIVE = "inconclusive"


class Witness:
    kind = "abstract"

    def bound(self, n: Rational) -> Rational:
        raise NotImplementedError

    def dominates(self, series) -> bool:
        """series: iterable of (n, value); true iff value <= bound(n) for all."""
        return all(v <= self.bound(n) for n, v in series)

    def to_json(self):
        raise NotImplementedError


@dataclass(frozen=True)
class AffineWitness(Witness):
    """n -> beta*n + alpha with alpha >= 0, beta >= 1."""

    alpha: Rational
    beta: Rational
    kind = "affine"

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 1:
            raise DomainError("affine witness needs alpha >= 0, beta >= 1")

    def bound(self, n):
        return self.beta * n + self.alpha

    def to_json(self):
        return {"kind": "affine", "alpha": rational_to_json(self.alpha),
                "beta": rational_to_json(self.beta)}


@dataclass(frozen=True)
class TabulatedWitness(Witness):
    """Finite monotone table extended beyond its domain by the last slope."""

    table: tuple  # sorted tuple of (n, value)
    kind = "tabulated"

    def __post_init__(self):
        t = tuple(sorted(self.table))
        object.__setattr__(self, "table", t)
        vals = [v for _, v in t]
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise DomainError("tabulated witness must be monotone non-decreasing")

    def last_slope(self) -> Rational:
        t = self.table
        if len(t) < 2:
            return 1
        (n0, v0), (n1, v1) = t[-2], t[-1]
        if n1 == n0:
            return 1
        return max(0, Fraction(v1 - v0, n1 - n0))

    def bound(self, n):
        t = self.table
        if not t:
            raise DomainError("empty tabulated witness")
        if n <= t[0][0]:
            return t[0][1]
        for nn, vv in reversed(t):
            if nn <= n:
                if nn == n:
                    return vv
                return vv + self.last_slope() * (n - nn)
        return t[-1][1]

    def to_json(self):
        return {"kind": "tabulated",
                "table": [[rational_to_json(n), rational_to_json(v)] for n, v in self.table]}


def witness_from_json(doc) -> Witness:
    kind = doc["kind"]
    if kind == "affine":
        return AffineWitness(as_rational(doc["alpha"]), as_rational(doc["beta"]))
    if kind == "tabulated":
        return TabulatedWitness(tuple((as_rational(n), as_rational(v))
                                      for n, v in doc["table"]))
    raise DomainError(f"unknown witness kind {kind!r}")


# check kinds understood by the independent re-validator
CHECK_DOMINATES = "dominates"       # series values <= witness bound
CHECK_STRICT_GROWTH = "strict-growth"  # series values strictly increase
CHECK_STABLE = "stable"             # series values are all equal


@dataclass
class Verdict:
    """Window-certified answer to an asymptotic claim."""

    status: Status
    claim: str
    window: Optional[Window] = None
    value: Optional[object] = None          # e.g. "zero", "nonzero", "type-I", 0, 1
    witness: Optional[Witness] = None
    diagnostics: dict = field(default_factory=dict)
    check_kind: str = CHECK_DOMINATES

    def __post_init__(self):
        if self.status is Status.CERTIFIED and self.witness is None:
            raise DomainError("a certified verdict must carry a witness")

    @property
    def certified(self) -> bool:
        return self.status is Status.CERTIFIED

    def series(self):
        return [(as_rational(n), as_rational(v))
                for n, v in self.diagnostics.get("series", [])]

    def to_json(self):
        """The verdict as a JSON document.  Diagnostics are stored JSON-ready
        by the code that builds them and are returned as built, not copied."""
        doc = {"status": self.status.value, "claim": self.claim,
               "check": self.check_kind}
        if self.window is not None:
            doc["window"] = self.window.to_json()
        if self.value is not None:
            doc["value"] = self.value
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        if self.diagnostics:
            doc["diagnostics"] = self.diagnostics
        return doc


def revalidate(verdict: Verdict) -> bool:
    """Re-check a certified verdict by direct substitution.

    Shares no code with the searchers: it only replays the witness
    inequality (or growth/stability predicate) against the frozen series.
    """
    if verdict.status is not Status.CERTIFIED:
        return True
    series = verdict.series()
    if verdict.check_kind == CHECK_DOMINATES:
        return verdict.witness is not None and verdict.witness.dominates(series)
    if verdict.check_kind == CHECK_STRICT_GROWTH:
        vals = [v for _, v in series]
        return len(vals) >= 3 and all(b > a for a, b in zip(vals, vals[1:]))
    if verdict.check_kind == CHECK_STABLE:
        vals = [v for _, v in series]
        return len(vals) >= 1 and all(v == vals[0] for v in vals)
    return False
