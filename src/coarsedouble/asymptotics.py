"""Window-certified verdicts for asymptotic comparisons of level functions.

Certification policy.  Every claim is evaluated at the three nested radii
of ``sweep_radii`` (R/16, R/4, R), or at given radii, which must increase
strictly and stay within the window's radius; ``sweep_windows``, the one
reader of a sweep, enumerates the largest window once.  A transfer entry is
*stable* when its value agrees at the two largest radii; sublevel sets only
gain points as the radius grows, so a stable entry has stopped moving.
Equivalence is certified only when the stable entries dominate the
comparison (at least the fraction STABLE_FRACTION of the common table,
including its smallest entry); quasi-equivalence additionally requires the
minimal affine witness itself to be stable.  Escape evidence means some
fixed entry grew strictly at every radius step: one walk over the sorted
union of the per-radius tables' jumps (``_escapes``) reads each table at
each jump where all are defined.  None of this claims a
limit: a certificate is always a finite inequality system that re-validates
by substitution.  There is no separate zero rule here: ``boolalg.is_zero``
is the order test e <= 0, one ``equivalent`` call.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import DomainError
from .space import MetricSpace, Rational, Window, rational_to_json, window_points
from .verdicts import (CHECK_DOMINATES, AffineWitness, Status, TabulatedWitness,
                       Verdict)

STABLE_FRACTION = Fraction(2, 3)

DEFAULT_ALPHAS = tuple(range(0, 9))
DEFAULT_BETAS = tuple(range(1, 9))


def default_grid():
    """Affine witness grid, searched beta-major so minimal witnesses come first."""
    return [(a, b) for b in DEFAULT_BETAS for a in DEFAULT_ALPHAS]


def sweep_radii(window: Window) -> list:
    """Three nested radii R/16, R/4, R.  Factor-4 steps guarantee that even
    exponentially spaced spaces gain points at every step, so stability and
    strict growth are sampled meaningfully.  The two smaller radii are
    raised to 1, so a window of radius R <= 4 has fewer than three distinct
    radii; stability read from one or two radii would certify anything, so
    such a window has no sweep and raises DomainError."""
    r = window.radius
    radii = sorted({_simplify(max(1, Fraction(r) / 16)),
                    _simplify(max(1, Fraction(r) / 4)),
                    _simplify(Fraction(r))})
    if len(radii) < 3:
        raise DomainError(f"a sweep needs a window radius above 4, so that R/16, "
                          f"R/4 and R (the smaller two raised to 1) are three "
                          f"distinct radii, got {rational_to_json(r)}")
    return radii


def _check_radii(radii: Sequence[Rational]) -> None:
    """DomainError naming the radii unless they are nonnegative and strictly
    increasing."""
    if not radii or radii[0] < 0 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError(f"radii must be nonnegative and strictly increasing, "
                          f"got {[rational_to_json(r) for r in radii]}")


def _window_radii(window: Window, radii: Optional[Sequence[Rational]]) -> Sequence[Rational]:
    """The sweep radii of a verdict on the window: ``sweep_radii(window)``, or
    the given radii, which must increase strictly and may not exceed the
    window's radius (DomainError), since a verdict on the window may read no
    ball beyond it."""
    if radii is None:
        return sweep_radii(window)
    _check_radii(radii)
    if radii[-1] > window.radius:
        raise DomainError(f"sweep radii must not exceed the window's radius "
                          f"{rational_to_json(window.radius)}, got "
                          f"{[rational_to_json(r) for r in radii]}")
    return radii


def sweep_windows(space: MetricSpace, window: Window, radii: Sequence[Rational]) -> list:
    """Per radius, its ball about the window's base, in ``window_points`` order."""
    _check_radii(radii)
    pts = window_points(space, Window(radii[-1], window.basepoint))
    base = window.resolve_base(space)
    dist = [space._dist(x, base) for x in pts]
    return [[x for x, d in zip(pts, dist) if d <= r] for r in radii[:-1]] + [pts]


def _simplify(v: Fraction) -> Rational:
    return int(v) if v.denominator == 1 else v


@dataclass(frozen=True)
class TransferTable:
    """T(n) = max level of e2 over points with e1-level <= n, on a window.

    Entries are kept at realized source levels; T is the step extension.
    """

    entries: tuple  # sorted ((n, value), ...)

    @classmethod
    def from_levels(cls, pairs: Iterable) -> "TransferTable":
        # one running-max pass over the pairs by source level; an entry is
        # kept only where the running maximum rises
        entries = []
        for n, v in sorted(pairs):
            if entries and v <= entries[-1][1]:
                continue
            if entries and entries[-1][0] == n:
                entries[-1] = (n, v)
            else:
                entries.append((n, v))
        return cls(tuple(entries))

    def value_at(self, n) -> Optional[Rational]:
        """Value of the last entry at or below n; None below the first."""
        i = bisect_right(self.entries, n, key=itemgetter(0))
        return self.entries[i - 1][1] if i else None

    def to_json(self):
        return [[rational_to_json(n), rational_to_json(v)] for n, v in self.entries]


def transfer(e1, e2, window: Window) -> TransferTable:
    """Transfer table of e1 against e2 on the window; exact."""
    pts = window_points(_common_space(e1, e2), window)
    return TransferTable.from_levels(zip(e1.levels(pts), e2.levels(pts)))


def _common_space(e1, e2) -> MetricSpace:
    if e1.space != e2.space:
        raise DomainError("level functions live on different spaces")
    return e1.space


def _merged_samples(t12: TransferTable, t21: TransferTable) -> dict:
    """max of both step tables, sampled where it rises.

    Each table is already a running maximum, so the running maximum over both
    tables' entries is their pointwise max; keeping only its rises compacts
    each value run to its first sample, so that a single growing top entry is
    not counted once per plateau point.
    """
    return dict(TransferTable.from_levels(t12.entries + t21.entries).entries)


def _stability(mid: dict, last: dict):
    """Classify common samples as stable/unstable between the two largest
    radii.  last is never empty, since every window holds its base point;
    mid is empty when there is one radius."""
    cap = min(max(mid or last), max(last))
    common = sorted(n for n in set(mid) | set(last) if n <= cap)
    stable, unstable = [], []
    for n in common:
        if mid.get(n) is not None and mid.get(n) == last.get(n):
            stable.append(n)
        else:
            unstable.append(n)
    return stable, unstable, Fraction(len(stable), len(common))


def _escapes(tables: Sequence[TransferTable]) -> list:
    """Entries that grew strictly at every radius step: (n, values) at each
    jump n of any of the step tables (one per radius, in radius order) where
    every table is defined and the values, one per table, increase strictly.
    One walk over the sorted union of the jumps, with one cursor per table;
    fewer than three tables give none."""
    if len(tables) < 3:
        return []
    entries = [t.entries for t in tables]
    at = [0] * len(entries)
    out = []
    for n in sorted({n for es in entries for n, _ in es}):
        vals = []
        for i, es in enumerate(entries):
            k = at[i]
            while k < len(es) and es[k][0] <= n:
                k += 1
            at[i] = k
            if not k:  # below this table's first jump
                break
            vals.append(es[k - 1][1])
        else:
            if all(b > a for a, b in zip(vals, vals[1:])):
                out.append((n, vals))
    return out


def _minimal_affine(series) -> Optional[AffineWitness]:
    for alpha, beta in default_grid():
        if all(v <= beta * n + alpha for n, v in series):
            return AffineWitness(alpha, beta)
    return None


def _stable_affine(samples_by_radius: Sequence[dict], diagnostics: dict):
    """Quasi-mode rule: the minimal affine witness at each radius (recorded in
    the diagnostics), accepted only when the last two radii agree on it.
    Returns the last witness and whether it was accepted."""
    witnesses = [_minimal_affine(sorted(s.items())) for s in samples_by_radius]
    diagnostics["minimal_witnesses"] = [w.to_json() if w else None for w in witnesses]
    w_mid = witnesses[-2] if len(witnesses) > 1 else None
    w_last = witnesses[-1]
    return w_last, w_last is not None and w_mid == w_last


def equivalent(e1, e2, mode: str, window: Window,
               radii: Optional[list] = None) -> Verdict:
    """Certify [e1] == [e2] (quasi or coarse) from transfer tables.

    In quasi mode the certificate is a single affine witness dominating
    both transfer directions; in coarse mode it is the merged tabulated
    transfer function.  Both require the three-radius stability policy,
    read at ``_window_radii(window, radii)``.
    """
    if mode not in ("quasi", "coarse"):
        raise DomainError(f"unknown equivalence mode {mode!r}")
    space = _common_space(e1, e2)
    radii = _window_radii(window, radii)
    return _equivalent_on(e1, e2, mode, window, radii, sweep_windows(space, window, radii))


def _equivalent_on(e1, e2, mode: str, window: Window, radii: Sequence[Rational],
                   windows: Sequence[list]) -> Verdict:
    """``equivalent`` on sweep windows already enumerated, one per radius.
    Both level functions read the largest window once, through ``levels``;
    the smaller windows are its subsets."""
    big = windows[-1]
    both = dict(zip(big, zip(e1.levels(big), e2.levels(big))))
    per_radius = []
    for r, pts in zip(radii, windows):
        pairs = [both[x] for x in pts]
        t12 = TransferTable.from_levels(pairs)
        t21 = TransferTable.from_levels((v, n) for n, v in pairs)
        per_radius.append({"radius": r, "t12": t12, "t21": t21,
                           "merged": _merged_samples(t12, t21)})
    merged_list = [p["merged"] for p in per_radius]
    mid, last = merged_list[-2] if len(merged_list) > 1 else {}, merged_list[-1]
    stable, unstable, frac = _stability(mid, last)
    escapes = (_escapes([p["t12"] for p in per_radius])
               + _escapes([p["t21"] for p in per_radius]))
    claim = f"equivalent[{mode}]({e1.name}, {e2.name})"
    series = sorted(last.items())
    diagnostics = {
        "radii": [rational_to_json(r) for r in radii],
        "tables": [{"radius": rational_to_json(p["radius"]),
                    "t12": p["t12"].to_json(), "t21": p["t21"].to_json()}
                   for p in per_radius],
        "series": [[n, v] for n, v in series],
        "stable_fraction": rational_to_json(frac),
        "unstable": [rational_to_json(n) for n in unstable],
        "escape": [{"n": rational_to_json(n),
                    "growth": [rational_to_json(v) for v in vals]}
                   for n, vals in escapes],
    }
    table_stable = bool(stable) and frac >= STABLE_FRACTION and min(series)[0] in stable
    # coarse mode's witness is the merged table; quasi mode's the stable affine one
    if mode == "coarse":
        witness, agreed = TabulatedWitness(tuple(series)), True
    else:
        witness, agreed = _stable_affine(merged_list, diagnostics)
    if table_stable and agreed:
        return Verdict(Status.CERTIFIED, claim, window=window, value=mode,
                       witness=witness, diagnostics=diagnostics,
                       check_kind=CHECK_DOMINATES)
    if witness is None:
        reason = "no affine witness in grid"
    elif not table_stable:
        reason = "escape" if escapes and not stable else "unstable transfer"
    else:
        reason = "degrading affine witness"
    return Verdict(Status.INCONCLUSIVE, claim, window=window, value=mode,
                   diagnostics=dict(diagnostics, reason=reason))
