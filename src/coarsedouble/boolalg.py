"""Finite Boolean fragment generated by projections, and its Stone-dual points.

Atoms of the subalgebra generated by e_1..e_k are meets of generators and
complements.  An atom pattern S is nonzero exactly when the meet over S is
not below the join over the complement of S, which the equivalence engine
decides with window certificates.  Two-valued homomorphisms correspond to
the certified-nonzero atoms.  Free ultrafilters are replaced by explicit
filter bases with tri-state decisions; nothing choice-dependent is ever
claimed to be constructed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .asymptotics import equivalent, sweep_radii, sweep_windows
from .errors import DomainError
from .projection import (LevelFunction, join, meet, unit_levels, zero_levels)
from .space import PointSet, Window, rational_to_json, set_family
from .verdicts import (CHECK_DOMINATES, CHECK_STABLE, CHECK_STRICT_GROWTH,
                       Status, TabulatedWitness, Verdict)

# sublevels A_1..A_TAU_N_MAX examined by tau
TAU_N_MAX = 8


@dataclass(frozen=True)
class FormalSum:
    """Mod-2 sum of generators; duplicate indices are kept, and duplicates
    cancel in ``nu_bar``'s inclusion-exclusion."""

    generators: tuple
    terms: tuple  # indices into generators, 0-based, duplicates allowed

    def __post_init__(self):
        for i in self.terms:
            if not (0 <= i < len(self.generators)):
                raise DomainError(f"term index {i} out of range")

    def label(self) -> str:
        return " + ".join(self.generators[i].name for i in self.terms) or "0"


@dataclass(frozen=True)
class AtomPattern:
    """Meet of the generators in S and the complements of the rest."""

    members: frozenset
    width: int

    def __post_init__(self):
        if any(not (1 <= i <= self.width) for i in self.members):
            raise DomainError("atom pattern indices must lie in 1..k")

    @classmethod
    def from_bits(cls, bits: str) -> "AtomPattern":
        return cls(frozenset(i + 1 for i, b in enumerate(bits) if b == "1"), len(bits))

    def bits(self) -> str:
        return "".join("1" if i in self.members else "0"
                       for i in range(1, self.width + 1))


@dataclass(frozen=True)
class TwoValuedHom:
    """Assignment of 0/1 to the generators, arising from a nonzero atom."""

    names: tuple
    assignment: tuple

    def __post_init__(self):
        if len(self.names) != len(self.assignment):
            raise DomainError("assignment length mismatch")
        if any(v not in (0, 1) for v in self.assignment):
            raise DomainError("two-valued homs take values in {0, 1}")

    def value(self, index: int) -> int:
        return self.assignment[index]

    def to_json(self):
        return {"assignment": {n: v for n, v in zip(self.names, self.assignment)}}


def _fold(op, gens: Sequence[LevelFunction], indices,
          empty: LevelFunction) -> LevelFunction:
    """op over the generators at the 1-based indices, or empty when there are none."""
    chosen = [gens[i - 1] for i in sorted(indices)]
    return functools.reduce(op, chosen) if chosen else empty


def _below(e: LevelFunction, f: LevelFunction, window: Window) -> Verdict:
    """Order test e <= f via meet(e, f) ~ e (coarse)."""
    return equivalent(meet(e, f), e, "coarse", window)


def _certified_zero(claim: str, window: Window, diagnostics: dict,
                    order: Verdict) -> Verdict:
    """The certified "zero" verdict of a certified order test e <= f: its
    witness, and the diagnostics with the test's series added."""
    return Verdict(Status.CERTIFIED, claim, window=window, value="zero",
                   witness=order.witness,
                   diagnostics=dict(diagnostics, series=order.diagnostics["series"]),
                   check_kind=CHECK_DOMINATES)


def is_zero(e: LevelFunction, mode: str, window: Window) -> Verdict:
    """Certify that e is the zero class by the order test e <= 0, that is
    meet(e, 0) ~ e in the mode: zero is the least idempotent, so in coarse
    mode this is ``_below(e, zero_levels(space), window)``.  Only "zero" is
    certified, with the order test's witness and series; escape evidence is
    no proof of a nonzero class, so anything else is inconclusive "zero?"
    with the order test's reason."""
    order = equivalent(meet(e, zero_levels(e.space)), e, mode, window)
    claim = f"is-zero[{mode}]({e.name})"
    diagnostics = {"order_test": order.to_json()}
    if order.certified:
        return _certified_zero(claim, window, diagnostics, order)
    return Verdict(Status.INCONCLUSIVE, claim, window=window, value="zero?",
                   diagnostics=dict(diagnostics, reason=order.diagnostics["reason"]))


def atom_nonzero(pattern: AtomPattern, gens: Sequence[LevelFunction],
                 window: Window) -> Verdict:
    """Decide whether the atom is nonzero: NOT (meet over S <= join over S^c).

    S empty tests join != 1; S full tests meet != 0.
    """
    if pattern.width != len(gens):
        raise DomainError("pattern width does not match generator count")
    space = gens[0].space
    M = _fold(meet, gens, pattern.members, unit_levels(space))
    comp = set(range(1, pattern.width + 1)) - pattern.members
    J = _fold(join, gens, comp, zero_levels(space))
    order = _below(M, J, window)
    claim = f"atom({pattern.bits()})"
    diagnostics = {"pattern": pattern.bits(), "order_test": order.to_json()}
    if order.certified:
        return _certified_zero(claim, window, diagnostics, order)
    escapes = order.diagnostics.get("escape", [])
    if escapes:
        growth = escapes[0]
        series = [[i, v] for i, v in enumerate(growth["growth"])]
        return Verdict(Status.CERTIFIED, claim, window=window, value="nonzero",
                       witness=TabulatedWitness(tuple((i, v) for i, v in series)),
                       diagnostics=dict(diagnostics, series=series,
                                        escape_level=growth["n"]),
                       check_kind=CHECK_STRICT_GROWTH)
    return Verdict(Status.INCONCLUSIVE, claim, window=window, value="undetermined",
                   diagnostics=diagnostics)


def enumerate_atoms(gens: Sequence[LevelFunction],
                    window: Window) -> List[Tuple[AtomPattern, Verdict]]:
    """All 2^k atom patterns with verdicts, in binary order of the bit string."""
    k = len(gens)
    if k > 16:
        raise DomainError("atom enumeration is limited to 16 generators")
    if k == 0:
        raise DomainError("need at least one generator")
    out = []
    for s in range(2 ** k):
        bits = format(s, f"0{k}b")
        pattern = AtomPattern.from_bits(bits)
        out.append((pattern, atom_nonzero(pattern, gens, window)))
    return out


def homs(gens: Sequence[LevelFunction], window: Window) -> List[TwoValuedHom]:
    """One two-valued homomorphism per certified-nonzero atom."""
    names = tuple(e.name for e in gens)
    out = []
    for pattern, verdict in enumerate_atoms(gens, window):
        if verdict.certified and verdict.value == "nonzero":
            out.append(TwoValuedHom(
                names, tuple(1 if i in pattern.members else 0
                             for i in range(1, len(gens) + 1))))
    return out


def check_hom(phi: TwoValuedHom, gens: Sequence[LevelFunction], window: Window) -> dict:
    """Verify lattice-hom consistency of an assignment against window verdicts.

    Checks: meets certified zero force min(phi) = 0; joins certified full
    force max(phi) = 1 (unitality); certified order forces monotonicity.
    """
    if len(gens) != len(phi.assignment):
        raise DomainError("assignment does not match generators")
    space = gens[0].space
    unit = unit_levels(space)
    violations = []
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    for i, j in pairs:
        zero_v = is_zero(meet(gens[i], gens[j]), "coarse", window)
        if zero_v.certified and min(phi.value(i), phi.value(j)) == 1:
            violations.append({"pair": [gens[i].name, gens[j].name],
                               "check": "meet-zero", "min": 1, "expected": 0})
        jn = join(gens[i], gens[j])
        one_v = _below(unit, jn, window)
        if one_v.certified and max(phi.value(i), phi.value(j)) == 0:
            violations.append({"pair": [gens[i].name, gens[j].name],
                               "check": "join-one", "max": 0, "expected": 1})
        le = _below(gens[i], gens[j], window)
        if le.certified and phi.value(i) > phi.value(j):
            violations.append({"pair": [gens[i].name, gens[j].name],
                               "check": "order", "phi": [phi.value(i), phi.value(j)]})
    full_join = _fold(join, gens, range(1, len(gens) + 1), zero_levels(space))
    if _below(unit, full_join, window).certified \
            and max(phi.assignment, default=0) == 0:
        violations.append({"check": "unitality", "expected": "phi(1) = 1"})
    full_meet = _fold(meet, gens, range(1, len(gens) + 1), unit)
    if is_zero(full_meet, "coarse", window).certified \
            and min(phi.assignment, default=1) == 1:
        violations.append({"check": "full-meet-zero", "expected": "phi(0) = 0"})
    return {"passed": not violations, "violations": violations,
            "pairs_checked": len(pairs)}


# ---------------------------------------------------------------------------
# Filter bases and the limit functional


class FilterBase:
    """Decreasing chain F_1 >= F_2 >= ... of infinite sets; a computable
    surrogate for a free ultrafilter containing all F_k."""

    def __init__(self, name: str, member_set: Callable[[int], PointSet], depth: int = 8):
        if depth < 1:
            raise DomainError(f"a filter base has depth at least 1, not {depth}")
        self.name = name
        self.member_set = member_set
        self.depth = depth

    def level_set(self, k: int) -> PointSet:
        if not (1 <= k <= self.depth):
            raise DomainError(f"filter index {k} out of range 1..{self.depth}")
        return self.member_set(k)


def powers_tail_base(base: int, scale: int = 1, depth: int = 8) -> FilterBase:
    return FilterBase(
        f"tails({scale}*{base}^j)",
        lambda k: set_family("powers_tail", base=base, scale=scale, k0=k),
        depth=depth)


def tau(F: FilterBase, e: LevelFunction, window: Window) -> Verdict:
    """Limit of the base's membership decisions along the expanding sequence.

    1: some F_k is eventually inside some A_n (remainder count stable under
    the sweep).  0: for every n <= TAU_N_MAX some F_k meets A_n in a
    stable-finite set; the witness counts F_{k*} cap A_n for one k*, the
    largest of those k, so it grows with n.  Otherwise undetermined, with
    the count matrix.
    The sweep is enumerated once, each F_k built and its members in the
    largest window found once, and their levels read in one ``levels`` call.
    """
    radii = sweep_radii(window)
    windows = sweep_windows(e.space, window, radii)
    inside = [{x for x in windows[-1] if fk.contains(x)}
              for fk in map(F.level_set, range(1, F.depth + 1))]
    members = [x for x in windows[-1] if any(x in fk for fk in inside)]
    read = dict(zip(members, e.levels(members)))
    matrix = {}
    for k, fk in enumerate(inside, 1):
        levels = [[read[x] for x in pts if x in fk] for pts in windows]
        for n in range(1, TAU_N_MAX + 1):
            hits = [sum(lv <= n for lv in row) for row in levels]
            matrix[(k, n)] = ([len(row) - h for row, h in zip(levels, hits)], hits)

    claim = f"tau({F.name}, {e.name})"
    diag_matrix = {f"k={k},n={n}": {"remainder": rem, "inside": hits}
                   for (k, n), (rem, hits) in matrix.items()}
    # value 1: remainder stabilizes (F_k eventually inside A_n plus a fixed
    # finite exceptional set)
    for n in range(1, TAU_N_MAX + 1):
        for k in range(1, F.depth + 1):
            rem, hits = matrix[(k, n)]
            if len(set(rem)) == 1 and any(hits):
                series = [[rational_to_json(r), c] for r, c in zip(radii, rem)]
                return Verdict(Status.CERTIFIED, claim, window=window, value=1,
                               witness=TabulatedWitness(((n, rem[0]),)),
                               diagnostics={"n": n, "k": k, "series": series,
                                            "matrix": diag_matrix},
                               check_kind=CHECK_STABLE)
    # value 0: every sublevel A_n meets some F_k in a stable finite set.  The
    # base decreases, so F_{k*}, for the largest such first k, meets each A_n
    # inside that stable set: its counts are stable too, and they cannot
    # decrease with n because the A_n grow.  One k* serves every n.
    first = [next((k for k in range(1, F.depth + 1) if len(set(matrix[(k, n)][1])) == 1),
                  None) for n in range(1, TAU_N_MAX + 1)]
    k_star = None if None in first else max(first)
    counts = {n: matrix[(k_star, n)][1] for n in range(1, TAU_N_MAX + 1)} if k_star else {}
    if counts and all(len(set(c)) == 1 for c in counts.values()):
        series = [[rational_to_json(r), sum(c[i] for c in counts.values())]
                  for i, r in enumerate(radii)]
        return Verdict(Status.CERTIFIED, claim, window=window, value=0,
                       witness=TabulatedWitness(tuple((n, c[0]) for n, c in counts.items())),
                       diagnostics={"choices": {str(n): {"k": k_star, "count": c[0]}
                                                for n, c in counts.items()},
                                    "series": series, "matrix": diag_matrix},
                       check_kind=CHECK_STABLE)
    return Verdict(Status.INCONCLUSIVE, claim, window=window, value="undetermined",
                   diagnostics={"matrix": diag_matrix})
