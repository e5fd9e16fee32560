import pytest

from coarsedouble import levels_from_subset, unit_levels, zero_levels
from coarsedouble.asymptotics import sweep_radii
from coarsedouble.boolalg import (TAU_N_MAX, AtomPattern, FormalSum, TwoValuedHom,
                                  atom_nonzero, check_hom, enumerate_atoms, homs,
                                  powers_tail_base, tau)
from coarsedouble.errors import DomainError
from coarsedouble.space import Window, rational_to_json, set_family, window_points
from coarsedouble.verdicts import (CHECK_DOMINATES, CHECK_STABLE, Status,
                                   TabulatedWitness, Verdict, revalidate)


@pytest.fixture
def nat_pair(natline):
    e1 = levels_from_subset(natline, set_family("powers", base=4))
    e2 = levels_from_subset(natline, set_family("powers", base=4, scale=2))
    return e1, e2


@pytest.fixture
def geom_pair(geomline):
    e1 = levels_from_subset(geomline, set_family("powers", base=4))
    e2 = levels_from_subset(geomline, set_family("powers", base=4, scale=2))
    return e1, e2


def test_formal_sum_term_indices(natline):
    e = unit_levels(natline)
    f = zero_levels(natline)
    FormalSum((e, f), (0, 0, 1))
    with pytest.raises(DomainError):
        FormalSum((e,), (1,))


def test_atom_pattern_bits():
    p = AtomPattern.from_bits("10")
    assert p.members == {1} and p.bits() == "10"
    assert AtomPattern.from_bits("0110").members == {2, 3}


def test_atom_nonzero_single_generator(geomline):
    e = levels_from_subset(geomline, set_family("powers", base=4))
    v = atom_nonzero(AtomPattern.from_bits("1"), [e], Window(1024))
    assert v.certified and v.value == "nonzero"
    z = zero_levels(geomline)
    vz = atom_nonzero(AtomPattern.from_bits("1"), [z], Window(1024))
    assert vz.certified and vz.value == "zero"


def test_atoms_nat_pair(nat_pair):
    w = Window(1024)
    got = {p.bits(): v.value for p, v in enumerate_atoms(list(nat_pair), w)
           if v.certified}
    assert got == {"00": "nonzero", "01": "nonzero", "10": "nonzero", "11": "zero"}
    hs = homs(list(nat_pair), w)
    assert len(hs) == 3
    for h in hs:
        assert check_hom(h, list(nat_pair), w)["passed"]


def test_atoms_geom_pair(geom_pair):
    # on the geometric line the two tails cover all but finitely many points,
    # so the join is the unit and the 00 atom is certified zero
    w = Window(1024)
    got = {p.bits(): v.value for p, v in enumerate_atoms(list(geom_pair), w)
           if v.certified}
    assert got == {"00": "zero", "01": "nonzero", "10": "nonzero", "11": "zero"}


def test_atoms_duplicate_generator(natline):
    e = levels_from_subset(natline, set_family("powers", base=2))
    w = Window(1024)
    got = {p.bits(): v.value for p, v in enumerate_atoms([e, e], w)
           if v.certified}
    # e and its duplicate only realize the patterns 11 and 00
    assert got["10"] == "zero" and got["01"] == "zero"
    assert got["11"] == "nonzero" and got["00"] == "nonzero"


def test_check_hom_failures(nat_pair, natline):
    e1, e2 = nat_pair
    w = Window(1024)
    # meet(e1, e2) is certified zero, so assigning 1 to both must fail
    bad = TwoValuedHom((e1.name, e2.name), (1, 1))
    rep = check_hom(bad, [e1, e2], w)
    assert not rep["passed"]
    assert any(v["check"] == "meet-zero" for v in rep["violations"])
    # the all-zero assignment fails unitality once the join is the unit
    f1 = levels_from_subset(natline, set_family("evens"))
    f2 = levels_from_subset(natline, set_family("odds"))
    zero_phi = TwoValuedHom((f1.name, f2.name), (0, 0))
    rep2 = check_hom(zero_phi, [f1, f2], w)
    assert not rep2["passed"]
    assert any(v["check"] == "unitality" for v in rep2["violations"])


def test_check_hom_reports_an_order_violation(natline):
    # a bounded class lies below every class, so phi(zero) = 1 > phi(evens) = 0
    # breaks the certified order and nothing else
    z, ev = zero_levels(natline), levels_from_subset(natline, set_family("evens"))
    rep = check_hom(TwoValuedHom((z.name, ev.name), (1, 0)), [z, ev], Window(256))
    assert rep["passed"] is False
    assert rep["violations"] == [{"pair": [z.name, ev.name], "check": "order",
                                  "phi": [1, 0]}]


def test_revalidate_rejects_an_unknown_check_kind():
    # the series and witness would pass each known check, so only the kind can fail
    series = {"series": [[1, 1], [2, 1], [3, 1]]}
    known = [Verdict(Status.CERTIFIED, "claim", witness=TabulatedWitness(((1, 1),)),
                     diagnostics=series, check_kind=kind)
             for kind in (CHECK_DOMINATES, CHECK_STABLE)]
    assert all(revalidate(v) for v in known)
    unknown = Verdict(Status.CERTIFIED, "claim", witness=TabulatedWitness(((1, 1),)),
                      diagnostics=series, check_kind="relabelled")
    assert revalidate(unknown) is False


def test_filter_base_validation(geomline):
    F = powers_tail_base(4, depth=5)
    rep = F.validate(geomline, Window(4096))
    assert rep["passed"]
    with pytest.raises(DomainError):
        F.level_set(9)


def test_tau_examples(geomline, geom_pair):
    e1, e2 = geom_pair
    F = powers_tail_base(4, depth=6)
    w = Window(4096)
    v1 = tau(F, e1, w)
    assert v1.certified and v1.value == 1
    v0 = tau(F, e2, w)
    assert v0.certified and v0.value == 0
    vu = tau(F, unit_levels(geomline), w)
    assert vu.certified and vu.value == 1
    for v in (v1, v0, vu):
        assert revalidate(v)


def test_tau_monotone_under_order(geomline, geom_pair):
    e1, _ = geom_pair
    F = powers_tail_base(4, depth=6)
    w = Window(4096)
    bigger = unit_levels(geomline)  # e1 <= 1 in the projection order
    if tau(F, e1, w).value == 1:
        assert tau(F, bigger, w).value == 1


def _tau_by_recount(F, e, window):
    """tau with every (k, n) cell counted afresh: each cell enumerates the
    sweep windows, builds F_k and reads its members' levels again."""
    space = e.space
    radii = sweep_radii(window)
    base = window.basepoint

    def counts(k, n):
        rem, hits = [], []
        for r in radii:
            pts = window_points(space, Window(r, base))
            fk = F.level_set(k)
            members = [x for x in pts if fk.contains(x)]
            inside = [x for x in members if e.level(x) <= n]
            rem.append(len(members) - len(inside))
            hits.append(len(inside))
        return rem, hits

    matrix = {(k, n): counts(k, n)
              for k in range(1, F.depth + 1) for n in range(1, TAU_N_MAX + 1)}
    claim = f"tau({F.name}, {e.name})"
    diag_matrix = {f"k={k},n={n}": {"remainder": rem, "inside": hits}
                   for (k, n), (rem, hits) in sorted(matrix.items())}
    for n in range(1, TAU_N_MAX + 1):
        for k in range(1, F.depth + 1):
            rem, _ = matrix[(k, n)]
            if len(set(rem)) == 1 and any(h > 0 for h in matrix[(k, n)][1]):
                series = [[rational_to_json(r), c] for r, c in zip(radii, rem)]
                return Verdict(Status.CERTIFIED, claim, window=window, value=1,
                               witness=TabulatedWitness(((n, rem[0]),)),
                               diagnostics={"n": n, "k": k, "series": series,
                                            "matrix": diag_matrix},
                               check_kind=CHECK_STABLE)
    # value 0 counts F_k* for one k*, the largest first stable k over n
    ks = []
    for n in range(1, TAU_N_MAX + 1):
        stable = [k for k in range(1, F.depth + 1) if len(set(matrix[(k, n)][1])) == 1]
        if not stable:
            break
        ks.append(stable[0])
    if len(ks) == TAU_N_MAX:
        k_star = max(ks)
        chosen = {n: matrix[(k_star, n)][1] for n in range(1, TAU_N_MAX + 1)}
        if all(len(set(hits)) == 1 for hits in chosen.values()):
            series = [[rational_to_json(r), sum(hits[i] for hits in chosen.values())]
                      for i, r in enumerate(radii)]
            return Verdict(Status.CERTIFIED, claim, window=window, value=0,
                           witness=TabulatedWitness(tuple((n, hits[0])
                                                          for n, hits in chosen.items())),
                           diagnostics={"choices": {str(n): {"k": k_star, "count": hits[0]}
                                                    for n, hits in chosen.items()},
                                        "series": series, "matrix": diag_matrix},
                           check_kind=CHECK_STABLE)
    return Verdict(Status.INCONCLUSIVE, claim, window=window, value="undetermined",
                   diagnostics={"matrix": diag_matrix})


@pytest.mark.parametrize("space_name,radius", [("GeomLine", 4096), ("NatLine", 256)])
@pytest.mark.parametrize("base,scale", [(2, 1), (2, 2), (4, 1), (4, 2)])
def test_tau_matches_per_cell_recount(space_name, radius, base, scale, request):
    space = request.getfixturevalue(space_name.lower())
    F = powers_tail_base(base, scale=scale)
    w = Window(radius)
    levels = [levels_from_subset(space, set_family("powers", base=4)),
              levels_from_subset(space, set_family("evens")),
              unit_levels(space), zero_levels(space)]
    values = set()
    for e in levels:
        doc = tau(F, e, w).to_json()
        assert doc == _tau_by_recount(F, e, w).to_json()
        values.add(doc.get("value"))
    assert values >= {0, 1}
