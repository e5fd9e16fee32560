import json

import pytest

from coarsedouble.boolalg import powers_tail_base
from coarsedouble.reporting import canonical_dumps
from coarsedouble.scenarios import (SCENARIO_NAMES, _direct_omega, expected_tables,
                                    run_scenario, scenario_lattice_laws)
from coarsedouble.space import Window, set_family, space_by_name
from coarsedouble.verdicts import revalidate


def test_expected_tables_cover_all_scenarios():
    tables = expected_tables()
    assert set(tables) == set(SCENARIO_NAMES)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_matches_expected(name):
    rep = run_scenario(name)
    assert rep.passed, rep.mismatches
    for v in rep.verdicts:
        assert revalidate(v)
        doc = v.to_json()
        assert json.loads(json.dumps(doc)) == doc
    doc = rep.to_json(include_meta=False)
    assert json.loads(canonical_dumps(doc)) == doc


def test_typeI_growth_is_strict():
    rep = run_scenario("typeI")
    growth = rep.results["details"]["product"]["diagnostics"]["growth"]
    assert growth
    for series in growth.values():
        ks = [k for _, k in series]
        assert len(ks) >= 3
        assert all(b > a for a, b in zip(ks, ks[1:]))


def test_ex1_candidate_rows():
    rep = run_scenario("ex1")
    rows = rep.results["details"]["candidates"]
    assert len(rows) >= 5
    # the complement-of-neighborhood family meets the proof mechanism: the
    # join reaches the unit but the meet is never zero
    comp = [r for r in rows if r["candidate"].startswith("complement-")]
    assert all(r["join_is_one"] and not r["meet_is_zero"] for r in comp)
    assert not any(r["complementable"] for r in rows)


def test_direct_omega_reads_its_sweep_once(counted):
    # no F_k meets {2*4^j}, so every k is tried, all on one enumeration
    windows = counted("window_points")
    B = set_family("powers", base=4, scale=2)
    assert _direct_omega(space_by_name("GeomLine"), powers_tail_base(4, depth=6), B,
                         Window(4096)) == 0
    assert len(windows) == 1


def test_lattice_laws_read_each_window_once(counted):
    # 60 triples of three sampled level functions: each reads its window in
    # one levels call, which on the lines searches from the window's two ends
    searches = counted("dist_to_set")
    assert scenario_lattice_laws()["summary"]["laws_pass"]
    assert len(searches) <= 2 * 3 * 60
