import argparse
import csv
import io
import json
import math
import runpy
import sys
from fractions import Fraction

import pytest

from coarsedouble import measure, scenarios
from coarsedouble.cli import build_parser, main
from coarsedouble.reporting import canonical_reload, report_to_csv
from coarsedouble.scenarios import run_scenario
from coarsedouble.serialize import parse_levels
from coarsedouble.space import space_by_name
from coarsedouble.verdicts import revalidate
from conftest import assert_revalidates, certified_verdict_docs, rebuilt_verdict


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_space_list_and_show(capsys):
    code, out = run_cli(capsys, "space", "list")
    assert code == 0
    assert "GeomLine" in out
    code, out = run_cli(capsys, "space", "show", "--space", "NatLine",
                        "--radius", "3")
    doc = json.loads(out)
    assert doc["results"]["points"] == [[0], [1], [2], [3]]
    assert doc["schema"] == "coarse-double/1"


def test_space_show_from_json_file(capsys, tmp_path):
    doc = {"space": "Tiny", "points": [[0], [2], [5]], "metric": "manhattan"}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(capsys, "space", "show", "--space-file", str(path),
                        "--radius", "3")
    assert code == 0
    assert json.loads(out)["results"]["points"] == [[0], [2]]


def test_proj_define_emits_tabulated_schema(capsys):
    code, out = run_cli(capsys, "proj", "define", "--space", "NatLine",
                        "--levels", "subset:evens", "--radius", "4")
    assert code == 0
    doc = json.loads(out)["results"]["levels"]
    assert doc["space"] == {"space": "NatLine"}
    assert doc["levels"] == [[[0], 1], [[1], 2], [[2], 1], [[3], 2], [[4], 1]]
    assert "tail" in doc
    assert json.loads(out)["results"]["validation"]["passed"]


def test_eval_command(capsys):
    code, out = run_cli(capsys, "eval", "--space", "NatLine", "--metric",
                        "zero:0", "--x", "3", "--y", "5", "--radius", "64")
    assert code == 0
    assert json.loads(out)["results"]["evaluation"]["value"] == 9


def test_compare_power_law_strict_exit(capsys):
    args = ["compare", "--space", "NatLine", "--left", "expr:ceil-sqrt",
            "--right", "expr:ceil-cbrt", "--radius", "1024"]
    code, out = run_cli(capsys, *args, "--mode", "coarse")
    assert code == 0
    assert json.loads(out)["results"]["verdict"]["status"] == "certified-on-window"
    code, out = run_cli(capsys, "--strict", *args, "--mode", "quasi")
    assert code == 3
    assert json.loads(out)["results"]["verdict"]["status"] == "inconclusive"


def test_revalidate_rejects_a_cut_series(capsys):
    # certified verdicts of a scenario and of compare, rebuilt from their
    # JSON: each revalidates as written, and fails once its dominates series
    # is emptied or its stable series cut to one or two radii
    cut = {"dominates": lambda s: [[]], "stable": lambda s: [s[:1], s[:2]]}
    tampered = []
    for argv in (["scenario", "run", "ex2"],
                 ["compare", "--space", "NatLine", "--left", "expr:ceil-sqrt", "--right",
                  "expr:ceil-cbrt", "--radius", "1024", "--mode", "coarse"],
                 ["compare", "--space", "NatLine", "--left", "subset:evens", "--right",
                  "subset:odds", "--mode", "coarse"]):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        for v in certified_verdict_docs(json.loads(out)):
            series = v["diagnostics"]["series"]
            assert revalidate(rebuilt_verdict(v, series)), v
            for short in cut[v["check"]](series):
                assert not revalidate(rebuilt_verdict(v, short)), (v["claim"], short)
                tampered.append(v["check"])
    assert sorted(set(tampered)) == ["dominates", "stable"] and len(tampered) == 8


def test_revalidate_binds_growth_and_stable_witnesses_to_their_series(capsys):
    # certified strict-growth and stable verdicts (tau values 0 and 1),
    # rebuilt from their JSON: each revalidates as written, and fails once
    # the last value of its witness table moves up by one
    checked = []
    for argv in (["scenario", "run", "ex2"],
                 ["algebra", "atoms", "--space", "NatLine", "--generators",
                  "subset:powers:4;subset:powers:4:2", "--radius", "1024"],
                 ["algebra", "atoms", "--space", "NatLine", "--generators",
                  "subset:powers:2;subset:powers:3", "--radius", "1024"],
                 ["tau", "--space", "GeomLine", "--filter-base", "4", "--levels",
                  "subset:powers:4:2", "--radius", "1024"],
                 ["tau", "--space", "GeomLine", "--filter-base", "4", "--levels",
                  "expr:log2", "--radius", "1024"]):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        for v in certified_verdict_docs(json.loads(out)):
            if v["check"] == "dominates":
                continue
            series = v["diagnostics"]["series"]
            assert revalidate(rebuilt_verdict(v, series)), v
            *head, (n, value) = v["witness"]["table"]
            moved = dict(v, witness={"kind": "tabulated", "table": [*head, [n, value + 1]]})
            assert not revalidate(rebuilt_verdict(moved, series)), v["claim"]
            checked.append((v["check"], v["value"]))
    assert sorted(set(checked)) == [("stable", 0), ("stable", 1),
                                    ("strict-growth", "nonzero")]
    assert len(checked) == 10


def test_inexact_eval_strict_exit(capsys):
    # the candidate ball around x=3 reaches past the radius-8 window
    args = ["eval", "--space", "NatLine", "--metric", "delta:subset:evens",
            "--x", "3", "--y", "500", "--radius", "8"]
    code, out = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["results"]["evaluation"]["exact"] is False
    code, out = run_cli(capsys, "--strict", *args)
    assert code == 3
    assert json.loads(out)["results"]["evaluation"]["exact"] is False
    code, _ = run_cli(capsys, "--strict", "eval", "--space", "NatLine",
                      "--metric", "zero:0", "--x", "3", "--y", "5")
    assert code == 0


def test_python_dash_m_runs_the_command_line(capsys, monkeypatch):
    # python -m coarsedouble, run in this process so that its lines are seen
    monkeypatch.setattr(sys, "argv", ["coarsedouble", "space", "list"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("coarsedouble", run_name="__main__", alter_sys=True)
    assert done.value.code == 0
    assert json.loads(capsys.readouterr().out)["results"]["spaces"] == [
        "GeomLine", "IntLine", "NatLine", "TwoTails"]


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["eval", "--space", "NatLine"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["proj", "define", "--space", "NatLine", "--levels", "subset:multiples:0",
     "--radius", "4"],
    ["proj", "define", "--space", "NatLine", "--levels", "subset:tailplus",
     "--radius", "4"],
    ["eval", "--space", "IntLine", "--metric", "subset:tailminus",
     "--x", "0", "--y", "1"],
    ["proj", "define", "--space", "NatLine", "--levels", "subset:halfline:-:-5",
     "--radius", "4"],
    ["proj", "define", "--space", "NatLine", "--levels", "~subset:halfline:+:0",
     "--radius", "4"],
    ["eval", "--space", "NatLine", "--metric", "zero:0", "--x", "a", "--y", "1"],
    ["classify", "--space", "NatLine", "--levels", "subset:evens", "--radii", "4,x"],
    ["tau", "--space", "GeomLine", "--filter-base", "x", "--levels", "subset:powers:4"],
    ["proj", "define", "--space", "NatLine", "--levels", "subset:powers", "--radius", "4"],
    ["proj", "define", "--space", "NatLine", "--levels", "subset:multiples:z",
     "--radius", "4"],
    ["proj", "define", "--space", "NatLine", "--levels", "subset:halfline", "--radius", "4"],
    ["proj", "define", "--space", "NatLine", "--levels", "subset:points:1;a",
     "--radius", "4"],
    ["proj", "define", "--space", "NatLine", "--levels", "zero:1,x", "--radius", "4"],
    ["eval", "--space", "NatLine", "--metric", "const:abc", "--x", "0", "--y", "1"],
    ["eval", "--space", "NatLine", "--metric", "const:1/0", "--x", "0", "--y", "1"],
    ["proj", "define", "--space", "NatLine", "--levels", "subset:halfline:x:3",
     "--radius", "4"],
    ["proj", "define", "--space", "NatLine", "--levels", "subset:halfline:-:3:9",
     "--radius", "4"],
    ["proj", "define", "--space", "NatLine", "--levels", "subset:powers:2:3:7",
     "--radius", "4"],
    ["proj", "define", "--space", "NatLine", "--levels", "subset:multiples:3:1:5",
     "--radius", "4"],
    ["proj", "define", "--space", "NatLine", "--levels", "subset:points:1;5:7",
     "--radius", "4"],
    ["proj", "define", "--space", "NatLine", "--levels", "subset:evens:3", "--radius", "4"],
    ["tau", "--space", "GeomLine", "--filter-base", "4,1,6,9", "--levels",
     "subset:powers:4"],
    ["classify", "--space", "NatLine", "--levels", "expr:log2", "--radii", "256,256,256"],
    ["classify", "--space", "NatLine", "--levels", "expr:log2", "--radii", "16,8,4"],
    ["classify", "--space", "NatLine", "--levels", "expr:log2", "--radii=-4,8,16"],
    ["classify", "--space", "NatLine", "--levels", "expr:log2", "--radius", "8",
     "--radii", "1,2,40"],
    ["tau", "--space", "GeomLine", "--filter-base", "4,1,0", "--levels",
     "subset:powers:4", "--radius", "64"],
    ["tau", "--space", "GeomLine", "--filter-base=4,1,-2", "--levels",
     "subset:powers:4", "--radius", "64"],
    ["measure", "nu-hat", "--space", "NatLine", "--levels", "unit", "--schedule-base", "0"],
    ["ideal", "check", "--space", "NatLine", "--levels", "subset:evens", "--radius", "8",
     "--n-max", "0"],
    ["ideal", "check", "--space", "NatLine", "--levels", "subset:evens", "--radius", "8",
     "--n-max=-3"],
    ["compare", "--space", "NatLine", "--left", "expr:log2", "--right", "unit",
     "--mode", "coarse", "--radius", "0"],
    ["compare", "--space", "NatLine", "--left", "expr:log2", "--right", "unit",
     "--mode", "coarse", "--radius", "2"],
], ids=["multiples-0", "tailplus-on-NatLine", "tailminus-on-IntLine",
        "halfline-empty-on-NatLine", "complement-empty-on-NatLine",
        "x-not-int", "radii-not-int", "filter-base-not-int", "powers-no-base",
        "multiples-not-int", "halfline-no-sign", "points-not-int", "zero-point-not-int",
        "const-not-rational", "const-zero-denominator", "halfline-bad-sign",
        "halfline-extra-field", "powers-extra-field", "multiples-extra-field",
        "points-extra-field", "evens-extra-field", "filter-base-four-values",
        "radii-repeated", "radii-decreasing", "radii-negative",
        "radii-above-window", "filter-base-depth-0",
        "filter-base-depth-negative", "schedule-radii-equal", "au-n-max-0",
        "au-n-max-negative", "compare-radius-0", "compare-radius-2"])
def test_bad_set_spec_is_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.err)


def test_inconclusive_search_exit(capsys):
    # 2^j = 84 (mod 101) first at j = 80, so the nearest member of 101Z+84
    # in GeomLine lies beyond the search cap and the search gives up
    code = main(["proj", "define", "--space", "GeomLine", "--levels",
                 "subset:multiples:101:84", "--radius", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert "error" in json.loads(captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["~subset:evens", "subset:multiples:3",
                                  "subset:halfline:-:0", "subset:powers:3"])
def test_empty_set_on_geometric_line_is_usage_error(capsys, spec):
    # every point of GeomLine is even, so ~2Z, 3Z, {x <= 0} and {3^k} have
    # no member there: a domain error, not a search that gives up
    code = main(["compare", "--space", "GeomLine", "--left", spec, "--right", "zero",
                 "--mode", "coarse", "--radius", "64"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no members in GeomLine" in json.loads(captured.err)["error"]
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["classify", "--space", "TwoTails", "--levels", "subset:powers:3:2", "--radius", "64"],
    ["classify", "--space", "TwoTails", "--levels", "~subset:squares", "--radius", "64"],
    ["classify", "--space", "TwoTails", "--levels", "~subset:halfline:+", "--radius", "64"],
    ["classify", "--space", "TwoTails", "--levels", "~subset:halfline:+:-3",
     "--radius", "64"],
    ["ideal", "check", "--space", "TwoTails", "--levels", "~subset:squares",
     "--radius", "16"],
    ["compare", "--space", "TwoTails", "--left", "subset:multiples:3:2", "--right", "zero",
     "--mode", "coarse", "--radius", "64"],
    ["compare", "--space", "TwoTails", "--left", "subset:powers:3:2", "--right", "zero",
     "--mode", "coarse", "--radius", "64"],
    ["compare", "--space", "TwoTails", "--left", "subset:halfline:-:0", "--right", "zero",
     "--mode", "coarse", "--radius", "64"],
])
def test_no_member_on_twotails_is_usage_error(capsys, argv):
    # every first coordinate of TwoTails is a positive square, 2*3^k is never
    # a square and no square is 2 mod 3, so these sets have no member there:
    # a domain error found before the set-distance search, not a search that
    # gives up at SEARCH_POINT_CAP points
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "no members in TwoTails" in json.loads(captured.err)["error"]
    assert captured.out == ""


def test_member_past_the_search_cap_on_twotails_exits_inconclusive(capsys):
    # 2^31 * 2 = (2^16)^2 is the first member, beyond every ball of at most
    # SEARCH_POINT_CAP points: the set has a member, so the search gives up
    code = main(["compare", "--space", "TwoTails", "--left", "subset:powers:2:2147483648",
                 "--right", "zero", "--mode", "coarse", "--radius", "64"])
    captured = capsys.readouterr()
    assert code == 3
    assert "points searched" in json.loads(captured.err)["error"]
    assert captured.out == ""


def test_determinism_and_roundtrip(capsys, tmp_path):
    args = ["algebra", "atoms", "--space", "NatLine", "--generators",
            "subset:powers:4;subset:powers:4:2", "--radius", "256"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("meta", None)
    doc2.pop("meta", None)
    assert doc1 == doc2
    path = tmp_path / "report.json"
    path.write_text(out1, encoding="utf-8")
    code, out = run_cli(capsys, "report", "--infile", str(path), "--format", "json")
    assert code == 0
    reloaded = json.loads(out)["results"]["canonical"]
    assert reloaded == canonical_reload(json.loads(out1))
    code, out = run_cli(capsys, "report", "--infile", str(path), "--format", "csv")
    assert code == 0


@pytest.mark.parametrize("content, argv", [
    (None, ["report", "--infile", "{file}"]),
    ("not json", ["report", "--infile", "{file}", "--format", "csv"]),
    ("[1, 2]", ["report", "--infile", "{file}"]),
    (None, ["space", "show", "--space-file", "{file}", "--radius", "3"]),
    ("{points", ["space", "show", "--space-file", "{file}", "--radius", "3"]),
    ('{"space": "Foo"}', ["space", "show", "--space-file", "{file}", "--radius", "3"]),
    ('{"points": 5}', ["space", "show", "--space-file", "{file}", "--radius", "3"]),
    ('{"points": [["a"], ["b"]]}', ["space", "show", "--space-file", "{file}", "--radius", "3"]),
    ('{"points": [[0], [0, 5], [3]]}',
     ["space", "show", "--space-file", "{file}", "--radius", "3"]),
    ('{"points": [[0]], "basepoint": 0}',
     ["space", "show", "--space-file", "{file}", "--radius", "3"]),
    ('{"points": [[0], [1]], "metric": "table", "table": 7}',
     ["space", "show", "--space-file", "{file}", "--radius", "3"]),
    ("[0]", ["space", "show", "--space-file", "{file}", "--radius", "3"]),
    (None, ["--out", "{dir}/missing/out.json", "space", "list"]),
], ids=["report-missing", "report-not-json", "report-not-an-object", "space-file-missing",
        "space-file-not-json", "space-file-no-points", "space-file-points-not-a-list",
        "space-file-point-not-ints", "space-file-points-of-two-lengths",
        "space-file-basepoint-not-a-point",
        "space-file-table-not-rows", "space-file-not-an-object", "out-dir-missing"])
def test_file_inputs_are_usage_errors(capsys, tmp_path, content, argv):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    code = main([a.format(file=path, dir=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in json.loads(captured.err)
    assert captured.out == ""


def test_measure_and_ideal_commands(capsys):
    code, out = run_cli(capsys, "measure", "nu-hat", "--space", "IntLine",
                        "--levels", "subset:halfline:-:0", "--schedule-base", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["nu_hat"]["interval"]["lo"]
    code, out = run_cli(capsys, "ideal", "check", "--space", "NatLine",
                        "--levels", "subset:squares", "--radius", "32")
    assert code == 0
    assert json.loads(out)["results"]["au"]["au1_exact"] is True


def test_tau_command(capsys):
    code, out = run_cli(capsys, "tau", "--space", "GeomLine", "--filter-base",
                        "4", "--levels", "subset:powers:4", "--radius", "1024")
    assert code == 0
    assert json.loads(out)["results"]["verdict"]["value"] == 1


@pytest.mark.parametrize("space, levels", [("NatLine", "expr:ceil-sqrt"),
                                           ("NatLine", "subset:halfline:-:5"),
                                           ("GeomLine", "expr:ceil-sqrt")])
def test_tau_value_zero_witness_is_monotone(capsys, space, levels):
    # the chosen k may differ between sublevels; one k* for every n keeps the
    # tabulated witness monotone, so these certify or stay inconclusive
    code, out = run_cli(capsys, "tau", "--space", space, "--levels", levels,
                        "--radius", "64", "--filter-base", "2")
    assert code in (0, 3)
    assert_revalidates(json.loads(out))


def test_scenario_command_and_csv(capsys):
    code, out = run_cli(capsys, "scenario", "run", "typeI")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    csv_text = report_to_csv(doc)
    assert csv_text.startswith("series,n,value")


def test_report_round_trip_is_stable():
    rep = run_scenario("lattice-laws")
    text1 = canonical_reload(rep.to_json())
    rep2 = run_scenario("lattice-laws")
    assert text1 == canonical_reload(rep2.to_json())


def test_diff_against_reports_drift():
    from coarsedouble.reporting import diff_against
    expected = {"a": 1, "b": True, "c": "x"}
    assert diff_against(expected, {"a": 1, "b": True, "c": "x"}) == []
    out = diff_against(expected, {"a": 2, "b": True})
    assert out == [{"key": "a", "expected": 1, "actual": 2},
                   {"key": "c", "expected": "x", "actual": None}]


@pytest.mark.parametrize("argv", [
    # (1, 2) is one point, and not a NatLine point
    ["measure", "nu-hat", "--space", "NatLine", "--levels", "subset:points:1,2"],
    ["measure", "nu-hat", "--space", "NatLine", "--levels", "unit,zero"],
    ["measure", "laws", "--space", "NatLine", "--levels", "unit"],
    ["measure", "laws", "--space", "NatLine", "--levels", "unit,zero,subset:evens"],
    ["measure", "laws", "--space", "NatLine", "--levels", "2,unit"],
], ids=["point-off-NatLine", "nu-hat-two-specs", "laws-one-spec", "laws-three-specs",
        "laws-not-a-spec"])
def test_spec_list_usage_errors(capsys, argv):
    code = main(argv)
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err)


def test_spec_lists_split_by_the_grammar(capsys):
    # the separators of a spec list also separate the coordinates of a
    # TwoTails point and the points of a point list inside one spec
    twotails, natline = space_by_name("TwoTails"), space_by_name("NatLine")
    mu = measure.DensityMeasure.natural(twotails)
    schedule = measure.default_schedule()
    code, out = run_cli(capsys, "measure", "nu-hat", "--space", "TwoTails",
                        "--levels", "subset:points:4,2;9,1")
    assert code == 0
    want = measure.nu_hat(mu, parse_levels(twotails, "subset:points:4,2;9,1"), 8, schedule)
    assert json.loads(out)["results"]["nu_hat"] == json.loads(json.dumps(want.to_json()))
    code, out = run_cli(capsys, "measure", "laws", "--space", "TwoTails",
                        "--levels", "zero:4,2,subset:tailplus")
    assert code == 0
    want = measure.check_modularity(mu, parse_levels(twotails, "zero:4,2"),
                                    parse_levels(twotails, "subset:tailplus"), 8, schedule)
    assert json.loads(out)["results"]["modularity"] == want
    code, out = run_cli(capsys, "algebra", "atoms", "--space", "NatLine", "--generators",
                        "subset:points:1;5;subset:evens", "--radius", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["generators"] == [
        parse_levels(natline, s).name for s in ("subset:points:1;5", "subset:evens")]
    assert len(doc["results"]["atoms"]) == 4
    assert_revalidates(doc)


def test_product_command(capsys):
    # point o point at 0: min over y of (x + 1 + y) + (y + 1 + z) is x + 2 + z
    for x, z in [(2, 3), (0, 0), (7, 1)]:
        code, out = run_cli(capsys, "product", "--space", "NatLine", "--left", "zero:0",
                            "--right", "zero:0", "--x", str(x), "--y", str(z),
                            "--radius", "16")
        assert code == 0
        doc = json.loads(out)["results"]
        assert doc["evaluation"]["value"] == x + 2 + z
        assert doc["evaluation"]["witness"] == [0]
        assert doc["kernel"]["kind"] == "compose"


@pytest.mark.parametrize("command, combine", [("meet", max), ("join", min)])
def test_meet_and_join_commands(capsys, command, combine):
    # levels of a subset are max(1, ceil(2 d(x, A))); meet takes the larger
    # level and join the smaller
    def level(dist):
        return max(1, math.ceil(2 * dist))

    code, out = run_cli(capsys, command, "--space", "NatLine", "--left", "subset:evens",
                        "--right", "subset:squares", "--radius", "20")
    assert code == 0
    got = json.loads(out)["results"]["levels"]["levels"]
    squares = [k * k for k in range(6)]
    want = [[[x], combine(level(x % 2), level(min(abs(x - s) for s in squares)))]
            for x in range(21)]
    assert got == want


def test_algebra_homs_command(capsys):
    # {4^k} and {2*4^k} are unbounded and lie ever farther apart, so their
    # meet is zero and each two-valued hom sends exactly one of them to 1
    gens = "subset:powers:4;subset:powers:4:2"
    code, out = run_cli(capsys, "algebra", "homs", "--space", "NatLine",
                        "--generators", gens, "--radius", "64")
    assert code == 0
    doc = json.loads(out)["results"]
    names = doc["generators"]
    assert sorted(tuple(h["assignment"][n] for n in names) for h in doc["homs"]) == \
        [(0, 1), (1, 0)]
    assert all(h["check"]["passed"] and not h["check"]["violations"] for h in doc["homs"])
    code, out = run_cli(capsys, "algebra", "atoms", "--space", "NatLine",
                        "--generators", gens, "--radius", "64")
    assert_revalidates(json.loads(out))


def _symmetric_difference_density(r):
    # NatLine ball of radius r about 0: 0..r, counting measure
    hits = sum(1 for x in range(r + 1) if (x % 2 == 0) != (x % 3 == 0))
    return Fraction(hits, r + 1)


def _rational(v):
    return Fraction(v) if isinstance(v, str) else v


def test_measure_nu_bar_command(capsys):
    # with n_max 1 the sum of two subset projections measures the density of
    # the symmetric difference of their first sublevels, the sets themselves
    code, out = run_cli(capsys, "measure", "nu-bar", "--space", "NatLine", "--levels",
                        "subset:evens,subset:multiples:3", "--n-max", "1",
                        "--schedule-base", "4")
    assert code == 0
    doc = json.loads(out)["results"]["nu_bar"]
    want = [(r, _symmetric_difference_density(r)) for r in measure.default_schedule(4)]
    assert [(n, _rational(v)) for n, v in doc["series"]] == want


def test_measure_laws_command(capsys):
    # counting measures satisfy |A meet B| + |A join B| = |A| + |B| exactly,
    # and no sublevel of evens or of the multiples of 3 is bounded
    code, out = run_cli(capsys, "measure", "laws", "--space", "NatLine", "--levels",
                        "subset:evens,subset:multiples:3", "--n-max", "2",
                        "--schedule-base", "4")
    assert code == 0
    assert json.loads(out)["results"]["modularity"] == {
        "raw_exact_per_radius": True, "adjusted_within_slack": True, "slack": 0,
        "worst_gap": 0, "m2_complement_exact": True, "passed": True}


def test_csv_and_out_flags(capsys, tmp_path):
    argv = ["measure", "nu-bar", "--space", "NatLine", "--levels",
            "subset:evens,subset:multiples:3", "--n-max", "1", "--schedule-base", "4"]
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)["results"]["nu_bar"]
    path = tmp_path / "report.csv"
    code, text = run_cli(capsys, "--csv", "--out", str(path), *argv)
    assert code == 0
    assert path.read_text(encoding="utf-8") == text
    rows = list(csv.reader(io.StringIO(text)))
    # series in sorted key order: nu_bar/interval/series, then nu_bar/series
    want = [["series", "n", "value"]] + [
        [name, str(n), str(v)]
        for name, series in (("results/nu_bar/interval", doc["interval"]["series"]),
                             ("results/nu_bar", doc["series"]))
        for n, v in series]
    assert rows == want
    path = tmp_path / "report.json"
    code, text = run_cli(capsys, "--out", str(path), *argv)
    assert code == 0
    assert path.read_text(encoding="utf-8") == text


def test_scenario_drift_exits_1(capsys, monkeypatch):
    tables = scenarios.expected_tables()
    tables["typeI"] = dict(tables["typeI"], product="type-I")
    monkeypatch.setattr(scenarios, "expected_tables", lambda: tables)
    code, out = run_cli(capsys, "scenario", "run", "typeI")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["mismatches"] == [{"key": "product", "expected": "type-I",
                                  "actual": "type-II-evidence"}]
    assert_revalidates(doc)


def _option(action):
    """An argument as ``name[!][:type][=default][{choices}]``; ! marks required."""
    out = "/".join(action.option_strings) or action.dest
    out += "!" if action.required else ""
    out += f":{action.type.__name__}" if action.type is not None else ""
    out += f"={action.default}" if action.default is not None else ""
    return out + ("{" + ",".join(action.choices) + "}" if action.choices else "")


def _surface(parser, path=()):
    """(command path, its arguments in declaration order), depth first."""
    rows, below = [], []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                below += _surface(child, path + (name,))
        elif not isinstance(action, argparse._HelpAction):
            rows.append(_option(action))
    return [(" ".join(path), rows)] + below


CLI_SURFACE = [
    ("", ["--strict=False", "--csv=False", "--out"]),
    ("space", []),
    ("space list", []),
    ("space show", ["--space", "--space-file", "--radius!:int", "--base"]),
    ("proj", []),
    ("proj define", ["--space!", "--levels!", "--radius:int=32"]),
    ("eval", ["--space!", "--metric!", "--x!", "--y!", "--radius:int=64", "--base"]),
    ("compare", ["--space!", "--left!", "--right!", "--mode!{quasi,coarse}",
                 "--radius:int=256"]),
    ("product", ["--space!", "--left!", "--right!", "--x!", "--y!", "--radius:int=64"]),
    ("meet", ["--space!", "--left!", "--right!", "--radius:int=16"]),
    ("join", ["--space!", "--left!", "--right!", "--radius:int=16"]),
    ("classify", ["--space!", "--levels!", "--radius:int=256", "--radii"]),
    ("algebra", ["what!{atoms,homs}", "--space!", "--generators!", "--radius:int=256"]),
    ("tau", ["--space!", "--filter-base!", "--levels!", "--radius:int=1024"]),
    ("measure", ["what!{nu-hat,nu-bar,laws}", "--space!", "--levels!", "--n-max:int=8",
                 "--schedule-base:int=32"]),
    ("ideal", []),
    ("ideal check", ["--space!", "--levels!", "--radius:int=64", "--n-max:int=6"]),
    ("scenario", []),
    ("scenario run", ["name!{typeI,ex1,ex2,lattice-laws,measure-demo}"]),
    ("report", ["--infile!", "--format=json{json,csv}"]),
]


def test_cli_surface():
    # every command and its arguments, in order, with required flags,
    # types, defaults and choices
    got = _surface(build_parser())
    assert [path for path, _ in got] == [path for path, _ in CLI_SURFACE]
    assert got == CLI_SURFACE
