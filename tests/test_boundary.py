"""Outside input is checked where it enters.

The non-member (-3,) of NatLine must raise DomainError from every public
entry point that receives it, for every kernel kind, both as x and as y.
Every other ``raise`` on outside input has its row in ``CASES`` too: a
malformed space, set, witness, verdict, document or parameter raises
DomainError from the public call that receives it, and, where the command
line reaches that raise, ``COMMANDS`` gives a command line that exits 2.
"""

import json

import pytest

from coarsedouble import (ClosedFormMetric, DeltaMetric, MaxMetric,
                          MinGlueMetric, PointMetric, compose, const_delta,
                          dist_to_set, enumerate_atoms, equivalent, evaluate,
                          evaluate_exact, levels_from_subset, metric_meet,
                          subset_metric, unit_levels, window_points)
from coarsedouble.boolalg import AtomPattern, TwoValuedHom, atom_nonzero, check_hom
from coarsedouble.cli import _dispatch, build_parser, main
from coarsedouble.errors import DomainError
from coarsedouble.ideals import ApproximateUnit
from coarsedouble.measure import DensityInterval
from coarsedouble.scenarios import run_scenario
from coarsedouble.serialize import kernel_from_json, level_from_json, parse_kernel, parse_set
from coarsedouble.space import (CustomSpace, MetricSpace, PointSet,
                                PredicateSpace, Window, as_rational, neighborhood, ruler,
                                set_distances, set_family, set_from_json, space_by_name,
                                space_from_json)
from coarsedouble.verdicts import (AffineWitness, Status, TabulatedWitness, Verdict,
                                   witness_from_json)

NATLINE = space_by_name("NatLine")
BAD, GOOD = (-3,), (2,)
W = Window(8)


def _delta():
    return DeltaMetric(NATLINE, const_delta(NATLINE, 2))


def _closed_form():
    return ClosedFormMetric(NATLINE, lambda x, y: abs(x[0] - y[0]) + 1, "gap+1")


KERNELS = {
    "delta": _delta,
    "point": lambda: PointMetric(NATLINE, (1,)),
    "subset": lambda: subset_metric(NATLINE, set_family("evens")),
    "closed_form": _closed_form,
    "adjoint": lambda: _closed_form().adjoint(),
    "max": lambda: MaxMetric(PointMetric(NATLINE), _delta()),
    "min_glue": lambda: MinGlueMetric(PointMetric(NATLINE), _delta()),
    "composed": lambda: compose(_delta(), PointMetric(NATLINE)),
    "separable_composed": lambda: compose(subset_metric(NATLINE, set_family("evens")),
                                          subset_metric(NATLINE, set_family("odds"))),
}

KERNEL_CALLS = {
    "cross_x": lambda d: d.cross(BAD, GOOD, W),
    "cross_y": lambda d: d.cross(GOOD, BAD, W),
    "dist_to_copy": lambda d: d.dist_to_copy(BAD, W),
    "cross_matrix": lambda d: d.cross_matrix([GOOD, BAD], W),
    "evaluate": lambda d: evaluate(d, BAD, GOOD, W),
    "evaluate_exact": lambda d: evaluate_exact(d, GOOD, BAD),
}

CASES = {
    "distance": lambda: NATLINE.distance(GOOD, BAD),
    "window_points": lambda: window_points(NATLINE, Window(3, (-1,))),
    "dist_to_set": lambda: dist_to_set(NATLINE, BAD, PointSet.from_points([(0,)])),
    "point_metric": lambda: PointMetric(NATLINE, BAD),
    "custom_points_within": lambda: CustomSpace([(0, 0), (1, 0)]).points_within((5, 5), 2),
    "geomline_non_power": lambda: space_by_name("GeomLine").distance((2,), (2.0,)),
    "twotails_one_coordinate": lambda: space_by_name("TwoTails").distance((1, 1), (1,)),
}
for _kind, _make in KERNELS.items():
    for _call, _run in KERNEL_CALLS.items():
        CASES[f"{_kind}-{_call}"] = lambda make=_make, run=_run: run(make())

INTLINE = space_by_name("IntLine")
GEOMLINE = space_by_name("GeomLine")
TAIL = set_family("tail_plus")
# distance 1/4 between levels 1 and 4: a half-step neighbour three levels up
QUARTER = CustomSpace([(0,), (7,)], metric="table", table=[[0, "1/4"], ["1/4", 0]])


class CubedLine(MetricSpace):
    """A space of one's own whose distance |x - y|^3 is no metric."""

    name = "CubedLine"
    basepoint = (0,)

    def contains(self, p):
        return isinstance(p, tuple) and len(p) == 1 and type(p[0]) is int and p[0] >= 0

    def _dist(self, x, y):
        return abs(x[0] - y[0]) ** 3

    def points_within(self, center, radius):
        r = next(k for k in range(int(radius) + 2) if (k + 1) ** 3 > radius)
        return [(x,) for x in range(max(0, center[0] - r), center[0] + r + 1)]


def _parse(*argv):
    return _dispatch(build_parser().parse_args(list(argv)))


CASES.update({
    # parameters and values
    "window_radius_negative": lambda: Window(-1),
    "ruler_at_zero": lambda: ruler(0),
    "rational_from_float": lambda: as_rational(1.5),
    "const_delta_below_one": lambda: const_delta(NATLINE, 0),
    "neighborhood_radius_negative": lambda: neighborhood(NATLINE, set_family("evens"), -1, W),
    "unit_index_zero": lambda: ApproximateUnit(unit_levels(NATLINE)).value(0, GOOD),
    "equivalence_mode_unknown": lambda: equivalent(unit_levels(NATLINE),
                                                   unit_levels(NATLINE), "exact", Window(16)),
    "scenario_unknown": lambda: run_scenario("nope"),
    "space_unknown": lambda: space_by_name("Nope"),
    "space_show_without_space": lambda: _parse("space", "show", "--radius", "2"),
    # spaces
    "predicate_basepoint_outside": lambda: PredicateSpace(lambda p: p[0] > 0, 1, 10, (0,)),
    # sets
    "half_line_sign_zero": lambda: set_family("half_line", sign=0),
    "set_family_unknown": lambda: set_family("nope"),
    "set_spec_unknown": lambda: parse_set(NATLINE, "nope"),
    "set_spec_tail_on_a_line": lambda: parse_set(NATLINE, "tailplus"),
    "subset_empty_in_space": lambda: subset_metric(GEOMLINE, PointSet.from_points([(3,)])),
    "tail_dist_to_set_on_a_line": lambda: dist_to_set(NATLINE, (3,), TAIL),
    "tail_set_distances_on_a_line": lambda: set_distances(NATLINE,
                                                          window_points(NATLINE, W), TAIL),
    "tail_levels_on_a_line": lambda: levels_from_subset(NATLINE, TAIL).levels([(1,)]),
    "tail_complement_neighborhood_on_a_line": lambda: neighborhood(INTLINE,
                                                                   TAIL.complement(), 1, W),
    # kernels
    "delta_on_another_space": lambda: DeltaMetric(NATLINE, const_delta(INTLINE, 2)),
    "min_glue_across_spaces": lambda: MinGlueMetric(PointMetric(NATLINE),
                                                    PointMetric(INTLINE)),
    "meet_of_a_non_projection": lambda: metric_meet(
        ClosedFormMetric(NATLINE, lambda x, y: abs(x[0] - y[0]) + 1, "gap+1", symmetric=True),
        PointMetric(NATLINE), Window(4)),
    "kernel_spec_unknown": lambda: _parse("eval", "--space", "NatLine", "--metric", "warp",
                                          "--x", "1", "--y", "1"),
    # documents
    "level_kind_unknown": lambda: level_from_json(NATLINE, {"kind": "nope"}),
    "levels_fail_validation": lambda: level_from_json(QUARTER,
                                                      {"kind": "expression", "expr": "log2"}),
    "delta_payload_unknown": lambda: kernel_from_json(NATLINE, {
        "kind": "delta", "space": NATLINE.to_json(), "delta": {"kind": "nope"}}),
    # d(0, 2') = 3 lies below d_X(0, 2) + 1 = 9, so the revalidation fails
    "kernel_fails_axioms": lambda: kernel_from_json(CubedLine(), {
        "kind": "delta", "space": CubedLine().to_json(),
        "delta": {"kind": "const", "value": 1}}),
    "witness_kind_unknown": lambda: witness_from_json({"kind": "nope"}),
    "kernel_doc_of_another_space": lambda: kernel_from_json(
        NATLINE, parse_kernel(INTLINE, "delta:subset:odds").to_json()),
    # witnesses, verdicts and intervals
    "affine_witness_negative": lambda: AffineWitness(-1, 1),
    "tabulated_witness_empty": lambda: TabulatedWitness(()).bound(1),
    "certified_without_witness": lambda: Verdict(Status.CERTIFIED, "claim"),
    "density_series_empty": lambda: DensityInterval.from_series([]),
    # the Boolean fragment
    "atom_index_outside": lambda: AtomPattern(frozenset({3}), 2),
    "hom_length_mismatch": lambda: TwoValuedHom(("a",), (0, 1)),
    "hom_value_two": lambda: TwoValuedHom(("a",), (2,)),
    "atom_width_mismatch": lambda: atom_nonzero(AtomPattern.from_bits("10"),
                                                [unit_levels(NATLINE)], W),
    "atoms_without_generators": lambda: enumerate_atoms([], W),
    "atoms_of_17_generators": lambda: enumerate_atoms([unit_levels(NATLINE)] * 17, W),
    "hom_generator_mismatch": lambda: check_hom(TwoValuedHom(("a",), (1,)),
                                                [unit_levels(NATLINE)] * 2, W),
})

# documents whose fields cannot be read: each raises DomainError("malformed
# <what> document: ..."), once, however deep the bad part lies
MALFORMED_DOCS = {
    "kernel_max_without_parts": lambda: kernel_from_json(NATLINE, {"kind": "max"}),
    "kernel_max_of_one_part": lambda: kernel_from_json(
        NATLINE, {"kind": "max", "of": [PointMetric(NATLINE).to_json()]}),
    "kernel_compose_of_a_bad_part": lambda: kernel_from_json(
        NATLINE, {"kind": "compose", "of": [PointMetric(NATLINE).to_json(),
                                            {"kind": "zero_at", "space": NATLINE.to_json()}]}),
    "kernel_without_kind": lambda: kernel_from_json(NATLINE, {}),
    "kernel_point_not_a_list": lambda: kernel_from_json(
        NATLINE, {"kind": "zero_at", "space": NATLINE.to_json(), "x0": 5}),
    "kernel_leaf_without_space": lambda: kernel_from_json(NATLINE, {"kind": "zero_at", "x0": [0]}),
    "kernel_not_a_mapping": lambda: kernel_from_json(NATLINE, "zero"),
    "level_meet_of_nothing": lambda: level_from_json(NATLINE, {"kind": "meet", "of": []}),
    "level_subset_without_set": lambda: level_from_json(NATLINE, {"kind": "subset"}),
    "set_multiples_without_k": lambda: set_from_json({"family": "multiples"}),
    "set_not_a_mapping": lambda: set_from_json("evens"),
    "witness_affine_without_alpha": lambda: witness_from_json({"kind": "affine"}),
    "witness_table_row_short": lambda: witness_from_json({"kind": "tabulated", "table": [[1]]}),
}
for _name, _read in MALFORMED_DOCS.items():
    CASES[f"malformed_doc-{_name}"] = _read

# malformed custom space documents
SPACE_DOCS = {
    "duplicate_points": {"points": [[0], [0]]},
    "no_points": {"points": []},
    "table_missing": {"points": [[0], [1]], "metric": "table"},
    "metric_unknown": {"points": [[0], [1]], "metric": "chebyshev"},
    "table_wrong_shape": {"points": [[0], [1]], "metric": "table", "table": [[0, 1]]},
    "table_nonzero_diagonal": {"points": [[0], [1]], "metric": "table",
                               "table": [[1, 1], [1, 0]]},
    "table_not_symmetric": {"points": [[0], [1]], "metric": "table",
                            "table": [[0, 1], [2, 0]]},
    "table_nonpositive": {"points": [[0], [1]], "metric": "table",
                          "table": [[0, 0], [0, 0]]},
}
for _name, _doc in SPACE_DOCS.items():
    CASES[f"space_doc-{_name}"] = lambda doc=_doc: space_from_json(doc)

# rows the command line reaches, each a command line that exits 2; a space
# document in it is written to a file whose path takes its place
COMMANDS = {
    "window_radius_negative": ["space", "show", "--space", "NatLine", "--radius", "-1"],
    "space_unknown": ["space", "show", "--space", "Nope", "--radius", "2"],
    "space_show_without_space": ["space", "show", "--radius", "2"],
    "const_delta_below_one": ["eval", "--space", "NatLine", "--metric", "const:0",
                              "--x", "1", "--y", "2"],
    "set_spec_unknown": ["eval", "--space", "NatLine", "--metric", "subset:nope",
                         "--x", "1", "--y", "2"],
    "set_spec_tail_on_a_line": ["eval", "--space", "NatLine", "--metric", "subset:tailplus",
                                "--x", "1", "--y", "2"],
    "subset_empty_in_space": ["eval", "--space", "GeomLine", "--metric", "subset:points:3",
                              "--x", "2", "--y", "4"],
    "kernel_spec_unknown": ["eval", "--space", "NatLine", "--metric", "warp",
                            "--x", "1", "--y", "1"],
    "atoms_of_17_generators": ["algebra", "atoms", "--space", "NatLine",
                               "--generators", ";".join(["unit"] * 17), "--radius", "8"],
    **{f"space_doc-{name}": ["space", "show", "--space-file", doc, "--radius", "1"]
       for name, doc in SPACE_DOCS.items()},
}


@pytest.mark.parametrize("case", list(CASES))
def test_outside_input_rejected(case):
    with pytest.raises(DomainError):
        CASES[case]()


@pytest.mark.parametrize("case", list(MALFORMED_DOCS))
def test_malformed_document_says_so_once(case):
    with pytest.raises(DomainError, match="^malformed [a-z]+ document: ") as err:
        MALFORMED_DOCS[case]()
    assert str(err.value).count("malformed") == 1


def test_kernel_document_of_another_space_names_both():
    with pytest.raises(DomainError, match="IntLine.* read on NatLine"):
        CASES["kernel_doc_of_another_space"]()


@pytest.mark.parametrize("case", list(COMMANDS))
def test_command_line_exits_2(case, tmp_path, capsys):
    assert case in CASES
    argv = []
    for arg in COMMANDS[case]:
        if isinstance(arg, dict):
            path = tmp_path / "space.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        argv.append(arg)
    assert main(argv) == 2
    assert "error" in json.loads(capsys.readouterr().err)
