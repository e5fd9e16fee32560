"""Source hygiene checks that need no linter.

Every name a library module imports must be used in that module, and every
parameter of a module-level function must be used in its body.
``__init__.py`` is skipped: its imports are the package's public re-exports.
Methods are exempt from the parameter check, since they keep the parameters
of the interface they implement (``window`` in ``PointMetric.cross``).
Points are checked against their space in one place: an ``if not
<space>.contains(<point>)`` that raises DomainError appears only in
``MetricSpace.check``.  Sweep radii become point lists in one place: a
``Window(<r>, <w>.basepoint)`` call appears only in
``asymptotics.sweep_windows``.  Every space lists every ball, and every
copy-gap function is a ``DeltaFunction``: the names
``IncompleteEnumeration``, ``enumerable`` and ``CmFunction`` appear nowhere
in ``src/``.  The listing budget is kept where balls are listed: no
module but ``space.py`` names ``SEARCH_POINT_CAP``.  Single-pair infima
run one search: every
``_certified_min`` call in ``double.py`` passes a kind's ``coercive_c`` as
its constant and no ``Evaluation``, so no caller picks probes or computes a
candidate radius.  A ``LevelFunction`` has one reader, the ``fn`` it is
built with, from a point list to its levels; its constructor takes no
second one.  A ``DeltaFunction`` defines no method: it shares the level
function's cache-and-read class, and its ``__call__`` is that class's
one-point read, as ``LevelFunction.level`` is.  The subset level rule
``2 * d or 1``, the empty-set message ``has no members in`` and the meet
rule ``y if y > x else x`` each appear once in the package.  Every reader
of a whole window of levels (``tabulate``, ``validate``, the equivalence,
transfer, zero, tau and type verdicts, the approximate-unit checks,
``ratio_series`` and the lattice-law scenario)
reads each window through one ``levels(...)`` call, and ``.level(...)`` is
called only at the per-point sites: sublevel membership, the neighbour read
of ``validate`` and ``ApproximateUnit.set_distance_capped``, which returns 0
on A_2n before it lists a ball and reads a ball of a few points from the
warm cache.  The
delta kernel's batch path ``_delta_cross_matrix`` reads delta only through
``values`` and holds no comprehension.  Every private module-level name
(``_name``) is referenced somewhere in the package besides its definition,
and every name ``__init__.py`` exports is referenced in a package module or
a ``bench/`` file besides its definition and the export line, or is listed
in ``KEPT_EXPORTS`` with the reason a library user needs it; a reference
from the tests alone does not count.  Every option has a caller: each
parameter with a default of a public function, a public method or a public
class's ``__init__`` is passed, by keyword or by position, by some call in
the package or a ``bench/`` file, or is listed in ``KEPT_OPTIONS`` with its
reason.  The benchmark's tracer
(``bench/tracing.py``) finds every method and function it wraps.  Each kernel
kind states ``coercive_c``, ``eps`` and ``symmetric`` once, as data, and
``DoubleMetric`` derives the bound and the adjoint from them: only the kinds
with a stronger bound or their own adjoint rule override those, and
``double.py`` names no concrete space class.  The command line resolves its
inputs in one step: ``cli.py`` calls ``space_by_name`` at most twice and
``Window`` once, and holds none of the spec grammar, which lives in
``serialize``: no spec-prefix tuple, no string splitting and no parsing of
``--filter-base`` beyond handing it to ``parse_filter_base``.  The line
delta sweep ``_line_delta_min`` runs in array passes: its body holds no
loop and no comprehension.  Reports have one indented emitter,
``reporting.pretty_dumps``: no ``json.dumps(..., indent=...)`` call remains
in the package, and ``cli.main`` renders a report only through it.  A
kernel document the library writes, it reads: the ``"kind"`` literals that
the kernel classes' ``to_json`` methods return are exactly the kinds
``serialize.kernel_from_json`` handles, and ``is_selfadjoint`` is defined
once, on ``DoubleMetric``.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from coarsedouble import space as space_module
from coarsedouble.double import DeltaFunction
from coarsedouble.projection import LevelFunction

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coarsedouble"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {name for ann in _annotations(tree) for name in _string_names(ann)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _string_names(annotation):
    """Names inside string annotations such as ``"DoubleMetric"``."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            inner = ast.parse(node.value, mode="eval")
            yield from (n.id for n in ast.walk(inner) if isinstance(n, ast.Name))


def _ignored_parameters(tree):
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        used = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        out += [f"{node.name}.{p}" for p in params if p not in used]
    return out


def _sites(tree, match):
    """(enclosing qualified name, line) of each node for which match holds."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if match(child):
                out.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return out


def _package_sites(match):
    """(module, enclosing qualified name, line) of each match in the package."""
    return [(path.name, scope, line)
            for path in sorted(SRC.glob("*.py"))
            for scope, line in _sites(
                ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), match)]


def _is_membership_raise(node):
    """``if not <a>.contains(<b>)`` whose body raises DomainError."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Call)
            and isinstance(test.operand.func, ast.Attribute)
            and test.operand.func.attr == "contains"):
        return False
    return any(isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
               and getattr(n.exc.func, "id", None) == "DomainError"
               for stmt in node.body for n in ast.walk(stmt))


def _is_sweep_window(node):
    """``Window(<r>, <w>.basepoint)``: a window around another window's base."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Window"
            and any(isinstance(a, ast.Attribute) and a.attr == "basepoint"
                    for a in node.args[1:] + [k.value for k in node.keywords]))


def _private_definitions(tree):
    """(name, line) of each ``_name`` a module defines at its top level."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(name, line) for name, line in out
            if name.startswith("_") and not name.startswith("__")]


def _referenced_names(tree):
    """Names read in a module: loads, attribute names and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return sorted(alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def _uses(tree):
    """Names a module reads: loads of a bare name, and attributes of a name
    bound to the package or one of its modules (``cd.window_points``).  A
    top-level function or class naming itself in its own body is not a use."""
    modules = {"coarsedouble"} | {p.stem for p in SRC.glob("*.py")}
    aliases = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names if alias.name.split(".")[0] in modules}
    out = set()

    def visit(node, own):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id != own:
                    out.add(child.id)
            elif (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                  and child.value.id in aliases and child.attr != own):
                out.add(child.attr)
            top = node is tree and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if top else own)

    visit(tree, None)
    return out


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_ignored_parameters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    ignored = _ignored_parameters(tree)
    assert not ignored, f"{path.name}: parameters never used: " + ", ".join(ignored)


def test_one_membership_check():
    sites = _package_sites(_is_membership_raise)
    where = [(name, scope) for name, scope, _ in sites]
    assert where == [("space.py", "MetricSpace.check")], f"membership raises: {sites}"


def test_one_sweep_reader():
    sites = _package_sites(_is_sweep_window)
    where = [(name, scope) for name, scope, _ in sites]
    assert where == [("asymptotics.py", "sweep_windows")], f"sweep windows: {sites}"


@pytest.mark.parametrize("name", ["IncompleteEnumeration", "enumerable", "CmFunction"])
def test_one_ball_contract_and_one_copy_gap_class(name):
    sites = [f"{path.relative_to(ROOT)}:{line}" for path in sorted((ROOT / "src").rglob("*"))
             if path.is_file() and path.suffix in (".py", ".json")
             for line, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if name in text]
    assert not sites, f"{name!r} in {sites}"


def test_one_listing_budget():
    sites = [path.name for path in MODULES + [SRC / "__init__.py"]
             if "SEARCH_POINT_CAP" in path.read_text(encoding="utf-8")]
    assert sites == ["space.py"], sites


def _calls_to(tree, name):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]


def test_one_single_pair_search():
    tree = ast.parse((SRC / "double.py").read_text(encoding="utf-8"))
    calls = _calls_to(tree, "_certified_min")
    assert calls, "no _certified_min call in double.py"
    for call in calls:
        c = call.args[4] if len(call.args) > 4 else next(
            (k.value for k in call.keywords if k.arg == "c"), None)
        assert isinstance(c, ast.Attribute) and c.attr == "coercive_c", ast.unparse(call)
        assert not _calls_to(call, "Evaluation"), ast.unparse(call)


def _definition(path, qualname):
    node = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for part in qualname.split("."):
        node = next(n for n in node.body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                    and n.name == part)
    return node


def test_level_function_has_one_reader():
    init = _definition(SRC / "projection.py", "LevelFunction.__init__")
    assert [a.arg for a in init.args.args] == ["self", "space", "fn", "name", "kind",
                                               "payload"]


def test_delta_function_has_one_reader():
    # the constructor, cache, check, one-point read and serialization are the
    # shared class's
    cls = _definition(SRC / "double.py", "DeltaFunction")
    assert [ast.unparse(b) for b in cls.bases] == ["_PointFunction"]
    assert [n.name for n in cls.body if isinstance(n, ast.FunctionDef)] == []
    read = space_module._PointFunction._value
    assert DeltaFunction.__dict__["__call__"] is read
    assert LevelFunction.__dict__["level"] is read


@pytest.mark.parametrize("text", ["2 * d or 1", "has no members in", "y if y > x else x"])
def test_point_value_rule_is_stated_once(text):
    sites = [path.name for path in MODULES
             for _ in range(path.read_text(encoding="utf-8").count(text))]
    assert len(sites) == 1, f"{text!r} in {sites}"


# each reader of a window of levels, and the whole-window read it makes:
# ``validate`` reads its window through ``tabulate``
WINDOW_READERS = [
    ("projection.py", "LevelFunction.tabulate", "levels"),
    ("projection.py", "LevelFunction.validate", "tabulate"),
    ("projection.py", "classify_type", "levels"),
    ("asymptotics.py", "_equivalent_on", "levels"),
    ("asymptotics.py", "transfer", "levels"),
    ("boolalg.py", "tau", "levels"),
    ("measure.py", "DensityMeasure.ratio_series", "levels"),
    ("ideals.py", "check_au", "levels"),
    ("ideals.py", "recovery_transfer", "levels"),
    ("scenarios.py", "scenario_lattice_laws", "levels"),
]

# the calls of ``.level(...)`` in the package, one point each
PER_POINT_READS = [
    ("ideals.py", "ApproximateUnit.set_distance_capped"),
    ("ideals.py", "ApproximateUnit.set_distance_capped"),
    ("projection.py", "LevelFunction.sublevel"),
    ("projection.py", "LevelFunction.validate"),
]


@pytest.mark.parametrize("module, qualname, read", WINDOW_READERS)
def test_window_levels_are_read_in_one_call(module, qualname, read):
    node = _definition(SRC / module, qualname)
    reads = [n for n in ast.walk(node) if isinstance(n, ast.Call)
             and read in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]
    assert reads, f"{qualname} reads no {read}(...)"
    per_point = [ast.unparse(n) for n in ast.walk(node)
                 if isinstance(n, ast.Attribute) and n.attr == "level"]
    allowed = PER_POINT_READS.count((module, qualname))
    assert len(per_point) == allowed, f"{qualname} reads levels per point: {per_point}"


def test_level_is_read_per_point_only_at_the_per_point_sites():
    sites = _package_sites(lambda n: isinstance(n, ast.Call)
                           and isinstance(n.func, ast.Attribute) and n.func.attr == "level")
    assert sorted((name, scope) for name, scope, _ in sites) == PER_POINT_READS, sites


def test_no_unused_private_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = set().union(*(_referenced_names(tree) for tree in trees.values()))
    unused = [f"{module}:{line} {name}" for module, tree in trees.items()
              for name, line in _private_definitions(tree) if name not in used]
    assert not unused, "private names nothing references: " + ", ".join(unused)


def test_tracer_targets_exist():
    """``--trace 1`` wraps methods through ``owner.__dict__[attr]``; moving or
    deleting one of them makes ``install`` raise."""
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


# exports that no package module or benchmark file calls, kept for library users
KEPT_EXPORTS = {
    "density": "the paper's finitely additive measure on X",
    "source_projection": "the paper's source projection of a kernel",
    "transfer": "a tracer target, named by string in bench/tracing.py's SPANS",
}


def test_every_export_is_used():
    used = set().union(*(_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
                         for path in MODULES + BENCH))
    exported = _exported_names()
    assert len(exported) >= 50
    assert set(KEPT_EXPORTS) <= set(exported)
    unused = [name for name in exported if name not in used and name not in KEPT_EXPORTS]
    assert not unused, "exports only tests reference: " + ", ".join(unused)


def _double_classes():
    tree = ast.parse((SRC / "double.py").read_text(encoding="utf-8"))
    return [node for node in tree.body if isinstance(node, ast.ClassDef)]


def _defining(method):
    return sorted(cls.name for cls in _double_classes()
                  if any(isinstance(node, ast.FunctionDef) and node.name == method
                         for node in cls.body))


def test_kernel_facts_are_stated_once():
    # every kind's bound is the base rule of its coercive_c and eps, so no
    # kind states a bound of its own
    bounds = [f"{cls.name}.{node.name}" for cls in _double_classes() for node in cls.body
              if isinstance(node, ast.FunctionDef) and "bound" in node.name]
    assert not bounds, f"bounds stated per kind: {bounds}"
    assert _defining("adjoint") == sorted(
        ["DoubleMetric", "AdjointMetric", "MaxMetric", "ComposedMetric"])
    properties = [f"{cls.name}.{node.name}" for cls in _double_classes()
                  for node in cls.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name in ("coercive_c", "eps", "symmetric")]
    assert not properties, f"facts stated as properties: {properties}"


def _kernel_classes():
    """The classes of ``double.py`` that derive from ``DoubleMetric``."""
    classes = {cls.name: cls for cls in _double_classes()}

    def derives(cls):
        bases = [ast.unparse(b) for b in cls.bases]
        return "DoubleMetric" in bases or any(derives(classes[b]) for b in bases
                                              if b in classes)

    return [cls for cls in classes.values() if derives(cls)]


def _written_kernel_kinds():
    """The ``"kind"`` literals of the dicts the kernel ``to_json`` methods return."""
    return {value.value for cls in _kernel_classes() for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "to_json"
            for doc in ast.walk(fn) if isinstance(doc, ast.Dict)
            for key, value in zip(doc.keys, doc.values)
            if isinstance(key, ast.Constant) and key.value == "kind"
            and isinstance(value, ast.Constant)}


def _read_kernel_kinds():
    """The kinds ``kernel_from_json`` compares ``kind`` with: the literals of
    ``kind == ...`` and ``kind in ...``, the keys of a module-level table
    named there included."""
    tree = ast.parse((SRC / "serialize.py").read_text(encoding="utf-8"))
    tables = {target.id: {key.value for key in node.value.keys}
              for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              for target in node.targets}
    kinds = set()
    for node in ast.walk(_definition(SRC / "serialize.py", "kernel_from_json")):
        if isinstance(node, ast.Compare) and ast.unparse(node.left) == "kind":
            for right in node.comparators:
                if isinstance(right, ast.Constant):
                    kinds.add(right.value)
                elif isinstance(right, (ast.Tuple, ast.List, ast.Set)):
                    kinds |= {e.value for e in right.elts}
                elif isinstance(right, ast.Name):
                    kinds |= tables[right.id]
    return kinds


def test_a_kernel_document_the_library_writes_it_reads():
    written, read = _written_kernel_kinds(), _read_kernel_kinds()
    assert len(written) >= 6
    assert written == read, (f"written, not read: {sorted(written - read)}; "
                             f"read, not written: {sorted(read - written)}")


def test_selfadjointness_has_one_definition():
    sites = [f"{path.name}:{node.lineno}" for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef) and node.name == "is_selfadjoint"]
    assert len(sites) == 1 and _defining("is_selfadjoint") == ["DoubleMetric"], sites


def test_double_imports_no_concrete_space():
    tree = ast.parse((SRC / "double.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "space"
             for alias in node.names]
    assert "LineSpace" in names
    concrete = [name for name in names
                if isinstance(getattr(space_module, name), type)
                and issubclass(getattr(space_module, name), space_module.MetricSpace)
                and name not in ("MetricSpace", "LineSpace")]
    assert not concrete, f"double.py imports concrete spaces: {concrete}"


def _loops(body):
    return [ast.unparse(node).splitlines()[0] for node in ast.walk(body)
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.ListComp,
                                 ast.SetComp, ast.DictComp, ast.GeneratorExp))]


def test_line_delta_sweep_has_no_python_loop():
    loops = _loops(_definition(SRC / "double.py", "_line_delta_min"))
    assert not loops, f"loops in _line_delta_min: {loops}"


def test_delta_cross_matrix_reads_delta_through_values():
    body = _definition(SRC / "double.py", "_delta_cross_matrix")
    loops = _loops(body)
    assert not loops, f"loops in _delta_cross_matrix: {loops}"
    reads = [n for n in ast.walk(body) if isinstance(n, ast.Attribute) and n.attr == "delta"]
    through_values = [n.value for n in ast.walk(body)
                      if isinstance(n, ast.Attribute) and n.attr == "values"]
    assert len(through_values) == 2
    # no d.delta(u), map(d.delta, ...) or other read that bypasses values
    assert all(any(n is v for v in through_values) for n in reads), \
        [ast.unparse(n) for n in reads]


def test_cli_resolves_its_inputs_once():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert len(_calls_to(tree, "space_by_name")) <= 2
    assert len(_calls_to(tree, "Window")) == 1


def test_cli_holds_no_spec_grammar():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    prefixes = [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Constant)
                and n.value in ("unit", "zero", "subset:", "~subset:", "expr:")]
    assert not prefixes, f"spec prefixes in cli.py: {prefixes}"
    splits = [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Call)
              and getattr(n.func, "attr", None) in ("split", "startswith", "partition")]
    assert not splits, f"string splitting in cli.py: {splits}"
    reads = [n for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "filter_base"]
    handed = [a for call in _calls_to(tree, "parse_filter_base") for a in call.args]
    assert reads and reads == handed, [ast.unparse(n) for n in reads]


def _is_indented_dumps(node):
    """``dumps(..., indent=...)`` under any receiver."""
    return (isinstance(node, ast.Call)
            and "dumps" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and any(k.arg == "indent" for k in node.keywords))


def test_one_indented_emitter():
    sites = _package_sites(_is_indented_dumps)
    assert not sites, f"indented json.dumps calls: {sites}"
    main = _definition(SRC / "cli.py", "main")
    assert len(_calls_to(main, "pretty_dumps")) == 1
    # the one other encoding in main is the error object written to stderr
    others = [n for n in ast.walk(main) if isinstance(n, ast.Call)
              and getattr(n.func, "attr", None) == "dumps"]
    assert [ast.unparse(n.args[0]) for n in others] == ["{'error': str(exc)}"], \
        [ast.unparse(n) for n in others]


# options that no package module or benchmark file passes, kept with the
# reason a caller needs them
KEPT_OPTIONS = {
    ("projection_criterion", "grid"): "acceptance criterion 04 asks whether (0, 2) in "
                                      "particular certifies",
    ("source_projection", "window"): "it mirrors levels_from_metric's window",
    ("ClosedFormMetric.__init__", "symmetric"): "only tests construct the class, and "
                                                "bench/tracing.py pins it",
}


def _defaulted(fn, qualname, skip):
    """(qualname, parameter, position) of each parameter of fn with a
    default; the position counts from the first parameter after the skip
    (self or cls) ones, and is None for a keyword-only parameter."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    return ([(qualname, p.arg, i - skip) for i, p in enumerate(positional)
             if i >= max(first, skip)]
            + [(qualname, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
               if d is not None])


def _options():
    """The parameters with a default of the package's public functions,
    public methods and public classes' ``__init__``."""
    out = []
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out += _defaulted(node, node.name, 0)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and (
                            fn.name == "__init__" or not fn.name.startswith("_")):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in fn.decorator_list)
                        out += _defaulted(fn, f"{node.name}.{fn.name}", 0 if static else 1)
    return out


def _call_targets(call, cls, in_classmethod, bases):
    """The qualified names a call may reach, resolved by name: a function, a
    class (its ``__init__``) or any method of that name; ``cls(...)`` only
    inside its class's classmethods, and ``super().__init__(...)`` as the
    bases' ``__init__``."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls" and in_classmethod:
            return {f"{cls}.__init__"}
        return {func.id, f"{func.id}.__init__"}
    if not isinstance(func, ast.Attribute):
        return set()
    if (func.attr == "__init__" and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"):
        return {f"{b}.__init__" for b in bases.get(cls, ())}
    return {func.attr, f"{func.attr}.__init__", f"*.{func.attr}"}


def _calls():
    """(targets, positional count, keywords) of each call in the package and
    the benchmark; a ``*`` argument counts as every position and a ``**``
    one as every keyword."""
    out = []
    for path in MODULES + BENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bases = {node.name: [ast.unparse(b).split(".")[-1] for b in node.bases]
                 for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}

        def visit(node, cls, in_classmethod):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name, False)
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, cls, any(getattr(d, "id", None) == "classmethod"
                                          for d in child.decorator_list))
                    continue
                if isinstance(child, ast.Call):
                    starred = any(isinstance(a, ast.Starred) for a in child.args)
                    out.append((_call_targets(child, cls, in_classmethod, bases),
                                float("inf") if starred else len(child.args),
                                {k.arg for k in child.keywords}))
                visit(child, cls, in_classmethod)

        visit(tree, None, False)
    return out


def test_every_option_has_a_caller():
    calls = _calls()

    def passed(qualname, param, position):
        owner, _, name = qualname.rpartition(".")
        key = f"*.{name}" if owner and name != "__init__" else qualname
        return any(key in targets
                   and (param in keywords or None in keywords
                        or (position is not None and count > position))
                   for targets, count, keywords in calls)

    options = _options()
    assert len(options) >= 20
    assert set(KEPT_OPTIONS) <= {(q, p) for q, p, _ in options}
    missing = [f"{q}({p})" for q, p, pos in options
               if (q, p) not in KEPT_OPTIONS and not passed(q, p, pos)]
    assert not missing, "options that only tests pass: " + ", ".join(missing)
