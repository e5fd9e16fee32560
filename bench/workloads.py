"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of queries (a "round"), runs
one query through the public API of ``coarsedouble``, says whether an answer
carries a positive certificate, and checks a round of answers against
references owned by the benchmark.  Constructing a workload is the set-up
that ``setup_s`` measures: spaces, kernels, level functions and parsed specs.
The library receives only the generated inputs, never the seed.
"""

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import coarsedouble as cd
from coarsedouble import cli, measure, scenarios, serialize, verdicts

import oracles


def _spec_rng(seed, name):
    return random.Random(f"{name}:{seed}")


def _as_fraction(v):
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den or 1))
    return Fraction(v)


def _canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


# -- pair-eval ----------------------------------------------------------------

PAIR_WINDOW = 60
# (space, factors, (certifiable pairs, other pairs) per round); a factor is
# ("delta", level spec) or ("point", x0), and ("compose", d1, d2) composes
# two of them.  A pair is certifiable when the certificate rule of
# oracles.certifiable certifies its evaluation on the window; the counts
# are the fewest that any grid offsets give, so every seed draws the same
# mix and certified_ratio does not depend on the seed.
PAIR_KERNELS = (
    ("NatLine", ("delta", "subset:evens"), (70, 20)),
    ("NatLine", ("delta", "subset:squares"), (64, 24)),
    ("NatLine", ("delta", "zero"), (20, 65)),
    ("IntLine", ("delta", "subset:odds"), (40, 45)),
    ("IntLine", ("delta", "subset:powers:2"), (28, 64)),
    ("IntLine", ("delta", "expr:ceil-sqrt"), (41, 50)),
    ("NatLine", ("point", 0), (100, 0)),
    ("IntLine", ("point", 3), (100, 0)),
    ("NatLine", ("compose", ("delta", "zero"), ("delta", "subset:evens")), (14, 75)),
    ("NatLine", ("compose", ("delta", "subset:squares"), ("point", 0)), (20, 68)),
    ("IntLine", ("compose", ("point", 0), ("delta", "subset:odds")), (20, 74)),
    ("IntLine", ("compose", ("delta", "subset:evens"), ("delta", "subset:squares")), (23, 69)),
)
# evaluate_exact starts at the window radius; pairs whose candidate ball
# leaves that window escalate
PAIR_EXACT_START = PAIR_WINDOW
PAIR_EXACT_PER_KERNEL = 16
# x and y each run over a grid of this many window points, for every kernel
PAIR_GRID = 10


class PairEval:
    """Single cross values through ``evaluate`` / ``evaluate_exact`` on
    long-lived kernels, mixed like acceptance criterion 02."""

    name = "pair-eval"

    def __init__(self, seed):
        rng = _spec_rng(seed, self.name)
        self.window = cd.Window(PAIR_WINDOW)
        self.kernels = []
        self.deck = []
        for space_name, factors, (n_cert, n_open) in PAIR_KERNELS:
            k = len(self.kernels)
            entry = self._add(space_name, factors)
            xs, ys = self._grid(entry, rng), self._grid(entry, rng)
            natline = space_name == "NatLine"
            cert, other = [], []
            for x in xs:
                for y in ys:
                    ok = oracles.certifiable(entry["model"], x[0], y[0], PAIR_WINDOW, natline)
                    (cert if ok else other).append((x, y))
            if len(cert) < n_cert or len(other) < n_open:
                raise ValueError(f"{factors}: the grid has {len(cert)} certifiable and "
                                 f"{len(other)} other pairs, fewer than {n_cert}, {n_open}")
            pairs = rng.sample(cert, n_cert) + rng.sample(other, n_open)
            self.deck += [("eval", k, x, y) for x, y in pairs]
            if factors[0] == "delta":
                self.deck += [("exact", k, x, y)
                              for x, y in rng.sample(pairs, PAIR_EXACT_PER_KERNEL)]
        rng.shuffle(self.deck)

    @staticmethod
    def _grid(entry, rng):
        """PAIR_GRID evenly spaced window points, shifted by a seeded offset.

        The cost of a pair grows with the distance of its points, so every
        seed gets the same spread of costs and only the positions move.
        """
        pts = entry["points"]
        stride = len(pts) // PAIR_GRID
        offset = rng.randrange(stride)
        return [pts[offset + stride * i] for i in range(PAIR_GRID)]

    @staticmethod
    def _factor(space, factor):
        if factor[0] == "delta":
            return cd.metric_from_levels(serialize.parse_levels(space, factor[1]))
        return cd.PointMetric(space, (factor[1],))

    @staticmethod
    def _model(space_name, factor):
        if factor[0] == "delta":
            return ("delta", oracles.level_function(factor[1], space_name))
        return factor

    def _add(self, space_name, factors):
        space = cd.space_by_name(space_name)
        parts = factors[1:] if factors[0] == "compose" else (factors,)
        made = [self._factor(space, f) for f in parts]
        entry = {"space": space_name, "factors": factors,
                 "kernel": cd.compose(*made) if len(made) == 2 else made[0],
                 "model": tuple(self._model(space_name, f) for f in parts),
                 "points": oracles.line_points(space_name, PAIR_WINDOW)}
        self.kernels.append(entry)
        return entry

    def run(self, q):
        kind, k, x, y = q
        kernel = self.kernels[k]["kernel"]
        if kind == "eval":
            return cd.evaluate(kernel, x, y, self.window)
        return cd.evaluate_exact(kernel, x, y, start_radius=PAIR_EXACT_START)

    @staticmethod
    def certified(answer):
        return answer.exact

    @staticmethod
    def fingerprint(answer):
        return (answer.value, answer.exact, answer.required_radius, answer.witness)

    @staticmethod
    def _window_matrix(entry, factor):
        coords = [p[0] for p in entry["points"]]
        if factor[0] == "delta":
            return oracles.delta_window_matrix(coords, factor[1])
        return oracles.point_window_matrix(coords, factor[1])

    def check(self, answers):
        """Values against unpruned window minima, and certificates: an
        ``evaluate`` answer is exact exactly when the certificate rule of
        oracles.certifiable says so, an exact answer equals the global
        minimum, and the witness attains the value (globally when exact, in
        the window otherwise)."""
        matrices = {}
        out = []
        for q, ans in zip(self.deck, answers):
            kind, k, x, y = q
            entry = self.kernels[k]
            if k not in matrices:
                factors = [self._window_matrix(entry, f) for f in entry["model"]]
                whole = factors[0] if len(factors) == 1 else oracles.compose_matrix(*factors)
                matrices[k] = (whole, factors)
            reason = self._check_one(kind, entry, matrices[k], x[0], y[0], ans)
            out.append(reason and f"{kind} {entry['factors']} at {x},{y}: {reason} "
                                  f"(got {ans.value}, exact={ans.exact}, witness={ans.witness})")
        return out

    @staticmethod
    def _check_one(kind, entry, matrices, x, y, ans):
        natline = entry["space"] == "NatLine"
        model = entry["model"]
        lo = entry["points"][0][0]
        whole, factors = matrices
        in_window = int(whole[x - lo, y - lo])
        if kind == "exact" and not ans.exact:
            return "evaluate_exact returned an uncertified answer"
        if kind == "eval" and ans.value != in_window:
            return f"window minimum is {in_window}"
        if kind == "eval":
            rule = oracles.certifiable(model, x, y, PAIR_WINDOW, natline)
            if ans.exact != rule:
                return f"the certificate rule gives exact={rule}"
        if ans.witness is None or len(ans.witness) != 1:
            return "no witness"
        w = ans.witness[0]
        if len(model) == 1:
            factor = model[0]
            if factor[0] == "point":
                return None if w == factor[1] else f"witness is not {factor[1]}"
            level = factor[1]
            if ans.exact:
                want = oracles.delta_global_value(x, y, level, ans.value, natline)
                if ans.value != want:
                    return f"global minimum is {want}"
            elif not 0 <= w - lo < len(entry["points"]):
                return "witness outside the window"
            if abs(x - w) + level(w) + abs(w - y) != ans.value:
                return "witness does not attain the value"
            return None
        if ans.exact:
            want, sums = oracles.composed_global(x, y, model[0], model[1], ans.value, natline)
            if ans.value != want:
                return f"global minimum is {want}"
            return None if sums.get(w) == ans.value else "witness does not attain the value"
        if not 0 <= w - lo < len(entry["points"]):
            return "witness outside the window"
        via = int(factors[0][x - lo, w - lo] + factors[1][w - lo, y - lo])
        return None if via == ans.value else "witness does not attain the value"


# -- axiom-batch --------------------------------------------------------------

# (space, window radius, level specs the seed chooses from); the specs of
# one entry cost alike in check_axioms, in time and in memory, so seeds
# change kernels, not load.  IntLine powers of 2 leave a last min-plus chunk
# small enough for the heap, which keeps about 20 MiB resident afterwards, so
# it runs on every seed rather than being drawn.  The line windows hold 251
# points.
AXIOM_JOBS = (
    ("NatLine", 250, ("subset:evens", "subset:odds", "subset:multiples:3",
                      "subset:multiples:4:1")),
    ("NatLine", 250, ("subset:powers:2", "subset:powers:3", "expr:ceil-sqrt",
                      "subset:squares")),
    ("IntLine", 125, ("subset:evens", "subset:odds", "subset:multiples:3",
                      "subset:multiples:4:1", "subset:multiples:5:2")),
    ("IntLine", 125, ("subset:powers:2",)),
    ("IntLine", 125, ("expr:log2",)),
    ("GeomLine", 1024, ("subset:powers:2", "subset:powers:4")),
    ("TwoTails", 500, ("subset:tailplus", "subset:tailminus", "zero", "unit")),
)
AXIOM_CELL_SAMPLES = 24


class AxiomBatch:
    """``check_axioms`` on seeded delta kernels: the batch path of the double
    layer (``cross_matrix`` and the numpy min-plus), like criterion 01."""

    name = "axiom-batch"

    def __init__(self, seed):
        rng = _spec_rng(seed, self.name)
        self.seed = seed
        self.deck = []
        for space_name, radius, choices in AXIOM_JOBS:
            spec = rng.choice(choices)
            space = cd.space_by_name(space_name)
            kernel = cd.metric_from_levels(serialize.parse_levels(space, spec))
            self.deck.append({"space": space_name, "radius": radius, "spec": spec,
                              "kernel": kernel})
        rng.shuffle(self.deck)

    @staticmethod
    def run(q):
        return cd.check_axioms(q["kernel"], cd.Window(q["radius"]))

    @staticmethod
    def certified(answer):
        return answer.exact

    @staticmethod
    def fingerprint(answer):
        return _canonical(answer.to_json())

    def check(self, answers):
        out = []
        for i, (q, rep) in enumerate(zip(self.deck, answers)):
            out.append(self._check_one(i, q, rep))
        return out

    def _check_one(self, i, q, rep):
        label = f"{q['space']} {q['spec']} r={q['radius']}"
        if not (rep.passed and rep.exact):
            return f"{label}: passed={rep.passed} exact={rep.exact}"
        window = cd.Window(q["radius"])
        pts = oracles.window_points(q["space"], q["radius"])
        line = q["space"] in ("NatLine", "IntLine")
        if rep.n_points != len(pts) or (line and rep.n_points < 200):
            return f"{label}: {rep.n_points} window points, oracle has {len(pts)}"
        if cd.window_points(cd.space_by_name(q["space"]), window) != pts:
            return f"{label}: window enumeration differs from the oracle"
        matrix, _ = q["kernel"].cross_matrix(pts, window)
        rng = random.Random(f"cells:{self.seed}:{i}")
        level = oracles.level_function(q["spec"], q["space"]) if line else None
        for _ in range(AXIOM_CELL_SAMPLES):
            a, b = rng.randrange(len(pts)), rng.randrange(len(pts))
            x, y = pts[a], pts[b]
            cell = matrix[a][b]
            single = cd.evaluate_exact(q["kernel"], x, y).value
            if cell != single:
                return f"{label}: cross_matrix[{x},{y}]={cell}, single pair {single}"
            if line and cell != oracles.delta_global_value(
                    x[0], y[0], level, cell, q["space"] == "NatLine"):
                return f"{label}: cross_matrix[{x},{y}]={cell} is not the global minimum"
        return None


# -- density-sweep ------------------------------------------------------------

DENSITY_N_MAX = 8
# length of the far side of each half-line inside the largest schedule ball
DENSITY_FAR = (460, 480)
DENSITY_MULTIPLES = (3, 6)


class DensitySweep:
    """``nu_hat``, ``nu_bar`` and ``check_modularity`` with the default
    schedule, on fresh level functions per query (cold caches)."""

    name = "density-sweep"

    def __init__(self, seed):
        rng = _spec_rng(seed, self.name)
        self.schedule = measure.default_schedule()
        top = self.schedule[-1]

        def far():
            return rng.randint(*DENSITY_FAR)

        def mult():
            k = rng.randint(*DENSITY_MULTIPLES)
            return f"subset:multiples:{k}:{rng.randrange(k)}"

        dup = f"subset:halfline:-:{top - far()}"
        self.deck = [
            ("nu_hat", "IntLine", (f"subset:halfline:-:{top - far()}",)),
            ("nu_hat", "IntLine", (f"subset:halfline:+:{far() - top}",)),
            ("nu_hat", "NatLine", (f"subset:halfline:+:{far()}",)),
            ("nu_hat", "IntLine", (mult(),)),
            ("nu_hat", "NatLine", (mult(),)),
            ("nu_bar", "NatLine", (f"subset:halfline:+:{far()}", mult())),
            ("nu_bar", "IntLine", (dup, dup)),
            ("modularity", "IntLine", (f"subset:halfline:+:{far() - top}", mult())),
        ]
        rng.shuffle(self.deck)

    def run(self, q):
        kind, space_name, specs = q
        space = cd.space_by_name(space_name)
        mu = measure.DensityMeasure.natural(space)
        levels = [serialize.parse_levels(space, s) for s in specs]
        if kind == "nu_hat":
            return measure.nu_hat(mu, levels[0], DENSITY_N_MAX, self.schedule)
        if kind == "nu_bar":
            total = cd.FormalSum(tuple(levels), tuple(range(len(levels))))
            return measure.nu_bar(mu, total, DENSITY_N_MAX, self.schedule)
        return measure.check_modularity(mu, levels[0], levels[1], DENSITY_N_MAX,
                                        self.schedule)

    @staticmethod
    def certified(answer):
        return isinstance(answer, measure.NuHatReport) and answer.monotone_exact

    @staticmethod
    def fingerprint(answer):
        doc = answer.to_json() if isinstance(answer, measure.NuHatReport) else answer
        return _canonical(doc)

    def check(self, answers):
        out = []
        summary = {}
        for (kind, space_name, specs), ans in zip(self.deck, answers):
            levels = [oracles.level_function(s, space_name) for s in specs]
            if kind == "nu_hat":
                out.append(self._check_nu_hat(space_name, levels[0], ans))
            elif kind == "nu_bar":
                want = oracles.nu_bar_pair(space_name, levels[0], levels[1],
                                           DENSITY_N_MAX, self.schedule)
                got = [_as_fraction(v) for _, v in ans["series"]]
                out.append(None if got == want else f"nu_bar {specs}: {got} != {want}")
                if specs[0] == specs[1]:
                    summary["duplicate_cancels"] = all(v == 0 for v in got)
            else:
                want = oracles.modularity(space_name, levels[0], levels[1], DENSITY_N_MAX,
                                          self.schedule)
                got = {k: _as_fraction(ans[k]) if k in ("slack", "worst_gap") else ans[k]
                       for k in want}
                out.append(None if got == want else f"modularity {specs}: {got} != {want}")
                summary["modularity_passed"] = ans["passed"]
        # the measure-demo scenario's expected table, on the seeded instances
        expected = scenarios.expected_tables()["measure-demo"]
        drift = {k: v for k, v in summary.items() if expected[k] != v}
        if drift:
            out = [r or f"measure-demo table drift {drift}" for r in out]
        return out

    def _check_nu_hat(self, space_name, level, rep):
        want = oracles.nu_hat(space_name, level, DENSITY_N_MAX, self.schedule)
        if not rep.monotone_exact:
            return "nu_hat: raw ratios not monotone in n"
        for row, exp in zip(rep.per_n, want["per_n"]):
            got_ratios = [_as_fraction(v) for _, v in row["series"]]
            got_masses = [_as_fraction(v) for v in row["masses"]]
            if (row["bounded"] != exp["bounded"] or got_ratios != exp["ratios"]
                    or got_masses != exp["masses"]):
                return f"nu_hat level {row['n']}: per-radius values differ from closed form"
        if [v for _, v in rep.interval.series] != want["series"]:
            return "nu_hat: adjusted series differs from closed form"
        return None


# -- cli-corpus ---------------------------------------------------------------

# Every round runs each command line below once, in a seeded order.  The
# seed fills the {} placeholders from the listed choices; the choices of one
# command cost alike and certify alike, so seeds change inputs, not load.
CLI_COMMANDS = (
    (("scenario", "run", "typeI"), [()]),
    (("scenario", "run", "ex1"), [()]),
    (("scenario", "run", "ex2"), [()]),
    (("scenario", "run", "lattice-laws"), [()]),
    (("algebra", "atoms", "--space", "NatLine",
      "--generators", "subset:powers:4;subset:powers:4:2", "--radius", "1024"), [()]),
    (("space", "show", "--space", "TwoTails", "--radius", "{}"),
     [("26",), ("30",), ("34",), ("38",)]),
    (("space", "show", "--space", "NatLine", "--radius", "{}"),
     [("48",), ("56",), ("64",), ("72",)]),
    (("space", "show", "--space", "GeomLine", "--radius", "{}"),
     [("1024",), ("2048",), ("4096",)]),
    (("eval", "--space", "NatLine", "--metric", "zero:0", "--x", "{}", "--y", "{}",
      "--radius", "64"), [(x, y) for x in ("3", "9") for y in ("5", "17")]),
    (("eval", "--space", "NatLine", "--metric", "delta:subset:evens", "--x", "{}",
      "--y", "{}", "--radius", "64"), [(x, y) for x in ("3", "8") for y in ("11", "20")]),
    (("eval", "--space", "IntLine", "--metric", "subset:squares", "--x", "{}",
      "--y", "{}", "--radius", "64"), [(x, y) for x in ("-5", "6") for y in ("17", "30")]),
    (("eval", "--space", "IntLine", "--metric", "delta:subset:odds", "--x", "{}",
      "--y", "{}", "--radius", "64"), [(x, y) for x in ("-12", "2") for y in ("7", "20")]),
    (("compare", "--space", "NatLine", "--left", "expr:ceil-sqrt", "--right",
      "expr:ceil-cbrt", "--mode", "quasi", "--radius", "1024"), [()]),
    (("compare", "--space", "NatLine", "--left", "subset:evens", "--right",
      "subset:odds", "--mode", "coarse", "--radius", "256"), [()]),
    (("compare", "--space", "NatLine", "--left", "expr:ceil-sqrt", "--right",
      "expr:log2", "--mode", "quasi", "--radius", "1024"), [()]),
    (("classify", "--space", "NatLine", "--levels", "subset:evens", "--radius", "256"),
     [()]),
    (("classify", "--space", "NatLine", "--levels", "subset:multiples:3",
      "--radius", "256"), [()]),
    (("tau", "--space", "GeomLine", "--filter-base", "4", "--levels",
      "subset:powers:4", "--radius", "1024"), [()]),
    (("tau", "--space", "GeomLine", "--filter-base", "4", "--levels",
      "subset:powers:4:2", "--radius", "1024"), [()]),
    (("tau", "--space", "GeomLine", "--filter-base", "2", "--levels",
      "subset:powers:4", "--radius", "1024"), [()]),
    (("ideal", "check", "--space", "NatLine", "--levels", "subset:squares",
      "--radius", "64"), [()]),
    (("ideal", "check", "--space", "NatLine", "--levels", "subset:evens",
      "--radius", "64"), [()]),
    (("ideal", "check", "--space", "IntLine", "--levels", "subset:multiples:3",
      "--radius", "64"), [()]),
)
CLI_DIGESTS = "cli_digests.json"


def _fill(template, params):
    it = iter(params)
    return tuple(next(it) if part == "{}" else part for part in template)


def cli_argvs():
    """Every command line the workload can issue, for the digest table."""
    return [_fill(t, p) for t, choices in CLI_COMMANDS for p in choices]


def canonical_digest(stdout):
    doc = json.loads(stdout)
    doc.pop("meta", None)
    return hashlib.sha256(_canonical(doc).encode()).hexdigest()


def run_cli(argv):
    """One in-process ``coarse-double`` invocation: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _verdict_docs(doc):
    if isinstance(doc, dict):
        if "status" in doc and "claim" in doc and "check" in doc:
            yield doc
        for v in doc.values():
            yield from _verdict_docs(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _verdict_docs(v)


def _has_exact_evaluation(doc):
    ev = doc.get("results", {}).get("evaluation")
    return bool(ev and ev.get("exact"))


class CliCorpus:
    """Scenarios and README commands through ``cli.main`` in process."""

    name = "cli-corpus"

    def __init__(self, seed):
        rng = _spec_rng(seed, self.name)
        self.deck = [_fill(t, rng.choice(choices)) for t, choices in CLI_COMMANDS]
        rng.shuffle(self.deck)
        self.revalidate_s = 0.0

    run = staticmethod(run_cli)

    @staticmethod
    def certified(answer):
        rc, stdout = answer
        if rc != 0:
            return False
        doc = json.loads(stdout)
        return _has_exact_evaluation(doc) or any(
            v["status"] == verdicts.Status.CERTIFIED.value for v in _verdict_docs(doc))

    @staticmethod
    def fingerprint(answer):
        rc, stdout = answer
        return rc, canonical_digest(stdout) if rc == 0 else stdout

    def check(self, answers):
        digests = json.loads(Path(__file__).with_name(CLI_DIGESTS).read_text())
        tables = scenarios.expected_tables()
        return [self._check_one(argv, ans, digests, tables)
                for argv, ans in zip(self.deck, answers)]

    def _check_one(self, argv, answer, digests, tables):
        key = " ".join(argv)
        rc, stdout = answer
        if rc != 0:
            return f"{key}: exit {rc}"
        doc = json.loads(stdout)
        if argv[0] == "scenario":
            summary = doc["results"]["summary"]
            if not doc["passed"] or any(summary.get(k) != v
                                        for k, v in tables[argv[2]].items()):
                return f"{key}: summary {summary} differs from the expected table"
        if key not in digests or digests[key] != canonical_digest(stdout):
            return f"{key}: canonical JSON digest differs from the recorded one"
        t0 = time.perf_counter()
        try:
            for vdoc in _verdict_docs(doc):
                if vdoc["status"] == verdicts.Status.CERTIFIED.value \
                        and not verdicts.revalidate(_rebuild_verdict(vdoc)):
                    return f"{key}: certified verdict {vdoc['claim']} fails re-validation"
        finally:
            self.revalidate_s += time.perf_counter() - t0
        return None


def _rebuild_verdict(vdoc):
    """A certified verdict read back from its JSON, for ``revalidate``."""
    return verdicts.Verdict(
        verdicts.Status.CERTIFIED, vdoc["claim"],
        witness=verdicts.witness_from_json(vdoc["witness"]),
        diagnostics={"series": vdoc.get("diagnostics", {}).get("series", [])},
        check_kind=vdoc["check"])


WORKLOADS = {w.name: w for w in (PairEval, AxiomBatch, DensitySweep, CliCorpus)}
