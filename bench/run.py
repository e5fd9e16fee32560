"""Benchmark of coarse-double: seeded workloads through the public API.

Run from the repository root:

    python3 bench/run.py --workload pair-eval --seed 1 --seconds 20 --trace 0

One process and one thread drive the library as a closed loop: a single
caller issues the next query when the previous one returns.  A workload is
a fixed list of queries built from the seed (a round).  One untimed round
warms caches and supplies the answers that are checked against the
benchmark's own references; timed rounds then repeat until ``--seconds``
have passed and at least six rounds ran, and every timed answer must equal
the checked one.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` the timed
rounds are followed by one round with per-layer tracing installed from
``bench/tracing.py``; the last line then holds the per-layer metrics, and the
spans are written to ``.bench_out/``.  Either way the line before it holds
details: the tail percentile and sample count, rounds, and the machine.

Seeds: the default seed is 1.  Seed 7955 is held out: use it only to
confirm a result that was tuned on other seeds.

The set-up time ``setup_s`` is the median over fresh processes of importing
the library and building the workload's inputs.  Query times are scaled to
a reference machine speed, measured by a fixed speed probe between queries
(see SPEED_REF_S); the raw wall times are in the details.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS / OpenMP thread, here and in the set-up probes this process starts;
# set before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LIBRARY = ROOT / "src" / "coarsedouble"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7955
SETUP_PROBES = 5
# timed rounds go on until --seconds have passed and at least this many ran
MIN_ROUNDS = 6
# the tail is the highest of these percentiles with at least ten samples
# beyond it in MIN_ROUNDS rounds, so a workload keeps its tail percentile
# however many rounds a run fits
TAIL_PERCENTILES = (99, 90, 75, 50)
# The speed of a shared host can swing by a factor of two within seconds,
# for the same work.  So timed rounds also time a fixed pure-Python speed
# probe, after each query once SPEED_EVERY_S of query time has passed since
# the last one, and report query times at the reference speed at which the
# probe takes SPEED_REF_S: a round's times are multiplied by SPEED_REF_S
# over the mean probe time of that round.  Raw wall times are in the
# details.  Set-up runs in fresh processes, where the probe does not track
# the host's speed, so setup_s is raw wall time.
SPEED_EVERY_S = 0.01
SPEED_REF_S = 160e-6


class Failed:
    """A query that raised instead of answering."""

    def __init__(self, exc):
        self.error = f"{type(exc).__name__}: {exc}"


def parse_args(argv, definition):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in definition["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=definition["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time import and input construction, then exit")
    return p.parse_args(argv)


def import_workloads():
    import workloads
    import coarsedouble
    if Path(coarsedouble.__file__).resolve().parent != LIBRARY:
        raise SystemExit(f"bench: imported coarsedouble from {coarsedouble.__file__}, "
                         f"not from {LIBRARY}")
    return workloads


# the probe allocates no objects the garbage collector tracks, so that no
# collection, whose cost grows with the process's heap, runs inside it
_PROBE_KEYS = [(i, i + 1) for i in range(1000)]
_PROBE_TABLE = {key: key[0] * 3 % 7 for key in _PROBE_KEYS}


def speed_probe():
    """Fixed pure-Python work (tuple indexing, dict lookups, integer
    arithmetic); returns its wall time."""
    t0 = time.perf_counter()
    acc = 0
    for key in _PROBE_KEYS:
        acc += abs(key[0] - key[1]) + _PROBE_TABLE[key]
    return time.perf_counter() - t0


def speed_scale(probe_s):
    return SPEED_REF_S / statistics.fmean(probe_s)


def setup_probe(args):
    t0 = time.perf_counter()
    workloads = import_workloads()
    workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def measure_setup(args):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_round(workload, tracer=None, probe_s=None):
    """Answers, query latencies and the round's wall time without probes.

    With a probe_s list, speed probes run between queries and their times
    are appended to it.
    """
    answers, latencies = [], []
    clock = time.perf_counter
    start = clock()
    probing = due = 0.0
    for i, q in enumerate(workload.deck):
        if tracer is not None:
            tracer.query_id = i
        t0 = clock()
        try:
            answer = workload.run(q)
        except Exception as exc:  # a failed query is counted, not fatal
            answer = Failed(exc)
        latency = clock() - t0
        latencies.append(latency)
        answers.append(answer)
        due += latency
        if probe_s is not None and due >= SPEED_EVERY_S:
            t0 = clock()
            probe_s.append(speed_probe())
            probing += clock() - t0
            due = 0.0
    if probe_s is not None and not probe_s:
        probe_s.append(speed_probe())
    return answers, latencies, clock() - start - probing


def check_round(workload, answers):
    """Failure reason per query of the reference round (None when correct)."""
    try:
        reasons = workload.check(answers)
    except Exception as exc:  # a check that cannot run fails the whole round
        reasons = [f"check raised {type(exc).__name__}: {exc}"] * len(answers)
    return [f"raised {a.error}" if isinstance(a, Failed) else r
            for a, r in zip(answers, reasons)]


def mismatches(workload, answers, reference):
    """Per query: whether the answer raised or differs from the reference."""
    return [isinstance(a, Failed) or workload.fingerprint(a) != ref
            for a, ref in zip(answers, reference)]


def percentile(values, p):
    v = sorted(values)
    pos = (len(v) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_percentile(n):
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p
    return 100


def environment():
    import numpy
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "commit": git_commit(), "source_sha256": source_digest()}


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted(LIBRARY.rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(LIBRARY)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, definition)
    if not (LIBRARY / "__init__.py").is_file():
        print(f"bench: library source {LIBRARY} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(LIBRARY.parent))
    if args.setup_probe:
        return setup_probe(args)

    setup = measure_setup(args)
    workloads = import_workloads()
    workload = workloads.WORKLOADS[args.workload](args.seed)

    reference_answers, _, warmup_s = run_round(workload)
    reference = [None if isinstance(a, Failed) else workload.fingerprint(a)
                 for a in reference_answers]

    # a timed answer that differs from the reference counts as failed; the
    # answers of a round are dropped once compared, so the memory the
    # benchmark holds does not grow with the number of rounds
    round_s, raw_round_s, scales, latencies = [], [], [], []
    differs = [0] * len(reference)
    start = time.perf_counter()
    while len(round_s) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        probe_s = []
        answers, lat, wall = run_round(workload, probe_s=probe_s)
        differs = [d + m for d, m in zip(differs, mismatches(workload, answers, reference))]
        del answers
        scale = speed_scale(probe_s)
        latencies += [x * scale for x in lat]
        round_s.append(wall * scale)
        raw_round_s.append(wall)
        scales.append(scale)
    # read before the checks, whose references allocate memory of their own
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    t0 = time.perf_counter()
    reasons = check_round(workload, reference_answers)
    certified = [r is None and bool(workload.certified(a))
                 for a, r in zip(reference_answers, reasons)]
    check_s = time.perf_counter() - t0
    rounds = len(round_s)
    attempted = len(latencies)
    failed = sum(rounds if r else d for r, d in zip(reasons, differs))
    n_certified = sum(rounds - d for c, d in zip(certified, differs) if c)
    tail_p = tail_percentile(len(workload.deck) * MIN_ROUNDS)
    values = {
        "setup_s": statistics.median(setup),
        # per round, so that one slow round moves it no more than one sample
        "queries_per_s": len(workload.deck) / statistics.median(round_s),
        "query_p50_ms": percentile(latencies, 50) * 1e3,
        "query_tail_ms": percentile(latencies, tail_p) * 1e3,
        "certified_ratio": n_certified / attempted,
        "passed_ratio": (attempted - failed) / attempted,
        "peak_rss_mib": peak_rss_mib,
    }
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "deck_size": len(workload.deck), "rounds": rounds,
              "timed_s": sum(raw_round_s), "round_s": round_s,
              "raw_round_s": raw_round_s, "speed_scale": scales,
              "samples": len(latencies),
              "tail_percentile": tail_p, "warmup_s": warmup_s, "check_s": check_s,
              "setup_samples_s": setup, "environment": environment(),
              "failures": sorted({r for r in reasons if r})[:20]}

    metric_defs = definition["end_to_end"]
    OUT.mkdir(exist_ok=True)
    if args.trace:
        import tracing
        untraced_s = statistics.median(raw_round_s)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            answers, _, traced_s = run_round(workload, tracer)
        finally:
            tracer.uninstall()
        attempted += len(answers)
        failed += sum(bool(r) or m for r, m in
                      zip(reasons, mismatches(workload, answers, reference)))
        values = {"verdicts.revalidate.self_s": getattr(workload, "revalidate_s", 0.0),
                  "trace.untraced_round_s": untraced_s,
                  "trace.traced_round_s": traced_s,
                  "trace.overhead_s": traced_s - untraced_s}
        for m in definition["per_layer"]:
            values.setdefault(m["name"], tracer.value(m["name"]))
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write_spans(spans)
        detail["spans_file"] = str(spans.relative_to(ROOT))
        detail["spans"] = len(tracer.starts)
        metric_defs = definition["per_layer"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_defs}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
