"""Interleaved A/B timing of one benchmark workload on two checkouts.

    python3 tools/abtime.py PARENT CHANGE --workload density-sweep --rounds 60

PARENT and CHANGE are repository checkouts.  The script loads each one's
``src/coarsedouble`` and ``bench/workloads.py`` into this one process, builds
the workload from the same seed on both, runs one untimed round per side and
asserts that the answers' fingerprints are equal, then alternates timed
rounds (A B, then B A, ...) and prints each side's median round time, its
quartiles, the ratio of the medians and the rounds each side won.

Back-to-back runs of one commit on a shared host can differ by more than
the change being sized; alternating rounds in one process see both sides
under the same load.  This is a sizing aid only: a performance claim still
comes from pairs of ``bench/run.py`` runs.  Standard library only.
"""

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path

# the top-level modules that a checkout's library and benchmark provide
OWN = ("coarsedouble", "workloads", "oracles")


def _own(name):
    return any(name == m or name.startswith(m + ".") for m in OWN)


class Side:
    """One checkout's modules, swapped into ``sys.modules`` while it runs, so
    that an import made inside a call finds this checkout's module."""

    def __init__(self, label, root):
        root = Path(root).resolve()
        if not (root / "src" / "coarsedouble" / "__init__.py").is_file():
            raise SystemExit(f"abtime: {root} has no src/coarsedouble")
        self.label = label
        for name in [n for n in sys.modules if _own(n)]:
            del sys.modules[name]
        paths = [str(root / "src"), str(root / "bench")]
        sys.path[:0] = paths
        try:
            self.workloads = importlib.import_module("workloads")
        finally:
            del sys.path[:len(paths)]
        lib = Path(sys.modules["coarsedouble"].__file__).resolve().parent
        if lib != root / "src" / "coarsedouble":
            raise SystemExit(f"abtime: {label} imported coarsedouble from {lib}")
        self.modules = {n: m for n, m in sys.modules.items() if _own(n)}

    def enter(self):
        for name in [n for n in sys.modules if _own(n)]:
            del sys.modules[name]
        sys.modules.update(self.modules)

    def round(self, workload):
        """The answers of one round and its wall time."""
        self.enter()
        run = workload.run
        start = time.perf_counter()
        answers = [run(q) for q in workload.deck]
        return answers, time.perf_counter() - start


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout timed as side A")
    p.add_argument("change", help="checkout timed as side B")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=60, help="timed rounds per side")
    args = p.parse_args(argv)
    if args.rounds < 2:
        raise SystemExit("abtime: --rounds must be at least 2")

    sides = [Side("A", args.parent), Side("B", args.change)]
    loads = []
    for side in sides:
        side.enter()
        if args.workload not in side.workloads.WORKLOADS:
            raise SystemExit(f"abtime: no workload {args.workload!r} in {side.label}")
        loads.append(side.workloads.WORKLOADS[args.workload](args.seed))
    prints = []
    for side, load in zip(sides, loads):
        answers, _ = side.round(load)
        prints.append([load.fingerprint(a) for a in answers])
    if prints[0] != prints[1]:
        bad = [i for i, (a, b) in enumerate(zip(*prints)) if a != b]
        raise SystemExit(f"abtime: fingerprints differ at queries {bad}")

    times = ([], [])
    for i in range(args.rounds):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for k in order:
            _, wall = sides[k].round(loads[k])
            times[k].append(wall)
    for side, ts in zip(sides, times):
        q1, q2, q3 = statistics.quantiles(ts, n=4)
        print(f"{side.label}: median {q2 * 1e3:.2f} ms per round, "
              f"quartiles {q1 * 1e3:.2f} / {q3 * 1e3:.2f} ms")
    ratio = statistics.median(times[0]) / statistics.median(times[1])
    print(f"A/B median ratio {ratio:.3f}; of {args.rounds} rounds B won "
          f"{sum(b < a for a, b in zip(*times))} and A won {sum(a < b for a, b in zip(*times))}")


if __name__ == "__main__":
    main()
