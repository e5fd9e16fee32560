"""Measure the benchmark's baseline and its run-to-run spread.

Runs every workload of BENCHMARK.json once per seed 1 to 10 without
tracing, once on the held-out seed, and once traced on seed 1, one run at a
time.  For each end-to-end metric it records the ten values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median.  The result
goes to ``bench/baseline.json``, written afresh:

    python3 bench/baseline.py
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import HELD_OUT_SEED  # noqa: E402

SEEDS = list(range(1, 11))


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {"run_seconds": definition["run_seconds"], "seeds": SEEDS,
           "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for workload in (w["name"] for w in definition["workloads"]):
        values, details, failures = {}, [], 0
        for seed in SEEDS:
            detail, result = run(workload, seed, 0)
            details.append(detail)
            failures += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, json.dumps({k: round(v[-1], 5) for k, v in values.items()}),
                  flush=True)
        _, held_out = run(workload, HELD_OUT_SEED, 0)
        _, traced = run(workload, SEEDS[0], 1)
        entry = {
            "end_to_end": {name: summarize(v) for name, v in values.items()},
            "failed": failures,
            "samples": [d["samples"] for d in details],
            "tail_percentile": [d["tail_percentile"] for d in details],
            "rounds": [d["rounds"] for d in details],
            "environment": details[0]["environment"],
            "held_out": {k: held_out[k] for k in ("correct", "attempted", "failed")},
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        doc["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"  {workload:14s} {name:16s} median={s['median']:.5g} "
                  f"spread={s['spread']:.3f}", flush=True)
    (BENCH / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
