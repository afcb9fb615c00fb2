"""Steadiness self-check: is the benchmark steady enough to gate a change?

    python3 perfbench/selfcheck.py                       # every workload, 5 seeds
    python3 perfbench/selfcheck.py --workloads cold-corpus --seeds 10

Runs ``run.py`` once per seed on each workload and prints, for every
end-to-end metric, the median, the quartiles and the spread (interquartile
range over median) against the metric's bound in ``BENCHMARK.json``.  A
spread wider than the bound is flagged; one under a third of it is marked
steady.  Then, per workload, two traced runs with the same seed must report
identical per-layer counts (procedures, constraints, SCCs solved, cone sizes,
reply bytes, chunks).  Exits 1 when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: per-layer metrics that count work and must repeat exactly for a seed.
EXACT_COUNTS = [
    "typegen.constraints",
    "core.sccs_solved",
    "service.cone_procedures",
    "service.solved_procedures",
    "service.regen_waste_ratio",
    "server.reply_bytes",
    "procpool.chunks_dispatched",
]


def run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, float]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: wrong answers")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread_report(workload: str, samples: List[Dict[str, float]], spec: List[dict]) -> bool:
    ok = True
    print(f"\n{workload}: {len(samples)} runs")
    print(f"  {'metric':<24} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for metric in spec:
        name, bound = metric["name"], metric["bound"]
        values = [sample[name] for sample in samples]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        if name == "setup_s":
            mark = "(spread not gated)"
        elif spread > bound:
            mark, ok = "WIDER THAN BOUND", False
        elif spread < bound / 3:
            mark = "steady"
        else:
            mark = "within bound"
        print(f"  {name:<24} {median:>11.5g} {q1:>11.5g} {q3:>11.5g} {spread:>7.3f} {bound:>6.2f}  {mark}")
    return ok


def counts_report(workload: str, seed: int, seconds: int) -> bool:
    first = run(workload, seed, seconds, 1)
    second = run(workload, seed, seconds, 1)
    drift = {k: (first[k], second[k]) for k in EXACT_COUNTS if first[k] != second[k]}
    print(f"{workload}: per-layer counts for seed {seed} "
          + ("repeat exactly" if not drift else f"DRIFT {drift}"))
    return not drift


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--no-counts", action="store_true")
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads:
        samples = [
            run(workload, seed, args.seconds, 0)
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        ok &= spread_report(workload, samples, bench["end_to_end"])
    if not args.no_counts:
        print()
        for workload in args.workloads:
            ok &= counts_report(workload, args.first_seed, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
