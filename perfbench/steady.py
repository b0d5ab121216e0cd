"""Steadiness check: two sets of runs of one commit, per workload.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload seed-sweep --runs 10 --sets 2

Each run is ``perfbench/run.py --trace 0`` with its own seed (set ``s``
run ``i`` uses seed ``first + s * runs + i``), started one after another
and awaited.  For every end-to-end metric the command prints each set's
median, quartiles and quartile spread (``(q3 - q1) / median``), then
flags a metric whose spread exceeds its bound, or whose later medians
differ from the first set's by more than its bound (``setup_s`` is held
to the median rule only).  Sets whose failed share differs are flagged too.
Exits 1 when anything is flagged.
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


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One run of ``run.py`` in its own process, awaited; its result object."""
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} --trace {trace} failed ({done.returncode}): {done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set (at least 2)")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for s in range(args.sets):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            result = run_once(args.workload, seed, bench["run_seconds"])
            results.append(result)
            print(
                f"set {s} seed {seed}: attempted={result['attempted']} failed={result['failed']} "
                + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True,
            )
        sets.append(results)

    flags: List[str] = []
    summary: Dict[str, List[Dict[str, float]]] = {}
    for name, metric in bounds.items():
        stats = [quartiles([r["metrics"][name]["value"] for r in results]) for results in sets]
        summary[name] = stats
        print(
            f"{name:18s} "
            + " | ".join(
                f"set {i}: median {q['median']:.5g} q1 {q['q1']:.5g} q3 {q['q3']:.5g} "
                f"spread {q['spread']:.3f}"
                for i, q in enumerate(stats)
            )
            + f"  (bound {metric['bound']})"
        )
        for i, q in enumerate(stats):
            if name != "setup_s" and q["spread"] > metric["bound"]:
                flags.append(f"{name}: set {i} spread {q['spread']:.3f} > bound")
        for i in range(1, len(stats)):
            first, later = stats[0]["median"], stats[i]["median"]
            shift = abs(later - first) / first
            if shift > metric["bound"]:
                flags.append(f"{name}: set {i} median differs by {shift:.3f} > bound")
    shares = [
        (sum(r["failed"] for r in results), sum(r["attempted"] for r in results))
        for results in sets
    ]
    if len({failed * 1.0 / attempted for failed, attempted in shares}) > 1:
        flags.append(f"failed shares differ between sets: {shares}")
    for flag in flags:
        print(f"FLAG {flag}")
    print(json.dumps({"workload": args.workload, "flags": flags, "summary": summary}))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
