"""Traced-run command: per-layer metrics and tracing overhead per workload.

Usage (from the repository root)::

    python3 perfbench/traced.py                      # every workload, seed 1
    python3 perfbench/traced.py --workload fault-sweep --seed 3

For each workload this runs ``perfbench/run.py`` twice with the same
seed, one process after the other: untraced (``--trace 0``, the
end-to-end numbers) and traced (``--trace 1``, which writes
``perfbench/out/<workload>-<seed>.spans.jsonl``).  It prints every
per-layer metric of the traced run and the tracing overhead, the traced
run's ``wall_s`` over the untraced run's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from steady import run_once

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]

    overheads = {}
    for name in names:
        untraced = run_once(name, args.seed, bench["run_seconds"], trace=0)
        traced = run_once(name, args.seed, bench["run_seconds"], trace=1)
        with open(os.path.join(HERE, "out", f"{name}-{args.seed}.traced.json"), encoding="utf-8") as handle:
            traced_wall = json.load(handle)["wall_s"]
        overhead = traced_wall / untraced["metrics"]["wall_s"]["value"]
        overheads[name] = overhead
        print(f"== {name} (seed {args.seed}): failed {untraced['failed']}/{untraced['attempted']} "
              f"untraced, {traced['failed']}/{traced['attempted']} traced")
        for metric, entry in traced["metrics"].items():
            print(f"  {metric:58s} {entry['value']:.6g} {entry['unit']}")
        print(f"  tracing overhead (traced / untraced wall_s)             {overhead:.3f}")
    print(json.dumps({"tracing_overhead": overheads}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
