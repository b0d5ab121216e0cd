"""Self-test of the benchmark at a tiny scale.

Usage (from the repository root)::

    python3 perfbench/selftest.py

For every workload it runs a tiny untraced run (every check on, zero
failed operations expected), a tiny traced run (every per-layer metric
of ``BENCHMARK.json`` reported), and a tiny run in which one record or
service row is deliberately corrupted after timing, which must be
counted as a failed operation.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run as bench_run

HERE = os.path.dirname(os.path.abspath(__file__))


def _bump(record, key):
    metrics = dict(record.metrics)
    metrics[key] += 1
    return dataclasses.replace(record, metrics=metrics)


def corrupt_paper(workload):
    op = next(op for op in workload.ops if op.payload is not None and op.payload.records)
    op.payload.records[0] = _bump(op.payload.records[0], "steps")
    return op


def corrupt_record(workload):
    op = workload.ops[0]
    op.payload = _bump(op.payload, "total_messages")
    return op


def corrupt_row(workload):
    op = next(op for op in workload.ops if op.name.startswith("warm#") and op.payload)
    index, final, rows, cold = op.payload
    rows = [dict(row) for row in rows]
    rows[0]["total_bits"] += 1
    op.payload = (index, final, rows, cold)
    return op


CORRUPTIONS = {
    "paper-campaigns": corrupt_paper,
    "seed-sweep": corrupt_record,
    "fault-sweep": corrupt_record,
    "service-resubmit": corrupt_row,
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"SELFTEST FAILED: {message}")
        raise SystemExit(1)
    print(f"ok  {message}")


def tiny(workload: str, trace: int = 0, corrupt=None) -> dict:
    args = bench_run.parse_args(
        ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"]
    )
    return bench_run.run(args, corrupt=corrupt)


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(
        [w["name"] for w in bench["workloads"]] == list(CORRUPTIONS),
        "BENCHMARK.json names the four workloads",
    )
    for workload, corrupter in CORRUPTIONS.items():
        result = tiny(workload)
        expect(
            result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
            f"{workload}: {result['attempted']} operations, none failed",
        )
        expect(
            {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
            and all(v["value"] > 0 for v in result["metrics"].values()),
            f"{workload}: every end-to-end metric reported, none zero",
        )
        traced = tiny(workload, trace=1)
        expect(
            {k: v["unit"] for k, v in traced["metrics"].items()} == per_layer,
            f"{workload}: traced run reports every per-layer metric",
        )
        hit = {}

        def corrupt(w, corrupter=corrupter):
            hit["op"] = corrupter(w)
            hit["workload"] = w

        damaged = tiny(workload, corrupt=corrupt)
        op = hit["op"]
        failed_ops = [o for o in hit["workload"].ops if o.problems]
        expect(
            bool(op.problems) and not damaged["correct"] and damaged["failed"] >= 1,
            f"{workload}: corrupted {op.name} counted as failed ({op.problems[0] if op.problems else '-'})",
        )
        if workload in ("seed-sweep", "fault-sweep"):
            # Later rounds of the corrupted spec may fail the reference
            # comparison too; no other spec may fail.
            expect(
                {o.name for o in failed_ops} == {op.name},
                f"{workload}: only the corrupted spec's operations failed",
            )
        else:
            expect(damaged["failed"] == 1, f"{workload}: exactly one operation failed")
    print("SELFTEST OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
