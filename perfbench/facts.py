"""Re-measure the reference facts quoted in ``perfbench/README.md``.

Usage (from the repository root)::

    python3 perfbench/facts.py

Prints, one JSON object per fact:

* ``e16_share`` — e16's share of the serial ``paper-campaigns`` round;
* ``generic_vs_async`` — label-assignment with delay faults (16 seeds,
  n=24, delay 0.3) on fastpath's generic machine vs the async engine;
* ``warm_spec_id`` — ``RunSpec.spec_id`` evaluations per record of a
  warm resubmission and their share of its profile;
* ``batch_vs_fastpath`` — the flat-kernel seed-sweep slice at K=256,
  vectorized ``batch`` vs per-seed ``fastpath``.

Timings are single in-process measurements on whatever machine runs
this; they are reference points, not gates.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.api import (  # noqa: E402
    BatchRunner,
    CampaignRunner,
    ExperimentSpec,
    RunSpec,
    clear_topology_cache,
    ensure_registered,
)

import spans  # noqa: E402
import workloads  # noqa: E402


def e16_share() -> dict:
    clear_topology_cache()
    runner = CampaignRunner(scale="quick")
    times = {}
    for name in workloads.CAMPAIGNS:
        start = perf_counter()
        runner.run(name)
        times[name] = perf_counter() - start
    total = sum(times.values())
    return {"e16_s": times["e16"], "round_s": total, "e16_share": times["e16"] / total}


def _timed_batch(specs) -> float:
    start = perf_counter()
    BatchRunner(parallel=False).run(specs)
    return perf_counter() - start


def generic_vs_async() -> dict:
    def specs(engine):
        return [
            RunSpec(
                graph="random-digraph",
                graph_params={"num_internal": 24},
                protocol="label-assignment",
                scheduler="random",
                engine=engine,
                seed=seed,
                faults={"delay_probability": 0.3},
            )
            for seed in range(16)
        ]

    clear_topology_cache()
    # Alternated three times: the host's speed drifts between runs.
    generic, reference = [], []
    for _ in range(3):
        generic.append(_timed_batch(specs("fastpath")))
        reference.append(_timed_batch(specs("async")))
    generic_s, async_s = statistics.median(generic), statistics.median(reference)
    return {"generic_s": generic_s, "async_s": async_s, "generic_over_async": generic_s / async_s}


def warm_spec_id() -> dict:
    from repro.store import ResultStore

    campaign = ExperimentSpec.from_dict(workloads.service_campaign("facts", 1000))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    root = tempfile.mkdtemp(prefix="facts-store-", dir=os.path.join(HERE, "out"))
    try:
        store = ResultStore(root)
        CampaignRunner(store=store).run(campaign)  # cold: fills the store
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
        try:
            result = CampaignRunner(store=store).run(campaign)
        finally:
            restore()
        calls = sum(1 for span in tracer.spans if span[1] == "spec.spec_id")
        start = perf_counter()
        for _ in range(20):
            CampaignRunner(store=store).run(campaign)
        warm_s = (perf_counter() - start) / 20
        spec = result.records[0].spec
        start = perf_counter()
        for _ in range(2000):
            spec.spec_id
        per_call_s = (perf_counter() - start) / 2000
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(20):
            CampaignRunner(store=store).run(campaign)
        profile.disable()
        store.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    stats = pstats.Stats(profile)
    total = stats.total_tt
    spec_id = sum(
        entry[3]
        for func, entry in stats.stats.items()
        if func[2] == "spec_id" and func[0].endswith("spec.py")
    )
    return {
        "records": len(result.records),
        "executed": result.stats.executed,
        "spec_id_per_record": calls / len(result.records),
        "warm_run_s": warm_s,
        "spec_id_call_s": per_call_s,
        # Calls times the cost of one call, over the warm run, unprofiled.
        "spec_id_share": calls * per_call_s / warm_s,
        # cumulative spec_id time over total, under cProfile (which adds
        # cost per Python call, so this share reads high)
        "spec_id_profile_share": spec_id / total,
    }


def batch_vs_fastpath() -> dict:
    ratios = {}
    for protocol, graph, n in workloads.SWEEP_FLAT:
        def specs(engine):
            return [
                RunSpec(
                    graph=graph,
                    graph_params={"num_internal": n, "seed": 0},
                    protocol=protocol,
                    scheduler="random",
                    engine=engine,
                    seed=seed,
                )
                for seed in range(256)
            ]

        _timed_batch(specs("batch")[:8])  # build and compile the topology once
        batch = _timed_batch(specs("batch"))
        fastpath = _timed_batch(specs("fastpath"))
        ratios[protocol] = {"batch_s": batch, "fastpath_s": fastpath, "speedup": fastpath / batch}
    return ratios


def main() -> int:
    ensure_registered()
    for name, fact in (
        ("e16_share", e16_share),
        ("generic_vs_async", generic_vs_async),
        ("warm_spec_id", warm_spec_id),
        ("batch_vs_fastpath", batch_vs_fastpath),
    ):
        print(json.dumps({name: fact()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
