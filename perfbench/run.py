"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload seed-sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, computed from spans
recorded around the program's layer boundaries; the spans are written
to ``perfbench/out/<workload>-<seed>.spans.jsonl`` and the traced
round times to ``perfbench/out/<workload>-<seed>.traced.json``.  The
program is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import sys
from fractions import Fraction
from time import perf_counter

START = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Set-ups per run; ``setup_s`` reports the import time plus their median.
SETUP_REPEATS = 3


class HostSpeed:
    """How fast this host runs allocation-heavy Python right now.

    The benchmark shares its machine, whose speed drifts by tens of
    percent over tens of seconds.  A fixed piece of the benchmark's own
    code — dict, tuple and Fraction allocation plus a sort, the mix the
    simulator's hot loops are made of — is timed about every
    :data:`EVERY_S` seconds of timed work: from a wall-clock timer signal
    in single-threaded rounds (so long operations are sampled inside),
    between operations otherwise.  :meth:`factor` scales the run's times
    to a host that runs a sample in :data:`REFERENCE_S`; :attr:`paused`
    is the time the samples took, which the round's time leaves out.
    """

    #: Typical sample time on the machine the bounds were set on.
    REFERENCE_S = 0.045
    EVERY_S = 0.5

    def __init__(self) -> None:
        self.samples: list = []
        self.paused = 0.0
        self._last = perf_counter()

    def sample(self) -> None:
        start = perf_counter()
        # With the collector off, a sample does not depend on how many
        # objects the program under test keeps alive.
        collecting = gc.isenabled()
        gc.disable()
        try:
            table = {}
            for i in range(4000):
                table[(i % 977, i % 13)] = [Fraction((i * 7919) % 64 + 1, 64), i, {"i": i}]
            sorted(table.items(), key=lambda item: item[1][0])
            self.samples.append(perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
        self._last = perf_counter()
        self.paused += self._last - start

    def maybe_sample(self) -> None:
        """Sample if :data:`EVERY_S` has passed since the last sample."""
        if perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    @contextlib.contextmanager
    def timer(self):
        """Sample from a ``SIGALRM`` timer while the block runs (main thread)."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """Reference sample time over the run's typical sample time.

        Typical is the mean of the middle 80% of samples: the host's
        speed is integrated like the workload's own time, without the
        rare sample a preemption stretched.
        """
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        middle = ordered[cut : len(ordered) - cut]
        return self.REFERENCE_S / statistics.fmean(middle)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: the self-test size"
    )
    return parser.parse_args(argv)


def import_program() -> None:
    """Put ``src/`` on the path and import the program (exit 2 if absent)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(f"perfbench: no program sources under {src}\n")
        raise SystemExit(2)
    sys.path.insert(0, src)
    from repro.api import ensure_registered

    ensure_registered()


def measure(workload, seconds: float, speed: HostSpeed, corrupt=None):
    """Time a fixed number of whole rounds; check each one after its timing.

    The round count is ``seconds`` over the workload's nominal round
    time (at least one), so every run with the same ``--seconds`` does
    the same work.  Returns the per-round wall times, less the
    host-speed samples taken inside them.  ``corrupt`` (self-test only)
    may damage the first round's outputs before they are checked.
    """
    count = max(1, round(seconds / workload.nominal_round_s[workload.scale]))
    rounds = []
    speed.sample()
    for index in range(count):
        first, taken = len(workload.ops), len(speed.samples)
        speed.paused = 0.0
        start = perf_counter()
        with speed.timer() if workload.single_threaded else contextlib.nullcontext():
            workload.run_round()
        rounds.append(perf_counter() - start - speed.paused)
        if len(speed.samples) == taken:
            speed.sample()
        if corrupt is not None and index == 0:
            corrupt(workload)
        workload.check_round(workload.ops[first:], first_round=index == 0)
    return rounds


def run(args: argparse.Namespace, corrupt=None) -> dict:
    """One benchmark run; returns the result object printed last."""
    import_program()
    imported = perf_counter() - START

    from repro.api import topology_cache_stats

    import workloads
    import spans

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(workloads.WORKLOADS)}\n"
        )
        raise SystemExit(2)
    tracer = spans.Tracer() if args.trace else None
    speed = HostSpeed()
    if tracer is not None:
        # A span of its own keeps the samples out of the self time of the
        # layer whose progress callback takes them.
        speed.sample = tracer.wrap("bench.host_speed", speed.sample)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, OUT_DIR, tracer)
    workload.speed = speed
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.prepare()
            setups.append(perf_counter() - start)
        restore = spans.instrument(tracer) if tracer is not None else None
        try:
            cache_before = topology_cache_stats()
            rounds = measure(workload, args.seconds, speed, corrupt)
            cache_after = topology_cache_stats()
        finally:
            if restore is not None:
                restore()
        context = workload.context()
    finally:
        workload.close()

    ops = workload.ops
    timed = sum(rounds)
    records = sum(op.records for op in ops)
    failed = sum(1 for op in ops if op.problems)
    for op in ops:
        if op.problems:
            sys.stderr.write(f"FAILED {op.name}: {'; '.join(op.problems[:3])}\n")
    if tracer is not None:
        context.update(
            records=records,
            topology_hits=cache_after.hits - cache_before.hits,
            topology_misses=cache_after.misses - cache_before.misses,
        )
        values = spans.layer_metrics(tracer.spans, context)
        if context.get("unlisted_pairs"):
            sys.stderr.write(f"perfbench: unlisted engine pairs {context['unlisted_pairs']}\n")
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}")
        tracer.write(f"{stem}.spans.jsonl")
        with open(f"{stem}.traced.json", "w", encoding="utf-8") as handle:
            json.dump(
                {"wall_s": timed / len(rounds) * speed.factor(), "rounds": rounds, "layers": values},
                handle,
            )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in spans.PER_LAYER.items()
        }
    else:
        executed = sum(op.deliveries for op in ops)
        factor = speed.factor()
        metrics = {
            "setup_s": {"value": (imported + statistics.median(setups)) * factor, "unit": "s"},
            "wall_s": {"value": timed / len(rounds) * factor, "unit": "s"},
            "runs_per_s": {"value": records / (timed * factor), "unit": "1/s"},
            "deliveries_per_s": {"value": executed / (timed * factor), "unit": "1/s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    sys.stderr.write(
        f"perfbench: {args.workload} seed={args.seed} rounds={len(rounds)} "
        f"round_s={[round(r, 3) for r in rounds]} host_factor={speed.factor():.3f} "
        f"host_samples={len(speed.samples)}\n"
    )
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
