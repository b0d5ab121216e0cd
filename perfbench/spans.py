"""Span tracing around the program's public layer boundaries.

:func:`instrument` wraps the public functions of each layer — campaign,
runner, spec, engine, store, service, lower bounds — with recorders
that keep one span per call in memory: ``(id, name, parent, start, end,
operation, attrs)``.  Parents come from a per-thread stack, so a layer's
self time is its span minus the spans it directly caused.  The program's
own files are not changed: the wrappers replace module attributes and
registry entries for the life of the traced run and are removed by the
returned undo function.

:func:`layer_metrics` turns the spans into the per-layer metrics listed
in :data:`PER_LAYER`.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (path, protocol) pairs the workloads exercise; each yields a
#: ``busy_s`` and a ``deliveries_per_s`` metric.
ENGINE_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("async", "tree-broadcast"),
    ("async", "dag-broadcast"),
    ("async", "general-broadcast"),
    ("async", "label-assignment"),
    ("async", "topology-mapping"),
    ("async", "naive-tree-broadcast"),
    ("async", "eager-dag-broadcast"),
    ("async", "flooding"),
    ("synchronous", "tree-broadcast"),
    ("synchronous", "dag-broadcast"),
    ("synchronous", "general-broadcast"),
    ("fastpath.kernel", "general-broadcast"),
    ("fastpath.kernel", "label-assignment"),
    ("fastpath.generic", "general-broadcast"),
    ("fastpath.generic", "label-assignment"),
    ("fastpath.generic", "tree-broadcast"),
    ("batch", "tree-broadcast"),
    ("batch", "dag-broadcast"),
    ("batch", "flooding"),
    # Groups without a batch kernel: run_many's own cost before the
    # per-seed fallback (their deliveries are counted on fastpath).
    ("batch", "general-broadcast"),
    ("batch", "label-assignment"),
)

#: name -> (unit, better); the order is the printing order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "campaign.expand_s": ("s", "lower"),
    "campaign.aggregate_s": ("s", "lower"),
    "campaign.driver_s": ("s", "lower"),
    "runner.self_s": ("s", "lower"),
    "runner.batched_run_ratio": ("ratio", "higher"),
    "runner.fallback_runs": ("count", "lower"),
    "spec.topology_s": ("s", "lower"),
    "spec.topology_hit_ratio": ("ratio", "higher"),
    "spec.record_s": ("s", "lower"),
    "spec.spec_id_per_record": ("count", "lower"),
    "engine.async.busy_s": ("s", "lower"),
    "engine.async.deliveries_per_s": ("1/s", "higher"),
    "engine.synchronous.busy_s": ("s", "lower"),
    "engine.fastpath.kernel.busy_s": ("s", "lower"),
    "engine.fastpath.kernel.deliveries_per_s": ("1/s", "higher"),
    "engine.fastpath.generic.busy_s": ("s", "lower"),
    "engine.fastpath.generic.deliveries_per_s": ("1/s", "higher"),
    "engine.batch.busy_s": ("s", "lower"),
    "engine.batch.deliveries_per_s": ("1/s", "higher"),
}
for _path, _protocol in ENGINE_PAIRS:
    PER_LAYER[f"engine.{_path}.{_protocol}.busy_s"] = ("s", "lower")
    PER_LAYER[f"engine.{_path}.{_protocol}.deliveries_per_s"] = ("1/s", "higher")
PER_LAYER.update(
    {
        "tracing.overhead_ratio": ("ratio", "lower"),
        "store.get_s": ("s", "lower"),
        "store.records_read_per_s": ("1/s", "higher"),
        "store.put_s": ("s", "lower"),
        "store.records_written_per_s": ("1/s", "higher"),
        "store.contains_s": ("s", "lower"),
        "store.hit_ratio": ("ratio", "higher"),
        "service.submit_p50_ms": ("ms", "lower"),
        "service.queue_wait_p50_ms": ("ms", "lower"),
        "service.warm_p50_ms": ("ms", "lower"),
        "service.warm_p90_ms": ("ms", "lower"),
        "service.cold_p50_ms": ("ms", "lower"),
        "service.http_overhead_p50_ms": ("ms", "lower"),
        "lowerbounds.search_s": ("s", "lower"),
        "lowerbounds.search_nodes_per_s": ("1/s", "higher"),
        "lowerbounds.explore_s": ("s", "lower"),
    }
)


class Tracer:
    """In-memory span recorder shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, Optional[int], float, float, Any, Any]] = []
        #: Operation id stamped on spans; the workload sets it per operation.
        self.op: Any = None
        #: Off while the benchmark checks outputs: its own calls into the
        #: program are not the workload's.
        self.recording = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        attrs: Optional[Callable[[tuple, dict, Any], Any]] = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.recording:
                return fn(*args, **kwargs)
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, name, parent, start, perf_counter(), self.op, None))
                raise
            end = perf_counter()
            stack.pop()
            spans.append(
                (sid, name, parent, start, end, self.op, attrs(args, kwargs, out) if attrs else None)
            )
            return out

        return traced

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (called once, at the end of a run)."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, parent, start, end, op, attrs in self.spans:
                if attrs is not None:
                    attrs = {k: v for k, v in attrs.items() if k != "job"}
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "parent": parent,
                            "start": start,
                            "end": end,
                            "op": op,
                            "attrs": attrs,
                        },
                        default=str,
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------


def _engine_path(engine: str, spec: Any) -> str:
    if engine in ("fastpath", "batch"):
        generic = (
            spec.faults is not None
            or spec.track_state_bits
            or spec.trace is not None
            or spec.record_trace
        )
        return "fastpath.generic" if generic else "fastpath.kernel"
    return engine


def _len_or_none(value: Any) -> Optional[int]:
    try:
        return len(value)
    except TypeError:
        return None


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Install span wrappers at every layer boundary; return the undo."""
    import repro.analysis.experiments as experiments
    import repro.api.campaign as campaign
    import repro.api.runner as runner
    import repro.api.spec as spec_mod
    import repro.lowerbounds.certificates as certificates
    import repro.lowerbounds.guided as guided
    import repro.network.batchpath as batchpath
    from repro.api import AGGREGATORS, ENGINES, GRAPHS, ensure_registered
    from repro.api.campaign import CampaignRunner, DriverExperiment, ExperimentSpec
    from repro.service.jobs import ExperimentService
    from repro.store.store import ResultStore

    ensure_registered()
    undo: List[Callable[[], None]] = []

    def patch(owner: Any, attr: str, name: str, attrs: Any = None) -> None:
        original = getattr(owner, attr) if not isinstance(owner, dict) else owner[attr]
        wrapped = tracer.wrap(name, original, attrs)
        if isinstance(owner, dict):
            owner[attr] = wrapped
            undo.append(lambda: owner.__setitem__(attr, original))
        else:
            setattr(owner, attr, wrapped)
            undo.append(lambda: setattr(owner, attr, original))

    # campaign layer
    patch(
        CampaignRunner,
        "run",
        "campaign.run",
        lambda a, k, out: {"driver": isinstance(out.experiment, DriverExperiment)},
    )
    patch(ExperimentSpec, "expand", "campaign.expand")
    for name in AGGREGATORS.names():
        patch(AGGREGATORS._factories, name, "campaign.aggregate")

    # runner layer and the places it binds the spec executors
    patch(runner.BatchRunner, "run", "runner.run")
    patch(runner, "execute_spec", "spec.execute")
    patch(batchpath, "execute_spec", "spec.execute")
    patch(campaign, "execute_spec_full", "spec.execute")

    # spec layer: topology builds, compilation, identity hashing
    for name in GRAPHS.names():
        patch(GRAPHS._factories, name, "spec.topology")
    patch(spec_mod, "compiled_topology", "spec.topology")
    patch(batchpath, "compiled_topology", "spec.topology")
    spec_id = spec_mod.RunSpec.__dict__["spec_id"]
    spec_mod.RunSpec.spec_id = property(tracer.wrap("spec.spec_id", spec_id.fget))
    undo.append(lambda: setattr(spec_mod.RunSpec, "spec_id", spec_id))

    # engines
    for engine in ENGINES.names():
        info = ENGINES.get(engine)

        def one_attrs(a: tuple, k: dict, out: Any, engine: str = engine) -> Dict[str, Any]:
            spec = a[0]
            return {
                "path": _engine_path(engine, spec),
                "protocol": spec.protocol,
                "deliveries": out[0].metrics.total_messages,
                "traced": spec.trace is not None,
            }

        def many_attrs(a: tuple, k: dict, out: Any) -> Dict[str, Any]:
            return {
                "protocol": a[0].protocol,
                "runs": len(out),
                "deliveries": sum(r.metrics["total_messages"] for r in out),
            }

        replaced = dataclasses.replace(
            info,
            run_one=tracer.wrap("engine.run_one", info.run_one, one_attrs),
            run_many=(
                tracer.wrap("engine.run_many", info.run_many, many_attrs)
                if info.run_many is not None
                else None
            ),
        )
        ENGINES._factories[engine] = replaced
        undo.append(lambda engine=engine, info=info: ENGINES._factories.__setitem__(engine, info))

    # store
    patch(
        ResultStore,
        "get_many",
        "store.get_many",
        lambda a, k, out: {"requested": _len_or_none(a[1]), "returned": len(out)},
    )
    patch(ResultStore, "put_many", "store.put_many", lambda a, k, out: {"written": out})
    patch(ResultStore, "contains_many", "store.contains")
    patch(ResultStore, "contains_many_keys", "store.contains")

    # service
    patch(ExperimentService, "submit", "service.submit", lambda a, k, out: {"job": out[0]})

    # lower bounds
    nodes = lambda a, k, out: {"nodes": out.nodes}  # noqa: E731
    patch(certificates, "search_spec_schedules", "lowerbounds.search", nodes)
    patch(guided, "search_spec_schedules", "lowerbounds.search", nodes)
    patch(experiments, "explore_all_schedules", "lowerbounds.explore")

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _batch_ancestor(by_id: Dict[int, Tuple], sid: int) -> Optional[int]:
    """The id of the ``run_many`` span enclosing span ``sid``, if any."""
    parent = by_id[sid][2]
    while parent is not None:
        span = by_id[parent]
        if span[1] == "engine.run_many":
            return parent
        parent = span[2]
    return None


def layer_metrics(spans: List[Tuple], context: Dict[str, Any]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run's spans.

    ``context`` carries what the workload observed around the spans:
    ``records`` (records returned), ``topology_hits`` /
    ``topology_misses`` (cache deltas), and for the service the client's
    ``warm_ms`` / ``cold_ms`` latencies and ``http_overhead_ms`` per
    request.  Metrics a workload does not exercise read 0.  Engine pairs
    seen in the spans but missing from :data:`ENGINE_PAIRS` are listed
    in ``context["unlisted_pairs"]``.
    """
    by_id = {s[0]: s for s in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for sid, _name, parent, start, end, _op, _attrs in spans:
        if parent is not None:
            child_time[parent] += end - start

    total: Dict[str, float] = defaultdict(float)
    busy: Dict[str, float] = defaultdict(float)
    deliveries: Dict[str, float] = defaultdict(float)
    spec_ids = 0
    single_runs = fallback_runs = vectorized_runs = 0
    store_requested = store_returned = store_written = 0
    submit_ms: List[float] = []
    queue_ms: List[float] = []
    traced = [0.0, 0.0]  # generic-machine busy seconds, deliveries
    untraced = [0.0, 0.0]
    search_nodes = 0
    # Per-seed fallback runs inside each run_many: (runs, deliveries).
    nested: Dict[int, List[float]] = defaultdict(lambda: [0, 0.0])

    for sid, name, parent, start, end, _op, attrs in spans:
        own = (end - start) - child_time.get(sid, 0.0)
        if name == "spec.spec_id":
            spec_ids += 1
            continue
        if name == "campaign.run":
            if attrs and attrs["driver"]:
                total["campaign.driver"] += own
            continue
        if attrs is None and name.startswith("engine."):
            continue  # the call raised; nothing was delivered
        if name == "engine.run_one":
            path, protocol = attrs["path"], attrs["protocol"]
            single_runs += 1
            batch = _batch_ancestor(by_id, sid)
            if batch is not None:
                fallback_runs += 1
                nested[batch][0] += 1
                nested[batch][1] += attrs["deliveries"]
            for key in (path, f"{path}.{protocol}"):
                busy[key] += own
                deliveries[key] += attrs["deliveries"]
            if path == "fastpath.generic":
                bucket = traced if attrs["traced"] else untraced
                bucket[0] += own
                bucket[1] += attrs["deliveries"]
            continue
        if name == "engine.run_many":
            for key in ("batch", f"batch.{attrs['protocol']}"):
                busy[key] += own
            continue
        total[name] += own
        if name == "store.get_many" and attrs is not None:
            store_requested += attrs["requested"] or 0
            store_returned += attrs["returned"]
        elif name == "store.put_many" and attrs is not None:
            store_written += attrs["written"]
        elif name == "service.submit":
            submit_ms.append((end - start) * 1000.0)
            job = attrs["job"] if attrs else None
            if job is not None and job.started_at is not None:
                queue_ms.append((job.started_at - job.created_at) * 1000.0)
        elif name == "lowerbounds.search" and attrs is not None:
            search_nodes += attrs["nodes"]

    # Vectorized deliveries: what run_many returned minus its fallbacks.
    for sid, name, _parent, _start, _end, _op, attrs in spans:
        if name == "engine.run_many" and attrs is not None:
            runs, delivered = nested.get(sid, (0, 0.0))
            vectorized_runs += attrs["runs"] - runs
            for key in ("batch", f"batch.{attrs['protocol']}"):
                deliveries[key] += attrs["deliveries"] - delivered

    records = context.get("records", 0)
    hits = context.get("topology_hits", 0)
    misses = context.get("topology_misses", 0)
    warm = sorted(context.get("warm_ms", []))
    out: Dict[str, float] = {
        "campaign.expand_s": total["campaign.expand"],
        "campaign.aggregate_s": total["campaign.aggregate"],
        "campaign.driver_s": total["campaign.driver"],
        "runner.self_s": total["runner.run"],
        "runner.batched_run_ratio": _ratio(vectorized_runs, vectorized_runs + single_runs),
        "runner.fallback_runs": float(fallback_runs),
        "spec.topology_s": total["spec.topology"],
        "spec.topology_hit_ratio": _ratio(hits, hits + misses),
        "spec.record_s": total["spec.execute"],
        "spec.spec_id_per_record": _ratio(spec_ids, records),
        "engine.synchronous.busy_s": busy["synchronous"],
        "tracing.overhead_ratio": _ratio(
            _ratio(traced[0], traced[1]), _ratio(untraced[0], untraced[1])
        ),
        "store.get_s": total["store.get_many"],
        "store.records_read_per_s": _ratio(store_returned, total["store.get_many"]),
        "store.put_s": total["store.put_many"],
        "store.records_written_per_s": _ratio(store_written, total["store.put_many"]),
        "store.contains_s": total["store.contains"],
        "store.hit_ratio": _ratio(store_returned, store_requested),
        "service.submit_p50_ms": _p50(submit_ms),
        "service.queue_wait_p50_ms": _p50(queue_ms),
        "service.warm_p50_ms": _p50(warm),
        # A p90 only where at least ten samples lie beyond it.
        "service.warm_p90_ms": warm[int(0.9 * len(warm))] if len(warm) >= 100 else 0.0,
        "service.cold_p50_ms": _p50(context.get("cold_ms", [])),
        "service.http_overhead_p50_ms": _p50(context.get("http_overhead_ms", [])),
        "lowerbounds.search_s": total["lowerbounds.search"],
        "lowerbounds.search_nodes_per_s": _ratio(search_nodes, total["lowerbounds.search"]),
        "lowerbounds.explore_s": total["lowerbounds.explore"],
    }
    listed = {f"{path}.{protocol}" for path, protocol in ENGINE_PAIRS}
    for key in ["async", "fastpath.kernel", "fastpath.generic", "batch"] + sorted(listed):
        out[f"engine.{key}.busy_s"] = busy[key]
        out[f"engine.{key}.deliveries_per_s"] = _ratio(deliveries[key], busy[key])
    paths = {"async", "synchronous", "fastpath.kernel", "fastpath.generic", "batch"}
    context["unlisted_pairs"] = sorted(set(busy) - listed - paths)
    return {name: float(out[name]) for name in PER_LAYER}
