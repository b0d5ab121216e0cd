"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in
:meth:`prepare`, does one fixed round of operations per
:meth:`run_round` (the timed part) and checks every operation's output
in :meth:`check`, after timing.  An *operation* is one campaign
(``paper-campaigns``), one RunSpec (``seed-sweep``, ``fault-sweep``) or
one submission (``service-resubmit``); an operation fails when it raises
or when any check on its output finds a problem.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import checks

#: The paper's campaigns, e01–e19, run at their ``quick`` scale.
CAMPAIGNS = tuple(f"e{i:02d}" for i in range(1, 20))


@dataclass
class Op:
    """One attempted operation and what its checks need."""

    name: str
    records: int = 0
    deliveries: int = 0
    problems: List[str] = field(default_factory=list)
    payload: Any = None


class Workload:
    """Shared round/op bookkeeping; subclasses define the work."""

    name = ""
    #: Whether a round runs on the calling thread alone (so a timer
    #: signal may sample host speed inside its operations).
    single_threaded = True
    #: Wall time of one round on the reference host, per scale; a run
    #: of ``--seconds S`` does ``round(S / nominal)`` rounds (at least one).
    nominal_round_s: Dict[str, float] = {}

    def __init__(self, seed: int, scale: str, out_dir: str, tracer: Any = None) -> None:
        self.seed = seed
        self.scale = scale
        self.out_dir = out_dir
        self.tracer = tracer
        self.ops: List[Op] = []
        self._facts: Dict[Any, checks.GraphFacts] = {}
        #: Host-speed sampler (``run.HostSpeed``); rounds that are not
        #: :attr:`single_threaded` call its ``maybe_sample`` between
        #: operations.
        self.speed: Any = None

    def prepare(self) -> None:
        """Generate inputs (repeatable; each call replaces the last)."""

    def run_round(self) -> None:
        raise NotImplementedError

    def check(self, ops: List[Op], first_round: bool) -> None:
        """Attach problems to the ops whose outputs fail a check.

        Sampled white-box checks run on the first round only: every
        round repeats the same operations.
        """

    def check_round(self, ops: List[Op], first_round: bool) -> None:
        """Check one round after its timing, untraced, then drop its outputs
        (so memory does not grow with the number of rounds)."""
        if self.tracer is not None:
            self.tracer.recording = False
        try:
            self.check(ops, first_round)
        finally:
            if self.tracer is not None:
                self.tracer.recording = True
        for op in ops:
            op.payload = None

    def close(self) -> None:
        """Release what :meth:`prepare` started."""

    def context(self) -> Dict[str, Any]:
        """Client-side observations the per-layer metrics need."""
        return {}

    def _begin(self, name: str) -> Op:
        op = Op(name)
        self.ops.append(op)
        if self.tracer is not None:
            self.tracer.op = len(self.ops) - 1
        return op

    def facts(self, spec: Any) -> checks.GraphFacts:
        """Graph facts of a spec's network (built once per topology)."""
        key = (
            spec.graph,
            json.dumps(spec.graph_params, sort_keys=True),
            spec.graph_transforms,
            None if "seed" in spec.graph_params else spec.seed,
        )
        facts = self._facts.get(key)
        if facts is None:
            facts = self._facts[key] = checks.GraphFacts(spec.build_graph())
        return facts


def _record_ops(records: List[Any], ops: List[Op]) -> None:
    for op, record in zip(ops, records):
        op.records = 1
        op.deliveries = record.metrics["total_messages"]
        op.payload = record


def _check_records(workload: Workload, ops: List[Op]) -> None:
    for op in ops:
        if op.payload is not None:
            op.problems += checks.check_record(op.payload, workload.facts(op.payload.spec))


def _sample_reference(workload: Workload, ops: List[Op]) -> None:
    """Re-run one seeded pick per group on the async reference engine.

    A group is the op name before ``#``: a protocol, or a protocol and
    fault variant.  The picked op fails when its record differs.
    """
    from repro.api import execute_spec

    rng = random.Random(workload.seed ^ 0x5EED)
    groups: Dict[str, List[Op]] = {}
    for op in ops:
        if op.payload is not None:
            groups.setdefault(op.name.rsplit("#", 1)[0], []).append(op)
    for key in sorted(groups):
        op = rng.choice(groups[key])
        reference = execute_spec(dataclasses.replace(op.payload.spec, engine="async"))
        op.problems += checks.same_record(op.payload, reference)


# ----------------------------------------------------------------------
# paper-campaigns
# ----------------------------------------------------------------------


class PaperCampaigns(Workload):
    """All registered campaigns at ``quick`` scale, serial, default engine."""

    name = "paper-campaigns"
    nominal_round_s = {"full": 17.0, "tiny": 0.5}

    def prepare(self) -> None:
        from repro.api import ensure_registered

        ensure_registered()
        # The campaigns are the paper's fixed grids, run in registry
        # order: the seed chooses nothing here.
        self.names = CAMPAIGNS if self.scale == "full" else ("e01", "e06", "e11", "e14")

    def run_round(self) -> None:
        from repro.api import CampaignRunner, clear_topology_cache

        # Every round starts as cold as a fresh CLI process would.
        clear_topology_cache()
        runner = CampaignRunner(scale="quick")
        for name in self.names:
            op = self._begin(name)
            try:
                result = runner.run(name)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                op.problems.append(f"raised {type(exc).__name__}: {exc}")
                continue
            op.payload = result
            op.records = len(result.records)
            op.deliveries = sum(r.metrics["total_messages"] for r in result.records)

    def check(self, ops: List[Op], first_round: bool) -> None:
        from repro.api import execute_spec_full

        for op in ops:
            result = op.payload
            if result is None:
                continue
            for record in result.records:
                op.problems += checks.check_record(record, self.facts(record.spec))
            if not first_round or op.name not in ("e06", "e11"):
                continue
            for spec in result.specs:
                record, live, network = execute_spec_full(spec)
                if op.name == "e06":
                    labels = checks.live_labels(live.states, spec, record.metrics["steps"])
                    op.problems += checks.labels_disjoint(labels)
                elif record.terminated:
                    op.problems += checks.map_matches(live.output, network)
                else:
                    op.problems.append("mapping did not terminate")


class SpecSweep(Workload):
    """A round is one serial ``BatchRunner.run`` over ``self.specs``, a list
    of ``(group, RunSpec)``; every spec is one operation."""

    specs: List[Tuple[str, Any]] = []

    def run_round(self) -> None:
        from repro.api import BatchRunner

        ops = [self._begin(f"{key}#{i}") for i, (key, _) in enumerate(self.specs)]
        if self.tracer is not None:
            self.tracer.op = f"round-{len(self.ops) // len(self.specs)}"
        try:
            records = BatchRunner(parallel=False).run([spec for _, spec in self.specs])
        except Exception as exc:  # noqa: BLE001 - the whole round failed
            for op in ops:
                op.problems.append(f"raised {type(exc).__name__}: {exc}")
            return
        _record_ops(records, ops)


# ----------------------------------------------------------------------
# seed-sweep
# ----------------------------------------------------------------------

#: (protocol, graph family, num_internal, seeds per topology) — the
#: flat-kernel half runs as vectorized seed groups, the object-state
#: half falls back per seed to the fastpath interval kernels.
SWEEP_FLAT = (
    ("tree-broadcast", "random-grounded-tree", 100),
    ("dag-broadcast", "random-dag", 120),
    ("flooding", "random-digraph", 120),
)
SWEEP_OBJECT = (
    ("general-broadcast", "random-digraph", 16),
    ("label-assignment", "random-digraph", 16),
)
#: Pinned graph seeds: the distribution is over schedules, not graphs.
SWEEP_TOPOLOGIES = (0, 1)
SWEEP_SIZES = {"full": (256, 8), "tiny": (8, 2)}


class SeedSweep(SpecSweep):
    """Many random schedules on pinned topologies through ``BatchRunner``."""

    name = "seed-sweep"
    nominal_round_s = {"full": 1.2, "tiny": 0.25}

    def prepare(self) -> None:
        from repro.api import RunSpec

        k_flat, k_object = SWEEP_SIZES[self.scale]
        rng = random.Random(self.seed)
        specs: List[Tuple[str, Any]] = []
        for protocols, k in ((SWEEP_FLAT, k_flat), (SWEEP_OBJECT, k_object)):
            for protocol, graph, n in protocols:
                for graph_seed in SWEEP_TOPOLOGIES:
                    base = rng.randrange(1 << 30)
                    for offset in range(k):
                        spec = RunSpec(
                            graph=graph,
                            graph_params={"num_internal": n, "seed": graph_seed},
                            protocol=protocol,
                            scheduler="random",
                            engine="batch",
                            seed=base + offset,
                        )
                        specs.append((protocol, spec))
        self.specs = specs

    def check(self, ops: List[Op], first_round: bool) -> None:
        from repro.api import execute_spec_full

        _check_records(self, ops)
        if not first_round:
            return
        _sample_reference(self, ops)
        rng = random.Random(self.seed ^ 0x1ABE1)
        labeled = [op for op in ops if op.name.startswith("label-assignment#")]
        for op in rng.sample(labeled, min(2, len(labeled))):
            record, live, _ = execute_spec_full(op.payload.spec)
            op.problems += checks.labels_disjoint(
                checks.live_labels(live.states, record.spec, record.metrics["steps"])
            )


# ----------------------------------------------------------------------
# fault-sweep
# ----------------------------------------------------------------------

#: Variants that kernels decline: fault models, state bits, sampled trace.
FAULT_VARIANTS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("delay", {"faults": {"delay_probability": 0.3}}),
    ("loss", {"faults": {"drop_probability": 0.1}}),
    ("crash", {"faults": {"crashes": [{"vertex": 3, "step": 10}]}}),
    ("churn", {"faults": {"churn": [{"vertex": 3, "leave_step": 10, "rejoin_step": 60}]}}),
    ("adversary", {"faults": {"adversary": "starve-one-edge"}}),
    ("state-bits", {"track_state_bits": True}),
    ("trace", {"trace": "sample:8"}),
)
FAULT_PROTOCOLS = (
    ("general-broadcast", "random-digraph", 16),
    ("label-assignment", "random-digraph", 16),
    ("tree-broadcast", "random-grounded-tree", 60),
)
FAULT_TOPOLOGIES = {"full": (0, 1), "tiny": (0,)}
#: Specs per (protocol, topology, variant): averages the seed's draws.
FAULT_SEEDS = {"full": 3, "tiny": 1}


class FaultSweep(SpecSweep):
    """Fastpath specs that take the generic machine, one at a time."""

    name = "fault-sweep"
    nominal_round_s = {"full": 7.0, "tiny": 0.5}

    def prepare(self) -> None:
        from repro.api import RunSpec

        rng = random.Random(self.seed)
        specs: List[Tuple[str, Any]] = []
        for protocol, graph, n in FAULT_PROTOCOLS:
            for graph_seed in FAULT_TOPOLOGIES[self.scale]:
                for variant, overrides in FAULT_VARIANTS:
                    for _ in range(FAULT_SEEDS[self.scale]):
                        spec = RunSpec(
                            graph=graph,
                            graph_params={"num_internal": n, "seed": graph_seed},
                            protocol=protocol,
                            scheduler="random",
                            engine="fastpath",
                            seed=rng.randrange(1 << 30),
                            **overrides,
                        )
                        specs.append((f"{protocol}/{variant}", spec))
        self.specs = specs

    def check(self, ops: List[Op], first_round: bool) -> None:
        from repro.api import execute_spec_full

        _check_records(self, ops)
        if not first_round:
            return
        _sample_reference(self, ops)
        for op in ops:
            if op.payload is None:
                continue
            spec = op.payload.spec
            if op.name.startswith("label-assignment/churn#"):
                record, live, _ = execute_spec_full(spec)
                found = checks.labels_disjoint(
                    checks.live_labels(live.states, spec, record.metrics["steps"])
                )
            elif "/loss#" in op.name and op.payload.terminated:
                traced = dataclasses.replace(spec, engine="async", record_trace=True)
                record, live, network = execute_spec_full(traced)
                found = checks.reached_before_termination(
                    live.trace.deliveries, network, record.metrics["termination_step"]
                )
                if record.terminated != op.payload.terminated:
                    found.append("termination differs when re-run with a trace")
            else:
                continue
            op.problems += found


# ----------------------------------------------------------------------
# service-resubmit
# ----------------------------------------------------------------------

#: Inline grid campaigns: pinned graphs, one fresh scheduler-seed block each.
SERVICE_GRAPH_SEEDS = (0, 1)
SERVICE_SEEDS_PER_GRAPH = 8
SERVICE_N = 10
#: One never-seen payload, then this many warm resubmissions, per round.
SERVICE_WARM_PER_COLD = 14
SERVICE_POOL = 4


def service_campaign(name: str, first_seed: int) -> Dict[str, Any]:
    """One inline grid campaign: pinned graphs x a block of scheduler seeds."""
    return {
        "name": name,
        "base": {
            "graph": "random-digraph",
            "graph_params": {"num_internal": SERVICE_N},
            "protocol": "general-broadcast",
            "scheduler": "random",
            "engine": "fastpath",
        },
        "axes": {
            "graph_params.seed": list(SERVICE_GRAPH_SEEDS),
            "seed": list(range(first_seed, first_seed + SERVICE_SEEDS_PER_GRAPH)),
        },
        "aggregator": "records",
    }


class ServiceResubmit(Workload):
    """One closed-loop HTTP client against an in-process ``ServiceServer``."""

    name = "service-resubmit"
    single_threaded = False
    nominal_round_s = {"full": 0.5, "tiny": 0.25}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.server: Any = None
        self.warm_ms: List[float] = []
        self.cold_ms: List[float] = []
        self.http_overhead_ms: List[float] = []

    def _payload(self, index: int) -> Dict[str, Any]:
        first = self._seed_base + index * SERVICE_SEEDS_PER_GRAPH
        return {"spec": service_campaign(f"svc-{self.seed}-{index}", first)}

    def prepare(self) -> None:
        from repro.service import ExperimentService, ServiceServer
        from repro.service.server import serve_forever
        from repro.store import ResultStore

        self.close()
        self._rng = random.Random(self.seed)
        self._seed_base = self._rng.randrange(1 << 30)
        self._next = 0
        os.makedirs(self.out_dir, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.out_dir)
        self.store = ResultStore(self.store_dir)
        self.service = ExperimentService(store=self.store, parallel=False, job_workers=1)
        self.server = ServiceServer(("127.0.0.1", 0), self.service)
        self.thread = serve_forever(self.server, ready_line=False, in_thread=True)
        self.address = self.server.server_address[:2]
        #: payload index -> rows of its cold execution
        self.cold_rows: Dict[int, List[Dict[str, Any]]] = {}
        self._pool: List[int] = []
        for _ in range(SERVICE_POOL if self.scale == "full" else 1):
            warmup = self._submit_new(record=False)
            if warmup.problems:
                raise RuntimeError(f"warm-pool submission failed: {warmup.problems[0]}")

    def _request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(*self.address, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _submit(self, index: int) -> Tuple[float, Dict[str, Any], List[Dict[str, Any]]]:
        """POST, watch to the terminal state, fetch the result."""
        body = json.dumps(self._payload(index)).encode("utf-8")
        start = perf_counter()
        status, raw = self._request("POST", "/experiments", body)
        if status not in (200, 202):
            raise RuntimeError(f"submit answered {status}: {raw[:200]!r}")
        job = json.loads(raw)["job"]
        status, raw = self._request("GET", f"/experiments/{job}?watch=1")
        final = json.loads(raw.decode("utf-8").strip().splitlines()[-1])
        if final["state"] in ("pending", "running"):
            # The watch stream can close on a job that finished between
            # its last snapshot and its terminal test, without sending the
            # terminal snapshot; the job is terminal by then, so ask once.
            status, raw = self._request("GET", f"/experiments/{job}")
            final = json.loads(raw)
        if final["state"] != "completed":
            raise RuntimeError(f"job ended {final['state']}: {final.get('error')}")
        status, raw = self._request("GET", f"/experiments/{job}/result")
        if status != 200:
            raise RuntimeError(f"result answered {status}")
        result = json.loads(raw)
        latency = (perf_counter() - start) * 1000.0
        return latency, final, result["experiments"][0]["rows"]

    def _submit_new(self, record: bool = True) -> Op:
        index = self._next
        self._next += 1
        op = self._begin(f"cold#{index}") if record else Op(f"warmup#{index}")
        try:
            latency, final, rows = self._submit(index)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            op.problems.append(f"raised {type(exc).__name__}: {exc}")
            return op
        self.cold_rows[index] = rows
        self._pool.append(index)
        op.records = len(rows)
        op.deliveries = sum(row["total_messages"] for row in rows)
        op.payload = (index, final, rows, True)
        if record:
            self.cold_ms.append(latency)
            self.http_overhead_ms.append(latency - _run_ms(final))
        return op

    def run_round(self) -> None:
        self._submit_new()
        for _ in range(SERVICE_WARM_PER_COLD):
            self.speed.maybe_sample()
            index = self._rng.choice(self._pool)
            op = self._begin(f"warm#{index}")
            try:
                latency, final, rows = self._submit(index)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                op.problems.append(f"raised {type(exc).__name__}: {exc}")
                continue
            op.records = len(rows)
            op.payload = (index, final, rows, False)
            self.warm_ms.append(latency)
            self.http_overhead_ms.append(latency - _run_ms(final))

    def check(self, ops: List[Op], first_round: bool) -> None:
        from repro.api import RunSpec

        per_payload = len(SERVICE_GRAPH_SEEDS) * SERVICE_SEEDS_PER_GRAPH
        for op in ops:
            if op.payload is None:
                continue
            index, final, rows, cold = op.payload
            executed = final["summary"]["executed"]
            if cold and executed != per_payload:
                op.problems.append(f"cold job executed {executed} of {per_payload}")
            if not cold:
                if executed != 0:
                    op.problems.append(f"warm job executed {executed} runs")
                if rows != self.cold_rows.get(index):
                    op.problems.append("warm rows differ from the cold execution's rows")
            if len(rows) != per_payload:
                op.problems.append(f"{len(rows)} rows for {per_payload} runs")
                continue
            first = self._seed_base + index * SERVICE_SEEDS_PER_GRAPH
            position = 0
            for graph_seed in SERVICE_GRAPH_SEEDS:
                spec = RunSpec(
                    graph="random-digraph",
                    graph_params={"num_internal": SERVICE_N, "seed": graph_seed},
                    protocol="general-broadcast",
                )
                facts = self.facts(spec)
                for seed in range(first, first + SERVICE_SEEDS_PER_GRAPH):
                    row = rows[position]
                    position += 1
                    if row["seed"] != seed:
                        op.problems.append(f"row {position} is seed {row['seed']}, not {seed}")
                        continue
                    op.problems += checks.check_metrics(
                        "general-broadcast",
                        row,
                        row["terminated"],
                        row["outcome"],
                        facts,
                        is_reliable=True,
                        stop_at_termination=False,
                    )

    def context(self) -> Dict[str, Any]:
        return {
            "warm_ms": self.warm_ms,
            "cold_ms": self.cold_ms,
            "http_overhead_ms": self.http_overhead_ms,
        }

    def close(self) -> None:
        if self.server is None:
            return
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.service.close()
        self.store.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.server = None


def _run_ms(final: Dict[str, Any]) -> float:
    """A job's own run time (started → finished), in milliseconds."""
    return (final["finished_at"] - final["started_at"]) * 1000.0


WORKLOADS = {
    cls.name: cls for cls in (PaperCampaigns, SeedSweep, FaultSweep, ServiceResubmit)
}
