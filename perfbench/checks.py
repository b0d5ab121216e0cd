"""Output checks computed apart from the program under test.

Every check here either recomputes a property from the network's raw
edge list (reachability, per-edge message counts, port structure) or
tests a property the paper's protocols must have (disjoint labels, no
false termination).  None compares against a stored copy of earlier
output.  Each function returns a list of problem strings; an empty list
means the record (or run) passed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Protocols whose terminal eventually stops on every good network.
TERMINATING = frozenset(
    {
        "tree-broadcast",
        "dag-broadcast",
        "general-broadcast",
        "label-assignment",
        "topology-mapping",
    }
)

#: Protocols that send exactly one message per edge on their graph class.
ONE_PER_EDGE = frozenset({"tree-broadcast", "dag-broadcast"})

#: Schedulers that may lose messages (so the reliable model does not hold).
LOSSY_SCHEDULERS = frozenset({"dropping"})


# ----------------------------------------------------------------------
# graph facts from the raw edge list
# ----------------------------------------------------------------------


class GraphFacts:
    """Reachability and port facts of one network, computed from ``edges``."""

    __slots__ = ("n", "edges", "root", "terminal", "reach", "good", "live_edges")

    def __init__(self, network: Any) -> None:
        self.n = network.num_vertices
        self.edges: Tuple[Tuple[int, int], ...] = tuple(network.edges)
        self.root = network.root
        self.terminal = network.terminal
        succ: List[List[int]] = [[] for _ in range(self.n)]
        pred: List[List[int]] = [[] for _ in range(self.n)]
        for tail, head in self.edges:
            succ[tail].append(head)
            pred[head].append(tail)
        self.reach = _bfs(self.root, succ)
        coreach = _bfs(self.terminal, pred)
        #: The paper's termination condition: every vertex reaches ``t``.
        self.good = len(coreach) == self.n
        #: Edges whose tail the broadcast reaches (each forwards once).
        self.live_edges = sum(1 for tail, _ in self.edges if tail in self.reach)


def _bfs(start: int, adjacency: Sequence[Sequence[int]]) -> Set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        vertex = frontier.pop()
        for nxt in adjacency[vertex]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


# ----------------------------------------------------------------------
# record checks
# ----------------------------------------------------------------------


def reliable(spec: Any) -> bool:
    """Whether a spec runs under the paper's reliable delivery model.

    Delay and an adversarial delivery order keep every message; loss,
    crashes and churn do not.
    """
    if spec.scheduler in LOSSY_SCHEDULERS:
        return False
    faults = spec.faults
    if faults is None:
        return True
    return (
        faults.drop_probability == 0
        and not faults.crashes
        and not faults.churn
    )


def check_metrics(
    protocol: str,
    metrics: Dict[str, Any],
    terminated: bool,
    outcome: str,
    facts: Optional[GraphFacts],
    *,
    is_reliable: bool,
    stop_at_termination: bool,
) -> List[str]:
    """The per-record properties, on plain values (records or service rows)."""
    problems: List[str] = []
    steps = metrics.get("steps")
    total = metrics.get("total_messages")
    if steps != total:
        problems.append(f"steps {steps} != total_messages {total}")
    if metrics.get("bits_at_termination", 0) > metrics.get("total_bits", 0):
        problems.append("bits_at_termination > total_bits")
    if facts is None or not is_reliable:
        return problems
    if protocol in TERMINATING and outcome != "budget-exhausted":
        if terminated != facts.good:
            problems.append(
                f"terminated={terminated} but every-vertex-reaches-t={facts.good}"
            )
    if (
        protocol in ONE_PER_EDGE
        and terminated
        and not stop_at_termination
        and total != len(facts.edges)
    ):
        problems.append(f"{total} messages on {len(facts.edges)} edges")
    if protocol == "flooding":
        if terminated:
            problems.append("flooding reported termination")
        if total != facts.live_edges:
            problems.append(f"flooding sent {total}, expected {facts.live_edges}")
    return problems


def check_record(record: Any, facts: Optional[GraphFacts]) -> List[str]:
    """:func:`check_metrics` on one :class:`RunRecord`."""
    spec = record.spec
    problems = check_metrics(
        spec.protocol,
        record.metrics,
        record.terminated,
        record.outcome,
        facts,
        is_reliable=reliable(spec),
        stop_at_termination=spec.stop_at_termination,
    )
    if facts is not None and (
        record.num_vertices != facts.n or record.num_edges != len(facts.edges)
    ):
        problems.append("record graph size differs from the built network")
    return problems


def same_record(record: Any, reference: Any) -> List[str]:
    """Records equal modulo ``elapsed_seconds`` and the engine name."""
    mine = record.to_dict()
    theirs = reference.to_dict()
    for payload in (mine, theirs):
        payload.pop("elapsed_seconds", None)
        payload["spec"].pop("engine", None)
    if mine != theirs:
        keys = sorted(
            key
            for key in set(mine["metrics"]) | set(theirs["metrics"])
            if mine["metrics"].get(key) != theirs["metrics"].get(key)
        )
        return [f"differs from the async reference (metrics {keys})"]
    return []


# ----------------------------------------------------------------------
# white-box checks on live results
# ----------------------------------------------------------------------


def _dyadic(value: Any) -> Fraction:
    return Fraction(value.num, 1 << value.exp)


def labels_disjoint(labels: Dict[int, Any]) -> List[str]:
    """Labels (interval unions) pairwise disjoint, by sort-and-compare."""
    pieces: List[Tuple[Fraction, Fraction, int]] = []
    for owner, label in labels.items():
        for interval in label:
            lo, hi = _dyadic(interval.lo), _dyadic(interval.hi)
            if not lo < hi:
                return [f"vertex {owner} holds an empty interval"]
            pieces.append((lo, hi, owner))
    pieces.sort()
    for (lo_a, hi_a, a), (lo_b, _, b) in zip(pieces, pieces[1:]):
        if lo_b < hi_a and a != b:
            return [f"labels of vertices {a} and {b} overlap"]
    return []


def live_labels(states: Dict[int, Any], spec: Any, steps: int) -> Dict[int, Any]:
    """Labels of the vertices that are up at the end of a run."""
    down: Set[int] = set()
    faults = spec.faults
    if faults is not None:
        for crash in faults.crashes:
            if crash.step <= steps:
                down.add(crash.vertex)
        for churn in faults.churn:
            gone = churn.leave_step <= steps
            back = churn.rejoin_step is not None and churn.rejoin_step <= steps
            if gone and not back:
                down.add(churn.vertex)
    labels: Dict[int, Any] = {}
    for vertex, state in states.items():
        label = getattr(state, "label", None)
        if vertex in down or label is None:
            continue
        if list(label):
            labels[vertex] = label
    return labels


def reached_before_termination(
    deliveries: Iterable[Any], network: Any, termination_step: Optional[int]
) -> List[str]:
    """Every vertex received a message by the step the terminal stopped."""
    if termination_step is None:
        return []
    edges = network.edges
    reached = {network.root}
    for delivery in deliveries:
        if delivery.step <= termination_step:
            reached.add(edges[delivery.edge_id][1])
    missing = network.num_vertices - len(reached)
    if missing:
        return [f"terminated with {missing} vertices never reached (false termination)"]
    return []


def map_matches(network_map: Any, network: Any) -> List[str]:
    """Mapping output port-isomorphic to ``network``, by a root-first port walk.

    Ports are taken from the edge list's order (the model's port
    numbering).  The walk pairs each real vertex with the map identity
    reached over the same out-port sequence and fails on any mismatch of
    out-degree, head, in-port or identity reuse.
    """
    if network_map is None:
        return ["terminated without a map"]
    out_port: Dict[int, List[Tuple[int, int]]] = {v: [] for v in range(network.num_vertices)}
    in_count = [0] * network.num_vertices
    for tail, head in network.edges:
        out_port[tail].append((head, in_count[head]))
        in_count[head] += 1
    facts: Dict[Tuple[Any, int], Any] = {}
    for fact in network_map.edges:
        facts[(fact.tail, fact.tail_port)] = fact

    from repro.core.mapping import ROOT_MARKER

    ident = {network.root: ROOT_MARKER}
    owner = {ROOT_MARKER: network.root}
    frontier = [network.root]
    while frontier:
        vertex = frontier.pop()
        me = ident[vertex]
        if network_map.vertices.get(me) != len(out_port[vertex]):
            return [f"out-degree of vertex {vertex} differs in the map"]
        for port, (head, head_port) in enumerate(out_port[vertex]):
            fact = facts.get((me, port))
            if fact is None:
                return [f"map lacks out-port {port} of vertex {vertex}"]
            if fact.head_port != head_port:
                return [f"in-port of edge {vertex}:{port} differs in the map"]
            if head in ident:
                if ident[head] != fact.head:
                    return [f"edge {vertex}:{port} leads elsewhere in the map"]
                continue
            if fact.head in owner:
                return [f"map identity {fact.head!r} stands for two vertices"]
            ident[head] = fact.head
            owner[fact.head] = head
            frontier.append(head)
    if len(ident) != network.num_vertices or len(network_map.vertices) != len(ident):
        return ["map and network differ in vertex count"]
    if len(network_map.edges) != len(network.edges):
        return ["map and network differ in edge count"]
    return []
