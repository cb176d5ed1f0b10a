"""One serving report for every run: single node, cluster and live.

The paper weighs one SN40L node against scale-out CoE serving on the
same numbers (Section III-B), so every serving path reports through the
same schema. :class:`ServingEngine.run
<repro.coe.engine.ServingEngine.run>`, :meth:`ClusterEngine.serve
<repro.coe.cluster_engine.ClusterEngine.serve>` and
:meth:`LiveEngine.aserve <repro.coe.live_engine.LiveEngine.aserve>`
each call :func:`build_report` once, with their nodes'
:class:`~repro.coe.node.NodeState`\\ s, the run's
:class:`~repro.obs.Timeline` and the tallies only the engine keeps.
Everything a node's state or the timeline holds — latency percentiles,
completed work, cache hit rate, per-node busy and switch time,
availability — is computed here, once, the same way for every mode.

Every run has one :class:`NodeSummary` row per node (a single node has
one, named ``node0``), and :meth:`ServeReport.to_dict` emits every field
in every mode. A field a mode cannot produce holds the neutral value its
default documents; ``docs/SERVING_API.md`` tabulates which modes fill
which field.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple

from repro.coe.columnar import CompletedLog, latency_values, token_total
from repro.coe.metrics import summarize_latencies
from repro.obs import Timeline

if TYPE_CHECKING:  # the engines import this module
    from repro.coe.engine import EngineRequest
    from repro.coe.node import NodeState

__all__ = ["NodeSummary", "ServeReport", "ShedRequest", "build_report"]


class ShedRequest(NamedTuple):
    """One request a run refused, and why.

    ``deadline``: admission's ETA busts the SLO (sim and live).
    ``backpressure``: live only, the chosen node's bounded queue was
    full at arrival. Shed work is reported, never silently dropped.
    """

    request_id: int
    expert: str
    reason: str
    output_tokens: int


@dataclass(frozen=True)
class NodeSummary:
    """Per-node slice of a run; busy and switch times are timeline
    queries on the node's lanes (0.0 on an untraced run)."""

    name: str
    requests: int
    groups: int
    output_tokens: int
    busy_s: float
    switch_s: float
    hidden_switch_s: float
    steals_in: int
    replicas_hosted: int
    tokens_per_second: float
    alive: bool = True
    crashed_at: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)


#: Fields :meth:`ServeReport.to_dict` leaves out or converts itself.
_NOT_EXPORTED = ("faults", "nodes", "shed", "timeline", "logs")


@dataclass(frozen=True)
class ServeReport:
    """Throughput, latency and fault outcome of one serving run.

    Counts of offered work (``requests``, ``output_tokens`` and the
    throughputs over them) cover the whole submitted backlog;
    ``completed_requests`` and ``goodput_tokens_per_second`` cover what
    finished. Latencies are finish minus arrival over completed requests,
    queueing included, in model seconds.
    """

    #: Node scheduling policy (``ServeConfig.policy``).
    policy: str
    #: Cross-node dispatch policy; ``None`` on a single-node sim run.
    cluster_policy: Optional[str]
    cache_policy: str
    scheduler: str
    platform: str
    num_nodes: int
    #: The submitted backlog.
    requests: int
    completed_requests: int
    #: Groups admission formed (shed ones included).
    groups: int
    #: Output tokens of the submitted backlog.
    output_tokens: int
    makespan_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    #: Demand hit rate of the nodes' expert caches, pooled (speculative
    #: prefetcher traffic excluded — see RuntimeStats).
    demand_hit_rate: float
    #: NVMe->DDR promotions started ahead of demand by the pipelined
    #: prefetch path (0 unless ``pipeline_promotions`` was enabled).
    pipelined_promotions: int
    #: Alive node-time over total node-time (1.0 without a crash).
    availability: float
    #: Nodes that crashed.
    crashes: int
    #: Simulator events; 0 in live mode.
    events_run: int = 0
    #: Overlap-policy speculative warms; 0 outside the ``overlap`` policy.
    speculative_prefetches: int = 0
    #: Cluster rebalancing and recovery; 0 outside a cluster sim run.
    steals: int = 0
    replications: int = 0
    promotions: int = 0
    redispatched_groups: int = 0
    #: Worst crash-to-recovered interval; 0.0 without a crash.
    recovery_s: float = 0.0
    #: Injected fault specs; empty outside a cluster sim run.
    faults: Tuple[str, ...] = ()
    deadline_s: Optional[float] = None
    #: False only when a live drain hit ``drain_timeout_s``.
    drained: bool = True
    #: Tokens delivered through the live token callback; 0 in sim.
    tokens_streamed: int = 0
    #: Wall seconds of a live run and its model-to-wall scale; ``None``
    #: in sim, which has no wall clock.
    wall_s: Optional[float] = None
    time_scale: Optional[float] = None
    nodes: Tuple[NodeSummary, ...] = ()
    #: Every shed request (empty when nothing was shed).
    shed: Tuple[ShedRequest, ...] = field(repr=False, default=())
    #: The run's span record; ``None`` when untraced. Export via
    #: :func:`repro.obs.write_chrome_trace`.
    timeline: Optional[Timeline] = field(
        repr=False, compare=False, default=None
    )
    #: The nodes' completion logs, read by :attr:`completed` on access.
    logs: Tuple[CompletedLog, ...] = field(
        repr=False, compare=False, default=()
    )

    @property
    def completed(self) -> tuple:
        """Every :class:`CompletedRequest`, node by node, each node's in
        completion order (built on access, not during the run)."""
        return tuple(chain.from_iterable(self.logs))

    @property
    def rejected(self) -> int:
        """Requests shed, for any reason."""
        return len(self.shed)

    @property
    def rejected_tokens(self) -> int:
        return sum(s.output_tokens for s in self.shed)

    @property
    def shed_deadline(self) -> int:
        return sum(1 for s in self.shed if s.reason == "deadline")

    @property
    def shed_backpressure(self) -> int:
        return self.rejected - self.shed_deadline

    @property
    def shed_rate(self) -> float:
        return self.rejected / self.requests if self.requests else 0.0

    def _per_s(self, amount: float) -> float:
        return amount / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def requests_per_second(self) -> float:
        return self._per_s(self.requests)

    @property
    def tokens_per_second(self) -> float:
        return self._per_s(self.output_tokens)

    @property
    def goodput_tokens_per_second(self) -> float:
        """Throughput of completed work: shed tokens never count."""
        return self._per_s(sum(n.output_tokens for n in self.nodes))

    @property
    def switch_s(self) -> float:
        return sum(n.switch_s for n in self.nodes)

    @property
    def hidden_switch_s(self) -> float:
        return sum(n.hidden_switch_s for n in self.nodes)

    @property
    def switch_hidden_fraction(self) -> float:
        """Fraction of total switch time overlapped with execution."""
        switch_s = self.switch_s
        return self.hidden_switch_s / switch_s if switch_s > 0 else 0.0

    @property
    def mean_batch(self) -> float:
        return self.requests / self.groups if self.groups else 0.0

    @property
    def load_imbalance(self) -> float:
        """Busiest-to-average node compute-busy ratio (1.0 = perfect)."""
        times = [n.busy_s for n in self.nodes]
        mean = sum(times) / len(times) if times else 0.0
        if mean == 0.0:
            return 1.0
        return max(times) / mean

    def to_dict(self) -> dict:
        """JSON-serializable summary: every field and derived rate.

        Switch and busy seconds appear per node only: they are timeline
        queries, dark on an untraced run, and every top-level key but
        ``load_imbalance`` reads the same traced or untraced.
        """
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in _NOT_EXPORTED}
        for name in ("rejected", "rejected_tokens", "shed_deadline",
                     "shed_backpressure", "shed_rate", "requests_per_second",
                     "tokens_per_second", "goodput_tokens_per_second",
                     "load_imbalance"):
            out[name] = getattr(self, name)
        out["mean_batch"] = round(self.mean_batch, 3)
        out["faults"] = list(self.faults)
        out["nodes"] = [n.to_dict() for n in self.nodes]
        return out


def build_report(
    states: Sequence["NodeState"],
    timeline: Optional[Timeline],
    requests: Sequence["EngineRequest"],
    makespan_s: float,
    *,
    crashed_at: Sequence[Optional[float]] = (),
    steals_in: Sequence[int] = (),
    replicas_hosted: Sequence[int] = (),
    **tallies,
) -> ServeReport:
    """The report of a run over ``states``, one per node, in node order.

    ``requests`` is the submitted backlog. ``crashed_at``,
    ``steals_in`` and ``replicas_hosted`` are per-node cluster tallies
    (empty: no node crashed, stole or hosted a replica); ``tallies`` are
    the remaining :class:`ServeReport` fields the engine keeps itself,
    ``output_tokens`` among them: the backlog's total, which the engine
    sums from its grouping (:attr:`repro.coe.columnar.Grouping.tokens`).
    """
    n = len(states)
    crashed_at = list(crashed_at) or [None] * n
    steals_in = list(steals_in) or [0] * n
    replicas_hosted = list(replicas_hosted) or [0] * n
    logs = tuple(state.completed for state in states)
    latencies = []
    for log in logs:
        latencies.extend(latency_values(log))
    summary = summarize_latencies(latencies)
    rows = []
    for state, log, crash, stolen, replicas in zip(
        states, logs, crashed_at, steals_in, replicas_hosted
    ):
        compute, switch = state.lane("compute"), state.lane("switch")
        tokens = token_total(log)
        rows.append(NodeSummary(
            name=state.lane_prefix.rstrip("/") or "node0",
            requests=len(log),
            groups=state.groups_done,
            output_tokens=tokens,
            busy_s=timeline.busy_s(compute) if timeline is not None else 0.0,
            switch_s=timeline.busy_s(switch) if timeline is not None else 0.0,
            hidden_switch_s=(timeline.overlap_s(switch, compute)
                             if timeline is not None else 0.0),
            steals_in=stolen,
            replicas_hosted=replicas,
            tokens_per_second=tokens / makespan_s if makespan_s > 0 else 0.0,
            alive=crash is None,
            crashed_at=crash,
        ))
    stats = [state.server.runtime.stats for state in states]
    demand = sum(s.requests for s in stats)
    alive_s = sum(makespan_s if crash is None else min(crash, makespan_s)
                  for crash in crashed_at)
    total_s = n * makespan_s
    server = states[0].server
    return ServeReport(
        cache_policy=server.runtime.policy.name,
        platform=server.platform.name,
        num_nodes=n,
        requests=len(requests),
        completed_requests=sum(map(len, logs)),
        makespan_s=makespan_s,
        p50_s=summary.p50_s,
        p95_s=summary.p95_s,
        p99_s=summary.p99_s,
        mean_s=summary.mean_s,
        demand_hit_rate=(sum(s.hits for s in stats) / demand
                         if demand else 0.0),
        pipelined_promotions=sum(s.pipelined_promotions for s in stats),
        availability=alive_s / total_s if total_s > 0 else 1.0,
        crashes=sum(crash is not None for crash in crashed_at),
        nodes=tuple(rows),
        timeline=timeline,
        logs=logs,
        **tallies,
    )
