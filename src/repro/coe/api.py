"""The unified serving facade: one config, one entry point, two engines.

This module is the one surface callers use:

- :class:`Server` — the protocol both engines satisfy (``serve(requests)
  -> report``), so schedulers, benchmarks and the CLI can hold either.
- :class:`ServeConfig` — every serving knob in one validated, frozen
  dataclass, each field's domain declared in
  :data:`repro.coe.policies.FIELDS`.
- :func:`serve` — ``repro.serve(platform, library, requests, config)``:
  builds the right engine for the config and drains the backlog.

The engine choice is a pure function of the config: anything that needs
cross-node machinery (``num_nodes > 1``, a fault schedule, a deadline)
runs on :class:`ClusterEngine`; otherwise the leaner single-node
:class:`ServingEngine`. ``platform`` may be an instance or a zero-arg
factory — a cluster builds one platform per node either way.

The latency path's breakdown types (:class:`RequestLatency`,
:class:`ServeResult`) are re-exported here, and :class:`ExpertServer`
serves the batch-of-one latency path; see ``docs/SERVING_API.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Protocol, Sequence, Union, runtime_checkable

from repro.coe.cluster_engine import ClusterEngine
from repro.coe.decisions import DecisionLog
from repro.coe.engine import EngineRequest, ServingEngine
from repro.coe.expert import ExpertLibrary
from repro.coe.policies import (
    FIELDS,
    CachePolicyName,
    ClusterPolicy,
    NodePolicy,
    SchedulerName,
    ServeMode,
    ServeModeError,
    validate,
)
from repro.coe.report import ServeReport
from repro.coe.serving import ExpertServer, RequestLatency, ServeResult
from repro.load import ArrivalSpec, generate_trace
from repro.sim.faults import FaultSchedule
from repro.systems.platforms import Platform

#: A platform instance, or a zero-arg factory of them (cluster nodes
#: each get their own instance when a factory is given).
PlatformLike = Union[Platform, Callable[[], Platform]]


@runtime_checkable
class Server(Protocol):
    """Anything that drains a backlog of pre-routed requests.

    Implemented by :class:`ServingEngine` (single node),
    :class:`ClusterEngine` (scale-out with fault tolerance) and the live
    engine; each returns a :class:`ServeReport` whose
    :class:`repro.obs.Timeline` records what actually happened.
    """

    def serve(self, requests: Sequence[EngineRequest]) -> ServeReport:
        ...


@dataclass(frozen=True)
class ServeConfig:
    """Every serving knob, validated once, in one place.

    Each field's type, bounds, default and mode are declared once, in
    :data:`repro.coe.policies.FIELDS`; construction checks every field
    there and applies :data:`repro.coe.policies.RULES`, the rules that
    relate fields. Policies accept enum members or their value strings;
    ``faults`` accepts a :class:`FaultSchedule`, fault events, or spec
    strings (``"node3:2.5"``, ``"slow:1:0.5:2"``...).
    """

    #: Single-node scheduling policy (also each cluster node's).
    policy: NodePolicy = FIELDS["policy"].default
    #: Cross-node dispatch policy (ignored on one node).
    cluster_policy: ClusterPolicy = FIELDS["cluster_policy"].default
    #: HBM expert-cache eviction policy (every node's runtime); the
    #: offline ``belady`` oracle is refused by name.
    cache_policy: CachePolicyName = FIELDS["cache_policy"].default
    #: Admission-time request reordering applied to the queued backlog
    #: before node scheduling (:class:`repro.coe.policies.SchedulerName`;
    #: implementations in :mod:`repro.coe.scheduling`). ``fifo`` is the
    #: historical arrival order; ``expert_reorder`` batches the backlog
    #: by expert to amortize tier switches. Valid in both modes.
    scheduler: SchedulerName = FIELDS["scheduler"].default
    #: CoServe-style promotion pipelining: when the scheduler's
    #: reordered backlog shows an upcoming NVMe-resident expert, its
    #: NVMe->DDR promotion starts on the prefetch lane while the current
    #: group decodes, so the demand miss pays only the DDR->HBM hop.
    #: Only NVMe residents are promoted, so it has an effect only when
    #: ``tier_capacities['ddr']`` puts part of the library on NVMe;
    #: incompatible with the ``overlap`` node policy (both claim the
    #: idle DMA). Valid in both modes — live runs cancel in-flight
    #: promotions wall-clock-legally at shutdown.
    pipeline_promotions: bool = FIELDS["pipeline_promotions"].default
    #: Byte budgets per memory tier (``{"hbm": ..., "ddr": ...,
    #: "nvme": ...}``), overriding the platform defaults — the
    #: constrained-memory ladder's knob. ``"hbm"`` sizes the expert
    #: region directly (mutually exclusive with ``reserved_hbm_bytes``);
    #: ``"ddr"`` caps the capacity tier and puts an NVMe backing tier
    #: below it, unbounded unless ``"nvme"`` caps it too. ``None`` =
    #: the platform's HBM and second tier and no NVMe. A library the
    #: budgets cannot hold raises :class:`repro.memory.CapacityError`
    #: when the engine is built.
    tier_capacities: Optional[dict] = FIELDS["tier_capacities"].default
    num_nodes: int = FIELDS["num_nodes"].default
    max_batch: int = FIELDS["max_batch"].default
    window: int = FIELDS["window"].default
    online_replication: bool = FIELDS["online_replication"].default
    #: HBM reserved for router + KV cache on every node.
    reserved_hbm_bytes: Optional[int] = FIELDS["reserved_hbm_bytes"].default
    #: Deterministic fault schedule (forces the cluster engine).
    faults: FaultSchedule = FIELDS["faults"].default
    #: Crash-detection sweep period (bounds detection latency).
    heartbeat_s: float = FIELDS["heartbeat_s"].default
    #: SLO deadline; admission sheds work that cannot meet it
    #: (lowest priority first, reported as ``rejected``).
    deadline_s: Optional[float] = FIELDS["deadline_s"].default
    #: Which clock drives the run: the discrete-event simulator
    #: (``"sim"``, the default) or the asyncio wall clock (``"live"``).
    mode: ServeMode = FIELDS["mode"].default
    #: Open-loop arrival workload (:class:`repro.load.ArrivalSpec` or
    #: its dict form); lets :func:`serve` generate the request stream
    #: itself (``requests=None``). Valid in both modes.
    load: Optional[ArrivalSpec] = FIELDS["load"].default
    #: Live only — per-node admission queue bound; a full queue sheds
    #: with a typed backpressure result instead of buffering unboundedly.
    max_queue: Optional[int] = FIELDS["max_queue"].default
    #: Live only — wall seconds per model second (1.0 = real time;
    #: small values compress a long trace into a quick wall run).
    time_scale: Optional[float] = FIELDS["time_scale"].default
    #: Live only — wall-second budget for graceful drain at shutdown.
    drain_timeout_s: Optional[float] = FIELDS["drain_timeout_s"].default

    def __post_init__(self) -> None:
        checked = validate(**{name: getattr(self, name) for name in FIELDS})
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @property
    def wants_cluster(self) -> bool:
        """Whether this config needs cluster machinery: more than one
        node, a fault schedule to survive, or a deadline to enforce."""
        return (
            self.num_nodes > 1
            or bool(self.faults)
            or self.deadline_s is not None
        )

    def with_(self, **changes) -> "ServeConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-serializable view (CLI/benchmark provenance)."""
        return {name: domain.encode(getattr(self, name))
                for name, domain in FIELDS.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ServeConfig":
        """Rebuild a config from :meth:`to_dict` output (re-validated).

        The round trip ``ServeConfig.from_dict(cfg.to_dict()) == cfg``
        holds for every field — asserted by the serialization tests so
        a newly added knob cannot silently drop out of provenance dumps.
        """
        return cls(**data)


def build_server(
    platform: PlatformLike,
    library: ExpertLibrary,
    config: Optional[ServeConfig] = None,
    *,
    decision_log: Optional[DecisionLog] = None,
    token_callback: Optional[Callable] = None,
) -> Server:
    """Construct the engine a config calls for, without running it.

    Useful when the caller wants the engine itself (to inspect nodes,
    reuse the timeline, drive incremental submission) rather than just
    the report :func:`serve` returns. ``decision_log`` records every
    policy decision (dispatch, cache eviction, admission) for the
    sim/live cross-check; ``token_callback`` streams decoded tokens and
    is live-only (a :class:`ServeModeError` in sim mode — the simulator
    produces no wall-clock token stream to subscribe to).
    """
    config = config if config is not None else ServeConfig()
    if config.mode is ServeMode.LIVE:
        from repro.coe.live_engine import LiveEngine

        return LiveEngine(
            platform,
            library,
            config,
            decision_log=decision_log,
            token_callback=token_callback,
        )
    if token_callback is not None:
        raise ServeModeError(
            "token_callback streams wall-clock decode tokens and only "
            "takes effect in mode='live'; the simulator has no token "
            "stream to subscribe to"
        )
    # The knobs every node's engine takes, on one node or many.
    node = dict(
        max_batch=config.max_batch, window=config.window,
        reserved_hbm_bytes=config.reserved_hbm_bytes,
        cache_policy=config.cache_policy, scheduler=config.scheduler,
        tier_capacities=config.tier_capacities,
        pipeline_promotions=config.pipeline_promotions,
        decision_log=decision_log,
    )
    if config.wants_cluster:
        factory = platform if callable(platform) else (lambda: platform)
        return ClusterEngine(
            factory, library, config.num_nodes,
            policy=config.cluster_policy, node_policy=config.policy,
            online_replication=config.online_replication,
            faults=config.faults, heartbeat_s=config.heartbeat_s,
            deadline_s=config.deadline_s, **node,
        )
    instance = platform() if callable(platform) else platform
    return ServingEngine(instance, library, policy=config.policy, **node)


def serve(
    platform: PlatformLike,
    library: ExpertLibrary,
    requests: Optional[Sequence[EngineRequest]] = None,
    config: Optional[ServeConfig] = None,
    *,
    decision_log: Optional[DecisionLog] = None,
    token_callback: Optional[Callable] = None,
) -> ServeReport:
    """Serve a backlog end to end — the library's single entry point.

    Exposed as ``repro.serve``. Returns one :class:`ServeReport` whatever
    engine ran (single node, cluster, or ``mode='live'``), with one
    per-node row per node and the run's :class:`repro.obs.Timeline`.

    ``requests`` may be omitted when ``config.load`` carries an
    :class:`repro.load.ArrivalSpec`: the open-loop trace is then
    generated here (deterministically, from the spec's seed). In sim mode
    (every request served at t=0) ``arrival_s > 0`` raises ServeModeError.
    """
    config = config if config is not None else ServeConfig()
    if requests is None:
        if config.load is None:
            raise ValueError(
                "serve() needs requests, or a config.load ArrivalSpec "
                "to generate them from"
            )
        requests = generate_trace(config.load, library).to_requests(library)
    server = build_server(platform, library, config, decision_log=decision_log,
                          token_callback=token_callback)
    if config.mode is ServeMode.SIM and any(
            request.arrival_s > 0 for request in requests):
        raise ServeModeError("the simulator serves every request at "
                             "t=0; arrival_s > 0 needs mode='live'")
    return server.serve(requests)


__all__ = [
    "CachePolicyName",
    "ClusterPolicy",
    "ExpertServer",
    "NodePolicy",
    "PlatformLike",
    "RequestLatency",
    "SchedulerName",
    "ServeConfig",
    "ServeMode",
    "ServeModeError",
    "ServeReport",
    "ServeResult",
    "Server",
    "build_server",
    "serve",
]
