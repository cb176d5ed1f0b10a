"""The unified serving facade: one config, one entry point, two engines.

Historically each serving layer had its own front door — the latency
path's :class:`repro.coe.serving.ExpertServer`, the
single-node :class:`repro.coe.engine.ServingEngine`, and the scale-out
:class:`repro.coe.cluster_engine.ClusterEngine` — with overlapping but
differently-spelled knobs. This module is the one surface callers use:

- :class:`Server` — the protocol both engines satisfy (``serve(requests)
  -> report``), so schedulers, benchmarks and the CLI can hold either.
- :class:`ServeConfig` — every serving knob in one validated, frozen
  dataclass: typed policies (:class:`repro.coe.policies.NodePolicy`,
  :class:`~repro.coe.policies.ClusterPolicy` — legacy strings coerce),
  batching/prefetch, cluster shape, and the fault/SLO surface
  (:class:`repro.sim.faults.FaultSchedule`, heartbeat, deadline).
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

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Protocol, Sequence, Union, runtime_checkable

from repro.coe.cluster_engine import (
    ClusterEngine, _check_cluster_limits, _coerce_faults,
)
from repro.coe.decisions import DecisionLog
from repro.coe.engine import EngineRequest, ServingEngine, check_count
from repro.coe.expert import ExpertLibrary
from repro.coe.policies import (
    CachePolicyName,
    ClusterPolicy,
    NodePolicy,
    SchedulerName,
    ServeMode,
)
from repro.coe.report import ServeReport
from repro.coe.serving import (
    ExpertServer,
    RequestLatency,
    ServeResult,
    validate_tier_capacities,
)
from repro.load import ArrivalSpec, generate_trace
from repro.sim.faults import FaultSchedule
from repro.systems.platforms import Platform

#: A platform instance, or a zero-arg factory of them (cluster nodes
#: each get their own instance when a factory is given).
PlatformLike = Union[Platform, Callable[[], Platform]]


class ServeModeError(ValueError):
    """A config option was used in the wrong :class:`ServeMode`.

    Raised instead of silently ignoring the option, matching the
    belady-by-name rejection pattern: a knob that cannot take effect in
    the requested mode is a caller bug, not a default to paper over.
    """


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

    Policies accept enum members or their legacy string values
    (coerced through :meth:`repro.coe.policies.PolicyEnum.coerce`, which
    raises a :class:`ValueError` naming the valid members). ``faults``
    accepts a :class:`FaultSchedule`, an iterable of fault events, or an
    iterable of spec strings (``"node3:2.5"``, ``"slow:1:0.5:2"``...).
    """

    #: Single-node scheduling policy (also each cluster node's).
    policy: NodePolicy = NodePolicy.OVERLAP
    #: Cross-node dispatch policy (ignored on one node).
    cluster_policy: ClusterPolicy = ClusterPolicy.STEAL
    #: HBM expert-cache eviction policy (every node's runtime). The
    #: offline ``belady`` oracle needs a recorded trace and cannot be
    #: configured by name — build a
    #: :class:`repro.coe.cache.BeladyPolicy` and pass it to the engine
    #: directly instead.
    cache_policy: CachePolicyName = CachePolicyName.LRU
    #: Admission-time request reordering applied to the queued backlog
    #: before node scheduling (:class:`repro.coe.policies.SchedulerName`;
    #: implementations in :mod:`repro.coe.scheduling`). ``fifo`` is the
    #: historical arrival order; ``expert_reorder`` batches the backlog
    #: by expert to amortize tier switches. Valid in both modes.
    scheduler: SchedulerName = SchedulerName.FIFO
    #: CoServe-style promotion pipelining: when the scheduler's
    #: reordered backlog shows an upcoming NVMe-resident expert, its
    #: NVMe->DDR promotion starts on the prefetch lane while the current
    #: group decodes, so the demand miss pays only the DDR->HBM hop.
    #: Only NVMe residents are promoted, so it has an effect only when
    #: ``tier_capacities['ddr']`` puts part of the library on NVMe;
    #: incompatible with the ``overlap`` node policy (both claim the
    #: idle DMA). Valid in both modes — live runs cancel in-flight
    #: promotions wall-clock-legally at shutdown.
    pipeline_promotions: bool = False
    #: Byte budgets per memory tier (``{"hbm": ..., "ddr": ...,
    #: "nvme": ...}``), overriding the platform defaults — the
    #: constrained-memory ladder's knob. ``"hbm"`` sizes the expert
    #: region directly (mutually exclusive with ``reserved_hbm_bytes``);
    #: ``"ddr"`` caps the capacity tier and puts an NVMe backing tier
    #: below it, unbounded unless ``"nvme"`` caps it too. ``None`` =
    #: the platform's HBM and second tier and no NVMe. A library the
    #: budgets cannot hold raises :class:`repro.memory.CapacityError`
    #: when the engine is built.
    tier_capacities: Optional[dict] = None
    num_nodes: int = 1
    max_batch: int = 8
    window: int = 16
    online_replication: bool = True
    #: HBM reserved for router + KV cache on every node.
    reserved_hbm_bytes: Optional[int] = None
    #: Deterministic fault schedule (forces the cluster engine).
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    #: Crash-detection sweep period (bounds detection latency).
    heartbeat_s: float = 0.05
    #: SLO deadline; admission sheds work that cannot meet it
    #: (lowest priority first, reported as ``rejected``).
    deadline_s: Optional[float] = None
    #: Which clock drives the run: the discrete-event simulator
    #: (``"sim"``, the default) or the asyncio wall clock (``"live"``).
    mode: ServeMode = ServeMode.SIM
    #: Open-loop arrival workload (:class:`repro.load.ArrivalSpec` or
    #: its dict form); lets :func:`serve` generate the request stream
    #: itself (``requests=None``). Valid in both modes.
    load: Optional[ArrivalSpec] = None
    #: Live only — per-node admission queue bound; a full queue sheds
    #: with a typed backpressure result instead of buffering unboundedly.
    max_queue: Optional[int] = None
    #: Live only — wall seconds per model second (1.0 = real time;
    #: small values compress a long trace into a quick wall run).
    time_scale: Optional[float] = None
    #: Live only — wall-second budget for graceful drain at shutdown.
    drain_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", NodePolicy.coerce(self.policy))
        object.__setattr__(
            self, "cluster_policy", ClusterPolicy.coerce(self.cluster_policy)
        )
        object.__setattr__(
            self, "cache_policy", CachePolicyName.coerce(self.cache_policy)
        )
        if self.cache_policy is CachePolicyName.BELADY:
            raise ValueError(
                "cache_policy 'belady' is the offline oracle and needs a "
                "recorded trace; build a repro.coe.cache.BeladyPolicy and "
                "pass it to the engine directly"
            )
        object.__setattr__(
            self, "scheduler", SchedulerName.coerce(self.scheduler)
        )
        object.__setattr__(
            self,
            "tier_capacities",
            validate_tier_capacities(self.tier_capacities),
        )
        if (self.tier_capacities is not None
                and "hbm" in self.tier_capacities
                and self.reserved_hbm_bytes is not None):
            raise ValueError(
                "reserved_hbm_bytes and tier_capacities['hbm'] both size "
                "the HBM expert region; pass one or the other"
            )
        object.__setattr__(self, "faults", _coerce_faults(self.faults))
        if self.pipeline_promotions and self.policy is NodePolicy.OVERLAP:
            raise ValueError(
                "pipeline_promotions is incompatible with policy 'overlap': "
                "overlap's speculative prefetches start at 'now' regardless "
                "of DMA occupancy, so sharing the prefetch lane with "
                "pipelined NVMe promotions would double-book the DMA"
            )
        check_count("max_batch", self.max_batch)
        check_count("window", self.window)
        if self.reserved_hbm_bytes is not None:
            check_count("reserved_hbm_bytes", self.reserved_hbm_bytes, 0)
        _check_cluster_limits(
            self.num_nodes, self.heartbeat_s, self.deadline_s
        )
        object.__setattr__(self, "mode", ServeMode.coerce(self.mode))
        if self.load is not None and not isinstance(self.load, ArrivalSpec):
            object.__setattr__(
                self, "load", ArrivalSpec.from_dict(dict(self.load))
            )
        if self.max_queue is not None:
            check_count("max_queue", self.max_queue)
        # Both checks are written so that NaN fails them.
        if self.time_scale is not None and not (
            math.isfinite(self.time_scale) and self.time_scale > 0
        ):
            raise ValueError(
                f"time_scale must be finite and > 0, got {self.time_scale}"
            )
        if self.drain_timeout_s is not None and not self.drain_timeout_s > 0:
            raise ValueError(
                f"drain_timeout_s must be > 0, got {self.drain_timeout_s}"
            )
        if self.mode is ServeMode.SIM:
            live_only = [
                name for name, value in (
                    ("max_queue", self.max_queue),
                    ("time_scale", self.time_scale),
                    ("drain_timeout_s", self.drain_timeout_s),
                ) if value is not None
            ]
            if live_only:
                raise ServeModeError(
                    f"{', '.join(live_only)} only take effect in "
                    f"mode='live'; they would be silently ignored by the "
                    f"simulator — drop them or set mode='live'"
                )
        else:
            if self.faults:
                raise ServeModeError(
                    "fault injection is a sim-clock feature (deterministic "
                    "crash/slow/copyfail events need the discrete-event "
                    "schedule); drop faults or set mode='sim'"
                )
            if self.policy is NodePolicy.OVERLAP:
                raise ServeModeError(
                    "policy 'overlap' (speculative prefetch on the modelled "
                    "DMA clock) is sim-only; use 'fifo' or 'affinity' in "
                    "mode='live'"
                )
            if (self.cluster_policy is ClusterPolicy.STEAL
                    and self.num_nodes > 1):
                raise ServeModeError(
                    "cluster_policy 'steal' (runtime queue rebalancing on "
                    "the sim clock) is sim-only; use 'least_loaded' or "
                    "'affinity' in mode='live'"
                )

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
        return {
            "policy": self.policy.value,
            "cluster_policy": self.cluster_policy.value,
            "cache_policy": self.cache_policy.value,
            "scheduler": self.scheduler.value,
            "pipeline_promotions": self.pipeline_promotions,
            "tier_capacities": (
                dict(self.tier_capacities)
                if self.tier_capacities is not None else None
            ),
            "num_nodes": self.num_nodes,
            "max_batch": self.max_batch,
            "window": self.window,
            "online_replication": self.online_replication,
            "reserved_hbm_bytes": self.reserved_hbm_bytes,
            "faults": self.faults.specs(),
            "heartbeat_s": self.heartbeat_s,
            "deadline_s": self.deadline_s,
            "mode": self.mode.value,
            "load": self.load.to_dict() if self.load is not None else None,
            "max_queue": self.max_queue,
            "time_scale": self.time_scale,
            "drain_timeout_s": self.drain_timeout_s,
        }

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
    if config.wants_cluster:
        factory = platform if callable(platform) else (lambda: platform)
        return ClusterEngine(
            factory,
            library,
            config.num_nodes,
            policy=config.cluster_policy,
            node_policy=config.policy,
            max_batch=config.max_batch,
            window=config.window,
            online_replication=config.online_replication,
            reserved_hbm_bytes=config.reserved_hbm_bytes,
            faults=config.faults,
            heartbeat_s=config.heartbeat_s,
            deadline_s=config.deadline_s,
            cache_policy=config.cache_policy.value,
            decision_log=decision_log,
            scheduler=config.scheduler.value,
            tier_capacities=config.tier_capacities,
            pipeline_promotions=config.pipeline_promotions,
        )
    instance = platform() if callable(platform) else platform
    return ServingEngine(
        instance,
        library,
        policy=config.policy,
        max_batch=config.max_batch,
        window=config.window,
        reserved_hbm_bytes=config.reserved_hbm_bytes,
        cache_policy=config.cache_policy.value,
        decision_log=decision_log,
        scheduler=config.scheduler.value,
        tier_capacities=config.tier_capacities,
        pipeline_promotions=config.pipeline_promotions,
    )


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
