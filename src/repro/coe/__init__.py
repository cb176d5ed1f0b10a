"""Composition of Experts: experts, router, runtime, serving."""

from repro.coe.expert import (
    DEFAULT_DOMAINS,
    ExpertLibrary,
    ExpertProfile,
    build_heterogeneous_library,
    build_samba_coe_library,
)
from repro.coe.metrics import (
    LatencySummary,
    ServingMetrics,
    compute_metrics,
    metrics_of,
    summarize_latencies,
)
from repro.coe.columnar import CompletedLog
from repro.coe.router import Router, RoutingDecision, embed_text
from repro.coe.scheduling import (
    SCHEDULERS,
    ExpertPredictor,
    ExpertReorderScheduler,
    FifoScheduler,
    Request,
    RequestGroup,
    Scheduler,
    affinity_schedule,
    coalesce_groups,
    fifo_schedule,
    make_scheduler,
)
from repro.coe.engine import (
    CompletedRequest,
    EngineReentryError,
    EngineRequest,
    ServingEngine,
    compare_policies,
    zipf_request_stream,
)
from repro.coe.cluster_engine import (
    ClusterEngine,
    cluster_lanes,
    run_cluster,
)
from repro.coe.runtime import CoERuntime, RuntimeStats, SwitchEvent
from repro.coe.cache import (
    CACHE_POLICIES,
    BeladyPolicy,
    CachePolicy,
    GDSFPolicy,
    LFUPolicy,
    LRUPolicy,
    PredictivePolicy,
    make_policy,
)
from repro.coe.policies import (
    CachePolicyName,
    ClusterPolicy,
    DrainMode,
    NodePolicy,
    PolicyEnum,
    SchedulerName,
    ServeMode,
)
from repro.coe.serving import (
    ExpertServer,
    RequestLatency,
    ServeResult,
)
from repro.coe.decisions import Decision, DecisionLog
from repro.coe.dispatch import admission_eta, choose_node, deadline_admits
from repro.coe.api import (
    ServeConfig,
    ServeModeError,
    Server,
    build_server,
    serve,
)
from repro.coe.live_engine import LiveEngine, TokenEvent
from repro.coe.report import NodeSummary, ServeReport, ShedRequest
from repro.coe.crosscheck import CrossCheckResult, cross_check

__all__ = [
    "DEFAULT_DOMAINS", "ExpertLibrary", "ExpertProfile",
    "build_samba_coe_library", "build_heterogeneous_library", "Router", "RoutingDecision", "embed_text",
    "CoERuntime", "RuntimeStats", "SwitchEvent", "ExpertServer",
    "RequestLatency", "ServeResult", "ExpertPredictor", "Request",
    "affinity_schedule", "fifo_schedule",
    "ServingMetrics", "compute_metrics", "metrics_of",
    "RequestGroup", "coalesce_groups", "CompletedRequest",
    "CompletedLog", "LatencySummary", "summarize_latencies",
    "EngineReentryError", "EngineRequest", "ServingEngine",
    "compare_policies",
    "zipf_request_stream", "ClusterEngine",
    "NodeSummary", "ServeReport", "cluster_lanes", "run_cluster",
    "ClusterPolicy", "DrainMode", "NodePolicy", "PolicyEnum",
    "CACHE_POLICIES", "BeladyPolicy", "CachePolicy", "CachePolicyName",
    "GDSFPolicy", "LFUPolicy", "LRUPolicy", "PredictivePolicy",
    "make_policy",
    "SCHEDULERS", "Scheduler", "SchedulerName", "FifoScheduler",
    "ExpertReorderScheduler", "make_scheduler",
    "ServeConfig", "Server", "build_server", "serve",
    "ServeMode", "ServeModeError",
    "Decision", "DecisionLog",
    "admission_eta", "choose_node", "deadline_admits",
    "LiveEngine", "ShedRequest", "TokenEvent",
    "CrossCheckResult", "cross_check",
]
