"""Chrome-trace export of execution timelines (adapter over ``repro.obs``).

Historically this module serialized plan costs and serving results into
Chrome tracing JSON directly, inventing timestamps as it went. It is now
a thin backward-compatible adapter over the span/timeline substrate:
every export builds (or receives) a :class:`repro.obs.Timeline` and
hands it to :mod:`repro.obs.export`. In particular, serving traces from
the throughput engine carry *real simulated timestamps* — an overlapped
expert switch visibly overlaps the previous group's decode span instead
of being serialized after it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs import Timeline, to_chrome_events
from repro.perf.kernel_cost import PlanCost

if TYPE_CHECKING:  # avoid a perf -> coe layering inversion at runtime
    from repro.coe.serving import ServeResult

_US = 1e6  # chrome traces use microsecond timestamps

#: Pinned lane -> tid orders, for stable track layout across exports.
PLAN_LANES = ("orchestration", "kernel")
SERVE_LANES = ("router", "switch", "prefill", "decode")
ENGINE_LANES = ("compute", "switch", "prefetch")


def plan_cost_trace(cost: PlanCost) -> List[Dict]:
    """Trace a kernel schedule: launch and execute phases per kernel.

    Track 0 carries the launch/orchestration lane; track 1 the execution
    lane — making orchestration overhead visually obvious (the Figure 10
    HO story).
    """
    return to_chrome_events(cost.to_timeline(), lanes=PLAN_LANES)


def serve_result_timeline(result: "ServeResult") -> Timeline:
    """Timeline of a latency-path batch (:class:`ServeResult`).

    The latency server really is serial — one request at a time, switch
    before execute — so its phases lay end-to-end by construction.
    """
    timeline = Timeline()
    now = 0.0
    for request in result.requests:
        phases = [
            ("router", request.router_s),
            ("switch", request.switch_s),
            ("prefill", request.prefill_s),
            ("decode", request.decode_s),
        ]
        for phase, duration in phases:
            if duration <= 0:
                continue
            timeline.record(
                f"{phase}:{request.expert}", lane=phase, category=phase,
                start_s=now, end_s=now + duration,
            )
            now += duration
    return timeline


def serve_result_trace(result) -> List[Dict]:
    """Trace a served CoE workload.

    A latency-path :class:`ServeResult` traces as serial phases on
    router / switch / prefill / decode lanes; a serving report traces
    its own timeline.
    """
    timeline: Optional[Timeline] = getattr(result, "timeline", None)
    if timeline is not None:
        return to_chrome_events(timeline, lanes=ENGINE_LANES)
    return to_chrome_events(serve_result_timeline(result), lanes=SERVE_LANES)


def write_trace(events: List[Dict], path: str) -> None:
    """Write events as a Chrome trace file."""
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def total_duration_s(events: List[Dict]) -> float:
    """End timestamp of the last event, in seconds."""
    if not events:
        return 0.0
    return max(e["ts"] + e["dur"] for e in events) / _US
