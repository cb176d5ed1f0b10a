"""Serving metrics: latency percentiles, throughput, goodput.

Turns streams of :class:`~repro.coe.serving.RequestLatency` records into
the SLO-style numbers an inference-serving deployment reports: p50/p95/p99
latency, requests/second, output tokens/second, and time-to-first-token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Sequence

from repro.coe.serving import RequestLatency, ServeResult


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the convention SLOs use).

    ``q`` in [0, 100]; the smallest value v such that at least q% of the
    samples are <= v.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if q == 0.0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


class LatencySummary(NamedTuple):
    """The p50/p95/p99/mean block every serving report carries."""

    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float


def summarize_latencies(values: Sequence[float]) -> LatencySummary:
    """One-sort p50/p95/p99/mean of a latency sample.

    The aggregation behind every :class:`repro.coe.report.ServeReport`
    (its one caller in the engines is
    :func:`~repro.coe.report.build_report`): the sample is sorted
    **once** and each quantile is a nearest-rank index into that order —
    value-identical to three separate :func:`percentile` calls (which
    re-sort per quantile; that scalar form stays as the tested oracle).
    The mean is computed over ``values`` exactly as passed (the report
    passes the nodes' completion logs in node order, each in completion
    order). An empty sample summarizes to zeros (a halted engine can
    finish with no completions; reports must not divide by zero).
    """
    if not values:
        return LatencySummary(0.0, 0.0, 0.0, 0.0)
    ordered = sorted(values)
    n = len(ordered)
    return LatencySummary(
        p50_s=ordered[math.ceil(0.50 * n) - 1],
        p95_s=ordered[math.ceil(0.95 * n) - 1],
        p99_s=ordered[math.ceil(0.99 * n) - 1],
        mean_s=sum(values) / n,
    )


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregate metrics over a stream of served requests."""

    requests: int
    output_tokens: int
    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    mean_ttft_s: float
    total_s: float

    @property
    def requests_per_second(self) -> float:
        return self.requests / self.total_s if self.total_s > 0 else 0.0

    @property
    def tokens_per_second(self) -> float:
        return self.output_tokens / self.total_s if self.total_s > 0 else 0.0

    def summary(self) -> str:
        return (
            f"{self.requests} reqs in {self.total_s:.2f}s: "
            f"p50 {self.p50_s * 1e3:.0f}ms, p99 {self.p99_s * 1e3:.0f}ms, "
            f"{self.requests_per_second:.1f} req/s, "
            f"{self.tokens_per_second:.0f} tok/s"
        )


def compute_metrics(
    requests: Iterable[RequestLatency], output_tokens_per_request: int
) -> ServingMetrics:
    """Aggregate a request stream (e.g. across several ServeResults).

    Requests are served sequentially on one node, so total time is the
    sum of request latencies; time-to-first-token is everything before
    decoding starts (router + switch + prefill).
    """
    items: List[RequestLatency] = list(requests)
    if not items:
        raise ValueError("no requests to aggregate")
    if output_tokens_per_request < 0:
        raise ValueError("negative output_tokens_per_request")
    latencies = [r.total_s for r in items]
    ttfts = [r.router_s + r.switch_s + r.prefill_s for r in items]
    total = sum(latencies)
    return ServingMetrics(
        requests=len(items),
        output_tokens=len(items) * output_tokens_per_request,
        p50_s=percentile(latencies, 50),
        p95_s=percentile(latencies, 95),
        p99_s=percentile(latencies, 99),
        mean_s=total / len(items),
        mean_ttft_s=sum(ttfts) / len(items),
        total_s=total,
    )


def metrics_of(result: ServeResult, output_tokens_per_request: int) -> ServingMetrics:
    """Metrics of one served batch."""
    return compute_metrics(result.requests, output_tokens_per_request)
