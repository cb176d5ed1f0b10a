"""One repetition of one workload, meant to run in a fresh interpreter.

``python3 benchmarks/e2e/rep.py WORKLOAD SEED [--traced]`` (with the
repository's ``src`` on ``PYTHONPATH``) sets the workload up, serves it
once, checks its outputs and prints one JSON object: host timings, peak
RSS, the modeled metrics, the output digest, every correctness failure
and, with ``--traced``, the per-layer span summary. ``run.py`` starts
one of these per repetition, so no cost-model cache, allocator state or
warm import carries from one repetition into the next.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import repro
import speed
import tracing
import workloads
from repro.coe.cluster_engine import ClusterReport

#: Relative tolerance of the check that a completion's modeled phases
#: add up to its finish time.
PHASE_SUM_RTOL = 1e-9


def run_rep(name: str, seed: int, traced: bool = False,
            num_requests: int = 0) -> dict:
    """Set up, serve and check one repetition of workload ``name``.

    Tracing hooks (when ``traced``) are installed before setup and
    removed before the outputs are checked; ``num_requests`` of 0 means
    the workload's own size.
    """
    recorder = tracing.SpanRecorder() if traced else None
    with tracing.installed(recorder) if traced else nullcontext():
        server, requests, setup = workloads.setup(name, seed, num_requests)
        with speed.sampling() as probes:
            start = time.perf_counter()
            with recorder.root() if traced else nullcontext():
                report = server.serve(requests)
            serve_s = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "workload": name,
        "seed": seed,
        "requests": len(requests),
        "setup": setup,
        "serve_s": serve_s,
        "probe_s": speed.harmonic_mean_s(probes),
        "rss_mb": rss_mb,
        "trace": recorder.summary() if traced else None,
        **check_outputs(server, report, requests),
    }


def check_outputs(server, report, requests) -> dict:
    """The completion count, modeled metrics, correctness failures and
    output digest of one served repetition.

    Time to first token is rebuilt outside the engine from the public
    cost model (``ExpertServer.router_time``/``expert_time``, keyed by
    each completion's expert and batch); the check that start plus all
    three phases equals finish ties that rebuild to the engine's own
    timestamps.
    """
    engines = workloads.node_engines(server)
    cluster = isinstance(report, ClusterReport)
    fields = attrgetter("request_id", "expert", "batch", "arrival_s",
                        "start_s", "finish_s", "output_tokens")
    ids, names, batches, arrival, start, finish, tokens = zip(
        *map(fields, workloads.completions(server))
    )
    # One cost-model evaluation per distinct (expert, batch) shape.
    shapes: Dict[Tuple[str, int], int] = {}
    shape_of = [shapes.setdefault(key, len(shapes))
                for key in zip(names, batches)]
    ids, batches, arrival, start, finish, tokens = map(
        np.asarray, (ids, batches, arrival, start, finish, tokens)
    )
    cost = engines[0].server
    experts = {r.expert.name: r.expert for r in requests}
    table = np.asarray([
        (cost.router_time(batch=batch, prompt_tokens=workloads.PROMPT_TOKENS),
         *cost.expert_time(experts[name], workloads.OUTPUT_TOKENS,
                           workloads.PROMPT_TOKENS, batch=batch))
        for name, batch in shapes
    ])
    router, prefill, decode = table[shape_of].T

    failures: List[str] = []
    rejected = report.rejected if cluster else 0
    order = np.argsort(ids, kind="stable")
    done_ids = ids[order]
    if np.any(done_ids[1:] == done_ids[:-1]):
        failures.append("duplicate request ids among completions")
    submitted = np.sort([r.request_id for r in requests])
    slot = np.searchsorted(submitted, done_ids).clip(max=len(submitted) - 1)
    if np.any(submitted[slot] != done_ids):
        failures.append("completions carry request ids never submitted")
    if len(ids) + rejected != len(requests):
        failures.append(f"{len(ids)} completed + {rejected} rejected "
                        f"!= {len(requests)} attempted")
    if not (np.all(arrival <= start) and np.all(start <= finish)):
        failures.append("a completion breaks arrival <= start <= finish")
    phase_end = start + router + prefill + decode
    if not np.all(np.abs(phase_end - finish)
                  <= PHASE_SUM_RTOL * np.abs(finish)):
        failures.append("start + router + prefill + decode != finish")

    ttft = start + router + prefill - arrival
    latency = finish - arrival
    # Exact bytes of (request id, start, finish), in request-id order.
    digest = hashlib.sha256(b"".join(
        np.ascontiguousarray(column[order], dtype=dtype).tobytes()
        for column, dtype in ((ids, "<i8"), (start, "<f8"), (finish, "<f8"))
    )).hexdigest()

    stats = [e.server.runtime.stats for e in engines]
    demand = sum(s.requests for s in stats)
    if cluster:
        switch_s = sum(n.switch_s for n in report.nodes)
        hidden_s = sum(n.hidden_switch_s for n in report.nodes)
    else:
        switch_s, hidden_s = report.switch_s, report.hidden_switch_s
    modeled = {
        "model_goodput_tokens_per_s": float(tokens.sum()) / report.makespan_s,
        "model_ttft_p50_s": float(np.percentile(ttft, 50)),
        "model_ttft_p99_s": float(np.percentile(ttft, 99)),
        "model_latency_p50_s": float(np.percentile(latency, 50)),
        "model_latency_p99_s": float(np.percentile(latency, 99)),
        "failed_fraction": (len(requests) - len(ids)) / len(requests),
        "sim.events_run": report.events_run,
        "runtime.demand_hit_rate": (
            sum(s.hits for s in stats) / demand if demand else 0.0
        ),
        "runtime.misses": sum(s.misses for s in stats),
        "runtime.evictions": sum(s.evictions for s in stats),
        "runtime.switch_time_s": sum(s.switch_time_s for s in stats),
        "runtime.tier_demotions": sum(s.tier_demotions for s in stats),
        "runtime.nvme_bytes_written": sum(s.nvme_bytes_written for s in stats),
        "runtime.pipelined_promotions": sum(
            s.pipelined_promotions for s in stats
        ),
        "cluster.steals": report.steals if cluster else 0,
        "cluster.replications": report.replications if cluster else 0,
        "cluster.load_imbalance": report.load_imbalance if cluster else 1.0,
        "cluster.redispatched_groups": (
            report.redispatched_groups if cluster else 0
        ),
        "cluster.recovery_s": report.recovery_s if cluster else 0.0,
        "cluster.availability": report.availability if cluster else 1.0,
        "modeled.queue_wait_mean_s": float(np.mean(start - arrival)),
        "modeled.router_mean_s": float(np.mean(router)),
        "modeled.prefill_mean_s": float(np.mean(prefill)),
        "modeled.decode_mean_s": float(np.mean(decode)),
        "modeled.mean_batch": float(np.mean(batches)),
        "engine.hidden_switch_fraction": (
            hidden_s / switch_s if switch_s > 0 else 0.0
        ),
        "engine.speculative_prefetches": sum(
            e.speculative_prefetches for e in engines
        ),
    }
    return {"completed": len(ids), "modeled": modeled,
            "failures": failures, "digest": digest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    src = Path(__file__).resolve().parents[2] / "src"
    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"repro was imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    print(json.dumps(run_rep(args.workload, args.seed, traced=args.traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
