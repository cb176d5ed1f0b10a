"""The four end-to-end workloads and engine-agnostic views of their results.

Every workload serves a Zipf-1.1 backlog queued at t=0, 256 prompt and
20 output tokens per request, through a public serving entry point
(:func:`repro.coe.api.build_server` or the :class:`ClusterEngine`
constructor, then ``serve``). The requests are generated from the
benchmark's seed (:func:`zipf_requests`); the server only ever sees them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from repro.coe.api import ServeConfig, build_server
from repro.coe.cluster_engine import ClusterEngine
from repro.coe.engine import EngineRequest, ServingEngine
from repro.coe.expert import ExpertLibrary, build_samba_coe_library
from repro.systems.platforms import sn40l_platform

ZIPF_ALPHA = 1.1
PROMPT_TOKENS = 256
OUTPUT_TOKENS = 20

#: Crash instant of ``crash_1of8``, in modeled seconds: about a quarter
#: of ``steal_default``'s modeled makespan (~89 s at 40k requests), so
#: the node dies with most of the backlog still queued.
CRASH_AT_S = 22.3

#: ``memwall_tiered`` tier budgets as fractions of the library working
#: set; DDR is clamped up to the HBM budget (the hierarchy is inclusive),
#: as the CLI's ``--hbm-frac``/``--ddr-frac`` do.
MEMWALL_HBM_FRAC = 0.5
MEMWALL_DDR_FRAC = 0.35


def _steal_default(library: ExpertLibrary):
    return build_server(sn40l_platform, library, ServeConfig(num_nodes=8))


def _crash_1of8(library: ExpertLibrary):
    config = ServeConfig(num_nodes=8, faults=(f"crash:node3:{CRASH_AT_S!r}",))
    return build_server(sn40l_platform, library, config)


def _memwall_tiered(library: ExpertLibrary):
    working_set = sum(e.weight_bytes for e in library.experts)
    biggest = max(e.weight_bytes for e in library.experts)
    hbm = max(int(MEMWALL_HBM_FRAC * working_set), biggest)
    config = ServeConfig(
        policy="fifo",
        cache_policy="lookahead",
        scheduler="expert_reorder",
        pipeline_promotions=True,
        max_batch=4,
        tier_capacities={
            "hbm": hbm,
            "ddr": max(int(MEMWALL_DDR_FRAC * working_set), hbm),
        },
    )
    return build_server(sn40l_platform, library, config)


def _affinity_untraced(library: ExpertLibrary):
    return ClusterEngine(
        sn40l_platform, library, 8,
        policy="affinity", node_policy="affinity", record_timeline=False,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    num_experts: int
    num_requests: int
    #: Library -> a constructed, not yet run, server with ``serve``.
    build: Callable[[ExpertLibrary], object]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("steal_default", 150, 40_000, _steal_default),
        Workload("crash_1of8", 150, 40_000, _crash_1of8),
        Workload("memwall_tiered", 40, 200_000, _memwall_tiered),
        Workload("affinity_untraced", 150, 500_000, _affinity_untraced),
    )
}


def zipf_requests(
    library: ExpertLibrary, num_requests: int, seed: int
) -> List[EngineRequest]:
    """A backlog with Zipf-``ZIPF_ALPHA`` expert shares, in seeded order.

    Rank-``r`` experts (library order) get ``r^-alpha`` of the requests,
    rounded by largest remainder, so every seed serves the same load mix
    and the seed only shuffles the order. Independent Zipf draws move
    hot-expert counts enough to swing the steal workloads' host time
    by about 10% from seed to seed, which would drown the regressions the
    benchmark is meant to catch.
    """
    weights = [(rank + 1) ** -ZIPF_ALPHA for rank in range(len(library))]
    total = sum(weights)
    shares = [num_requests * w / total for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)),
                          key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:num_requests - sum(counts)]:
        counts[i] += 1
    experts = [expert for expert, count in zip(library.experts, counts)
               for _ in range(count)]
    random.Random(seed).shuffle(experts)
    return [
        EngineRequest(request_id=i, expert=expert,
                      prompt_tokens=PROMPT_TOKENS,
                      output_tokens=OUTPUT_TOKENS)
        for i, expert in enumerate(experts)
    ]


def setup(
    name: str, seed: int, num_requests: int = 0
) -> Tuple[object, List[EngineRequest], Dict[str, float]]:
    """Build the library, generate the requests and construct the server.

    Returns the server, the requests and the host seconds of each step
    (``library_s``, ``requests_s``, ``build_s``). ``num_requests`` of 0
    means the workload's own size.
    """
    workload = WORKLOADS[name]
    clock = time.perf_counter
    t0 = clock()
    library = build_samba_coe_library(workload.num_experts)
    t1 = clock()
    requests = zipf_requests(
        library, num_requests or workload.num_requests, seed
    )
    t2 = clock()
    server = workload.build(library)
    t3 = clock()
    return server, requests, {
        "library_s": t1 - t0, "requests_s": t2 - t1, "build_s": t3 - t2,
    }


def node_engines(server) -> List[ServingEngine]:
    """The per-node engines of a served single-node or cluster server."""
    if isinstance(server, ClusterEngine):
        return [node.engine for node in server.nodes]
    return [server]


def completions(server) -> Iterator:
    """Every completion record of a served server, node by node."""
    for engine in node_engines(server):
        yield from engine.completed
