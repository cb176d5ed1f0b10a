"""Golden digests of the tiered-memory decision path.

The equivalence fuzz compares drain modes against each other, and every
drain mode shares the one cache policy, so a change to how
:class:`~repro.coe.cache.LookaheadPolicy` ranks victims would move all of
them together and pass. These digests pin the decisions themselves.
Each covers:

- every completion record, in request-id order;
- the run's :class:`~repro.coe.decisions.DecisionLog`;
- every ``switch``/``promote`` span's (name, start, end, args), which
  carry the eviction victims, their ``evicted_why`` reasons and the DDR
  demotions.

A second digest per setup pins the whole recorded timeline, every lane
and category included (see
:func:`tests.coe.test_steal_golden.timeline_digest`).

Two setups are pinned: the constrained-memory headline on one node
(lookahead eviction + expert reorder + pipelined NVMe promotions at 0.5x
HBM / 0.35x DDR, traced) and a 4-node ``steal`` cluster with lookahead
eviction, where steals mutate a node's queue between two rankings.
"""

import hashlib

import pytest

from repro.coe.api import ServeConfig, build_server
from repro.coe.decisions import DecisionLog
from repro.coe.engine import zipf_request_stream
from repro.coe.expert import build_samba_coe_library
from repro.systems.platforms import sn40l_platform
from tests.coe.test_steal_golden import timeline_digest

SEED = 11


def _caps(library, hbm_frac, ddr_frac):
    working_set = sum(e.weight_bytes for e in library.experts)
    biggest = max(e.weight_bytes for e in library.experts)
    hbm = max(int(hbm_frac * working_set), biggest)
    return {"hbm": hbm, "ddr": max(int(ddr_frac * working_set), hbm)}


def _memwall_config(library):
    return ServeConfig(
        policy="fifo", cache_policy="lookahead", scheduler="expert_reorder",
        pipeline_promotions=True, max_batch=4,
        tier_capacities=_caps(library, 0.5, 0.35),
    )


def _steal_config(library):
    return ServeConfig(
        num_nodes=4, cache_policy="lookahead",
        tier_capacities=_caps(library, 0.1, 0.2),
    )


#: name -> (experts, requests, config builder, report field the setup
#: must exercise, sha256 of the run, sha256 of its whole timeline).
GOLDEN = {
    "memwall_1node": (
        40, 4_000, _memwall_config, "pipelined_promotions",
        "5ca8d9b0a69571d83113235d0c7041307f315f0c9c051a0abca48fd24ea332bf",
        "b163f8dc1143eccfb1607343193eb1d455cb8e797aa56f6dec49478f2ad35a37",
    ),
    "steal_4node": (
        48, 3_000, _steal_config, "steals",
        "007042aa4db64e2a8da4f9758118343d76d680b0f175c25b4f39ced218dabb6c",
        "2f39aa923b71fd0e7fc9b045764ff3222760c8d8302a21d5ee0e583e5a326073",
    ),
}


def _engines(server):
    nodes = getattr(server, "nodes", None)
    if nodes is None:
        return [server]
    return [node.engine for node in nodes]


def run_digest(num_experts, num_requests, make_config):
    library = build_samba_coe_library(num_experts)
    requests = zipf_request_stream(library, num_requests, seed=SEED)
    log = DecisionLog()
    server = build_server(
        sn40l_platform, library, make_config(library), decision_log=log
    )
    report = server.serve(requests)
    records = sorted(
        tuple(c) for engine in _engines(server) for c in engine.completed
    )
    assert len(records) == num_requests
    spans = [
        (s.name, s.start_s, s.end_s, sorted(s.args.items()))
        for s in report.timeline.spans()
        if s.category in ("switch", "promote")
    ]
    assert any(dict(args).get("evicted") for *_, args in spans)
    payload = repr((records, list(log), spans))
    return hashlib.sha256(payload.encode()).hexdigest(), report


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tiered_decision_digest(name):
    (num_experts, num_requests, make_config, exercised, digest,
     spans_digest) = GOLDEN[name]
    got, report = run_digest(num_experts, num_requests, make_config)
    assert getattr(report, exercised) > 0
    assert got == digest
    assert timeline_digest(report.timeline) == spans_digest
