"""Golden digests of the steal path: the ``ServeConfig`` default cluster.

The reference drain is the oracle every fast drain is checked against,
so nothing else pins the reference drain's own steal and replication
decisions. These digests do: each covers every request's
``(request_id, start_s, finish_s)`` in request-id order plus the run's
steal, replication and redispatch counts, for a small default-config
cluster (overlap nodes, steal + online replication, traced) with and
without each fault kind. A change that moves one simulated bit, or one
stolen group, changes a digest.

A second digest per schedule pins the whole recorded timeline (see
:func:`timeline_digest`), so a change to how spans are stored or queried
cannot move one span, one argument or one exported number unseen.
"""

import hashlib
import json

import pytest

from repro.coe.api import ServeConfig, build_server
from repro.coe.engine import zipf_request_stream
from repro.coe.expert import build_samba_coe_library
from repro.obs import to_chrome_events, to_summary
from repro.systems.platforms import sn40l_platform

NUM_NODES = 4
NUM_EXPERTS = 48
NUM_REQUESTS = 3_000
SEED = 7

#: Fault schedule -> (faults, sha256 of the run's completion record,
#: sha256 of its whole timeline). The clean run's modeled makespan is
#: ~11.7 s, so every fault lands mid-run.
GOLDEN = {
    "none": (
        (),
        "47d989bedd1d1842db3002b58941582aecffe298a660ffbc281db22da3fd114e",
        "5a81bf9d2af4d50fa5f61a204f4bdb72f5d1efa2837a6151114ff8ac0973cb42",
    ),
    "slow": (
        ("slow:node1:2.0:4.0:3.0",),
        "95c06fd6d96403a0481bb79a358f7d1c99527270784c920cedddf46a2bc7a9bf",
        "bab4f92b117c0cf33f1e2b21b31371a6e2c5825caf41607836eaed4683a4c7bf",
    ),
    "crash": (
        ("crash:node2:3.0",),
        "517bc03128db2e935170ee60765ed6966e32fc5b151067e97906f34658cee970",
        "c01f52ef8a4940b6c0d8534086f1b9a3eaaf3960e289a353e67e4fbbffacd3ea",
    ),
    "copyfail": (
        ("copyfail:node0:0.5:3",),
        "5d81c782b1964ae4bd003752ad1d7bc941f8739e4c7200fad0c70ee348a865f1",
        "7d24c12b992b04d1aaf4ad8d8d7300dd2a347dcbe9c7116daed36778149ba01d",
    ),
}


def timeline_digest(timeline) -> str:
    """sha256 of every span (name, lane, category, ``float.hex`` start
    and end, sorted args) plus the JSON summary and Chrome events."""
    spans = [
        (s.name, s.lane, s.category, s.start_s.hex(), s.end_s.hex(),
         sorted(s.args.items()))
        for s in timeline.spans()
    ]
    payload = repr((
        spans,
        json.dumps(to_summary(timeline), sort_keys=True),
        json.dumps(to_chrome_events(timeline), sort_keys=True),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


def run_digest(faults):
    library = build_samba_coe_library(NUM_EXPERTS)
    requests = zipf_request_stream(library, NUM_REQUESTS, seed=SEED)
    server = build_server(
        sn40l_platform, library,
        ServeConfig(num_nodes=NUM_NODES, faults=faults),
    )
    report = server.serve(requests)
    records = sorted(
        (c.request_id, c.start_s, c.finish_s)
        for node in server.nodes for c in node.engine.completed
    )
    assert len(records) == NUM_REQUESTS
    payload = repr((records, report.steals, report.replications,
                    report.redispatched_groups))
    return (hashlib.sha256(payload.encode()).hexdigest(),
            timeline_digest(report.timeline))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_steal_path_digest(name):
    faults, digest, spans_digest = GOLDEN[name]
    assert run_digest(faults) == (digest, spans_digest)
