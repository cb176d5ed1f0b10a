"""Golden digests of the steal path: the ``ServeConfig`` default cluster.

The reference drain is the oracle every fast drain is checked against,
so nothing else pins the reference drain's own steal and replication
decisions. These digests do: each covers every request's
``(request_id, start_s, finish_s)`` in request-id order plus the run's
steal, replication and redispatch counts, for a small default-config
cluster (overlap nodes, steal + online replication, traced) with and
without each fault kind. A change that moves one simulated bit, or one
stolen group, changes a digest.
"""

import hashlib

import pytest

from repro.coe.api import ServeConfig, build_server
from repro.coe.engine import zipf_request_stream
from repro.coe.expert import build_samba_coe_library
from repro.systems.platforms import sn40l_platform

NUM_NODES = 4
NUM_EXPERTS = 48
NUM_REQUESTS = 3_000
SEED = 7

#: Fault schedule -> sha256 of the run's completion record. The clean
#: run's modeled makespan is ~11.7 s, so every fault lands mid-run.
GOLDEN = {
    "none": (
        (),
        "47d989bedd1d1842db3002b58941582aecffe298a660ffbc281db22da3fd114e",
    ),
    "slow": (
        ("slow:node1:2.0:4.0:3.0",),
        "95c06fd6d96403a0481bb79a358f7d1c99527270784c920cedddf46a2bc7a9bf",
    ),
    "crash": (
        ("crash:node2:3.0",),
        "517bc03128db2e935170ee60765ed6966e32fc5b151067e97906f34658cee970",
    ),
    "copyfail": (
        ("copyfail:node0:0.5:3",),
        "5d81c782b1964ae4bd003752ad1d7bc941f8739e4c7200fad0c70ee348a865f1",
    ),
}


def run_digest(faults) -> str:
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
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_steal_path_digest(name):
    faults, digest = GOLDEN[name]
    assert run_digest(faults) == digest
